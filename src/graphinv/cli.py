"""Command-line front end.

Subcommands:

    gen       emit built-in corpora (connected graphs or trees) as graph6
    census    mate counts over a corpus, TSV to stdout
    trees     mate counts over all trees of one order, TSV to stdout
    snf       Smith normal form diagonal of one matrix kind per input graph
    spectrum  eigenvalues (or exact characteristic polynomial) per graph
    sandpile  sandpile group of the cone over each input graph
    verify    run property suites, nonzero exit on any failure

Reports go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 computation or verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from typing import Callable, Iterator, TypeVar

from . import verify
from .census import MAX_JOBS, MODES, report_tsv, run_census, tree_census
from .exact import charpoly, snf
from .generators import (CONNECTED_MAX_VERTICES, TREE_MAX_VERTICES, canonical_key,
                         generate_connected_graphs, generate_trees)
from .graphs import Graph, iter_graph6, write_graph6
from .matrices import MatrixKind, build
from .sandpile import sandpile_group
from .spectra import eigenvalues_symmetric

CLI_KINDS = tuple(k.value for k in MatrixKind)

T = TypeVar("T")


def _parse_names(spec: str, allowed: tuple[str, ...], what: str,
                 parser: argparse.ArgumentParser) -> list[str]:
    """Split a comma list, exiting with a usage error on a name not in
    ``allowed`` or a name given twice."""
    names = [name.strip() for name in spec.split(",")]
    for i, name in enumerate(names):
        if name not in allowed:
            parser.error(f"unknown {what} {name!r}; choose from {', '.join(allowed)}")
        if name in names[:i]:
            parser.error(f"{what} {name!r} given twice")
    return names


def _records(path: str, fn: Callable[[int, Graph], T]) -> Iterator[T]:
    """Yield ``fn(line, g)`` for each record of a graph6 file ('-' for
    stdin) as it is read; a ValueError from parsing or from ``fn`` is
    raised again naming the record as ``path:line``."""
    if path == "-":
        source = nullcontext(sys.stdin)
    else:
        # surrogateescape lets a non-ASCII byte reach parse_graph6, which
        # rejects it at its offset within the record.
        source = open(path, "r", encoding="ascii", errors="surrogateescape")
    with source as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                values = [fn(lineno, g) for g in iter_graph6((line,))]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            yield from values


def _census_input(path: str, n: int | None) -> Iterator[Graph]:
    """The graphs of a census input file, each yielded once it meets the
    census contract: one vertex count (``n`` if given), connected, and no
    record repeated exactly or up to isomorphism.  The first fault in file
    order raises, and so does a file with no record, at its end.

    A record's canonical key is taken only once another record has its
    sorted degree sequence, since isomorphic graphs share that sequence;
    the first record with a sequence is keyed when the second arrives."""
    # sorted degree sequence -> the first record with it, (line, graph),
    # until a second record shares it and the first is keyed; then None
    unkeyed: dict[tuple[int, ...], tuple[int, Graph] | None] = {}
    # canonical key -> the first keyed record with it
    keyed: dict[tuple[int, int], tuple[int, Graph]] = {}

    def check(lineno: int, g: Graph) -> Graph:
        nonlocal n
        n = n or g.n
        if g.n != n:
            raise ValueError(f"graph on {g.n} vertices, expected {n}")
        if not g.is_connected():
            raise ValueError("graph not connected")
        record = (lineno, g)
        degrees = tuple(sorted(g.degree_sequence()))
        held = unkeyed.setdefault(degrees, record)
        if held is record:
            return g
        if held is not None:
            keyed[canonical_key(held[1])] = held
            unkeyed[degrees] = None
        first, earlier = keyed.setdefault(canonical_key(g), record)
        if first != lineno:
            raise ValueError(f"{'duplicate of' if g == earlier else 'isomorphic to'} line {first}")
        return g

    yield from _records(path, check)
    if not unkeyed:
        raise ValueError(f"{path}: no graph6 records")


def _print_per_record(path: str, line_of: Callable[[Graph], str]) -> None:
    """Print ``line_of(g)`` for each record of ``path``, only once every
    record has succeeded, so a failure leaves no partial output."""
    sys.stdout.write("".join(_records(path, lambda _, g: line_of(g) + "\n")))


def _census_options(args, parser) -> tuple[list[MatrixKind], list[str]]:
    """The kinds and modes of a census command, once ``--jobs``,
    ``--matrices`` and ``--modes`` pass their usage checks."""
    if args.jobs < 1:
        parser.error(f"--jobs needs N >= 1, got {args.jobs}")
    if args.jobs > MAX_JOBS:
        parser.error(f"--jobs needs N <= {MAX_JOBS}, got {args.jobs}")
    kinds = [MatrixKind[k] for k in _parse_names(args.matrices, CLI_KINDS, "matrix kind", parser)]
    return kinds, _parse_names(args.modes, MODES, "mode", parser)


def _require_n(parser, n: int, low: int, high: int, what: str) -> None:
    """Exit with a usage error unless ``low <= n <= high``."""
    if not low <= n <= high:
        parser.error(f"--n needs {low} <= N <= {high} for {what}, got {n}")


def _cmd_gen(args, parser) -> int:
    what, high, generate = (("trees", TREE_MAX_VERTICES, generate_trees) if args.trees else
                            ("connected graphs", CONNECTED_MAX_VERTICES, generate_connected_graphs))
    _require_n(parser, args.n, 1, high, what)
    for g in generate(args.n):
        print(write_graph6(g))
    return 0


def _cmd_census(args, parser) -> int:
    kinds, modes = _census_options(args, parser)
    if args.n is not None and args.n < 1:
        parser.error(f"--n needs N >= 1, got {args.n}")
    if args.input:
        graphs = _census_input(args.input, args.n)
    elif args.n:
        _require_n(parser, args.n, 1, CONNECTED_MAX_VERTICES, "the built-in corpus")
        graphs = generate_connected_graphs(args.n)
    else:
        parser.error("census needs --n (built-in corpus) or --input FILE.g6")
    report = run_census(graphs, kinds, modes, jobs=args.jobs)
    sys.stdout.write(report_tsv(report))
    return 0


def _cmd_trees(args, parser) -> int:
    kinds, modes = _census_options(args, parser)
    _require_n(parser, args.n, 2, TREE_MAX_VERTICES, "a tree census")
    report = tree_census(args.n, kinds, modes, jobs=args.jobs)
    sys.stdout.write(report_tsv(report))
    return 0


def _cmd_snf(args, parser) -> int:
    kind = MatrixKind[args.matrix]
    _print_per_record(args.input, lambda g: " ".join(map(str, snf(build(g, kind)).diagonal())))
    return 0


def _cmd_spectrum(args, parser) -> int:
    kind = MatrixKind[args.matrix]

    def line_of(g: Graph) -> str:
        m = build(g, kind)
        if args.exact:
            return " ".join(str(c) for c in charpoly(m).coeffs)
        return " ".join(f"{x:.10g}" for x in eigenvalues_symmetric(m).eigenvalues)

    _print_per_record(args.input, line_of)
    return 0


def _cmd_sandpile(args, parser) -> int:
    def line_of(g: Graph) -> str:
        group, tau = sandpile_group(g)
        return f"{group}, tau={tau}"

    _print_per_record(args.input, line_of)
    return 0


def _cmd_verify(args, parser) -> int:
    names = [args.suite] if args.suite else list(verify.N_MAX_RANGE)
    try:
        for name in names:
            verify.require_n_max(name, args.n_max)
    except ValueError as exc:
        parser.error(str(exc))
    failed = False
    for name, (objects, checks, failures) in verify.run(names, args.n_max).items():
        print(f"{name}: {objects} objects, {checks} checks", file=sys.stderr)
        if failures:
            failed = True
            print(f"FAIL {name}: {len(failures)} failures")
            for line in failures[:20]:
                print(f"  {line}", file=sys.stderr)
        else:
            print(f"ok {name} (n <= {args.n_max})")
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphinv",
        description="Exact graph invariants: Smith normal forms, spectra, censuses, sandpile groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a built-in corpus as graph6 lines")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--trees", action="store_true", help="generate trees instead of connected graphs")
    p.set_defaults(func=_cmd_gen)

    # --matrices, --modes and --jobs, shared by census and trees
    census_options = argparse.ArgumentParser(add_help=False)
    census_options.add_argument("--matrices", required=True, help="comma-separated matrix kinds")
    census_options.add_argument("--modes", default="spectral,invariant", help="comma-separated modes")
    census_options.add_argument("--jobs", type=int, default=min(os.cpu_count() or 1, MAX_JOBS),
                                 help=f"worker pool width, 1..{MAX_JOBS}")

    p = sub.add_parser("census", parents=[census_options], help="mate counts over connected graphs")
    p.add_argument("--n", type=int, help="vertex count for the built-in corpus")
    p.add_argument("--input", help="graph6 file ('-' for stdin) instead of the built-in corpus")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("trees", parents=[census_options], help="mate counts over all trees of one order")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_trees)

    p = sub.add_parser("snf", help="invariant factor diagonal per input graph")
    p.add_argument("--input", required=True)
    p.add_argument("--matrix", required=True, choices=CLI_KINDS)
    p.set_defaults(func=_cmd_snf)

    p = sub.add_parser("spectrum", help="eigenvalues or exact charpoly per input graph")
    p.add_argument("--input", required=True)
    p.add_argument("--matrix", required=True, choices=CLI_KINDS)
    p.add_argument("--exact", action="store_true", help="print characteristic polynomial coefficients")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("sandpile", help="sandpile group of the cone over each input graph")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_sandpile)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("--suite", choices=sorted(verify.N_MAX_RANGE), help="run one suite (default: all)")
    p.add_argument("--n-max", type=int, default=6, dest="n_max")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except BrokenPipeError:
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
