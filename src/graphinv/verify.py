"""Property suites behind ``graphinv verify``.

``run`` is the one entry point: the CLI and the acceptance tests call it.
It sweeps each named suite over every object up to ``n_max`` and returns a
``SuiteResult`` per suite: how many objects it checked (graphs, or
closed-form cases), how many individual checks it evaluated, and one line
per failed check.

    bounds        extreme-eigenvalue, lambda_1, Weyl and conductance bounds
                  on the connected graphs with 2 <= n <= n_max
    closed-forms  closed-form SNFs of complete graphs (2 <= n <= n_max) and
                  stars (1 <= m <= n_max) against direct SNFs; the SNF and
                  determinant of the distance matrix of every tree with
                  2 <= n <= min(n_max, 12); ``closedforms.EXAMPLES`` up to
                  n_max; and ``check_shift_lemmas``, where a record that does
                  not apply fails, on K_n (n <= 8), C_n (3 <= n <= 12) and,
                  once n_max >= 10, the Petersen graph
    sandpile      cone cross-check on the non-complete connected graphs
                  with 2 <= n <= n_max
    moments       exact trace identities for the first three powers of Atr
                  on the connected graphs with 1 <= n <= n_max
"""

from __future__ import annotations

from typing import NamedTuple

from . import closedforms
from .exact import determinant, snf
from .generators import CONNECTED_MAX_VERTICES, generate_connected_graphs, generate_trees
from .graphs import (MAX_VERTICES, _require_int, complete_graph, cycle_graph, petersen_graph, star_graph,
                     write_graph6)
from .matrices import MatrixKind, build
from .sandpile import cone_graph, cross_check, sandpile_group
from .spectra import (
    THIRD_MOMENT_EXPANSION,
    GraphSpectra,
    check_conductance_bracket,
    check_extreme_bounds,
    check_lambda1_bracket,
    check_moments,
    check_shift_lemmas,
    check_weyl_sandwich,
)


class SuiteResult(NamedTuple):
    objects: int
    checks: int
    failures: list[str]


def _bounds(ctx: GraphSpectra) -> tuple[int, list[str]] | None:
    if ctx.g.n < 2:
        return None
    records = [c for check in (check_extreme_bounds, check_lambda1_bracket,
                               check_weyl_sandwich, check_conductance_bracket)
               for c in check(ctx).checks]
    return len(records), [f"n={ctx.g.n} {write_graph6(ctx.g)}: {c.name} "
                          f"left={c.left!r} right={c.right!r}" for c in records if not c.holds]


def _sandpile(ctx: GraphSpectra) -> tuple[int, list[str]] | None:
    if ctx.g.is_complete():
        return None
    return 1, [] if cross_check(ctx) else [f"cone cross-check failed: {write_graph6(ctx.g)}"]


def _moments(ctx: GraphSpectra) -> tuple[int, list[str]] | None:
    report = check_moments(ctx)
    records = (*report.checks[:2], report.by_name(THIRD_MOMENT_EXPANSION))
    return len(records), [f"{write_graph6(ctx.g)}: {c.name} left={c.left} right={c.right}"
                          for c in records if not c.holds]


_GRAPH_SUITES = {"bounds": _bounds, "sandpile": _sandpile, "moments": _moments}


def run(names: list[str], n_max: int) -> dict[str, SuiteResult]:
    """Each named suite's result up to ``n_max``, in the given order.  The
    names (at least one, none twice) and ``n_max`` are checked before any
    work.  The graph suites then share one walk over the connected graphs
    with 1 <= n <= n_max and one ``GraphSpectra`` per graph; a suite
    returns None for a graph it skips.  closed-forms walks its own objects."""
    if not names:
        raise ValueError("verify needs at least one suite")
    for i, name in enumerate(names):
        require_n_max(name, n_max)
        if name in names[:i]:
            raise ValueError(f"suite {name} given twice")
    results = {name: SuiteResult(0, 0, []) for name in names if name in _GRAPH_SUITES}
    # closed-forms alone walks no graph: its n_max may exceed the generators'
    for n in range(1, n_max + 1 if results else 1):
        for g in generate_connected_graphs(n):
            ctx = GraphSpectra(g)
            for name in results:
                got = _GRAPH_SUITES[name](ctx)
                if got is not None:
                    objects, checks, failures = results[name]
                    failures += got[1]
                    results[name] = SuiteResult(objects + 1, checks + got[0], failures)
    return {name: _closed_forms(n_max) if name == "closed-forms" else results[name] for name in names}


def _example(g, want: str):
    """What ``want``, a key of a ``closedforms.EXAMPLES`` entry, reads of g."""
    if want == "sandpile":
        return sandpile_group(g)
    return snf(cone_graph(g).laplacian() if want == "cone" else build(g, MatrixKind[want])).diagonal()


def _closed_forms(n_max: int) -> SuiteResult:
    def compare(label, got, want):  # one check, as (holds, failure line)
        return got == want, f"{label}: {got} != {want}"

    def shifts(label, g):  # a record that is not applicable fails
        return [(c.applicable and c.holds, f"shift {label}: {c.name} deviation {c.left}")
                for c in check_shift_lemmas(GraphSpectra(g)).checks]

    objects = []  # per object, its checks
    for n in range(2, n_max + 1):
        kn = complete_graph(n)
        objects.append([compare(f"complete n={n} kind={kind.value}", snf(build(kn, kind)),
                                closedforms.snf_complete(kind, n))
                        for kind in closedforms.MINUS_FAMILY + closedforms.PLUS_FAMILY]
                       + (shifts(f"complete n={n}", kn) if n <= 8 else []))
    for m in range(1, n_max + 1):
        star = star_graph(m)
        objects.append([compare(f"star m={m} kind={kind.value}", snf(build(star, kind)),
                                closedforms.snf_star(kind, m))
                        for kind in closedforms.STAR_FAMILY])
    for n in range(2, min(n_max, 12) + 1):
        want_snf, want_det = closedforms.snf_tree_distance(n), closedforms.det_tree_distance(n)
        for t in generate_trees(n):
            d, g6 = build(t, MatrixKind.D), write_graph6(t)
            objects.append([(snf(d) == want_snf, f"tree distance SNF n={n}: {g6}"),
                            (determinant(d) == want_det, f"tree distance det n={n}: {g6}")])
    objects += [shifts(f"cycle n={n}", cycle_graph(n)) for n in range(3, min(n_max, 12) + 1)]
    if n_max >= 10:
        objects.append(shifts("petersen", petersen_graph()))
    objects += [[compare(f"{name} {want}", _example(g, want), value) for want, value in wants.items()]
                for name, g, wants in closedforms.EXAMPLES if g.n <= n_max]
    checks = [check for object_checks in objects for check in object_checks]
    return SuiteResult(len(objects), len(checks), [line for holds, line in checks if not holds])


# The suites, in the order ``graphinv verify`` runs them, each with its
# inclusive n_max range: below it the suite checks nothing (the
# only graph with n = 2 is complete, and sandpile skips complete graphs);
# above it the built-in generators, or the largest star, cannot reach.
N_MAX_RANGE = {
    "bounds": (2, CONNECTED_MAX_VERTICES),
    "closed-forms": (1, MAX_VERTICES - 1),
    "sandpile": (3, CONNECTED_MAX_VERTICES),
    "moments": (1, CONNECTED_MAX_VERTICES),
}


def require_n_max(name: str, n_max: int) -> None:
    """Raise ValueError unless ``name`` is a suite and accepts ``n_max``."""
    if name not in N_MAX_RANGE:
        raise ValueError(f"unknown suite {name!r}; suites are {', '.join(N_MAX_RANGE)}")
    _require_int("n_max", n_max)
    lo, hi = N_MAX_RANGE[name]
    if not lo <= n_max <= hi:
        raise ValueError(f"suite {name} supports {lo} <= n_max <= {hi}, got {n_max}")
