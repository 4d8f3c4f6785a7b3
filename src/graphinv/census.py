"""Cospectral/coinvariant mate counting over graph streams.

A graph's fingerprint for a matrix kind is either its characteristic
polynomial coefficients (spectral mode) or its invariant factors plus
zero count (invariant mode).  Both are exact, so two graphs share a
fingerprint iff they are genuinely cospectral/coinvariant for that
matrix; no hashing, no tolerances.  ``fingerprint`` serialises them to
length-prefixed bytes; a census tallies the integer tuples themselves.

A census buckets a stream of same-order, pairwise non-isomorphic graphs
by fingerprint and counts the graphs lying in buckets of size >= 2, i.e.
the graphs that have at least one mate.  Its invariant buckets are keyed
on the invariant factors alone: every graph in the stream has the same
order n, so the zero count is n less their number.  Isomorphism dedup is
the generator's or ingester's contract, never re-tested here.

``run_census`` computes a characteristic polynomial only where it can
matter, behind a chain of cheaper exact keys of each matrix M.  Serial and
parallel runs share the chain; they differ only in whether graphs are
mapped in this process or on workers.

- K1 is ``(trace M, Σ M_ij², |det M|)``, read in O(n²) during the stream.
  |det M| comes from the Smith form that the same kind's invariant slot
  computes anyway (the product of the factors, or 0 when a factor is
  zero).  A census without that slot skips K1.
- The second key is ``det(M − (4n+1)·I)``, by Bareiss elimination in
  O(n³).  It is taken for the graphs whose K1 another graph shares, or
  during the stream where K1 is skipped.
- The charpoly is taken for the graphs whose second key another graph
  shares.

For a symmetric M with ``p(x) = det(xI − M) = x^n + c1·x^(n-1) + ... +
cn``: ``trace M = -c1``, ``Σ M_ij² = trace M² = c1² - 2·c2``,
``|det M| = |cn|`` and ``det(M − x0·I) = (−1)^n·p(x0)``.  So each key is
a function of the charpoly, cospectral matrices share it, and a graph
whose key no other graph at its level shares has no cospectral mate:
dropping it keeps the report exact.  ``p(x0)`` determines p once x0 is
large enough (Kronecker substitution), and x0 = 4n+1 already leaves just
the graphs with a true spectral mate, for all ten kinds over the
connected graphs with n <= 8.  K1 stays in front because it is cheaper
and, for the four new kinds, no two trees with n <= 14 share it.

Each level counts the keys of the graphs still in the chain, then builds
again only the graphs whose key is shared, to take the next key.  K1
enters the count as its hash, which is just as much a function of the
charpoly: a hash collision only costs work.  It hashes ints only, since
the hash of None, str or bytes can differ between processes, and workers
hash keys that the parent compares.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain
from math import prod
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .exact import SnfResult, charpoly, determinant, snf
from .generators import TREE_MAX_VERTICES, generate_connected_graphs, generate_trees
from .graphs import DistanceProfile, Graph, _require_int, complete_graph, distance_profile
from .matrices import IntMatrix, MatrixKind, build

if TYPE_CHECKING:
    from multiprocessing.pool import Pool as WorkerPool

MODES = ("spectral", "invariant")


def _encode_ints(values: Iterable[int]) -> bytes:
    out = bytearray()
    for v in values:
        blob = v.to_bytes((v.bit_length() + 8) // 8, "big", signed=True)
        out += len(blob).to_bytes(2, "big")
        out += blob
    return bytes(out)


def _coeffs(m: IntMatrix) -> tuple[int, ...]:
    return charpoly(m).coeffs


def _first_key(m: IntMatrix, invariants: SnfResult) -> tuple[int, int, int]:
    """K1 of a symmetric matrix: ``(trace M, Σ M_ij², |det M|)``, with
    |det M| read off M's Smith form ``invariants``."""
    flat = list(chain.from_iterable(m))
    det = 0 if invariants.zeros else prod(invariants.factors)
    return sum(flat[::len(m) + 1]), sum(map(mul, flat, flat)), det


def _shifted_det(m: IntMatrix) -> int:
    """``det(M − (4n+1)·I)``, the chain's second key (module docstring)."""
    x0 = 4 * len(m) + 1
    return determinant([[v - x0 if i == j else v for j, v in enumerate(row)]
                        for i, row in enumerate(m)])


def _stream_values(modes: tuple[str, ...], m: IntMatrix) -> tuple:
    """One built matrix's census values, one per mode: its invariant
    factors, or the first key of the chain that M can take (K1's hash, or
    the second key where there is no Smith form to read |det M| from).  The
    Smith form is computed once and serves both."""
    invariants = snf(m) if "invariant" in modes else None
    return tuple(invariants.factors if mode == "invariant"
                 else _shifted_det(m) if invariants is None else hash(_first_key(m, invariants))
                 for mode in modes)


@dataclass(frozen=True)
class Fingerprint:
    kind: MatrixKind
    mode: str
    payload: bytes


def fingerprint(g: Graph, kind: MatrixKind, mode: str) -> Fingerprint:
    """Deterministic, isomorphism-invariant certificate of g for one
    (matrix kind, mode) pair."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    m = build(g, kind, distance_profile(g))  # the profile rejects disconnected input
    if mode == "spectral":
        values = _coeffs(m)
    else:
        invariants = snf(m)
        values = invariants.factors + (invariants.zeros,)
    return Fingerprint(kind, mode, _encode_ints(values))


@dataclass(frozen=True)
class CensusEntry:
    kind: MatrixKind
    mode: str
    mate_count: int
    total: int

    @property
    def uncertainty(self) -> Fraction:
        return Fraction(self.mate_count, self.total)


@dataclass(frozen=True)
class CensusReport:
    n: int
    total: int
    entries: tuple[CensusEntry, ...]

    def get(self, kind: MatrixKind, mode: str) -> CensusEntry:
        for e in self.entries:
            if e.kind is kind and e.mode == mode:
                return e
        raise KeyError((kind, mode))


BIPARTITE_TWINS = {MatrixKind.AtrPlus: MatrixKind.Atr, MatrixKind.Q: MatrixKind.L}
"""On a bipartite graph, each key kind has the fingerprint of its value.

With S the ±1 diagonal matrix of a 2-colouring, S·AtrPlus·S = Atr and
S·Q·S = L, since conjugating by S negates exactly the adjacency entries.
S is orthogonal and unimodular, so each pair shares its characteristic
polynomial and its Smith normal form.
"""


def _is_bipartite(g: Graph, profile: DistanceProfile) -> bool:
    """Whether the connected graph ``g`` is bipartite: iff no edge joins two
    vertices whose distances from vertex 0 have the same parity."""
    odd = sum(1 << v for v, d in enumerate(profile.dist[0]) if d & 1)
    even = ((1 << g.n) - 1) ^ odd
    return not any(row & (odd if (odd >> u) & 1 else even) for u, row in enumerate(g.adj))


def _values(fn: Callable[[IntMatrix], object], item: tuple[Graph, tuple[MatrixKind, ...]]
            ) -> tuple[Graph, list]:
    """``(g, [fn(build(g, kind)) for kind in kinds])`` for ``item = (g,
    kinds)``, with ``fn`` applied once per matrix built.  On a bipartite
    graph a kind in ``BIPARTITE_TWINS`` is built as its twin."""
    g, kinds = item
    profile = distance_profile(g)  # also rejects disconnected input
    twins = BIPARTITE_TWINS if _is_bipartite(g, profile) else {}
    sources = [twins.get(kind, kind) for kind in kinds]
    values = {source: fn(build(g, source, profile)) for source in dict.fromkeys(sources)}
    return g, [values[source] for source in sources]


def _mapped(pool: WorkerPool | None, fn: Callable[[IntMatrix], object],
            items: Iterable[tuple[Graph, tuple[MatrixKind, ...]]]) -> Iterator[tuple[Graph, list]]:
    """``_values(fn, item)`` per item, computed here or, in any order, on
    the pool's workers."""
    task = partial(_values, fn)
    return map(task, items) if pool is None else pool.imap_unordered(task, items, chunksize=16)


def _workers(kinds: Sequence[MatrixKind], modes: Sequence[str], jobs: int):
    """A pool of ``jobs`` processes, or a null context for ``jobs == 1``,
    once the arguments pass the checks that every census shares: an integer
    worker count of at least 1, known modes and at least one kind and one mode,
    none repeated."""
    _require_int("jobs", jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
    for what, names in (("kind", kinds), ("mode", modes)):
        if not names:
            raise ValueError(f"census needs at least one {what}")
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"{what} {name} given twice")
    if jobs == 1:
        return nullcontext()
    from multiprocessing import Pool  # here, so that a serial run does not import it
    return Pool(jobs)


def run_census(
    graphs: Iterable[Graph],
    kinds: Sequence[MatrixKind],
    modes: Sequence[str] = MODES,
    jobs: int = 1,
) -> CensusReport:
    """Count graphs with a cospectral/coinvariant mate, per kind and mode.

    Raises on a non-integer worker count or one below 1, an empty or
    repeated kind or mode list, an empty stream or mixed orders.  Spectral
    buckets are tallied only among graphs whose keys another graph shares
    (module docstring).
    """
    kinds, modes = tuple(kinds), tuple(modes)
    slots = [(kind, mode) for kind in kinds for mode in modes]
    tallies = [Counter() for _ in slots]
    seen: list[Graph] = []
    # Per spectral slot: the graphs still in the chain and their keys at
    # the current level, in the same order.
    chains = {i: (seen, []) for i, (_, mode) in enumerate(slots) if mode == "spectral"}
    levels = (_shifted_det, _coeffs) if "invariant" in modes else (_coeffs,)
    with _workers(kinds, modes, jobs) as pool:
        for g, values in _mapped(pool, partial(_stream_values, modes), ((h, kinds) for h in graphs)):
            if seen and g.n != seen[0].n:
                raise ValueError("census stream mixes vertex counts")
            seen.append(g)
            for i, value in enumerate(chain.from_iterable(values)):
                if i in chains:
                    chains[i][1].append(value)
                else:
                    tallies[i][value] += 1
        if not seen:
            raise ValueError("census stream is empty")
        for fn in levels:
            # graph -> the slots where another graph shares its key
            wanted: dict[Graph, list[int]] = {}
            for i, (held, keys) in chains.items():
                counts = Counter(keys)
                for h, key in zip(held, keys):
                    if counts[key] > 1:
                        wanted.setdefault(h, []).append(i)
            chains = {i: ([], []) for i in chains}
            items = ((h, tuple(slots[i][0] for i in where)) for h, where in wanted.items())
            for h, values in _mapped(pool, fn, items):
                for i, value in zip(wanted[h], values):
                    chains[i][0].append(h)
                    chains[i][1].append(value)
    for i, (_, keys) in chains.items():
        tallies[i].update(keys)
    mates = {slot: sum(c for c in tally.values() if c >= 2) for slot, tally in zip(slots, tallies)}
    entries = tuple(CensusEntry(kind, mode, mates[(kind, mode)], len(seen))
                    for kind in MatrixKind for mode in MODES if (kind, mode) in mates)
    return CensusReport(g.n, len(seen), entries)


def tree_census(
    n: int,
    kinds: Sequence[MatrixKind],
    modes: Sequence[str] = MODES,
    jobs: int = 1,
) -> CensusReport:
    """Census over all free trees on n vertices (2 <= n <= 16)."""
    _require_int("n", n)
    if not 2 <= n <= TREE_MAX_VERTICES:
        raise ValueError(f"tree census supports 2 <= n <= {TREE_MAX_VERTICES}")
    return run_census(generate_trees(n), kinds, modes, jobs)


def completeness_check(n: int, kind: MatrixKind) -> bool:
    """True iff the complete graph's invariant fingerprint occurs exactly
    once in the full connected-graph corpus on n vertices (n <= 8)."""
    target = fingerprint(complete_graph(n), kind, "invariant")
    return sum(fingerprint(g, kind, "invariant") == target for g in generate_connected_graphs(n)) == 1


def report_tsv(report: CensusReport) -> str:
    """Render a census as TSV, one row per (kind, mode), spectral first."""
    lines = ["n\tmatrix\tmode\tmate_count\ttotal\tuncertainty_decimal\tuncertainty_rational"]
    for e in report.entries:
        u = e.uncertainty
        lines.append(
            f"{report.n}\t{e.kind.value}\t{e.mode}\t{e.mate_count}\t{e.total}"
            f"\t{float(u):.6f}\t{u.numerator}/{u.denominator}"
        )
    return "\n".join(lines) + "\n"
