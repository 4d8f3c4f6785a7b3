"""Cospectral/coinvariant mate counting over graph streams.

A graph's fingerprint for a matrix kind is either its characteristic
polynomial coefficients (spectral mode) or its invariant factors plus
zero count (invariant mode).  Both are exact, so two graphs share a
fingerprint iff they are genuinely cospectral/coinvariant for that
matrix; no hashing, no tolerances.  A census tallies the integer tuples
themselves.

A census buckets a stream of same-order, pairwise non-isomorphic graphs
by fingerprint and counts the graphs lying in buckets of size >= 2, i.e.
the graphs that have at least one mate.  Its invariant buckets are keyed
on the invariant factors alone: every graph in the stream has the same
order n, so the zero count is n less their number.  Isomorphism dedup is
the generator's or ingester's contract, never re-tested here.

``run_census`` takes each fingerprint only where it can matter, behind a
chain of cheaper exact keys of each matrix M, one chain per mode:

- invariant: d → the Smith form's invariant factors;
- spectral: K1 → ``det(M − (4n+1)·I)`` → the charpoly coefficients.

The first key of each chain is taken during the stream; each later key
only for the graphs whose key at the level before another graph shares.
Serial and parallel runs share the chain; they differ only in whether
graphs are mapped in this process or on workers.

- d is read by ``exact``'s determinant on the upper triangle: a straight-line
  kernel for n <= 8 with a nonzero first entry, else one step kernel per
  Bareiss step up to order 16 and one row kernel per row above, with a zero
  pivot mended by adding or subtracting a later row and column.  For
  L = deg − A and DL = tr − D it is κ, the determinant of the leading (n−1)
  principal block: their rows sum to 0, so |det M| is 0 on every connected
  graph, and every cofactor is κ.  For every other kind d is |det M|.
- K1 is ``(trace M, Σ M_ij², d)``, read in O(n²), with d the value the
  same kind's invariant slot takes.  A census without an invariant mode
  skips K1.
- The second key is ``det(M − (4n+1)·I)``, by Bareiss elimination in
  O(n³), on M's flattened entries with the shift taken on the diagonal.
  It is taken during the stream where K1 is skipped.

d is a function of the Smith form: the product of the factors, or 0 when
a factor is zero, and for L and DL (rank n−1 on a connected graph) the
product of the nonzero factors, which is the gcd of the (n−1)-minors, |κ|.
So a graph alone with its d has no coinvariant mate.

For a symmetric M with ``p(x) = det(xI − M) = x^n + c1·x^(n-1) + ... +
cn``: ``trace M = -c1``, ``Σ M_ij² = trace M² = c1² - 2·c2``,
``|det M| = |cn|``, ``κ = |c(n-1)|/n`` for L and DL on a connected graph
(the sum of the n principal cofactors) and ``det(M − x0·I) =
(−1)^n·p(x0)``.  So each spectral key is a function of the charpoly,
cospectral matrices share it, and a graph whose key no other graph at its
level shares has no cospectral mate: dropping it keeps the report exact.
``p(x0)`` determines p once x0 is large enough (Kronecker substitution),
and x0 = 4n+1 already leaves just the graphs with a true spectral mate,
for all ten kinds over the connected graphs with n <= 8.  K1 stays in
front because it is cheaper and, for the four new kinds, no two trees
with n <= 14 share it.

d's rule goes by the kind built, never by testing a matrix's row sums.
K_n's ``Ddeg`` equals L(K_n), so a row-sum test would key it by κ, while a
cospectral ``Ddeg`` whose rows do not sum to 0 would key 0: the two would
part, and a mate would be lost.  On a bipartite graph Q is built as L and
keyed by L's rule.  That is still a function of Q's charpoly: there Q and
L are cospectral, and a bipartite Q is never cospectral with a
non-bipartite one (only the former has eigenvalue 0).

Each level counts the keys of the graphs still in the chain, then builds
again only the graphs whose key is shared, once per graph for all the
slots that want it, to take the next key.  A build, in the stream or in
a level rebuild, takes a distance profile only where a wanted kind reads
it: a kind whose recipe reads transmissions or distances, or a bipartite
twin's key, whose parity test reads one.  A graph wanted only for A or L
is checked for connectivity by ``Graph.is_connected`` instead.

K1 enters the count as its hash, which is just as much a function of the
charpoly: a hash collision only costs work.  It hashes ints only, since
the hash of None, str or bytes can differ between processes, and workers
hash keys that the parent compares.  For the same reason no value a
worker hashes for the parent may contain a kind: ``MatrixKind`` hashes by
identity.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, repeat
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .exact import _determinant, charpoly, snf
from .generators import TREE_MAX_VERTICES, generate_connected_graphs, generate_trees
from .graphs import DistanceProfile, Graph, _require_int, complete_graph, distance_profile
from .matrices import RECIPES, IntMatrix, MatrixKind, build_kinds

if TYPE_CHECKING:
    from multiprocessing.pool import Pool as WorkerPool

MODES = ("spectral", "invariant")


# The kinds whose diagonal is the row sums of the negated off-diagonal part,
# L = deg - A and DL = tr - D: d is κ for them (module docstring).
_ROW_SUM_KINDS = tuple(kind for kind, recipe in RECIPES.items()
                       if recipe in (("deg", -1, "A"), ("tr", -1, "D")))


def _det_key(kind: MatrixKind, m: IntMatrix) -> int:
    """d of a matrix M of ``kind``, the first key of its invariant chain:
    κ, the determinant of M's leading (n−1) principal block, for a kind in
    _ROW_SUM_KINDS, and |det M| for any other (module docstring)."""
    n = len(m)
    if kind in _ROW_SUM_KINDS:
        n -= 1
        m = [row[:n] for row in m[:n]]
    return abs(_determinant(n, list(chain.from_iterable(m))))


def _first_key(m: IntMatrix, d: int) -> tuple[int, int, int]:
    """K1 of a symmetric matrix M: ``(trace M, Σ M_ij², d)``, with d M's
    ``_det_key``."""
    flat = list(chain.from_iterable(m))
    return sum(flat[::len(m) + 1]), sum(map(mul, flat, flat)), d


def _shifted_det(kind: MatrixKind, m: IntMatrix) -> int:
    """``det(M − (4n+1)·I)``, the spectral chain's second key (module
    docstring), with the shift taken on the diagonal of M's flattened
    entries."""
    n = len(m)
    x0 = 4 * n + 1
    entries = list(chain.from_iterable(m))
    entries[::n + 1] = [v - x0 for v in entries[::n + 1]]
    return _determinant(n, entries)


def _factors(kind: MatrixKind, m: IntMatrix) -> tuple[int, ...]:
    return snf(m).factors


def _coeffs(kind: MatrixKind, m: IntMatrix) -> tuple[int, ...]:
    return charpoly(m).coeffs


def _stream_values(modes: tuple[str, ...], kind: MatrixKind, m: IntMatrix) -> tuple:
    """One built matrix's census values, one per mode: the first key of
    each chain.  An invariant slot takes d, and a spectral slot K1's hash,
    built on the same d, or the second key in a census with no invariant
    mode."""
    if "invariant" not in modes:
        return (_shifted_det(kind, m),)
    d = _det_key(kind, m)
    return tuple(d if mode == "invariant" else hash(_first_key(m, d)) for mode in modes)


def _level_key(level: dict[str, Callable[[MatrixKind, IntMatrix], object]], mode: str,
               kind: MatrixKind, m: IntMatrix) -> object:
    """One built matrix's key for ``mode`` at a chain ``level`` (mode ->
    key function)."""
    return level[mode](kind, m)


# The chain's levels after the stream (module docstring): with an invariant
# mode, and spectral only.
_LEVELS = ({"invariant": _factors, "spectral": _shifted_det}, {"spectral": _coeffs})
_SPECTRAL_LEVELS = ({"spectral": _coeffs},)


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


# The kinds for which ``_values`` takes a distance profile: those whose
# recipe reads transmissions or distances, and the bipartite twins' keys,
# whose parity test reads the profile.
_PROFILE_KINDS = frozenset(kind for kind, (diagonal, _, off) in RECIPES.items()
                           if diagonal == "tr" or off == "D").union(BIPARTITE_TWINS)


def _is_bipartite(g: Graph, profile: DistanceProfile) -> bool:
    """Whether the connected graph ``g`` is bipartite: iff no edge joins two
    vertices whose distances from vertex 0 have the same parity."""
    odd = sum(1 << v for v, d in enumerate(profile.dist[0]) if d & 1)
    even = ((1 << g.n) - 1) ^ odd
    return not any(row & (odd if (odd >> u) & 1 else even) for u, row in enumerate(g.adj))


# What a census asks of one graph: pairs of a kind and an argument for the
# value function (the modes of the stream, or a level's one mode).
_Wants = Sequence[tuple[MatrixKind, object]]
# A slot, a kind and a mode, is a want at a chain level and keys its chain.
_Slot = tuple[MatrixKind, str]
_ValueFn = Callable[[object, MatrixKind, IntMatrix], object]


def _values(fn: _ValueFn, item: tuple[Graph, _Wants]) -> tuple[Graph, list]:
    """``(g, [fn(arg, kind, build(g, kind)) for kind, arg in wants])`` for
    ``item = (g, wants)``, with each kind built once and ``fn`` applied
    once per kind and argument.  On a bipartite graph a kind in
    ``BIPARTITE_TWINS`` is built as its twin, and ``fn`` gets the twin as
    the kind.  A distance profile is taken only if a wanted kind reads
    one; a disconnected graph is rejected either way."""
    g, wants = item
    if _PROFILE_KINDS.isdisjoint(kind for kind, _ in wants):
        profile = None
        if not g.is_connected():
            raise ValueError("graph not connected")
    else:
        profile = distance_profile(g)  # also rejects disconnected input
        if _is_bipartite(g, profile):
            wants = [(BIPARTITE_TWINS.get(kind, kind), arg) for kind, arg in wants]
    sources = list(dict.fromkeys(kind for kind, _ in wants))
    matrices = dict(zip(sources, build_kinds(g, sources, profile)))
    values = {(kind, arg): fn(arg, kind, matrices[kind]) for kind, arg in dict.fromkeys(wants)}
    return g, [values[want] for want in wants]


def _mapped(pool: WorkerPool | None, fn: _ValueFn,
            items: Iterable[tuple[Graph, _Wants]]) -> Iterator[tuple[Graph, list]]:
    """``_values(fn, item)`` per item, computed here or, in any order, on
    the pool's workers."""
    task = partial(_values, fn)
    return map(task, items) if pool is None else pool.imap_unordered(task, items, chunksize=16)


def _level_keys(pool: WorkerPool | None, level: dict[str, Callable],
                wanted: dict[Graph, list[_Slot]]) -> Iterator[tuple[Graph, _Slot, object]]:
    """``(graph, slot, key)`` for each graph in ``wanted`` and each of its
    slots, with the key taken at chain ``level``.  Each graph is built once
    for all its slots, and each key taken once per kind built and mode."""
    for h, keys in _mapped(pool, partial(_level_key, level), wanted.items()):
        yield from zip(repeat(h), wanted[h], keys)


def _workers(kinds: Sequence[MatrixKind], modes: Sequence[str], jobs: int):
    """A pool of ``jobs`` processes, or a null context for ``jobs == 1``,
    once the arguments pass the checks that every census shares: an integer
    worker count of at least 1, known kinds and modes and at least one kind
    and one mode, none repeated."""
    _require_int("jobs", jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for kind in kinds:
        if not isinstance(kind, MatrixKind):
            raise ValueError(f"unknown matrix kind {kind!r}")
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

    Raises on a non-integer worker count or one below 1, an unknown, empty
    or repeated kind or mode list, an empty stream or mixed orders.  Each
    slot's buckets are tallied only among graphs whose keys another graph
    shares (module docstring).
    """
    kinds, modes = tuple(kinds), tuple(modes)
    with _workers(kinds, modes, jobs) as pool:
        wants = tuple((kind, modes) for kind in kinds)
        seen: list[Graph] = []
        # Per slot: the graphs still in its chain and their keys at the
        # current level, in the same order.
        chains = {(kind, mode): (seen, []) for kind in kinds for mode in modes}
        for g, values in _mapped(pool, _stream_values, ((h, wants) for h in graphs)):
            if seen and g.n != seen[0].n:
                raise ValueError("census stream mixes vertex counts")
            seen.append(g)
            for (_, keys), value in zip(chains.values(), chain.from_iterable(values)):
                keys.append(value)
        if not seen:
            raise ValueError("census stream is empty")
        for level in _LEVELS if "invariant" in modes else _SPECTRAL_LEVELS:
            # graph -> its slots at this level where another graph shares its key
            wanted: dict[Graph, list[_Slot]] = {}
            for slot, (held, keys) in chains.items():
                if slot[1] in level:
                    counts = Counter(keys)
                    for h, key in zip(held, keys):
                        if counts[key] > 1:
                            wanted.setdefault(h, []).append(slot)
                    chains[slot] = ([], [])
            for h, slot, key in _level_keys(pool, level, wanted):
                chains[slot][0].append(h)
                chains[slot][1].append(key)
    mates = {slot: sum(c for c in Counter(keys).values() if c >= 2) for slot, (_, keys) in chains.items()}
    entries = tuple(CensusEntry(kind, mode, mates[kind, mode], len(seen))
                    for kind in MatrixKind for mode in MODES if (kind, mode) in mates)
    return CensusReport(seen[0].n, len(seen), entries)


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


def completeness_check(n: int, kinds: Sequence[MatrixKind]) -> tuple[bool, ...]:
    """One bool per kind in ``kinds``, in that order: True iff the complete
    graph is the only connected graph on n vertices (1 <= n <= 8) with its
    Smith normal form for that kind.  It runs the census's invariant
    chain: every graph's d for each kind, then the Smith form only of the
    graphs whose d equals the complete graph's, one distance profile per
    graph at each step where a kind reads one."""
    _require_int("n", n)
    kinds = tuple(kinds)
    _workers(kinds, MODES, 1)  # the census's checks on the kind list; serial, so no pool
    slots = [(kind, "invariant") for kind in kinds]
    k_n = complete_graph(n)
    # graph -> its slots where each key so far equals the complete graph's
    matching = dict.fromkeys(generate_connected_graphs(n), slots)
    for level in ({"invariant": _det_key}, _LEVELS[0]):
        target = {slot: key for _, slot, key in _level_keys(None, level, {k_n: slots})}
        wanted: dict[Graph, list[_Slot]] = {}
        for g, slot, key in _level_keys(None, level, matching):
            if key == target[slot]:
                wanted.setdefault(g, []).append(slot)
        matching = wanted
    counts = Counter(chain.from_iterable(matching.values()))
    return tuple(counts[slot] == 1 for slot in slots)


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
