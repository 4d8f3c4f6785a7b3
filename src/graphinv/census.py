"""Cospectral/coinvariant mate counting over graph streams.

A graph's fingerprint for a matrix kind is either its characteristic
polynomial coefficients (spectral mode) or its invariant factors plus
zero count (invariant mode), serialised to length-prefixed bytes.  Both
are exact, so two graphs share a fingerprint iff they are genuinely
cospectral/coinvariant for that matrix; no hashing, no tolerances.

A census buckets a stream of same-order, pairwise non-isomorphic graphs
by fingerprint and counts the graphs lying in buckets of size >= 2, i.e.
the graphs that have at least one mate.  Isomorphism dedup is the
generator's or ingester's contract, never re-tested here.

``run_census`` computes a characteristic polynomial only where it can
matter, behind a chain of two cheaper exact keys of each matrix M:

- K1 is ``(trace M, Σ M_ij², |det M|)``, read in O(n²).  |det M| comes
  from the Smith form that the same kind's invariant slot computes anyway
  (the product of the factors, or 0 when a factor is zero).  A census
  without that slot skips K1 (a constant stands in for it):
  ``(trace M, Σ M_ij²)`` alone leaves 6880 of the 7677 keyed matrices of
  the connected graphs at n = 7 colliding, and costs more than the moment
  keys it saves.
- The moment key ``(t1, t2, t3, t4)`` with ``t_k = trace(M^k)``, all four
  read off one ``M²`` in O(n³), is computed only for graphs whose K1
  another graph shares.
- The charpoly is computed only for graphs whose (K1, moment key) another
  graph shares too.

For a symmetric M, ``t1 = -c1``, ``Σ M_ij² = t2 = c1² - 2·c2`` and
``|det M| = |c_n|``, and by Newton's identities the moment key is a
polynomial in ``c1..c4``; so cospectral matrices share both keys, and a
graph alone at some level of the chain has no cospectral mate.  The tables
hold the keys' hashes, which are just as much functions of the charpoly:
a hash collision only costs work.  The hashed tuples hold ints only: the
hash of None, str or bytes can differ between processes, and workers hash
keys that the parent compares.

Each level holds the first graph of each key; once a second graph brings
the same key, both need the next level, so the report stays exact and the
stream is read once.  Serially, a graph whose key is already in the table
computes the next level from the matrix in hand, and so does a held first
graph built again after the stream; it is built a third time only if its
moment key is held after it.  Workers cannot read the tables, so they send
K1 alone (with the moment key where K1 is skipped), and every graph whose
key collides is built again after the stream, on the same workers: first
for its moment key, then, where that collides too, for its charpoly.
``bucket_counts`` still fingerprints every graph in full.

The adjacency matrix skips the chain.  Its moment key is only (0,
2·edges, 6·triangles, closed 4-walks), shared by 64 % of the connected
graphs at n = 7 and 93 % at n = 8, where computing it costs more than the
charpolys it saves.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain
from math import prod
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .exact import SnfResult, charpoly, snf
from .generators import generate_connected_graphs, generate_trees
from .graphs import DistanceProfile, Graph, complete_graph, distance_profile
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


def _charpoly_payload(m: IntMatrix) -> bytes:
    return _encode_ints(charpoly(m).coeffs)


def _first_key(m: IntMatrix, invariants: SnfResult) -> tuple[int, int, int]:
    """K1 of a symmetric matrix: ``(trace M, Σ M_ij², |det M|)``, with
    |det M| read off M's Smith form ``invariants``."""
    flat = list(chain.from_iterable(m))
    det = 0 if invariants.zeros else prod(invariants.factors)
    return sum(flat[::len(m) + 1]), sum(map(mul, flat, flat)), det


def _moment_key(m: IntMatrix) -> tuple[int, int, int, int]:
    """``(trace M^k for k = 1..4)`` of a symmetric matrix.

    With ``S = M²``, symmetric too: ``t2 = trace S``, ``t3 = Σ S_ij M_ij``
    and ``t4 = Σ S_ij²``, so only the upper triangle of S is formed and each
    off-diagonal term is counted twice.
    """
    t1 = t2 = t3 = t4 = 0
    for i, row in enumerate(m):
        s = [sum(map(mul, row, other)) for other in m[i:]]
        d = s[0]
        t1 += row[i]
        t2 += d
        t3 += 2 * sum(map(mul, s, row[i:])) - d * row[i]
        t4 += 2 * sum(map(mul, s, s)) - d * d
    return t1, t2, t3, t4


def _moment_keys(key: int, held: dict, m: IntMatrix) -> tuple:
    """The chain's keys of M past its K1 hash ``key``: the hash of ``key``
    with the moment key's hash, then the charpoly payload if ``held``, the
    slot's table at that level, already holds the hash."""
    h = hash((key, hash(_moment_key(m))))
    return (h, _charpoly_payload(m)) if h in held else (h,)


def _matrix_values(modes: tuple[str, ...], keyed: bool, hint: tuple[dict, dict] | None,
                   m: IntMatrix) -> tuple:
    """One built matrix's census values, one per mode.

    The invariant value is the SNF payload, and an unkeyed spectral value
    the charpoly payload.  A keyed spectral value is the tuple of the
    chain's keys (module docstring) as far as ``hint``, the serial census's
    tables for this slot, already holds them: K1's hash, then the hash of
    that with the moment key's hash, then the charpoly payload.  Without a
    hint it is K1's hash alone.  The Smith form is computed once and serves
    both the invariant payload and K1's |det M|.  Without the invariant mode
    K1 is the constant 0, so every matrix takes its moment key at once.
    """
    invariants = snf(m) if "invariant" in modes else None
    out = []
    for mode in modes:
        if mode == "invariant":
            out.append(_encode_ints(invariants.factors + (invariants.zeros,)))
        elif not keyed:
            out.append(_charpoly_payload(m))
        else:
            h = 0 if invariants is None else hash(_first_key(m, invariants))
            more = invariants is None or hint is not None and h in hint[0]
            out.append((h,) + _moment_keys(h, hint[1] if hint else {}, m) if more else (h,))
    return tuple(out)


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
    [(payload,)] = _values(g, (kind,), None, (partial(_matrix_values, (mode,), False, None),))
    return Fingerprint(kind, mode, payload)


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


def _bipartite_steps(kinds: tuple[MatrixKind, ...]) -> tuple | None:
    """Per requested kind, what a bipartite graph computes for it: the kind
    to build, or the position of the earlier kind whose values it copies.
    None when no two requested kinds share a source, so nothing is saved."""
    sources = [BIPARTITE_TWINS.get(kind, kind) for kind in kinds]
    steps = tuple(s if sources.index(s) == i else sources.index(s) for i, s in enumerate(sources))
    return steps if any(isinstance(step, int) for step in steps) else None


def _values(g: Graph, kinds: tuple[MatrixKind, ...], shared: tuple | None,
            fns: tuple[Callable[[IntMatrix], object], ...]) -> list:
    """``fn(build(g, kind))`` for each requested kind and its entry of ``fns``.

    ``shared`` is ``_bipartite_steps(kinds)``: on a bipartite graph a kind
    in ``BIPARTITE_TWINS`` takes the value of its requested twin.
    """
    profile = distance_profile(g)  # also rejects disconnected input
    steps = shared if shared and _is_bipartite(g, profile) else kinds
    out: list = []
    for step, fn in zip(steps, fns):
        out.append(out[step] if isinstance(step, int) else fn(build(g, step, profile)))
    return out


def _rows(job, g: Graph) -> tuple[Graph, list]:
    return g, _values(g, *job)


def _rebuilt(item: tuple[Graph, tuple[MatrixKind, ...], tuple[Callable, ...]]) -> list:
    """Each kind's entry of ``fns`` of its matrix of g, built again."""
    g, kinds, fns = item
    return _values(g, kinds, _bipartite_steps(kinds), fns)


def _workers(kinds: Sequence[MatrixKind], modes: Sequence[str], jobs: int):
    """A pool of ``jobs`` processes, or a null context for ``jobs == 1``,
    once the arguments pass the checks that every census shares: a worker
    count of at least 1, known modes and no repeated kind or mode."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
    for what, names in (("kind", kinds), ("mode", modes)):
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"{what} {name} given twice")
    if jobs == 1:
        return nullcontext()
    from multiprocessing import Pool  # here, so that a serial run does not import it
    return Pool(jobs)


def _fingerprint_stream(
    graphs: Iterable[Graph],
    kinds: Sequence[MatrixKind],
    fns: tuple[Callable[[IntMatrix], object], ...],
    pool: WorkerPool | None,
) -> Iterator[tuple[Graph, list]]:
    """Yield ``(g, _values(g, kinds, ..., fns))`` per graph.  Raises on an
    empty stream or mixed orders."""
    kinds = tuple(kinds)
    task = partial(_rows, (kinds, _bipartite_steps(kinds), fns))
    rows = map(task, graphs) if pool is None else pool.imap_unordered(task, graphs, chunksize=64)
    n = 0
    for g, values in rows:
        if not n:
            n = g.n
        elif g.n != n:
            raise ValueError("census stream mixes vertex counts")
        yield g, values
    if not n:
        raise ValueError("census stream is empty")


def _count(table: dict, value) -> None:
    table[value] = table.get(value, 0) + 1


def bucket_counts(
    graphs: Iterable[Graph],
    kinds: Sequence[MatrixKind],
    modes: Sequence[str] = MODES,
    jobs: int = 1,
) -> tuple[int, int, dict[tuple[MatrixKind, str], dict[bytes, int]]]:
    """Fingerprint every graph and tally bucket sizes.

    Returns (n, total, buckets) where buckets maps (kind, mode) to a
    payload -> count table.  Raises on a worker count below 1, a repeated
    kind or mode, an empty stream or mixed orders.
    """
    tables: list[dict[bytes, int]] = [{} for _ in kinds for _ in modes]
    total = 0
    with _workers(kinds, modes, jobs) as pool:
        fns = (partial(_matrix_values, tuple(modes), False, None),) * len(kinds)
        for g, payloads in _fingerprint_stream(graphs, kinds, fns, pool):
            total += 1
            for table, payload in zip(tables, chain.from_iterable(payloads)):
                _count(table, payload)
    return g.n, total, dict(zip(((kind, mode) for kind in kinds for mode in modes), tables))


_NEW = object()

_UNKEYED = frozenset({MatrixKind.A})
"""Kinds whose spectral slot skips the key chain (module docstring).
Neither kind of a ``BIPARTITE_TWINS`` pair may be here without the other,
since a twin copies its partner's values."""

_LEVELS = (_moment_keys, _charpoly_payload)
"""What the chain computes for a held first graph whose key collides at K1
(given that key and the next level's table), and at (K1, moment key)."""


def run_census(
    graphs: Iterable[Graph],
    kinds: Sequence[MatrixKind],
    modes: Sequence[str] = MODES,
    jobs: int = 1,
) -> CensusReport:
    """Count graphs with a cospectral/coinvariant mate, per kind and mode.

    Raises as ``bucket_counts`` does.  Spectral buckets are tallied only
    among graphs whose keys another graph shares (module docstring).
    """
    modes = tuple(modes)
    slots = [(kind, mode) for kind in kinds for mode in modes]
    tables: list[dict[bytes, int]] = [{} for _ in slots]
    # Keyed spectral slots, per level of the chain: key hash -> its first
    # graph, or None once a second graph has brought the same key.
    levels: list[tuple[dict, dict] | None] = [
        ({}, {}) if mode == "spectral" and kind not in _UNKEYED else None for kind, mode in slots]
    # Per level: graph -> [(slot, its key at the level)], for the graphs
    # whose key there collides and that must be built again for the next.
    wanted: tuple[dict[Graph, list], ...] = tuple({} for _ in _LEVELS)

    def offer(i: int, g: Graph, keys: tuple, start: int) -> None:
        """Enter g's keys for slot i from level ``start`` on; a key past the
        last level is the charpoly payload."""
        for level, key in enumerate(keys, start):
            if level == len(_LEVELS):
                _count(tables[i], key)
                return
            held = levels[i][level]
            first = held.get(key, _NEW)
            if first is _NEW and level - start == len(keys) - 1:
                held[key] = g
                return
            held[key] = None
            if isinstance(first, Graph):
                wanted[level].setdefault(first, []).append((i, key))
        wanted[level].setdefault(g, []).append((i, key))

    total = 0
    with _workers(kinds, modes, jobs) as pool:
        spectral = modes.index("spectral") if "spectral" in modes else None
        fns = tuple(partial(_matrix_values, modes, kind not in _UNKEYED,
                            None if pool or spectral is None else levels[k * len(modes) + spectral])
                    for k, kind in enumerate(kinds))
        for g, values in _fingerprint_stream(graphs, kinds, fns, pool):
            total += 1
            for i, value in enumerate(chain.from_iterable(values)):
                if levels[i] is None:
                    _count(tables[i], value)
                else:
                    offer(i, g, value, 0)
        for level, fn in enumerate(_LEVELS):
            requests = wanted[level]
            items = ((h, tuple(slots[i][0] for i, _ in where),
                      tuple(fn if level else partial(fn, key, {} if pool else levels[i][1])
                            for i, key in where)) for h, where in requests.items())
            rows = map(_rebuilt, items) if pool is None else pool.imap(_rebuilt, items, chunksize=16)
            for (h, where), values in zip(requests.items(), rows):
                for (i, _), value in zip(where, values):
                    offer(i, h, (value,) if level else value, level + 1)
    mates = {slot: sum(c for c in table.values() if c >= 2) for slot, table in zip(slots, tables)}
    entries = tuple(CensusEntry(kind, mode, mates[(kind, mode)], total)
                    for kind in MatrixKind for mode in MODES if (kind, mode) in mates)
    return CensusReport(g.n, total, entries)


def tree_census(
    n: int,
    kinds: Sequence[MatrixKind],
    modes: Sequence[str] = MODES,
    jobs: int = 1,
) -> CensusReport:
    """Census over all free trees on n vertices (2 <= n <= 16)."""
    if not 2 <= n <= 16:
        raise ValueError("tree census supports 2 <= n <= 16")
    return run_census(generate_trees(n), kinds, modes, jobs)


def completeness_check(n: int, kind: MatrixKind) -> bool:
    """True iff the complete graph's invariant fingerprint occurs exactly
    once in the full connected-graph corpus on n vertices (n <= 8)."""
    _, _, buckets = bucket_counts(generate_connected_graphs(n), (kind,), ("invariant",))
    target = fingerprint(complete_graph(n), kind, "invariant").payload
    return buckets[(kind, "invariant")][target] == 1


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
