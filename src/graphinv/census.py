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
matter.  Each matrix first gets the moment key ``(t1, t2, t3, t4)`` with
``t_k = trace(M^k)``, all four read off one ``M²``.  By Newton's identities
the power sums are polynomials in the first four charpoly coefficients, so
cospectral matrices share their key, and a graph alone in its key bucket
has no cospectral mate.  The tables hold the key's hash, which is just as
much a function of the charpoly.  The census holds the first graph of each
key; once a second graph brings the same key, both need their charpolys,
so the report stays exact and the stream is read once.  Serially, a graph
whose key is already in the table computes its charpoly from the matrix in
hand, and only the held first graph is built again, after the stream.
Workers cannot read the table, so every colliding graph is built again
after the stream, on the same workers.  ``bucket_counts`` still
fingerprints every graph in full.

The adjacency matrix skips the key.  Its key is only (0, 2·edges,
6·triangles, closed 4-walks), shared by 64 % of the connected graphs at
n = 7 and 93 % at n = 8, where computing it costs more than the charpolys
it saves.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from multiprocessing import Pool
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .exact import charpoly, snf
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


def _snf_payload(m: IntMatrix) -> bytes:
    result = snf(m)
    return _encode_ints(result.factors + (result.zeros,))


_PAYLOADS = {"spectral": _charpoly_payload, "invariant": _snf_payload}
"""Mode -> fingerprint bytes of one built matrix."""


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


def _spectral_value(hint: dict | None, m: IntMatrix) -> tuple[int, bytes | None]:
    """``(hash of M's moment key, M's charpoly payload or None)``.

    The hash is smaller to hold than the key tuple, and a hash collision
    only costs charpolys, which then tell the graphs apart.  The payload
    comes along when ``hint`` already holds the hash: the serial census
    passes its key table, so a graph whose key collides brings its charpoly
    with it instead of being built again.
    """
    h = hash(_moment_key(m))
    return h, (_charpoly_payload(m) if hint is not None and h in hint else None)


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
    [payload] = _values(g, (kind,), None, ((_PAYLOADS[mode],),))
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
            fns: tuple[tuple[Callable[[IntMatrix], object], ...], ...]) -> list:
    """``fn(build(g, kind))`` for each requested kind, then each fn of
    ``fns``' entry for that kind; every entry has the same length.

    ``shared`` is ``_bipartite_steps(kinds)``: on a bipartite graph a kind
    in ``BIPARTITE_TWINS`` takes the values of its requested twin.
    """
    profile = distance_profile(g)  # also rejects disconnected input
    steps = shared if shared and _is_bipartite(g, profile) else kinds
    width = len(fns[0])
    out: list = []
    for step, kind_fns in zip(steps, fns):
        if isinstance(step, int):
            out += out[step * width:(step + 1) * width]
        else:
            m = build(g, step, profile)
            for fn in kind_fns:
                out.append(fn(m))
    return out


def _rows(job, g: Graph) -> tuple[Graph, list]:
    return g, _values(g, *job)


def _charpolys(item: tuple[Graph, tuple[MatrixKind, ...]]) -> list[bytes]:
    g, kinds = item
    return _values(g, kinds, _bipartite_steps(kinds), ((_charpoly_payload,),) * len(kinds))


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
    return Pool(jobs) if jobs > 1 else nullcontext()


def _fingerprint_stream(
    graphs: Iterable[Graph],
    kinds: Sequence[MatrixKind],
    fns: tuple[tuple[Callable[[IntMatrix], object], ...], ...],
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
        fns = (tuple(_PAYLOADS[mode] for mode in modes),) * len(kinds)
        for g, payloads in _fingerprint_stream(graphs, kinds, fns, pool):
            total += 1
            for table, payload in zip(tables, payloads):
                _count(table, payload)
    return g.n, total, dict(zip(((kind, mode) for kind in kinds for mode in modes), tables))


_NEW = object()

_UNKEYED = frozenset({MatrixKind.A})
"""Kinds whose spectral slot skips the moment key (module docstring).
Neither kind of a ``BIPARTITE_TWINS`` pair may be here without the other,
since a twin copies its partner's values."""


def run_census(
    graphs: Iterable[Graph],
    kinds: Sequence[MatrixKind],
    modes: Sequence[str] = MODES,
    jobs: int = 1,
) -> CensusReport:
    """Count graphs with a cospectral/coinvariant mate, per kind and mode.

    Raises as ``bucket_counts`` does.  Spectral buckets are tallied only
    among graphs whose moment key another graph shares (module docstring).
    """
    slots = [(kind, mode) for kind in kinds for mode in modes]
    tables: list[dict[bytes, int]] = [{} for _ in slots]
    # Spectral slots: moment key hash -> its first graph, or None once a
    # second graph has brought the same key.
    firsts: list[dict | None] = [{} if mode == "spectral" and kind not in _UNKEYED else None
                                 for kind, mode in slots]
    # (graph, the spectral slots it still needs a charpoly for)
    pending: list[tuple[Graph, list[int]]] = []
    total = 0
    with _workers(kinds, modes, jobs) as pool:
        # Workers cannot read the key tables, so they send bare keys.
        fns = tuple(
            tuple(_PAYLOADS[mode] if keys is None else partial(_spectral_value, None if pool else keys)
                  for mode, keys in zip(modes, firsts[k * len(modes):(k + 1) * len(modes)]))
            for k in range(len(kinds)))
        for g, values in _fingerprint_stream(graphs, kinds, fns, pool):
            total += 1
            wanted: dict[Graph, list[int]] = {}
            for i, value in enumerate(values):
                keys = firsts[i]
                if keys is None:
                    _count(tables[i], value)
                    continue
                h, payload = value
                first = keys.get(h, _NEW)
                if first is _NEW and payload is None:
                    keys[h] = g
                    continue
                keys[h] = None
                if isinstance(first, Graph):
                    wanted.setdefault(first, []).append(i)
                if payload is None:
                    wanted.setdefault(g, []).append(i)
                else:
                    _count(tables[i], payload)
            pending += wanted.items()
        items = ((h, tuple(slots[i][0] for i in where)) for h, where in pending)
        rows = map(_charpolys, items) if pool is None else pool.imap(_charpolys, items, chunksize=16)
        for (_, where), payloads in zip(pending, rows):
            for i, payload in zip(where, payloads):
                _count(tables[i], payload)
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
