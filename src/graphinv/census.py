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
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import Pool
from typing import Iterable, Sequence

from .exact import charpoly, snf
from .generators import generate_connected_graphs, generate_trees
from .graphs import DistanceProfile, Graph, complete_graph, distance_profile
from .matrices import IntMatrix, MatrixKind, build

MODES = ("spectral", "invariant")


def _encode_ints(values: Iterable[int]) -> bytes:
    out = bytearray()
    for v in values:
        blob = v.to_bytes((v.bit_length() + 8) // 8, "big", signed=True)
        out += len(blob).to_bytes(2, "big")
        out += blob
    return bytes(out)


def _payload(m: IntMatrix, mode: str) -> bytes:
    """Fingerprint bytes of one built matrix: charpoly coefficients in
    spectral mode, invariant factors then the zero count otherwise."""
    if mode == "spectral":
        return _encode_ints(charpoly(m).coeffs)
    result = snf(m)
    return _encode_ints(result.factors + (result.zeros,))


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
    _, [(_, _, payload)] = _graph_payloads((g, (kind,), (mode,)))
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


def _graph_payloads(args) -> tuple[int, list[tuple[MatrixKind, str, bytes]]]:
    """Fingerprint payloads of one graph for every (kind, mode) asked for.

    On a bipartite graph a kind in ``BIPARTITE_TWINS`` is built and
    fingerprinted as its twin, and each built kind's payloads are
    computed once, so a requested pair shares the same bytes.
    """
    g, kinds, modes = args
    profile = distance_profile(g)  # also rejects disconnected input
    twins = BIPARTITE_TWINS if _is_bipartite(g, profile) else {}
    by_source: dict[MatrixKind, list[bytes]] = {}
    out = []
    for kind in kinds:
        source = twins.get(kind, kind)
        payloads = by_source.get(source)
        if payloads is None:
            m = build(g, source, profile)
            payloads = by_source[source] = [_payload(m, mode) for mode in modes]
        out.extend((kind, mode, p) for mode, p in zip(modes, payloads))
    return g.n, out


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
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
    for what, names in (("kind", kinds), ("mode", modes)):
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"{what} {name} given twice")
    buckets: dict[tuple[MatrixKind, str], dict[bytes, int]] = {
        (kind, mode): {} for kind in kinds for mode in modes
    }
    n = -1
    total = 0
    tasks = ((g, tuple(kinds), tuple(modes)) for g in graphs)
    with Pool(jobs) if jobs > 1 else nullcontext() as pool:
        if pool is None:
            results = map(_graph_payloads, tasks)
        else:
            results = pool.imap_unordered(_graph_payloads, tasks, chunksize=64)
        for gn, payloads in results:
            if n < 0:
                n = gn
            elif gn != n:
                raise ValueError("census stream mixes vertex counts")
            total += 1
            for kind, mode, payload in payloads:
                table = buckets[(kind, mode)]
                table[payload] = table.get(payload, 0) + 1
    if total == 0:
        raise ValueError("census stream is empty")
    return n, total, buckets


def run_census(
    graphs: Iterable[Graph],
    kinds: Sequence[MatrixKind],
    modes: Sequence[str] = MODES,
    jobs: int = 1,
) -> CensusReport:
    """Count graphs with a cospectral/coinvariant mate, per kind and mode."""
    n, total, buckets = bucket_counts(graphs, kinds, modes, jobs)
    entries = []
    for kind in MatrixKind:
        for mode in MODES:
            if kind in kinds and mode in modes:
                table = buckets[(kind, mode)]
                mates = sum(c for c in table.values() if c >= 2)
                entries.append(CensusEntry(kind, mode, mates, total))
    return CensusReport(n, total, tuple(entries))


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
