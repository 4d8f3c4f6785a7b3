"""Input corpus of the g6-snf-n16 workload.

``g6-n16-master.g6`` holds 600 pairwise non-isomorphic random connected,
non-complete graphs on 16 vertices, each drawn with an edge density taken
uniformly from [0.2, 0.6].  A run's corpus is that set with the record order
shuffled and every graph's vertices relabelled, both drawn from the run's
seed.  Relabelling is a simultaneous row and column permutation of every
matrix kind, which leaves its Smith normal form unchanged, so the census the
program must print is the same for every seed and the output gate is exact on
any seed, while the bytes the program parses, and its elimination order,
differ from seed to seed.

The graph6 codec here is the benchmark's own, so the corpus bytes depend only
on the master file, the seed and this module, never on the commit under test.

Rebuild the master file (only ever needed if it is lost) with

    PYTHONPATH=src python3 perfbench/corpus.py

which dedups by ``graphinv.canonical_key``, keeping the first graph seen of
each isomorphism class, and prints the SHA-256 that MASTER_SHA256 records.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

MASTER = Path(__file__).resolve().parent / "g6-n16-master.g6"
MASTER_SHA256 = "d898bb8b8c316003ca56a52508fee4d14a268b5b121587b4c5954e053c9cf0ea"
MASTER_SEED = 20221211
MASTER_SIZE = 600
N = 16


def encode(n: int, rows: list[int]) -> str:
    """graph6 record of the graph on n <= 62 vertices with adjacency bitmasks rows."""
    out = [n + 63]
    acc = nbits = 0
    for v in range(1, n):
        for u in range(v):
            acc = (acc << 1) | ((rows[v] >> u) & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out).decode("ascii")


def decode(record: str) -> list[int]:
    """Adjacency bitmasks of a graph6 record on n <= 62 vertices."""
    data = record.encode("ascii")
    n = data[0] - 63
    rows = [0] * n
    bits = [((b - 63) >> s) & 1 for b in data[1:] for s in range(5, -1, -1)]
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            k += 1
    return rows


def relabel(rows: list[int], perm: list[int]) -> list[int]:
    """Rows of the graph with vertex u renamed perm[u]."""
    out = [0] * len(rows)
    for u, row in enumerate(rows):
        mask = 0
        for w, pw in enumerate(perm):
            if (row >> w) & 1:
                mask |= 1 << pw
        out[perm[u]] = mask
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_corpus(seed: int, path: Path) -> str:
    """Write the seed's corpus to path and return its SHA-256.

    Raises ValueError if the master file is not the recorded one.
    """
    master = MASTER.read_bytes()
    if sha256(master) != MASTER_SHA256:
        raise ValueError(f"{MASTER.name}: SHA-256 differs from the recorded one")
    records = master.decode("ascii").split()
    rng = random.Random(seed)
    rng.shuffle(records)
    lines = []
    for record in records:
        perm = list(range(N))
        rng.shuffle(perm)
        lines.append(encode(N, relabel(decode(record), perm)))
    data = ("\n".join(lines) + "\n").encode("ascii")
    path.write_bytes(data)
    return sha256(data)


def _connected(n: int, rows: list[int]) -> bool:
    seen = frontier = 1
    while frontier:
        reach = 0
        for u in range(n):
            if (frontier >> u) & 1:
                reach |= rows[u]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def make_master() -> bytes:
    from graphinv.generators import canonical_key
    from graphinv.graphs import Graph

    rng = random.Random(MASTER_SEED)
    full = N * (N - 1) // 2
    keys = set()
    lines = []
    while len(lines) < MASTER_SIZE:
        p = rng.uniform(0.2, 0.6)
        rows = [0] * N
        edges = 0
        for v in range(1, N):
            for u in range(v):
                if rng.random() < p:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                    edges += 1
        if edges == full or not _connected(N, rows):
            continue
        key = canonical_key(Graph(N, tuple(rows)))
        if key not in keys:
            keys.add(key)
            lines.append(encode(N, rows))
    return ("\n".join(lines) + "\n").encode("ascii")


if __name__ == "__main__":
    data = make_master()
    MASTER.write_bytes(data)
    print(sha256(data))
