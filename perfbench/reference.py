"""Fixed reference work that measures how fast the host runs Python right now.

On a shared host the speed of pure-Python integer code drifts by tens of
percent over minutes, and identical runs of a workload drift with it.  The
benchmark times this kernel between repetitions and reports every time
scaled by REFERENCE_S / (kernel time next to it), that is in seconds at the
kernel's nominal speed.  The kernel shares no code with graphinv, so the
scale factor cannot move with the commit under test; it does the same kinds
of work as the program: a Berkowitz-style charpoly, gcd row elimination,
colour-refinement style tuple sorting, a bytes-keyed tally, a catalogue of a
few thousand tuple keys in a dict, as the corpus generators build, and, for
half the time, a Euclidean row and column reduction of the kind a Smith
normal form makes.  Both of the last two matter: without the catalogue the
scaled times of the census workloads drifted about twice as much, and with
the reduction the per-repetition spread of g6-snf-n16 fell from 0.17 to
0.09, with census-n7 unchanged.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from time import perf_counter

# Nominal kernel time: about its median on the two-core Xeon host the
# benchmark was tuned on, where single timings ranged from 0.33 to 0.6 s.
REFERENCE_S = 0.5

_ROWS = [tuple((i * 2654435761 + j * 40503) % 65536 for j in range(8)) for i in range(3000)]

_MATS = [
    [[(i * 7 + j * 3 + s) % 5 - 2 + (i == j) * (s + 3) for j in range(9)] for i in range(9)]
    for s in range(6)
]

_SPARSE = [
    [[((i * 5 + j * 11 + s * 3) % 7 - 3) * (i != j) + (i == j) * (s % 4 + 5) for j in range(14)]
     for i in range(14)]
    for s in range(8)
]


def _charpoly(m: list[list[int]]) -> list[int]:
    c = [1]
    for k in range(len(m)):
        a = [row[:k] for row in m[:k]]
        r = m[k][:k]
        t = [1, -m[k][k]]
        v = [m[i][k] for i in range(k)]
        for _ in range(k):
            t.append(-sum(map(mul, r, v)))
            v = [sum(map(mul, row, v)) for row in a]
        c = [sum(t[j] * c[i - j] for j in range(len(t)) if 0 <= i - j < len(c)) for i in range(len(c) + 1)]
    return c


def _eliminate(m: list[list[int]]) -> list[int]:
    m = [row[:] for row in m]
    n = len(m)
    pivots = []
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            pivots.append(0)
            continue
        m[k], m[p] = m[p], m[k]
        for i in range(k + 1, n):
            a, b = m[k][k], m[i][k]
            g = gcd(a, b)
            m[i] = [(a // g) * x - (b // g) * y for x, y in zip(m[i], m[k])]
        pivots.append(m[k][k])
    return pivots


def _refine(m: list[list[int]]) -> list[int]:
    n = len(m)
    colors = [0] * n
    for _ in range(3):
        keys = [(colors[v], tuple(sorted(colors[w] for w in range(n) if m[v][w] > 0))) for v in range(n)]
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        colors = [rank[k] for k in keys]
    return colors


def _catalogue() -> int:
    found = {}
    for row in _ROWS:
        key = (len(row), tuple(sorted((x & 255, x >> 8) for x in row)))
        if key not in found:
            found[key] = row
    return len(sorted(found))


def _reduce(m: list[list[int]]) -> list[int]:
    """Diagonal left by row and column reduction on the smallest entry."""
    a = [row[:] for row in m]
    n = len(a)
    for t in range(n):
        best = None
        for i in range(t, n):
            for j in range(t, n):
                x = abs(a[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        if best is None:
            break
        _, pi, pj = best
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        changed = True
        while changed:
            changed = False
            p = a[t][t]
            for i in range(t + 1, n):
                q = a[i][t] // p
                if q:
                    ri, rt = a[i], a[t]
                    for j in range(t, n):
                        ri[j] -= q * rt[j]
                if a[i][t]:
                    a[i], a[t] = a[t], a[i]
                    changed = True
                    break
            if changed:
                continue
            rt = a[t]
            for j in range(t + 1, n):
                q = rt[j] // p
                if q:
                    for i in range(t, n):
                        a[i][j] -= q * a[i][t]
                if rt[j]:
                    for row in a:
                        row[t], row[j] = row[j], row[t]
                    changed = True
                    break
    return [a[i][i] for i in range(n)]


def work() -> int:
    tally: dict[bytes, int] = {}
    for _ in range(50):
        for m in _MATS:
            key = repr((_charpoly(m), _eliminate(m)[:3], _refine(m))).encode("ascii")
            tally[key] = tally.get(key, 0) + 1
    diagonals = [_reduce(m) for _ in range(27) for m in _SPARSE]
    return len(tally) + sum(_catalogue() for _ in range(6)) + len(diagonals)


def measure() -> float:
    """Seconds the host takes for one round of the reference work."""
    start = perf_counter()
    work()
    return perf_counter() - start
