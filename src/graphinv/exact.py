"""Exact integer linear algebra: Smith normal form, division-free
characteristic polynomial, determinant, and cokernel structure.

Everything here stays in plain Python integers: ``snf``, ``charpoly`` and
``determinant`` reject an entry that is not an ``int`` (a ``bool`` is not
one), naming its (row, column).  Cospectrality downstream is decided by
comparing characteristic polynomial coefficients and coinvariance by
comparing invariant factors, so no floating point or tolerance enters any
census.

A symmetric matrix's determinant keeps the upper triangle only, as a Bareiss
step ``(a_ij·p − a_ki·a_kj) / q`` keeps the trailing block symmetric.  A
trailing block of order s <= 16 (``_STEP_MAX_ORDER``) whose leading 2x2 minor
``c0 = a00·a11 − a01²`` is nonzero takes two steps in one generated
``_step2(s)`` call (Bareiss's two-step form).  With q the pivot before the
block, Sylvester's identity makes each entry two orders down the 3x3 minor
on rows and columns 0, 1, i and 0, 1, j over q², that is
``(a_ij·c0 − a_0i·x_j − a_1i·y_j) / q²`` with ``x_j = a_0j·a11 − a01·a_1j``
and ``y_j = a00·a_1j − a_0j·a01``, and the next q is ``c0 / q``.  Every
block entry is a bordered minor of the input (with q the leading minor it
borders), so both divisions are exact, and a00 may be 0.  A block of order 2
gives ``c0 / q``, the determinant.  A block with c0 = 0, or of order above
16, takes one single step as one plain comprehension per row, as
``spectra``'s Jacobi sweeps keep a plain loop above their kernels.  Before
that step a zero row k makes the determinant 0; any other zero pivot k is
mended (``_mend``) by adding row and column m to row and column k for the
first m > k with ``2·a_km + a_mm ≠ 0``, or else subtracting them for the
first m with ``a_mm − 2·a_km ≠ 0``, which exists as some ``a_km ≠ 0``.
Either determinant-1 congruence fixes the leading blocks, so it applies in
place to the bordered minors the rows hold, bilinear in their bordering row
and column.  Only a non-symmetric matrix takes the loop with row swaps.
``_generated`` compiles only ``_step2`` and ``spectra``'s Jacobi sweeps,
each kernel on its first use (none at import).
"""

from __future__ import annotations

from functools import lru_cache, wraps
from itertools import chain
from math import gcd, prod
from operator import add, mul, sub
from typing import Callable, NamedTuple

from .matrices import IntMatrix


class SnfResult(NamedTuple):
    """Invariant factors of a square integer matrix.

    ``factors`` are the positive diagonal entries of the Smith normal form
    in divisibility order (each divides the next); ``zeros`` counts the
    trailing zero diagonal entries, so ``len(factors)`` is the rank.
    """

    factors: tuple[int, ...]
    zeros: int
    n: int

    def diagonal(self) -> tuple[int, ...]:
        return self.factors + (0,) * self.zeros


class IntPolynomial(NamedTuple):
    """Monic integer polynomial, coefficients from x^degree down to x^0."""

    coeffs: tuple[int, ...]


class AbelianGroup(NamedTuple):
    """Finitely generated abelian group: torsion cyclic factors (in
    divisibility order, all >= 2) plus a free rank."""

    torsion: tuple[int, ...]
    free_rank: int

    def order(self) -> int | None:
        """Group order, or None when the free part is nontrivial."""
        return None if self.free_rank else prod(self.torsion)

    def __str__(self) -> str:
        parts = [f"Z_{d}" for d in self.torsion]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "trivial"


def _check_square(m: IntMatrix, integer: bool = True) -> int:
    """The order of the square matrix ``m``; unless ``integer`` is false,
    every entry must be an ``int`` too (a ``bool`` is not one)."""
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix must be square")
    if integer and not {int}.issuperset(map(type, chain.from_iterable(m))):
        i, j = next((i, j) for i, row in enumerate(m) for j, x in enumerate(row) if type(x) is not int)
        raise ValueError(f"entry ({i}, {j}) is not an integer: {m[i][j]!r}")
    return n


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form over the integers.

    Diagonalises with Euclidean row/column reduction, always pivoting on
    the entry of smallest nonzero absolute value, then restores the
    divisibility chain with pairwise gcd/lcm exchanges on the diagonal.
    That pivot rule does not bound entry growth: on ``Ddeg`` of the star
    with 39 leaves (7-bit entries) they reach millions of bits.

    The pivot is the first entry of least magnitude in row-major order, so
    the scan stops at the first +-1: no later entry can be smaller.

    Each step runs a row pass and then, unless the pivot is +-1, a column
    pass; the first nonzero remainder of either is smaller than the pivot,
    is swapped in as the new pivot and restarts the step.  The column pass
    touches only the pivot row, since the row pass has cleared column t
    below the pivot.  Under a +-1 pivot every remainder is zero, so the
    rest of the pivot row is left as it stands: later steps read only rows
    and columns past t, and the result reads only the diagonal, whose
    nonzero entries are the factors (the block past the last pivot is zero).
    """
    n = _check_square(m)
    a = [list(row) for row in m]
    for t in range(n):
        # Locate the minimal-magnitude nonzero entry of the trailing block.
        pi = pj = -1
        pbest = 0
        for i in range(t, n):
            row = a[i]
            for j in range(t, n):
                x = row[j]
                if x:
                    if x < 0:
                        x = -x
                    if pbest == 0 or x < pbest:
                        pbest = x
                        pi, pj = i, j
                        if x == 1:
                            break
            if pbest == 1:
                break
        if pi < 0:
            break
        a[pi], a[t] = a[t], a[pi]
        for row in a[t:]:
            row[pj], row[t] = row[t], row[pj]
        while True:
            row_t = a[t]
            pivot = row_t[t]
            for i in range(t + 1, n):
                row_i = a[i]
                q = row_i[t] // pivot
                if q:
                    for j in range(t, n):
                        row_i[j] -= q * row_t[j]
                if row_i[t]:
                    # Remainder is strictly smaller: promote it.
                    a[i], a[t] = row_t, row_i
                    break
            else:
                if pivot == 1 or pivot == -1:
                    break
                for j in range(t + 1, n):
                    row_t[j] %= pivot
                    if row_t[j]:
                        for row in a[t:]:
                            row[j], row[t] = row[t], row[j]
                        break
                else:
                    break
    fs = sorted(abs(a[i][i]) for i in range(n) if a[i][i])
    # diag(a, b) ~ diag(gcd, lcm): one forward sweep yields the chain.
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            if fs[j] % fs[i]:
                g = gcd(fs[i], fs[j])
                fs[i], fs[j] = g, fs[i] // g * fs[j]
    return SnfResult(tuple(fs), n - len(fs), n)


def charpoly(m: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(xI - m) by the division-free Berkowitz
    recurrence: each leading block's coefficient vector is a lower-triangular
    Toeplitz image of the previous one, with Toeplitz entries built from
    powers of the block applied to the new column.  Each block is sliced
    once, and every dot product (mat-vec, Toeplitz entry, Toeplitz product
    row) is a C-level ``sum(map(mul, ...))``.
    """
    n = _check_square(m)
    coeffs = [1]
    for k in range(n):
        block = [r[:k] for r in m[:k]]
        row = m[k][:k]
        w = [r[k] for r in m[:k]]
        diags = [1, -m[k][k]]
        for step in range(k):
            diags.append(-sum(map(mul, row, w)))
            if step + 1 < k:
                w = [sum(map(mul, r, w)) for r in block]
        rev = diags[::-1]
        coeffs = [sum(map(mul, coeffs, rev[k + 1 - i:])) for i in range(k + 2)]
    return IntPolynomial(tuple(coeffs))


# Trailing orders with a two-step kernel (3..16); compiling 17..64 too would
# take 0.7 s and 21 MB.
_STEP_MAX_ORDER = 16


def _generated(label: str):
    """Decorator for a kernel source ``source(n) -> (lines, namespace)``,
    whose lines define a function named ``kernel`` that reads the names in
    ``namespace``.  The decorated ``source(n)`` returns that function for
    order n, compiled on the first call for n and kept."""
    def decorate(source: Callable[[int], tuple[list[str], dict]]):
        @lru_cache(maxsize=None)
        @wraps(source)
        def compiled(n: int):
            lines, namespace = source(n)
            exec(compile("\n".join(lines), f"<{label} kernel, n = {n}>", "exec"), namespace)
            return namespace["kernel"]
        return compiled
    return decorate


@_generated("Bareiss two-step")
def _step2(s: int):
    """Two Bareiss steps on the upper-triangle rows of an order-s block:
    ``f(rows, q, c0)``, with q the pivot before the block and c0 its nonzero
    leading 2x2 minor, returns the rows of the block two orders down.  It
    unpacks ``rows`` into the locals ``a{i}_{j}``."""
    targets = (f"({''.join(f'a{i}_{j}, ' for j in range(i, s))})" for i in range(s))
    lines = ["def kernel(rows, q, c0):", f"    [{', '.join(targets)}] = rows", "    qq = q * q"]
    for j in range(2, s):
        lines.append(f"    x{j} = a0_{j} * a1_1 - a0_1 * a1_{j}; y{j} = a0_0 * a1_{j} - a0_{j} * a0_1")
    rows = (", ".join(f"(a{i}_{j} * c0 - a0_{i} * x{j} - a1_{i} * y{j}) // qq" for j in range(i, s))
            for i in range(2, s))
    lines.append(f"    return [{', '.join(f'[{row}]' for row in rows)}]")
    return lines, {}


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    _check_square(m)
    if list(zip(*m)) == list(map(tuple, m)):
        return _determinant([row[i:] for i, row in enumerate(m)])
    return _eliminate(m)


def _determinant(rows: list[list[int]]) -> int:
    """The determinant of a symmetric matrix from its upper-triangle
    ``rows``: row i holds the entries (i, i), (i, i+1), ...; ``rows`` may
    be mended in place."""
    q = 1
    while (s := len(rows)) > 1:
        top = rows[0]
        if s <= _STEP_MAX_ORDER:
            c0 = top[0] * rows[1][0] - top[1] * top[1]
            if s == 2:
                return c0 // q
            if c0:
                rows, q = _step2(s)(rows, q, c0), c0 // q
                continue
        pivot = top[0] or _mend(rows)
        if not pivot:
            return 0
        top = rows[0]
        rows = [[(x * pivot - top[i] * y) // q for x, y in zip(rows[i], top[i:])] for i in range(1, s)]
        q = pivot
    return rows[0][0] if rows else 1


def _mend(rows: list[list[int]]) -> int:
    """Mend the zero pivot ``rows[0][0]`` (module docstring) and return the
    new pivot, or 0 if row 0 is zero."""
    row = rows[0]
    if any(row):
        for twice, op in ((2, add), (-2, sub)):
            for m in range(1, len(rows)):
                pivot = twice * row[m] + rows[m][0]
                if pivot:
                    column = [rows[j][m - j] for j in range(1, m)] + rows[m]
                    rows[0] = [pivot, *map(op, row[1:], column)]
                    return pivot
    return 0


def _eliminate(m: IntMatrix) -> int:
    """The determinant of any square matrix ``m``, left unchanged:
    fraction-free elimination with row swaps."""
    n = len(m)
    a = [list(row) for row in m]
    sign = prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[i], a[k] = a[k], a[i]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * prev


def cokernel(m: IntMatrix) -> AbelianGroup:
    """Structure of Z^n modulo the column span of ``m``."""
    result = snf(m)
    return AbelianGroup(
        torsion=tuple(f for f in result.factors if f > 1),
        free_rank=result.zeros,
    )
