"""Exact integer linear algebra: Smith normal form, division-free
characteristic polynomial, determinant, and cokernel structure.

Everything here stays in plain Python integers.  Cospectrality downstream
is decided by comparing characteristic polynomial coefficients and
coinvariance by comparing invariant factors, so no floating point or
tolerance enters any census.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from operator import mul

from .matrices import IntMatrix


@dataclass(frozen=True)
class SnfResult:
    """Invariant factors of a square integer matrix.

    ``factors`` are the positive diagonal entries of the Smith normal form
    in divisibility order (each divides the next); ``zeros`` counts the
    trailing zero diagonal entries, so ``len(factors)`` is the rank.
    """

    factors: tuple[int, ...]
    zeros: int
    n: int

    @property
    def rank(self) -> int:
        return len(self.factors)

    def diagonal(self) -> tuple[int, ...]:
        return self.factors + (0,) * self.zeros


@dataclass(frozen=True)
class IntPolynomial:
    """Monic integer polynomial, coefficients from x^degree down to x^0."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class AbelianGroup:
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


def _check_square(m: IntMatrix) -> int:
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix must be square")
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


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = _check_square(m)
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
