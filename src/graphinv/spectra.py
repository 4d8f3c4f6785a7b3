"""Floating-point spectra and verification of eigenvalue bounds.

The eigensolver is a dependency-free cyclic Jacobi iteration, accurate for
the symmetric integer matrices and sizes (n <= 64) used here.  A sweep walks
a per-n cached tuple of (p, q, others), ``others`` being the k not in
{p, q}.  A rotation binds rows p and q once and each row k once, and forms
c*c, s*s and 2*s*c*a_pq once, each in the association of the textbook
update, so the eigenvalues are bit-identical to the plain loop's.

The checks read one shared per-graph context, ``GraphSpectra``, which
builds the distance profile once and each matrix kind and its spectrum at
most once.  Every check returns a report of inequality records; an inequality
"holds" when left <= right + tol, with the default tolerance scaled by the
matrix max-norm so equality cases survive roundoff.

The moment checks are the exception: they compare exact integer traces of
matrix powers against combinatorial counts, with no tolerance at all.
Two candidate identities are evaluated for the third moment, one with the
mixed term weighted 1 and triangles added, one with the mixed term
weighted 3 and triangles subtracted as the algebraic expansion of
(tr(G) - A)^3 dictates; callers see which of the two the data satisfies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul

from .graphs import DistanceProfile, Graph, conductance, distance_profile, triangle_count, wiener_indices
from .matrices import IntMatrix, MatrixKind, build, mat_mul, trace


def default_tol(m: IntMatrix) -> float:
    scale = max((abs(x) for row in m for x in row), default=0)
    return 1e-9 * (1 + scale)


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues in ascending order, with the tolerance used."""

    eigenvalues: tuple[float, ...]
    tol: float


@dataclass(frozen=True)
class InequalityRecord:
    name: str
    left: float
    right: float
    tol: float
    holds: bool
    applicable: bool = True

    @property
    def slack(self) -> float:
        return self.right - self.left


@dataclass(frozen=True)
class BoundReport:
    checks: tuple[InequalityRecord, ...]

    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def by_name(self, name: str) -> InequalityRecord:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _leq(name: str, left: float, right: float, tol: float) -> InequalityRecord:
    return InequalityRecord(name, left, right, tol, holds=left <= right + tol)


def _eq_exact(name: str, left: int, right: int) -> InequalityRecord:
    return InequalityRecord(name, left, right, 0.0, holds=left == right)


# Jacobi converges quadratically: the default tolerances on every connected
# graph with n <= 7 need at most 6 sweeps.
JACOBI_MAX_SWEEPS = 100


@lru_cache(maxsize=None)
def _rotations(n: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """One cyclic sweep's (p, q) pairs, each with the k not in {p, q}."""
    return tuple((p, q, tuple(k for k in range(n) if k != p and k != q))
                 for p in range(n - 1) for q in range(p + 1, n))


def eigenvalues_symmetric(m: IntMatrix) -> Spectrum:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius mass drops below tol**2, with
    tol = default_tol(m); the quadratic convergence of Jacobi makes that a
    handful of sweeps.  Raises ValueError if JACOBI_MAX_SWEEPS sweeps do
    not get there.
    """
    n = len(m)
    for i, row in enumerate(m):
        if len(row) != n:
            raise ValueError("matrix must be square")
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix not symmetric")
    tol = default_tol(m)
    threshold = tol * tol
    a = [[float(x) for x in row] for row in m]
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        off = 0.0
        for p in range(n - 1):
            row_p = a[p]
            for q in range(p + 1, n):
                off += 2.0 * row_p[q] * row_p[q]
        if off < threshold:
            break
        if sweep == JACOBI_MAX_SWEEPS:
            raise ValueError(f"Jacobi iteration did not converge within {JACOBI_MAX_SWEEPS} sweeps")
        for p, q, others in _rotations(n):
            row_p, row_q = a[p], a[q]
            apq = row_p[q]
            if apq == 0.0:
                continue
            app, aqq = row_p[p], row_q[q]
            theta = (aqq - app) / (2.0 * apq)
            t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
            if theta < 0.0:
                t = -t
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            cc, ss, scapq = c * c, s * s, 2.0 * s * c * apq
            row_p[p] = cc * app - scapq + ss * aqq
            row_q[q] = ss * app + scapq + cc * aqq
            row_p[q] = row_q[p] = 0.0
            for k in others:
                row_k = a[k]
                akp, akq = row_k[p], row_k[q]
                row_k[p] = row_p[k] = c * akp - s * akq
                row_k[q] = row_q[k] = s * akp + c * akq
    return Spectrum(tuple(sorted(a[i][i] for i in range(n))), tol)


class GraphSpectra:
    """One connected graph with what the checks read from it: its distance
    profile, ``r = tr - deg`` per vertex, ``matrix(kind)`` and ``ctx[kind]``,
    the Spectrum of that matrix.  Each is computed on first access and kept."""

    def __init__(self, g: Graph):
        self.g = g
        self._matrices: dict[MatrixKind, IntMatrix] = {}
        self._spectra: dict[MatrixKind, Spectrum] = {}

    @cached_property
    def profile(self) -> DistanceProfile:
        return distance_profile(self.g)

    @cached_property
    def r(self) -> list[int]:
        return [t - d for t, d in zip(self.profile.tr, self.profile.deg)]

    def matrix(self, kind: MatrixKind) -> IntMatrix:
        """The graph's ``kind`` matrix, shared by every reader: none may modify it."""
        if kind not in self._matrices:
            self._matrices[kind] = build(self.g, kind, self.profile)
        return self._matrices[kind]

    def __getitem__(self, kind: MatrixKind) -> Spectrum:
        if kind not in self._spectra:
            self._spectra[kind] = eigenvalues_symmetric(self.matrix(kind))
        return self._spectra[kind]


def check_extreme_bounds(ctx: GraphSpectra) -> BoundReport:
    """The four extreme-eigenvalue inequalities relating the diagonal-shifted
    matrices to their off-diagonal parts, e.g. the smallest eigenvalue of
    tr(G) - A is at least (min transmission) - (largest eigenvalue of A)."""
    profile = ctx.profile
    theta, big_theta = min(profile.tr), max(profile.tr)
    delta, big_delta = min(profile.deg), max(profile.deg)
    a, d, atr, ddeg = (ctx[k] for k in (MatrixKind.A, MatrixKind.D, MatrixKind.Atr, MatrixKind.Ddeg))
    t1 = max(a.tol, atr.tol)
    t2 = max(d.tol, ddeg.tol)
    return BoundReport((
        _leq("min_tr - max_eig(A) <= min_eig(Atr)",
             theta - a.eigenvalues[-1], atr.eigenvalues[0], t1),
        _leq("min_deg - max_eig(D) <= min_eig(Ddeg)",
             delta - d.eigenvalues[-1], ddeg.eigenvalues[0], t2),
        _leq("max_eig(Atr) <= max_tr - min_eig(A)",
             atr.eigenvalues[-1], big_theta - a.eigenvalues[0], t1),
        _leq("max_eig(Ddeg) <= max_deg - min_eig(D)",
             ddeg.eigenvalues[-1], big_delta - d.eigenvalues[0], t2),
    ))


def check_weyl_sandwich(ctx: GraphSpectra) -> BoundReport:
    """Weyl sandwich for tr(G) - A = L + R with R the diagonal of
    transmission-minus-degree: for each index i (1-based),
    eig_i(L) + min(R) <= eig_i(Atr) <= eig_i(L) + max(R).
    """
    r_lo, r_hi = min(ctx.r), max(ctx.r)
    l, atr = ctx[MatrixKind.L], ctx[MatrixKind.Atr]
    eff = max(l.tol, atr.tol)
    checks = []
    for idx, (lam_l, lam) in enumerate(zip(l.eigenvalues, atr.eigenvalues), 1):
        checks.append(_leq(f"eig_{idx}(L) + min(R) <= eig_{idx}(Atr)",
                           lam_l + r_lo, lam, eff))
        checks.append(_leq(f"eig_{idx}(Atr) <= eig_{idx}(L) + max(R)",
                           lam, lam_l + r_hi, eff))
    return BoundReport(tuple(checks))


def check_lambda1_bracket(ctx: GraphSpectra) -> BoundReport:
    """min(tr - deg) <= min_eig(Atr) <= average(tr - deg)."""
    atr = ctx[MatrixKind.Atr]
    lam1 = atr.eigenvalues[0]
    return BoundReport((
        _leq("min(tr - deg) <= min_eig(Atr)", min(ctx.r), lam1, atr.tol),
        _leq("min_eig(Atr) <= mean(tr - deg)", lam1, sum(ctx.r) / ctx.g.n, atr.tol),
    ))


def check_conductance_bracket(ctx: GraphSpectra) -> BoundReport:
    """Conductance bracket for the second-smallest eigenvalue of Atr:

        phi^2 / (2 * max_deg) + min(tr - deg) < eig_2(Atr)
                                  eig_2(Atr) <= 2 * phi + max(tr - deg)

    The lower bound is strict in exact arithmetic; numerically it is
    checked with the usual slack.
    """
    if ctx.g.n < 2:
        raise ValueError("second eigenvalue needs at least two vertices")
    phi, _ = conductance(ctx.g)
    atr = ctx[MatrixKind.Atr]
    lam2 = atr.eigenvalues[1]
    lower = float(phi) ** 2 / (2 * max(ctx.profile.deg)) + min(ctx.r)
    upper = 2 * float(phi) + max(ctx.r)
    return BoundReport((
        _leq("phi^2/(2*max_deg) + min(tr - deg) < eig_2(Atr)", lower, lam2, atr.tol),
        _leq("eig_2(Atr) <= 2*phi + max(tr - deg)", lam2, upper, atr.tol),
    ))


def check_shift_lemmas(ctx: GraphSpectra) -> BoundReport:
    """Constant-diagonal shift identities.

    When every degree equals k, the spectrum of deg(G) - D is the
    reflection k - spectrum(D); when every transmission equals r, the
    spectrum of tr(G) - A is r - spectrum(A).  Each identity is checked as
    a sorted-multiset comparison and reported as not applicable when the
    relevant regularity fails.
    """
    checks = []
    for name, minus_kind, base_kind, diagonal in (
            ("spectrum(Ddeg) == deg - spectrum(D)", MatrixKind.Ddeg, MatrixKind.D, ctx.profile.deg),
            ("spectrum(Atr) == tr - spectrum(A)", MatrixKind.Atr, MatrixKind.A, ctx.profile.tr)):
        if len(set(diagonal)) != 1:
            checks.append(InequalityRecord(f"{name} (not applicable)", 0.0, 0.0, 0.0,
                                           holds=True, applicable=False))
            continue
        minus, base = ctx[minus_kind], ctx[base_kind]
        mirrored = sorted(diagonal[0] - lam for lam in base.eigenvalues)
        dev = max(abs(x - y) for x, y in zip(minus.eigenvalues, mirrored))
        checks.append(_leq(name, dev, 0.0, max(minus.tol, base.tol)))
    return BoundReport(tuple(checks))


THIRD_MOMENT_EXPANSION = "trace(Atr^3) == sum(tr^3) + 3*wdeg - 6*triangles"
THIRD_MOMENT_UNIT_MIXED = "trace(Atr^3) == sum(tr^3) + wdeg + 6*triangles"


def check_moments(ctx: GraphSpectra) -> BoundReport:
    """Exact trace identities for powers of the transmission-adjacency
    matrix, in integer arithmetic (no tolerance).

    The first two moments are unambiguous.  For the third, both candidate
    identities are evaluated (see module docstring); inspect the records
    named by THIRD_MOMENT_EXPANSION / THIRD_MOMENT_UNIT_MIXED.
    """
    g, profile = ctx.g, ctx.profile
    atr = ctx.matrix(MatrixKind.Atr)
    sq = mat_mul(atr, atr)
    # trace(Atr^2 Atr), reading column i of the symmetric Atr as row i
    tr_cube = sum(sum(map(mul, x, y)) for x, y in zip(sq, atr))
    w, wdeg = wiener_indices(profile)
    edges = g.edge_count()
    triangles = triangle_count(g)
    tr2 = sum(t * t for t in profile.tr)
    tr3 = sum(t * t * t for t in profile.tr)
    return BoundReport((
        _eq_exact("trace(Atr) == wiener", trace(atr), w),
        _eq_exact("trace(Atr^2) == 2*edges + sum(tr^2)", trace(sq), 2 * edges + tr2),
        _eq_exact(THIRD_MOMENT_EXPANSION, tr_cube, tr3 + 3 * wdeg - 6 * triangles),
        _eq_exact(THIRD_MOMENT_UNIT_MIXED, tr_cube, tr3 + wdeg + 6 * triangles),
    ))
