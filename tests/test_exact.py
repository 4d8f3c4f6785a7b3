import random
import signal
from math import gcd

import pytest

from graphinv.cli import CLI_KINDS
from graphinv.exact import SnfResult, charpoly, cokernel, determinant, snf
from graphinv.generators import generate_connected_graphs, generate_trees
from graphinv.graphs import complete_graph, cricket_graph, cycle_graph, distance_profile, star_graph
from graphinv.matrices import MatrixKind, build, mat_mul
from graphinv.sandpile import cone_graph

from oracles import (
    charpoly_berkowitz_reference,
    charpoly_cofactor,
    det_cofactor,
    identity_matrix,
    minor_gcd,
    poly_eval,
    poly_mul,
    snf_reference,
)


def _random_matrix(rng, n, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def _random_unimodular(rng, n, ops=6):
    m = identity_matrix(n)
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for col in range(n):
            m[i][col] += c * m[j][col]
    return m


# ---------------------------------------------------------------------------
# Smith normal form

def test_snf_tiny_examples():
    assert snf([[2, 0], [0, 3]]).factors == (1, 6)
    assert snf([[0, 0], [0, 0]]) == SnfResult((), 2, 2)
    assert snf(identity_matrix(4)).factors == (1, 1, 1, 1)


def test_snf_cycle5_family():
    c5 = cycle_graph(5)
    assert snf(build(c5, MatrixKind.A)).diagonal() == (1, 1, 1, 1, 2)
    assert snf(build(c5, MatrixKind.L)).diagonal() == (1, 1, 1, 5, 0)
    assert snf(build(c5, MatrixKind.Atr)).diagonal() == (1, 1, 1, 41, 164)
    assert snf(build(c5, MatrixKind.AtrPlus)).diagonal() == (1, 1, 1, 29, 232)


def test_snf_tree_distance_all_trees_on_8():
    for t in generate_trees(8):
        assert snf(build(t, MatrixKind.D)).diagonal() == (1, 1, 2, 2, 2, 2, 2, 14)


def test_snf_divisibility_chain_and_negation():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = _random_matrix(rng, n)
        res = snf(m)
        assert res.rank + res.zeros == n
        for a, b in zip(res.factors, res.factors[1:]):
            assert b % a == 0
        assert all(f >= 1 for f in res.factors)
        assert snf([[-x for x in row] for row in m]) == res


def test_snf_permutation_invariance():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 6)
        m = _random_matrix(rng, n)
        res = snf(m)
        perm = list(range(n))
        rng.shuffle(perm)
        pm = [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        assert snf(pm) == res


def test_snf_unimodular_invariance():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 6)
        m = _random_matrix(rng, n, bound=5)
        p = _random_unimodular(rng, n)
        q = _random_unimodular(rng, n)
        assert snf(mat_mul(p, mat_mul(m, q))) == snf(m)


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(77)
    mats = [_random_matrix(rng, rng.randint(1, 5), bound=6) for _ in range(30)]
    mats.append([[0, 0], [0, 0]])
    mats.append(build(cycle_graph(5), MatrixKind.A))
    for m in mats:
        res = snf(m)
        prod = 1
        for k, f in enumerate(res.factors, start=1):
            prod *= f
            assert prod == abs(minor_gcd(m, k))
        if res.rank < len(m):
            assert minor_gcd(m, res.rank + 1) == 0


def test_snf_matches_reference_on_graph_matrices():
    kinds = [MatrixKind[k] for k in CLI_KINDS]
    cases = [(g, kinds) for n in range(1, 8) for g in generate_connected_graphs(n)]
    new_kinds = [MatrixKind.Atr, MatrixKind.AtrPlus, MatrixKind.Ddeg, MatrixKind.DdegPlus]
    cases += [(t, new_kinds) for n in range(1, 11) for t in generate_trees(n)]
    checked = 0
    for g, ks in cases:
        profile = distance_profile(g)
        for kind in ks:
            m = build(g, kind, profile)
            assert snf(m) == snf_reference(m), (g, kind)
            checked += 1
    assert checked == 996 * 10 + 201 * 4


def test_snf_matches_reference_on_random_matrices():
    # dense wide entries, and sparse {0, +-1, 2} entries that leave
    # remainders in the pivot row and rank-deficient blocks
    rng = random.Random(1979)
    sparse = (0,) * 6 + (1, -1, 2)
    for i in range(400):
        n = i % 17
        if i % 2:
            m = [[rng.choice(sparse) for _ in range(n)] for _ in range(n)]
        else:
            m = _random_matrix(rng, n, bound=rng.choice((2, 9, 50)))
        assert snf(m) == snf_reference(m), m


NO_UNIT = (0, 0, 2, -2, 3, -3, 4, -4, 6)


def _no_unit_matrix(rng, n):
    return [[rng.choice(NO_UNIT) for _ in range(n)] for _ in range(n)]


def test_snf_matches_reference_without_unit_entries():
    # no +-1 to stop the pivot scan early, so the full scan and the
    # remainder column pass both run
    rng = random.Random(1980)
    for i in range(300):
        m = _no_unit_matrix(rng, 1 + i % 12)
        assert snf(m) == snf_reference(m), m
    assert snf([[2, 3], [3, 4]]).factors == (1, 1)
    assert snf([[4, 6], [6, 4]]).factors == (2, 10)


def test_snf_matches_reference_with_a_late_unit():
    # the only unit is a -1 in the last row or in the last column
    rng = random.Random(1981)
    for i in range(200):
        n = 2 + i % 11
        m = _no_unit_matrix(rng, n)
        k = rng.randrange(n)
        if i % 2:
            m[n - 1][k] = -1
        else:
            m[k][n - 1] = -1
        assert snf(m) == snf_reference(m), m
    assert snf([[2, 0, 0], [0, 2, 0], [0, 0, -1]]).factors == (1, 2, 2)
    assert snf([[2, 4, 0], [6, 2, 0], [4, 0, -1]]).factors == (1, 2, 10)


def test_snf_matches_reference_with_unit_after_a_two():
    # a +-1 only after an earlier entry of magnitude 2 in row-major order
    rng = random.Random(1982)
    for i in range(200):
        n = 2 + i % 11
        m = _no_unit_matrix(rng, n)
        first = rng.randrange(n * n - 1)
        later = rng.randrange(first + 1, n * n)
        m[first // n][first % n] = rng.choice((2, -2))
        m[later // n][later % n] = rng.choice((1, -1))
        assert snf(m) == snf_reference(m), m
    assert snf([[2, 0], [0, 1]]).factors == (1, 2)
    assert snf([[-2, 3], [1, 2]]).factors == (1, 7)


def _sparse_unit_matrix(rng, n):
    return [[rng.choice((0, 0, 0, 1, -1)) for _ in range(n)] for _ in range(n)]


def test_snf_and_determinant_on_empty_zero_and_sparse_unit_matrices():
    # the 0x0 and 1x1 zero matrices, then sparse 0/+-1 matrices with n <= 6,
    # whose zero pivots, row swaps and zero trailing blocks reach every way
    # out of the SNF step and of the Bareiss column
    assert snf([]) == SnfResult((), 0, 0) and determinant([]) == 1
    assert snf([[0]]) == SnfResult((), 1, 1) and determinant([[0]]) == 0
    rng = random.Random(2025)
    cases = [[], [[0]]] + [_sparse_unit_matrix(rng, 1 + i % 6) for i in range(600)]
    singular = 0
    for m in cases:
        assert snf(m) == snf_reference(m), m
        d = determinant(m)
        assert d == det_cofactor(m), m
        singular += d == 0
    assert 100 < singular < 500


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: SNF entry growth")
def test_snf_of_ddeg_on_a_star_with_50_leaves_within_a_second():
    # the Euclidean elimination lets entries grow to millions of bits here:
    # this SNF had not finished after 10 minutes
    m = build(star_graph(50), MatrixKind.Ddeg)

    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        finished = snf(m).n == 51
    except TimeoutError:
        finished = False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert finished, "SNF still running after 1 s"


def test_snf_rejects_nonsquare():
    with pytest.raises(ValueError):
        snf([[1, 2, 3], [4, 5, 6]])


# ---------------------------------------------------------------------------
# Characteristic polynomial

def test_charpoly_examples():
    assert charpoly([[0]]).coeffs == (1, 0)
    assert charpoly(build(complete_graph(3), MatrixKind.A)).coeffs == (1, 0, -3, -2)


def test_charpoly_laplacian_complete():
    # x * (x - n)^(n-1), expanded with the independent polynomial helper
    for n in range(2, 7):
        got = charpoly(build(complete_graph(n), MatrixKind.L)).coeffs
        expansion = [1]
        for _ in range(n - 1):
            expansion = poly_mul(expansion, [-n, 1])  # ascending (x - n)
        expansion = poly_mul(expansion, [0, 1])       # times x
        want = tuple(reversed(expansion))
        assert got == want


def test_charpoly_against_cofactor_oracle():
    rng = random.Random(31)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n)
        assert charpoly(m).coeffs == charpoly_cofactor(m)


def test_charpoly_matches_reference_on_trees():
    kinds = (MatrixKind.Atr, MatrixKind.AtrPlus, MatrixKind.Ddeg, MatrixKind.DdegPlus)
    for n in range(1, 11):
        for t in generate_trees(n):
            for kind in kinds:
                m = build(t, kind)
                assert charpoly(m).coeffs == charpoly_berkowitz_reference(m)


def test_charpoly_matches_reference_on_random_matrices():
    # not necessarily symmetric, wide entries, n = 0 included
    rng = random.Random(1984)
    for i in range(300):
        m = _random_matrix(rng, i % 10, bound=50)
        assert charpoly(m).coeffs == charpoly_berkowitz_reference(m)
    assert charpoly([]).coeffs == (1,)


def test_charpoly_newton_power_sums():
    # power sums recovered from the coefficients equal trace(m^k) exactly
    rng = random.Random(13)
    mats = [_random_matrix(rng, rng.randint(1, 5)) for _ in range(30)]
    mats += [build(g, MatrixKind.Atr) for g in generate_connected_graphs(5)]
    for m in mats:
        n = len(m)
        c = charpoly(m).coeffs
        p = {}
        for k in range(1, min(3, n) + 1):
            p[k] = -(k * c[k] + sum(c[i] * p[k - i] for i in range(1, k)))
        power = m
        for k in range(1, min(3, n) + 1):
            assert p[k] == sum(power[i][i] for i in range(n))
            power = mat_mul(power, m)


def test_charpoly_eval_and_degree():
    cp = charpoly(build(cycle_graph(4), MatrixKind.A))
    assert cp.degree == 4
    assert poly_eval(cp, 2) == 0  # 2 is an adjacency eigenvalue of any cycle


# ---------------------------------------------------------------------------
# Determinant and cokernel

def test_determinant_examples():
    assert determinant(build(cricket_graph(), MatrixKind.Atr)) == 5684
    assert determinant(build(cycle_graph(5), MatrixKind.Atr)) == 41 * 164
    for n in range(2, 7):
        for g in generate_connected_graphs(n):
            assert determinant(build(g, MatrixKind.L)) == 0


def test_determinant_against_oracle_and_charpoly():
    rng = random.Random(8)
    for _ in range(80):
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n)
        d = determinant(m)
        assert d == det_cofactor(m)
        assert d == (-1) ** n * charpoly(m).coeffs[-1]


def test_determinant_vs_invariant_factors():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n, bound=4)
        res = snf(m)
        d = determinant(m)
        if res.zeros:
            assert d == 0
        else:
            prod = 1
            for f in res.factors:
                prod *= f
            assert abs(d) == prod


def test_cokernel():
    assert cokernel(identity_matrix(3)).torsion == ()
    assert cokernel(identity_matrix(3)).free_rank == 0
    cricket_cone = cone_graph(cricket_graph())
    group = cokernel(cricket_cone.laplacian())
    assert group.torsion == (7, 812)
    assert group.free_rank == 1
    for n in range(3, 9):
        group = cokernel(build(complete_graph(n), MatrixKind.L))
        assert group.torsion == (n,) * (n - 2)
        assert group.free_rank == 1
    assert str(cokernel(identity_matrix(2))) == "trivial"
