import copy
import random
import signal
from fractions import Fraction
from math import gcd

import pytest

from graphinv import census, exact
from graphinv.cli import CLI_KINDS
from graphinv.closedforms import det_tree_distance
from graphinv.exact import SnfResult, charpoly, cokernel, determinant, snf
from graphinv.generators import generate_connected_graphs, generate_trees
from graphinv.graphs import (
    complete_graph,
    cricket_graph,
    cycle_graph,
    distance_profile,
    graph_from_edges,
    star_graph,
)
from graphinv.matrices import MatrixKind, build, mat_mul
from graphinv.sandpile import cone_graph

from oracles import (
    charpoly_berkowitz_reference,
    charpoly_cofactor,
    det_cofactor,
    det_modular,
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


def test_snf_tree_distance_all_trees_on_8():
    for t in generate_trees(8):
        assert snf(build(t, MatrixKind.D)).diagonal() == (1, 1, 2, 2, 2, 2, 2, 14)


def test_snf_divisibility_chain_and_negation():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = _random_matrix(rng, n)
        res = snf(m)
        assert len(res.factors) + res.zeros == n
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
        if len(res.factors) < len(m):
            assert minor_gcd(m, len(res.factors) + 1) == 0


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


@pytest.mark.xfail(strict=True, reason="ROADMAP item \"SNF entry growth\"")
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


@pytest.mark.parametrize("f", [snf, charpoly, determinant, cokernel])
@pytest.mark.parametrize("m, at", [
    pytest.param([[1.5, 0, 0], [0, 1.5, 0], [0, 0, 1.5]], (0, 0), id="float-scalar"),
    pytest.param([[2, 1, 0], [1, 2, 1], [0, 1, 2.5]], (2, 2), id="float-last"),
    pytest.param([[2.5, 1], [1, 2]], (0, 0), id="float-first"),
    pytest.param([[2, 1], [1, 2.0]], (1, 1), id="integral-float"),
    pytest.param([[2, 1, 0], [1, True, 1], [0, 1, 2]], (1, 1), id="bool"),
    pytest.param([[2, 1], [Fraction(1, 2), 2]], (1, 0), id="fraction"),
])
def test_exact_algebra_rejects_an_entry_that_is_not_an_int(f, m, at):
    # the first three gave wrong values silently: determinant 3.0 for 3.375
    # and 5.0 for 5.5, and snf factors (1, 4.0)
    with pytest.raises(ValueError, match=rf"entry \({at[0]}, {at[1]}\) is not an integer"):
        f(m)


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
    assert len(cp.coeffs) - 1 == 4
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


# the orders the small-matrix case builders draw
_KERNEL_ORDERS = range(9)


def _det_oracle(m):
    # cofactor expansion up to n = 6, the reference charpoly's c_n up to 24,
    # and elimination over a prime field past that
    n = len(m)
    if n <= 6:
        return det_cofactor(m)
    return (-1) ** n * charpoly_berkowitz_reference(m)[-1] if n <= 24 else det_modular(m)


def _upper(m):
    """The upper-triangle rows of ``m``, as the symmetric determinant takes them."""
    return [list(row[i:]) for i, row in enumerate(m)]


def _kernel_cases(rng):
    """Seeded matrices of every order 0..8 (none symmetric but by chance):
    dense with wide entries, sparse 0/+-1, and three with a zero pivot: a
    leading principal minor made singular midway, a repeated row and a zero
    row."""
    cases = []
    for n in _KERNEL_ORDERS:
        for bound in (1, 9, 1000):
            cases += [_random_matrix(rng, n, bound) for _ in range(8)]
        cases += [_sparse_unit_matrix(rng, n) for _ in range(8)]
        if n >= 3:
            m = _random_matrix(rng, n)
            k = rng.randrange(1, n - 1)
            m[k][:k + 1] = [sum(col) for col in zip(*(row[:k + 1] for row in m[:k]))]
            cases.append(m)
            m = _random_matrix(rng, n)
            m[rng.randrange(1, n)] = list(m[0])
            cases.append(m)
            m = _random_matrix(rng, n)
            m[rng.randrange(n)] = [0] * n
            cases.append(m)
    return cases


def _symmetrized(m):
    """The symmetric matrix with ``m``'s upper triangle."""
    return [[m[min(i, j)][max(i, j)] for j in range(len(m))] for i in range(len(m))]


def _symmetric_kernel_cases(rng):
    """Seeded symmetric matrices of every order 0..8: dense with wide
    entries, sparse 0/+-1, and three with a zero pivot: a leading principal
    minor made singular midway, a repeated row and column, and a zero row and
    column."""
    cases = []
    for n in _KERNEL_ORDERS:
        for bound in (1, 9, 1000):
            cases += [_symmetrized(_random_matrix(rng, n, bound)) for _ in range(8)]
        cases += [_symmetrized(_sparse_unit_matrix(rng, n)) for _ in range(8)]
        if n >= 3:
            # row k of the leading (k+1) block becomes the sum of the rows above
            m = _symmetrized(_random_matrix(rng, n))
            k = rng.randrange(1, n - 1)
            sums = [sum(col) for col in zip(*(row[:k] for row in m[:k]))]
            for j, v in enumerate(sums):
                m[k][j] = m[j][k] = v
            m[k][k] = sum(sums)
            cases.append(m)
            cases.append(_repeated_row(rng, _symmetrized(_random_matrix(rng, n))))
            cases.append(_zero_row(rng, _symmetrized(_random_matrix(rng, n))))
    return cases


def _repeated_row(rng, m):
    """``m`` with a random row and column past the first set to row and column 0."""
    r = rng.randrange(1, len(m))
    m[r] = list(m[0])
    for row in m:
        row[r] = row[0]
    return m


def _zero_row(rng, m):
    """``m`` with a random row and column set to 0."""
    r = rng.randrange(len(m))
    m[r] = [0] * len(m)
    for row in m:
        row[r] = 0
    return m


def test_determinant_kernels_match_oracle_and_loop():
    # on a symmetric matrix of order 0..8 the two-step kernels and single
    # steps give the oracle's value from the upper-triangle rows, the same
    # as determinant() and as the general loop; a matrix that is not
    # symmetric takes the general loop
    rng = random.Random(2026)
    cases = _symmetric_kernel_cases(rng)
    assert all(m == _symmetrized(m) for m in cases)
    for m in cases:
        det = exact._determinant(_upper(m))
        assert det == _det_oracle(m) == determinant(m) == exact._eliminate(m), m
    for m in _kernel_cases(rng):
        assert determinant(m) == _det_oracle(m), m


def test_determinant_kernel_falls_back_at_a_zero_pivot(monkeypatch):
    orders, step2 = [], exact._step2
    monkeypatch.setattr(exact, "_step2", lambda s: orders.append(s) or step2(s))
    # a tree distance matrix has a zero first pivot but a nonzero leading 2x2
    # minor c0, so its first two steps are still one two-step call
    for t in generate_trees(8):
        d = build(t, MatrixKind.D)
        orders.clear()
        assert determinant(d) == det_tree_distance(8)
        assert orders[:1] == [8]
    # the second pivot a00 a11 - a10 a01 is zero, though the matrix is not
    # singular: c0 = 0, so it takes a single step and no two-step call
    m = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
    orders.clear()
    assert determinant(m) == det_cofactor(m) == -1
    assert orders == []
    # singular: the two-step call's last step gives 0, or c0 = 0 sends it to a single step
    for m in ([[1, 2], [2, 4]], [[1, 2, 3], [2, 5, 8], [3, 8, 13]], [[2, 2, 1], [2, 2, 1], [1, 1, 5]]):
        orders.clear()
        assert determinant(m) == 0
        assert orders == ([3] if m[0][0] * m[1][1] != m[0][1] ** 2 else []), m
    # singular and not symmetric: the general loop
    for m in ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], [[2, 1, 1], [2, 1, 1], [0, 0, 5]]):
        assert determinant(m) == 0


def test_each_determinant_kernel_is_compiled_once():
    # every block order's two-step kernel (3..16) compiles on its first use
    # only, and orders above _STEP_MAX_ORDER take plain row updates
    rng = random.Random(7)
    exact._step2.cache_clear()
    orders = range(exact._STEP_MAX_ORDER + 3)
    for _ in range(3):
        for n in orders:
            for m in (_random_matrix(rng, n), _symmetrized(_random_matrix(rng, n))):
                assert determinant(m) == _det_oracle(m)
            m = _symmetrized(_random_matrix(rng, n))
            for i in range(n):
                m[i][i] = 0
            assert determinant(m) == _det_oracle(m)
    info = exact._step2.cache_info()
    assert (info.currsize, info.misses) == (exact._STEP_MAX_ORDER - 2, exact._STEP_MAX_ORDER - 2)


def _symmetric_step_cases(rng, n):
    """Seeded symmetric matrices of order n: dense with wide entries, sparse
    0/+-1, zero-diagonal, 0/1 with a zero diagonal (as A is), singular by a
    repeated row and column or by a zero row and column, and one whose first
    leading 2x2 minor c0 is 0 as a00 = a01 = 0."""
    cases = [_symmetrized(_random_matrix(rng, n, bound)) for bound in (1, 9, 1000)]
    cases.append(_symmetrized(_sparse_unit_matrix(rng, n)))
    for entries in (range(-3, 4), (0, 1)):
        m = _symmetrized([[rng.choice(entries) for _ in range(n)] for _ in range(n)])
        for i in range(n):
            m[i][i] = 0
        cases.append(m)
    if n >= 2:
        cases.append(_repeated_row(rng, _symmetrized(_random_matrix(rng, n))))
        cases.append(_zero_row(rng, _symmetrized(_random_matrix(rng, n))))
        m = _symmetrized(_random_matrix(rng, n))
        m[0][0] = m[0][1] = m[1][0] = 0
        cases.append(m)
    return cases


def _singular_leading_block(rng, n, k):
    """A seeded symmetric order-n matrix whose leading (k+1) block has row
    and column k the sum of the rows and columns above, so that minor is 0."""
    m = _symmetrized(_random_matrix(rng, n))
    sums = [sum(col) for col in zip(*(row[:k] for row in m[:k]))]
    for j, v in enumerate(sums):
        m[k][j] = m[j][k] = v
    m[k][k] = sum(sums)
    return m


def test_determinant_steps_match_the_loop_across_the_hand_over(monkeypatch):
    # orders 0..20, 33 and 64 cross the hand-over from row updates to
    # two-step kernels at _STEP_MAX_ORDER: the upper triangle alone gives the
    # general loop's and the oracle's value; a block of order 3..16 whose
    # leading 2x2 minor c0 is nonzero takes a two-step call, no two-step
    # kernel outside 3.._STEP_MAX_ORDER is asked for, and a block with c0 = 0,
    # at step 0 or midway, takes a single step instead
    rng = random.Random(32)
    orders, step2 = [], exact._step2
    monkeypatch.setattr(exact, "_step2", lambda s: orders.append(s) or step2(s))
    for n in [*range(21), 33, 64]:
        # the step at which the two-step blocks start, once the blocks above 16 are stepped down
        start = max(0, n - exact._STEP_MAX_ORDER)
        cases = _symmetric_step_cases(rng, n)
        c0_at_0 = len(cases) - 1
        if n - start >= 5:
            # c0 = 0 at a later two-step block: its leading minor of order t + 2 is 0
            t = rng.randrange(start + 2, n - 2, 2)
            cases.append(_singular_leading_block(rng, n, t + 1))
        asked = []
        for m in cases:
            assert m == _symmetrized(m)
            det = exact._eliminate(m)
            orders.clear()
            assert exact._determinant(_upper(m)) == det == _det_oracle(m), m
            asked.append(list(orders))
            c0 = m[0][0] * m[1][1] - m[0][1] ** 2 if n > 1 else 0
            assert (orders[:1] == [n]) == (3 <= n <= exact._STEP_MAX_ORDER and c0 != 0), m
            assert determinant(m) == det, m
            assert all(3 <= s <= exact._STEP_MAX_ORDER for s in orders), m
        if 3 <= n <= exact._STEP_MAX_ORDER:
            assert cases[c0_at_0][0][:2] == [0, 0] and n not in asked[c0_at_0]
        if n - start >= 5:
            assert n - t + 2 in asked[-1] and n - t not in asked[-1], (n, t, asked[-1])


def test_large_determinant_compiles_no_step_kernel_above_the_cap(monkeypatch):
    # a 20x20 or 64x64 determinant runs plain row updates until its block
    # shrinks to _STEP_MAX_ORDER, then two steps per call, so it compiles the
    # two-step kernels of block orders _STEP_MAX_ORDER, _STEP_MAX_ORDER - 2,
    # ..., 4 and no other kernel (order 2 is taken inline)
    rng = random.Random(20)
    compiled = []

    def recorded_compile(source, name, mode):
        compiled.append(name)
        return compile(source, name, mode)

    monkeypatch.setattr(exact, "compile", recorded_compile, raising=False)
    for n in (20, 64):
        m = _symmetrized(_random_matrix(rng, n))
        exact._step2.cache_clear()
        compiled.clear()
        det = determinant(m)
        assert det == _det_oracle(m) == exact._eliminate(m)
        orders = range(exact._STEP_MAX_ORDER, 3, -2)
        assert compiled == [f"<Bareiss two-step kernel, n = {s}>" for s in orders]
        assert exact._step2.cache_info().currsize == len(orders)


def _random_connected_graph(rng, n):
    """A seeded connected graph on n vertices: a random spanning tree plus
    each other edge with a probability drawn from [0.1, 0.6]."""
    p = rng.uniform(0.1, 0.6)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for v in range(n) for u in range(v) if rng.random() < p}
    return graph_from_edges(n, edges)


def test_symmetric_determinant_matches_the_loop_on_census_inputs(monkeypatch):
    # every d input (the L and DL leading blocks among them) and every second
    # key input of seeded connected graphs with 2 <= n <= 24 in all ten kinds,
    # as the census passes them: the two-step kernels and row updates give the
    # general loop's and the oracle's value from the upper triangle alone,
    # never reach the loop, and between them take every way out of a zero
    # pivot; orders 2..8 draw from their own generator, so the seeded inputs
    # of orders 9..24 and after stay as they were
    rng, small = random.Random(31), random.Random(37)
    inputs, kinds = [], []
    monkeypatch.setattr(census, "_determinant", lambda rows: inputs.append(rows) or 0)
    graphs = [_random_connected_graph(small, n) for n in range(2, 9)]
    graphs += [_random_connected_graph(rng, n) for n in range(9, 25)]
    for g in graphs:
        for kind in MatrixKind:
            m = build(g, kind)
            census._det_key(kind, m)
            census._shifted_det(kind, m)
            kinds += [kind, None]
    assert len(inputs) == 2 * 10 * (25 - 2)
    # a zero pivot that adding no row mends: 2 a_0m + a_mm = 0 for every m;
    # a01 = 1 gives c0 = -1, so it takes a two-step call with no mend
    m = _symmetrized(_random_matrix(rng, 11))
    m[0] = [0] + [1] * 10
    for i in range(1, 11):
        m[i][0], m[i][i] = 1, -2
    inputs.append(_upper(m))
    # the same with a01 = a11 = 0, so c0 = 0: a single step, mended by subtracting
    m = _symmetrized(_random_matrix(rng, 11))
    m[0] = [0, 0] + [1] * 9
    m[1][0] = m[1][1] = 0
    for i in range(2, 11):
        m[i][0], m[i][i] = 1, -2
    inputs.append(_upper(m))
    # a repeated row and column: a zero row once the first step is taken
    m = _repeated_row(rng, _symmetrized(_random_matrix(rng, 11)))
    inputs.append(_upper(m))
    kinds += [None] * 3
    # _random_connected_graph joins vertices 0 and 1, so relabel one A to part them
    m = build(_random_connected_graph(rng, 12), MatrixKind.A)
    v = m[0].index(0, 1)
    perm = list(range(12))
    perm[1], perm[v] = v, 1
    inputs.append(_upper([[m[i][j] for j in perm] for i in perm]))
    kinds.append(MatrixKind.A)
    mends, loops, eliminate, mend = [], [], exact._eliminate, exact._mend

    def recorded_mend(rows):
        # n is the order of the input being taken, so n - len(rows) is the step
        adds = any(2 * rows[0][j] + rows[j][0] for j in range(1, len(rows)))
        pivot = mend(rows)
        mends.append((n - len(rows), "zero row" if not pivot else "add" if adds else "subtract"))
        return pivot

    monkeypatch.setattr(exact, "_mend", recorded_mend)
    monkeypatch.setattr(exact, "_eliminate", lambda m: loops.append(len(m)) or eliminate(m))
    first_mends = {MatrixKind.A: set(), MatrixKind.D: set()}
    all_mends = []
    for kind, rows in zip(kinds, inputs):
        n = len(rows)
        m = [[rows[min(i, j)][abs(j - i)] for j in range(n)] for i in range(n)]
        loop = eliminate(m)
        mends.clear()
        assert exact._determinant(_upper(m)) == loop == _det_oracle(m), m
        # A and D have a zero diagonal.  Up to order _STEP_MAX_ORDER, D's
        # a01 = d(0, 1) > 0 gives c0 = -a01² != 0, so D never mends at step 0,
        # while A mends there exactly when a01 = 0; above it step 0 is a
        # single step, so both mend there
        if kind in first_mends:
            at_step_0 = bool(mends) and mends[0][0] == 0
            two_step = n <= exact._STEP_MAX_ORDER
            assert at_step_0 == (not two_step or kind is MatrixKind.A and m[0][1] == 0), (kind, m)
            first_mends[kind].add((two_step, at_step_0))
        all_mends += mends
        assert determinant(m) == loop, m
    assert loops == []
    assert 0 in {k for k, _ in all_mends} and any(k for k, _ in all_mends)
    assert {how for _, how in all_mends} == {"add", "subtract", "zero row"}
    assert first_mends == {MatrixKind.A: {(True, False), (True, True), (False, True)},
                           MatrixKind.D: {(True, False), (False, True)}}


def test_determinant_reads_a_matrix_that_is_not_symmetric_whole():
    # a matrix whose upper triangle is a symmetric matrix's, below and above the kernel orders
    rng = random.Random(5)
    for n in (5, 12):
        s = _symmetrized(_random_matrix(rng, n))
        m = [list(row) for row in s]
        m[n - 1][0] += 1
        assert determinant(m) == _det_oracle(m) != determinant(s) == _det_oracle(s)


def test_determinant_leaves_its_argument_unchanged(monkeypatch):
    # an A whose zero first pivot is mended (a00 = a01 = 0, so c0 = 0), a
    # symmetric matrix of order above 16, and a matrix that is not symmetric
    # and needs a row swap
    rng = random.Random(41)
    mended, mend = [], exact._mend
    monkeypatch.setattr(exact, "_mend", lambda rows: mended.append(len(rows)) or mend(rows))
    a = build(graph_from_edges(4, [(0, 2), (1, 2), (1, 3)]), MatrixKind.A)
    for m in (a, _symmetrized(_random_matrix(rng, 20)), [[0, 1, 2], [3, 4, 5], [6, 7, 9]]):
        before = copy.deepcopy(m)
        assert determinant(m) == _det_oracle(before)
        assert m == before
    assert mended[:1] == [4]


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
