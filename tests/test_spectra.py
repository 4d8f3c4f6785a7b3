import math
import random
from collections import Counter

import pytest

from graphinv import graphs, matrices, sandpile, spectra, verify
from graphinv.exact import charpoly
from graphinv.generators import generate_connected_graphs
from graphinv.graphs import (
    complete_graph,
    cricket_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from graphinv.matrices import MatrixKind, build, mat_mul, trace
from graphinv.spectra import (
    THIRD_MOMENT_EXPANSION,
    THIRD_MOMENT_UNIT_MIXED,
    GraphSpectra,
    check_conductance_bracket,
    check_extreme_bounds,
    check_lambda1_bracket,
    check_moments,
    check_shift_lemmas,
    check_weyl_sandwich,
    default_tol,
    eigenvalues_symmetric,
)

from oracles import eigenvalues_symmetric_reference, poly_eval


def _close(xs, ys, tol=1e-8):
    return len(xs) == len(ys) and all(abs(x - y) <= tol for x, y in zip(xs, ys))


def test_eigenvalues_k2():
    spec = eigenvalues_symmetric(build(complete_graph(2), MatrixKind.A))
    assert _close(spec.eigenvalues, (-1.0, 1.0))


def test_eigenvalues_cycle5_adjacency():
    spec = eigenvalues_symmetric(build(cycle_graph(5), MatrixKind.A))
    want = sorted(2 * math.cos(2 * math.pi * k / 5) for k in range(5))
    assert _close(spec.eigenvalues, want)


def test_eigenvalues_laplacian_k4():
    spec = eigenvalues_symmetric(build(complete_graph(4), MatrixKind.L))
    assert _close(spec.eigenvalues, (0.0, 4.0, 4.0, 4.0))


def test_eigenvalues_reject_bad_input(monkeypatch):
    with pytest.raises(ValueError, match="symmetric"):
        eigenvalues_symmetric([[0, 1], [0, 0]])
    # a short second row once raised a raw IndexError, or was called not symmetric
    for m in ([[0, 1]], [[1, 2], []], [[1, 2], [3]]):
        with pytest.raises(ValueError, match="^matrix must be square$"):
            eigenvalues_symmetric(m)
    # running out of sweeps raises instead of returning unconverged values
    m = build(cricket_graph(), MatrixKind.Atr)
    monkeypatch.setattr(spectra, "JACOBI_MAX_SWEEPS", 2)
    with pytest.raises(ValueError, match="within 2 sweeps"):
        eigenvalues_symmetric(m)
    monkeypatch.setattr(spectra, "JACOBI_MAX_SWEEPS", 6)
    assert eigenvalues_symmetric(m).eigenvalues[0] > 0


def test_eigenvalues_accept_entries_that_are_not_ints():
    # exact's integer-entry check is not the eigensolver's: floats and bools
    # pass, on the generated kernels and on the row loop alike
    for n in (3, 12):
        m = [[1.5 if i == j else 0.0 for j in range(n)] for i in range(n)]
        assert eigenvalues_symmetric(m).eigenvalues == (1.5,) * n
        m = [[i == j for j in range(n)] for i in range(n)]
        assert eigenvalues_symmetric(m).eigenvalues == (1.0,) * n


BOUNDS_KINDS = (MatrixKind.A, MatrixKind.D, MatrixKind.L, MatrixKind.Atr, MatrixKind.Ddeg)


def test_eigenvalues_bit_identical_to_reference_on_graphs():
    # every kind up to n = 6, and the five kinds the bounds read at n = 7
    for n in range(1, 8):
        kinds = list(MatrixKind) if n <= 6 else BOUNDS_KINDS
        for g in generate_connected_graphs(n):
            for kind in kinds:
                m = build(g, kind)
                assert eigenvalues_symmetric(m) == eigenvalues_symmetric_reference(m), (g, kind)


def _random_symmetric(rng, n, zero_rows=0, diagonal=False):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if diagonal else 0, i + 1):
            m[i][j] = m[j][i] = rng.randint(-50, 50)
    for i in rng.sample(range(n), zero_rows):
        for j in range(n):
            m[i][j] = m[j][i] = 0
    return m


def test_eigenvalues_bit_identical_to_reference_on_random_matrices():
    rng = random.Random(13)
    cases = [[[7]], [[-3]], [[0]]]
    for n in range(21):
        cases.append(_random_symmetric(rng, n, diagonal=True))
        for _ in range(3):
            cases.append(_random_symmetric(rng, n))
            if n >= 2:
                # zero rows stay zero, so their rotations take the apq == 0.0 skip
                cases.append(_random_symmetric(rng, n, zero_rows=rng.randint(1, n - 1)))
    spectra._kernel.cache_clear()
    for m in cases:
        assert eigenvalues_symmetric(m) == eigenvalues_symmetric_reference(m), m
    # orders 0..8 ran on unrolled kernels, and the larger ones on the row loop
    assert spectra._kernel.cache_info().currsize == 9
    # each kernel inlines its rotations: no call per rotation but abs and sqrt
    for n in range(2, 9):
        assert set(spectra._kernel(n).__code__.co_names) <= {"range", "abs", "sqrt"}, n


def test_sweep_cap_stops_like_reference(monkeypatch):
    outcomes = set()
    for cap in range(8):
        monkeypatch.setattr(spectra, "JACOBI_MAX_SWEEPS", cap)
        for g in (petersen_graph(), cricket_graph()):
            for kind in BOUNDS_KINDS:
                m = build(g, kind)
                results = []
                for solve in (eigenvalues_symmetric, eigenvalues_symmetric_reference):
                    try:
                        results.append(solve(m))
                    except ValueError as exc:
                        assert f"within {cap} sweeps" in str(exc)
                        results.append("raised")
                assert results[0] == results[1], (cap, g, kind)
                outcomes.add(results[0] == "raised")
    assert outcomes == {True, False}


def test_eigenvalue_sums_match_traces():
    for g in (cricket_graph(), cycle_graph(6), path_graph(5)):
        for kind in (MatrixKind.A, MatrixKind.Atr, MatrixKind.Ddeg, MatrixKind.DQ):
            m = build(g, kind)
            spec = eigenvalues_symmetric(m)
            tol = default_tol(m) * g.n
            assert abs(sum(spec.eigenvalues) - trace(m)) <= tol
            assert abs(sum(x * x for x in spec.eigenvalues) - trace(mat_mul(m, m))) <= tol * 10


def test_numeric_roots_satisfy_charpoly():
    for g in (cricket_graph(), path_graph(5), cycle_graph(6)):
        m = build(g, MatrixKind.Atr)
        cp = charpoly(m)
        spec = eigenvalues_symmetric(m)
        scale = max(abs(c) for c in cp.coeffs)
        for lam in spec.eigenvalues:
            assert abs(poly_eval(cp, lam)) <= 1e-6 * scale


def test_extreme_bounds_equalities_on_cycle():
    report = check_extreme_bounds(GraphSpectra(cycle_graph(5)))
    assert report.all_hold()
    for c in report.checks:
        assert abs(c.right - c.left) <= c.tol  # vertex-transitive: all four are tight


def test_extreme_bounds_cricket_and_complete():
    report = check_extreme_bounds(GraphSpectra(cricket_graph()))
    assert report.all_hold()
    assert any(c.right - c.left > 1e-6 for c in report.checks)
    for n in range(2, 7):
        report = check_extreme_bounds(GraphSpectra(complete_graph(n)))
        assert report.all_hold()
        lower = report.checks[0]
        assert abs(lower.left) <= lower.tol and abs(lower.right) <= lower.tol


def test_weyl_sandwich():
    # transmission-regular: both sides collapse to equality at every index
    for g in (cycle_graph(5), petersen_graph(), complete_graph(5)):
        report = check_weyl_sandwich(GraphSpectra(g))
        assert report.all_hold()
        for c in report.checks:
            assert abs(c.right - c.left) <= c.tol
    report = check_weyl_sandwich(GraphSpectra(path_graph(4)))
    assert report.all_hold()
    assert len(report.checks) == 8


def test_lambda1_bracket():
    for n in range(2, 7):
        report = check_lambda1_bracket(GraphSpectra(complete_graph(n)))
        assert report.all_hold()
        assert all(abs(c.left) <= c.tol and abs(c.right) <= c.tol for c in report.checks)
    report = check_lambda1_bracket(GraphSpectra(cycle_graph(5)))
    assert report.all_hold()
    assert abs(report.checks[0].left - 4) <= 1e-9
    report = check_lambda1_bracket(GraphSpectra(star_graph(4)))
    assert report.all_hold()
    assert report.checks[0].left == 0
    assert abs(report.checks[1].right - 24 / 5) <= 1e-9


def test_conductance_bracket():
    report = check_conductance_bracket(GraphSpectra(complete_graph(4)))
    assert report.all_hold()
    lower, upper = report.checks
    assert abs(lower.left - 2 / 3) <= 1e-9
    assert abs(lower.right - 4.0) <= 1e-6
    assert abs(upper.right - 4.0) <= 1e-9
    assert check_conductance_bracket(GraphSpectra(cycle_graph(5))).all_hold()
    assert check_conductance_bracket(GraphSpectra(path_graph(3))).all_hold()
    with pytest.raises(ValueError, match="^conductance needs at least two vertices$"):
        check_conductance_bracket(GraphSpectra(complete_graph(1)))


def test_shift_lemmas_petersen():
    report = check_shift_lemmas(GraphSpectra(petersen_graph()))
    assert all(c.applicable for c in report.checks)
    assert [c.name for c in report.checks] == [
        "spectrum(Ddeg) == deg - spectrum(D)",
        "spectrum(Atr) == tr - spectrum(A)",
    ]
    assert report.all_hold()
    # transmission 15 against adjacency spectrum {3, 1^5, (-2)^4}
    spec = eigenvalues_symmetric(build(petersen_graph(), MatrixKind.Atr))
    want = sorted([12.0] + [14.0] * 5 + [17.0] * 4)
    assert _close(spec.eigenvalues, want, tol=1e-7)


def test_shift_lemmas_cycle_and_cricket():
    report = check_shift_lemmas(GraphSpectra(cycle_graph(5)))
    assert all(c.applicable for c in report.checks)
    assert report.all_hold()
    report = check_shift_lemmas(GraphSpectra(cricket_graph()))
    assert not any(c.applicable for c in report.checks)
    assert [c.name for c in report.checks] == [
        "spectrum(Ddeg) == deg - spectrum(D) (not applicable)",
        "spectrum(Atr) == tr - spectrum(A) (not applicable)",
    ]
    assert report.all_hold()  # inapplicable reports as holding trivially


def test_moments_examples():
    assert check_moments(GraphSpectra(complete_graph(3))).checks[0].holds
    report = check_moments(GraphSpectra(cycle_graph(5)))
    assert report.checks[0].left == 30
    report = check_moments(GraphSpectra(path_graph(3)))
    assert report.checks[1].left == 2 * 2 + (9 + 4 + 9)
    assert report.checks[1].holds


def test_moments_exact_sweep():
    saw_disagreement = False
    for n in range(1, 6):
        for g in generate_connected_graphs(n):
            report = check_moments(GraphSpectra(g))
            assert report.checks[0].holds
            assert report.checks[1].holds
            assert report.by_name(THIRD_MOMENT_EXPANSION).holds
            if not report.by_name(THIRD_MOMENT_UNIT_MIXED).holds:
                saw_disagreement = True
    # the two third-moment forms are genuinely different identities
    assert saw_disagreement
    k3 = check_moments(GraphSpectra(complete_graph(3)))
    assert not k3.by_name(THIRD_MOMENT_UNIT_MIXED).holds


def test_third_moment_reads_trace_of_cube():
    for n in range(1, 7):
        for g in generate_connected_graphs(n):
            atr = build(g, MatrixKind.Atr)
            cube = trace(mat_mul(mat_mul(atr, atr), atr))
            report = check_moments(GraphSpectra(g))
            assert report.by_name(THIRD_MOMENT_EXPANSION).left == cube
            assert report.by_name(THIRD_MOMENT_UNIT_MIXED).left == cube


def test_lambda1_simple_for_connected():
    for n in range(2, 8):
        for g in generate_connected_graphs(n):
            m = build(g, MatrixKind.Atr)
            spec = eigenvalues_symmetric(m)
            assert spec.eigenvalues[1] - spec.eigenvalues[0] > spec.tol


def test_graph_spectra_caches_each_kind():
    for g in (cricket_graph(), cycle_graph(5), path_graph(4)):
        ctx = GraphSpectra(g)
        for kind in (MatrixKind.A, MatrixKind.D, MatrixKind.L, MatrixKind.Atr, MatrixKind.Ddeg):
            spec = ctx[kind]
            assert spec == eigenvalues_symmetric(build(g, kind))
            assert ctx[kind] is spec


def test_bounds_suite_shares_one_context_per_graph(monkeypatch):
    # one distance profile and one Jacobi run per distinct matrix kind
    # (A, D, L, Atr, Ddeg) for each graph, however many checks read them
    calls = {"eigen": 0, "profile": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectra, "eigenvalues_symmetric", counted("eigen", spectra.eigenvalues_symmetric))
    monkeypatch.setattr(spectra, "distance_profile", counted("profile", spectra.distance_profile))
    graphs_checked = verify.run(["bounds"], 5)["bounds"].objects
    assert graphs_checked == 1 + 2 + 6 + 21
    assert calls == {"eigen": 5 * graphs_checked, "profile": graphs_checked}


def test_graph_suites_share_one_context_per_graph(monkeypatch):
    # the three graph suites read one context per graph: one profile, and
    # Atr built once although bounds, sandpile and moments all read it
    profiles, builds = [], Counter()

    def counted_profile(g):
        profiles.append(g)
        return graphs.distance_profile(g)

    def counted_build(g, kind, profile=None):
        builds[g, kind] += 1
        return matrices.build(g, kind, profile)

    for module in (spectra, sandpile, matrices):
        monkeypatch.setattr(module, "distance_profile", counted_profile)
    for module in (spectra, sandpile, verify):
        monkeypatch.setattr(module, "build", counted_build)
    results = verify.run(["bounds", "sandpile", "moments"], 5)
    corpus = [g for n in range(1, 6) for g in generate_connected_graphs(n)]
    assert [r.objects for r in results.values()] == [len(corpus) - 1, len(corpus) - 5, len(corpus)]
    assert profiles == corpus
    assert builds and max(builds.values()) == 1
