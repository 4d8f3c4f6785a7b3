import random
from fractions import Fraction
from functools import partial
from math import prod

import pytest

from graphinv import census
from graphinv.census import (
    BIPARTITE_TWINS,
    MAX_JOBS,
    MODES,
    CensusEntry,
    CensusReport,
    _coeffs,
    _det_key,
    _factors,
    _first_key,
    _is_bipartite,
    _shifted_det,
    _stream_values,
    _values,
    completeness_check,
    report_tsv,
    run_census,
    tree_census,
)
from graphinv.cli import CLI_KINDS
from graphinv.generators import generate_connected_graphs, generate_trees
from graphinv.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    distance_profile,
    graph_from_edges,
    path_graph,
)
from graphinv.exact import SnfResult, charpoly, determinant, snf
from graphinv.matrices import MatrixKind, build, build_kinds
from oracles import full_fingerprints, mate_counts_reference, permuted

NEW_KINDS = (MatrixKind.Atr, MatrixKind.AtrPlus, MatrixKind.Ddeg, MatrixKind.DdegPlus)
ALL_KINDS = tuple(MatrixKind[k] for k in CLI_KINDS)


def kind_values(fn, g, kinds):
    # [fn(kind, m) per kind] through census._values, which builds a kind's
    # bipartite twin in its place on a bipartite graph
    wants = tuple((kind, ()) for kind in kinds)
    return _values(lambda modes, kind, m: fn(kind, m), (g, wants))[1]


def stream_values(g, kinds, modes=MODES):
    wants = tuple((kind, modes) for kind in kinds)
    return _values(_stream_values, (g, wants))[1]


def test_fingerprint_isomorphism_invariance():
    # every key of the census chains, for all ten kinds: the stream values
    # (d and K1's hash), the Smith form factors, the second key and the
    # charpoly
    keys = [partial(stream_values, kinds=ALL_KINDS)]
    keys += [partial(kind_values, fn, kinds=ALL_KINDS) for fn in (_factors, _shifted_det, _coeffs)]
    rng = random.Random(2)
    trials = 0
    for g in list(generate_connected_graphs(6))[::7]:
        base = [fn(g) for fn in keys]
        for _ in range(12):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = permuted(g, perm)
            for fn, values in zip(keys, base):
                assert fn(h) == values
                trials += len(values)
    assert trials >= 5000


def test_fingerprint_separates_k3_p3():
    a = kind_values(_coeffs, complete_graph(3), (MatrixKind.A,))
    b = kind_values(_coeffs, path_graph(3), (MatrixKind.A,))
    assert a != b


def test_fingerprint_rejects_bad_input():
    with pytest.raises(ValueError, match="^mode must be one of"):
        run_census([path_graph(3)], [MatrixKind.A], ["nope"])
    with pytest.raises(ValueError, match="^graph not connected$"):
        kind_values(_coeffs, graph_from_edges(3, [(0, 1)]), (MatrixKind.A,))
    # C5's charpoly coefficients and Smith forms (factors, zero count, order)
    c5 = cycle_graph(5)
    kinds = (MatrixKind.Atr, MatrixKind.DdegPlus)
    assert kind_values(_coeffs, c5, kinds) == [(1, -30, 355, -2070, 5945, -6724),
                                               (1, -10, 15, 10, -15, -8)]
    assert kind_values(lambda kind, m: snf(m), c5, kinds) == [SnfResult((1, 1, 1, 41, 164), 0, 5),
                                                              SnfResult((1, 1, 1, 1, 8), 0, 5)]


def test_all_trees_share_distance_invariant_fingerprint():
    for n in (5, 8):
        assert len({snf(build(t, MatrixKind.D)) for t in generate_trees(n)}) == 1
    for n in range(4, 9):
        report = tree_census(n, [MatrixKind.D], ["invariant"])
        entry = report.get(MatrixKind.D, "invariant")
        assert entry.mate_count == entry.total


def test_run_census_small_table_values():
    report = run_census(generate_connected_graphs(4), [MatrixKind.A], ["invariant"])
    assert report.get(MatrixKind.A, "invariant").mate_count == 4
    assert report.total == 6
    report = run_census(generate_connected_graphs(5), [MatrixKind.Atr])
    assert report.get(MatrixKind.Atr, "spectral").mate_count == 2
    assert report.get(MatrixKind.Atr, "invariant").mate_count == 2
    report = run_census(generate_connected_graphs(6), NEW_KINDS)
    assert report.get(MatrixKind.Ddeg, "invariant").mate_count == 6
    assert report.get(MatrixKind.DdegPlus, "invariant").mate_count == 46
    assert report.get(MatrixKind.AtrPlus, "spectral").mate_count == 0


def test_census_is_order_independent():
    graphs = list(generate_connected_graphs(5))
    before = run_census(graphs, NEW_KINDS)
    rng = random.Random(6)
    rng.shuffle(graphs)
    assert run_census(graphs, NEW_KINDS) == before


def test_census_input_errors():
    mixed = [path_graph(3), path_graph(4)]
    for jobs in (1, 2):
        with pytest.raises(ValueError, match="^census stream mixes vertex counts$"):
            run_census(mixed, [MatrixKind.A], jobs=jobs)
        with pytest.raises(ValueError, match="^census stream is empty$"):
            run_census([], [MatrixKind.A], jobs=jobs)
    with pytest.raises(ValueError, match="mode"):
        run_census([path_graph(3)], [MatrixKind.A], ["bogus"])
    # an empty kind or mode list once gave a report with no entries
    with pytest.raises(ValueError, match="^census needs at least one mode$"):
        run_census(generate_connected_graphs(4), [MatrixKind.A], [])
    with pytest.raises(ValueError, match="^census needs at least one kind$"):
        run_census(generate_connected_graphs(4), [], ["spectral"])


def test_census_rejects_repeated_names():
    # a repeated name once tallied each graph twice: mate_count 42 of total 21
    graphs = list(generate_connected_graphs(5))
    with pytest.raises(ValueError, match="Atr given twice"):
        run_census(graphs, [MatrixKind.Atr, MatrixKind.Atr], ["invariant"])
    with pytest.raises(ValueError, match="spectral given twice"):
        run_census(graphs, [MatrixKind.A], ["spectral", "invariant", "spectral"])


def test_unknown_kind_is_rejected_before_the_stream_is_touched(monkeypatch):
    # a kind's name or position is not a kind; no graph is taken first
    taken = []

    def stream(n):
        for g in generate_connected_graphs(n):
            taken.append(g)
            yield g

    monkeypatch.setattr(census, "generate_trees", stream)
    monkeypatch.setattr(census, "generate_connected_graphs", stream)
    for bad in ("Atr", 6):
        message = f"^unknown matrix kind {bad!r}$"
        with pytest.raises(ValueError, match=message):
            run_census(stream(4), [MatrixKind.A, bad])
        with pytest.raises(ValueError, match=message):
            tree_census(5, [bad], ["invariant"])
        with pytest.raises(ValueError, match=message):
            completeness_check(4, [MatrixKind.Atr, bad])
    assert taken == []


def test_report_does_not_depend_on_the_order_of_kinds_and_modes():
    # entries come in MatrixKind order, spectral first, in any input order
    assert MODES == ("spectral", "invariant")
    graphs = list(generate_connected_graphs(6))
    usual = run_census(graphs, ALL_KINDS)
    assert [(e.kind, e.mode) for e in usual.entries] == [(k, m) for k in MatrixKind for m in MODES]
    for jobs in (1, 2):
        report = run_census(graphs, ALL_KINDS[::-1], ("invariant", "spectral"), jobs)
        assert report == usual
        assert report_tsv(report) == report_tsv(usual)


def test_census_rejects_worker_count_below_one():
    # a zero or negative worker count once ran serially: total 6, total 3
    with pytest.raises(ValueError, match="jobs must be >= 1, got -5"):
        run_census(generate_connected_graphs(4), [MatrixKind.A], ["spectral"], jobs=-5)
    with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
        tree_census(5, [MatrixKind.A], ["spectral"], jobs=0)


def test_census_rejects_worker_count_above_the_cap(monkeypatch):
    # any wider pool once went to multiprocessing.Pool, so jobs=100000 asked
    # the host for 100000 processes; the check comes first, and no pool starts
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr("multiprocessing.Pool", no_pool)
    for jobs in (MAX_JOBS + 1, 100000):
        with pytest.raises(ValueError, match=f"jobs must be <= {MAX_JOBS}, got {jobs}"):
            run_census(generate_connected_graphs(4), [MatrixKind.A], ["spectral"], jobs=jobs)
        with pytest.raises(ValueError, match=f"jobs must be <= {MAX_JOBS}, got {jobs}"):
            tree_census(5, [MatrixKind.A], ["spectral"], jobs=jobs)
    with pytest.raises(AssertionError, match="a worker pool was started"):
        run_census(generate_connected_graphs(4), [MatrixKind.A], ["spectral"], jobs=MAX_JOBS)


def test_census_rejects_non_integer_order_and_worker_count():
    # tree_census(5.0) once failed late with a raw TypeError, and jobs=True
    # ran serially as one worker; neither now touches the stream
    taken = []
    graphs = (taken.append(g) or g for g in generate_connected_graphs(4))
    for jobs in (True, 2.0):
        with pytest.raises(ValueError, match=f"jobs is not an integer: {jobs}"):
            run_census(graphs, [MatrixKind.A], ["spectral"], jobs=jobs)
    with pytest.raises(ValueError, match="n is not an integer: 5.0"):
        tree_census(5.0, [MatrixKind.A])
    assert taken == []


def test_is_bipartite_from_distance_parity():
    c5 = cycle_graph(5)
    cases = (
        (complete_graph(1), True),
        (complete_graph(2), True),
        (path_graph(4), True),
        (c5, False),
        (cycle_graph(6), True),
        (graph_from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)]), True),
        (graph_from_edges(6, c5.edges() + [(0, 5)]), False),
    )
    for g, expected in cases:
        assert _is_bipartite(g, distance_profile(g)) is expected


def test_graph_payloads_match_direct_payloads_on_bipartite_graphs():
    # AtrPlus and Q are fingerprinted as Atr and L on bipartite graphs;
    # every payload must equal the one computed from the kind's own matrix
    def payloads(kind, m):
        return snf(m), charpoly(m).coeffs

    # the bipartite graphs with n <= 8 include the trees with n <= 8
    graphs = [g for n in range(1, 9) for g in generate_connected_graphs(n)
              if _is_bipartite(g, distance_profile(g))]
    assert len(graphs) == 254
    graphs += [t for n in range(9, 13) for t in generate_trees(n)]
    assert len(graphs) == 254 + 47 + 106 + 235 + 551
    for g in graphs:
        assert kind_values(payloads, g, ALL_KINDS) == list(full_fingerprints(g, ALL_KINDS))


def _k1_of_charpoly(coeffs: tuple[int, ...], row_sums_zero: bool) -> tuple[int, int, int]:
    # trace M = -c1, Σ M_ij² = trace M² = c1² - 2 c2, and |det M| = |c_n|, or
    # for L and DL, every cofactor of which is κ on a connected graph, the
    # product of the nonzero invariant factors: κ = |c_{n-1}| / n
    n = len(coeffs) - 1
    c1, c2 = (list(coeffs[1:]) + [0])[:2]
    if row_sums_zero:
        assert abs(coeffs[-2]) % n == 0
        return -c1, c1 * c1 - 2 * c2, abs(coeffs[-2]) // n
    return -c1, c1 * c1 - 2 * c2, abs(coeffs[-1])


def test_shifted_det_is_a_function_of_the_charpoly():
    rng = random.Random(11)
    matrices = [(kind, build(g, kind)) for n in range(1, 7) for g in generate_connected_graphs(n)
                for kind in ALL_KINDS]
    assert len(matrices) == 10 * (1 + 1 + 2 + 6 + 21 + 112)
    for _ in range(200):
        n = rng.randint(1, 9)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-50, 50)
        matrices.append((MatrixKind.A, m))
    for kind, m in matrices:
        coeffs = charpoly(m).coeffs
        row_sums_zero = kind in (MatrixKind.L, MatrixKind.DL)
        assert _first_key(m, _det_key(kind, m)) == _k1_of_charpoly(coeffs, row_sums_zero)
        # det(M - x0 I) = (-1)^n p(x0) with p(x) = det(xI - M), at x0 = 4n + 1
        n = len(m)
        x0 = 4 * n + 1
        p = sum(c * x0 ** (n - k) for k, c in enumerate(coeffs))
        assert _shifted_det(kind, m) == (-1) ** n * p
    # On a bipartite graph Q is built as L and keyed by L's rule, which is
    # still a function of Q's charpoly: there Q and L are cospectral, and no
    # bipartite Q is cospectral with a non-bipartite one.
    bipartite = [g for n in range(1, 7) for g in generate_connected_graphs(n)
                 if _is_bipartite(g, distance_profile(g))]
    assert len(bipartite) == 1 + 1 + 1 + 3 + 5 + 17
    for g in bipartite:
        q = build(g, MatrixKind.Q)
        [(k1, d)] = stream_values(g, (MatrixKind.Q,))
        assert k1 == hash(_k1_of_charpoly(charpoly(q).coeffs, True))
        assert k1 == hash(_first_key(q, d))


def _d_of_smith_form(invariants: SnfResult, row_sums_zero: bool) -> int:
    # the product of the factors, or 0 with a zero factor; for L and DL
    # (rank n - 1 on a connected graph) the product of the nonzero factors
    return 0 if invariants.zeros and not row_sums_zero else prod(invariants.factors)


def test_det_key_is_a_function_of_the_smith_form():
    # d, the invariant chain's first key, must be a function of the Smith
    # form, or a graph alone with its d could still have a coinvariant mate
    rng = random.Random(29)
    matrices = [(kind, build(g, kind)) for n in range(1, 7) for g in generate_connected_graphs(n)
                for kind in ALL_KINDS]
    assert len(matrices) == 10 * (1 + 1 + 2 + 6 + 21 + 112)
    other_kinds = [kind for kind in ALL_KINDS if kind not in (MatrixKind.L, MatrixKind.DL)]
    for i in range(200):
        n = rng.randint(1, 9)
        bound = 50 if i % 2 else 2  # small entries give singular matrices too
        m = [[0] * n for _ in range(n)]
        for r in range(n):
            for c in range(r, n):
                m[r][c] = m[c][r] = rng.randint(-bound, bound)
        if i % 4 == 0 and n > 1:  # the last row and column repeat the first
            for r in range(n):
                m[r][-1] = m[-1][r] = m[r][0]
            m[-1][-1] = m[0][0]
        matrices.append((other_kinds[i % len(other_kinds)], m))
    assert sum(1 for _, m in matrices[-200:] if snf(m).zeros) >= 20
    for kind, m in matrices:
        row_sums_zero = kind in (MatrixKind.L, MatrixKind.DL)
        assert _det_key(kind, m) == _d_of_smith_form(snf(m), row_sums_zero)
    # on a bipartite graph Q is built as L and takes L's rule, which is a
    # function of Q's own Smith form, the same as L's there
    bipartite = [g for n in range(1, 7) for g in generate_connected_graphs(n)
                 if _is_bipartite(g, distance_profile(g))]
    for g in bipartite:
        [(d,)] = stream_values(g, (MatrixKind.Q,), ("invariant",))
        assert d == _d_of_smith_form(snf(build(g, MatrixKind.Q)), True)
        assert d != _d_of_smith_form(snf(build(g, MatrixKind.Q)), False)


def test_filtered_census_matches_full_reference(monkeypatch):
    # run_census takes the Smith form only for graphs whose d another graph
    # shares, det(M - (4n+1) I) only for graphs whose K1 another graph
    # shares, and a charpoly only where that determinant is shared too; its
    # report must equal the one from every graph's full charpoly and Smith
    # form, tallied once per corpus for all kinds and modes.  Spectral-only
    # runs have no d and start at the determinant; in (AtrPlus, Q)
    # bipartite graphs build Atr and L in their place.
    # Builds are counted in matrices made by census.build_kinds.
    calls = {build_kinds: 0, distance_profile: 0, charpoly: 0, snf: 0}
    for fn in calls:
        def counted(*args, fn=fn):
            calls[fn] += len(args[1]) if fn is build_kinds else 1
            return fn(*args)
        monkeypatch.setattr(census, fn.__name__, counted)
    corpora = [list(generate_connected_graphs(n)) for n in range(1, 8)]
    corpora += [list(generate_trees(n)) for n in range(2, 13)]
    twins = (MatrixKind.AtrPlus, MatrixKind.Q)
    for graphs in corpora:
        full = mate_counts_reference(graphs, ALL_KINDS)
        for kinds, modes in ((ALL_KINDS, MODES), (ALL_KINDS, ("spectral",)), (twins, MODES)):
            expected = CensusReport(full.n, full.total, tuple(
                e for e in full.entries if e.kind in kinds and e.mode in modes))
            calls.update(dict.fromkeys(calls, 0))
            assert run_census(graphs, kinds, modes) == expected
            if graphs is corpora[6] and modes == MODES and kinds == ALL_KINDS:
                # Builds: 8442 in the stream (8530 matrices less the
                # bipartite twins' shared builds), 3891 at the second level
                # and 539 for charpolys, one for each graph with a spectral
                # mate (543) less the twins' shared builds.  The second
                # level takes the Smith form of the 3928 slots whose d is
                # shared and the determinant of the 2584 whose K1 is shared;
                # K1 holds d, so every such matrix is built for its Smith
                # form anyway: 3891 builds and Smith forms, the 3928 slots
                # less the twins' shared builds.  Distance profiles:
                # 853 in the stream and one per graph rebuilt at each level
                # where a wanted kind reads one.  A's d is shared by all 853,
                # so the second level rebuilds every graph, and a profile kind
                # is wanted in each.  The charpoly level rebuilds 211 graphs,
                # 69 of them wanted only for A or L (35 for A, 33 for L and
                # one for both), which read no profile: 853 + 853 + 142 =
                # 1848, where a profile for every rebuilt graph was 1917.
                # When the stream took every Smith form (8442) the second
                # level rebuilt only for the determinant: 11546 builds and
                # 1910 profiles.  The charpoly count cannot move.
                assert list(calls.values()) == [12872, 1848, 539, 3891]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kinds", [[MatrixKind.A], [MatrixKind.L], [MatrixKind.A, MatrixKind.L]],
                         ids=["A", "L", "A,L"])
def test_census_rejects_disconnected_graph_without_a_profile(kinds, jobs, monkeypatch):
    # A and L read no distance profile, so the census must check
    # connectivity without one
    profiles = []
    monkeypatch.setattr(census, "distance_profile", lambda g: profiles.append(g) or distance_profile(g))
    graphs = [path_graph(4), graph_from_edges(4, [(0, 1), (2, 3)])]
    for modes in (MODES, ("spectral",), ("invariant",)):
        with pytest.raises(ValueError, match="^graph not connected$"):
            run_census(graphs, kinds, modes, jobs)
    if jobs == 1:  # a worker appends to its own copy of the list
        assert profiles == []


def test_census_parallel_matches_serial():
    graphs = list(generate_connected_graphs(5))
    serial = run_census(graphs, NEW_KINDS, jobs=1)
    parallel = run_census(graphs, NEW_KINDS, jobs=2)
    assert serial == parallel
    # connected n = 7 has shared K1s and shared determinants in every kind,
    # so both levels rebuild graphs on the workers
    graphs = list(generate_connected_graphs(7))
    assert run_census(graphs, ALL_KINDS, jobs=2) == run_census(graphs, ALL_KINDS, jobs=1)
    for modes in (("spectral",), ("invariant",)):
        serial = run_census(graphs, ALL_KINDS, modes, jobs=1)
        assert run_census(graphs, ALL_KINDS, modes, jobs=2) == serial


def test_tree_census_range():
    with pytest.raises(ValueError):
        tree_census(1, [MatrixKind.D])
    with pytest.raises(ValueError):
        tree_census(17, [MatrixKind.D])


def test_completeness_small():
    # Genuine collision at n=3: the complete graph and the path share the
    # degree-plus-distance SNF diag(1, 1, 4), as the closed forms for
    # complete graphs (n=3) and stars (m=2) both predict.  Everywhere else
    # the complete graph's invariant fingerprint is unique.
    for n in range(2, 7):
        expected = tuple(not (n == 3 and kind is MatrixKind.DdegPlus) for kind in NEW_KINDS)
        assert completeness_check(n, NEW_KINDS) == expected


def _d_by_determinant(kind, m):
    # |det M|, or for L and DL the leading (n-1) principal minor
    if kind in (MatrixKind.L, MatrixKind.DL):
        m = [row[:-1] for row in m[:-1]]
    return abs(determinant(m))


def test_completeness_check_takes_smith_forms_only_where_d_matches(monkeypatch):
    # every kind's d is taken for every graph, and the Smith form only for
    # the complete graph and for each built kind of a graph whose d equals
    # the complete graph's; the result is the one that every Smith form gives
    taken = []
    monkeypatch.setattr(census, "snf", lambda m: taken.append(m) or snf(m))
    for n in range(1, 7):
        graphs = list(generate_connected_graphs(n))
        k_n = complete_graph(n)
        expected = []
        for kind in ALL_KINDS:
            target = snf(build(k_n, kind))
            expected.append(sum(snf(build(g, kind)) == target for g in graphs) == 1)
        wanted = 0
        for g in [k_n] + graphs:
            twins = BIPARTITE_TWINS if _is_bipartite(g, distance_profile(g)) else {}
            wanted += len({twins.get(kind, kind) for kind in ALL_KINDS
                           if _d_by_determinant(twins.get(kind, kind), build(g, twins.get(kind, kind)))
                           == _d_by_determinant(kind, build(k_n, kind))})
        taken.clear()
        assert completeness_check(n, ALL_KINDS) == tuple(expected)
        assert len(taken) == wanted
        if n == 6:
            # K6 twice (as the target and in the corpus) and 7 other matrices
            assert wanted == 27


def test_completeness_check_rejects_an_empty_or_repeated_kind_list(monkeypatch):
    # both were once accepted: () and (True, True); no graph is generated first
    monkeypatch.setattr(census, "generate_connected_graphs", None)
    with pytest.raises(ValueError, match="^census needs at least one kind$"):
        completeness_check(4, [])
    with pytest.raises(ValueError, match="^kind MatrixKind.Atr given twice$"):
        completeness_check(4, [MatrixKind.Atr, MatrixKind.Atr])


def test_list_built_graphs_match_tuple_built_ones():
    assert Graph(3, [6, 5, 3]) == Graph(3, (6, 5, 3))
    assert hash(Graph(3, [6, 5, 3])) == hash(Graph(3, (6, 5, 3)))
    graphs = list(generate_connected_graphs(5))
    listed = [Graph(g.n, list(g.adj)) for g in graphs]
    assert (report_tsv(run_census(listed, [MatrixKind.A]))
            == report_tsv(run_census(graphs, [MatrixKind.A])))


def test_report_tsv_shape():
    report = run_census(generate_connected_graphs(5), [MatrixKind.Atr])
    text = report_tsv(report)
    lines = text.strip().split("\n")
    assert lines[0].split("\t") == [
        "n", "matrix", "mode", "mate_count", "total",
        "uncertainty_decimal", "uncertainty_rational",
    ]
    assert lines[1] == "5\tAtr\tspectral\t2\t21\t0.095238\t2/21"
    assert lines[2] == "5\tAtr\tinvariant\t2\t21\t0.095238\t2/21"


def test_report_tsv_uncertainty_columns_match_the_fraction():
    # report_tsv renders mate_count / total from the two ints, without
    # importing fractions; it must print what the Fraction gives
    for total in range(1, 601):
        entries = tuple(CensusEntry(MatrixKind.A, "spectral", m, total) for m in range(total + 1))
        rows = report_tsv(CensusReport(1, total, entries)).splitlines()[1:]
        assert rows == [f"1\tA\tspectral\t{m}\t{total}\t{float(u):.6f}\t{u.numerator}/{u.denominator}"
                        for m in range(total + 1) for u in [Fraction(m, total)]], total
