import hashlib
import random
from itertools import permutations

import pytest

from graphinv import generators
from graphinv.generators import (
    canonical_key,
    generate_connected_graphs,
    generate_trees,
    tree_certificate,
)
from graphinv.graphs import (
    complete_graph,
    cycle_graph,
    graph_from_edges,
    petersen_graph,
    star_graph,
)
from oracles import (
    _twins_reference,
    canonical_key_reference,
    connected_candidates,
    connected_level_reference,
    permuted,
    rook_and_shrikhande_graphs,
    tree_level_reference,
    triangular_and_chang_graphs,
)

# Free trees by vertex count (OEIS A000055 tail).
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47,
               10: 106, 11: 235, 12: 551, 13: 1301, 14: 3159}

# Connected graphs by vertex count.
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_tree_counts():
    for n, want in TREE_COUNTS.items():
        assert len(list(generate_trees(n))) == want


def test_trees_are_trees():
    for n in range(1, 11):
        for t in generate_trees(n):
            assert t.n == n
            assert t.edge_count() == n - 1
            assert t.is_connected()


def test_trees_pairwise_nonisomorphic():
    for n in range(2, 11):
        keys = [canonical_key(t) for t in generate_trees(n)]
        assert len(keys) == len(set(keys))
        certs = [tree_certificate(t) for t in generate_trees(n)]
        assert len(certs) == len(set(certs))


def test_tree_range_errors():
    with pytest.raises(ValueError):
        list(generate_trees(0))
    with pytest.raises(ValueError):
        list(generate_trees(17))


def test_generators_reject_a_non_integer_order():
    # 5.0 once passed the range check and failed inside the growth loop with a
    # raw TypeError; True passed as n = 1
    for generate in (generate_trees, generate_connected_graphs):
        for n in (5.0, True):
            with pytest.raises(ValueError, match=f"n is not an integer: {n}"):
                list(generate(n))


def test_connected_counts():
    for n, want in CONNECTED_COUNTS.items():
        assert len(list(generate_connected_graphs(n))) == want


def test_connected_graphs_are_connected_and_distinct():
    for n in range(1, 7):
        graphs = list(generate_connected_graphs(n))
        assert all(g.is_connected() for g in graphs)
        keys = [canonical_key(g) for g in graphs]
        assert len(keys) == len(set(keys))


def test_connected_range_error():
    with pytest.raises(ValueError, match="graph6"):
        list(generate_connected_graphs(9))


def test_canonical_key_permutation_invariant():
    rng = random.Random(7)
    samples = [cycle_graph(6), star_graph(6), petersen_graph(), complete_graph(5)]
    samples += list(generate_connected_graphs(5))[::3]
    for g in samples:
        key = canonical_key(g)
        for _ in range(8):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_key(permuted(g, perm)) == key


def test_canonical_key_separates_nonisomorphic():
    keys = [canonical_key(g) for g in generate_connected_graphs(6)]
    assert len(set(keys)) == 112


def test_tree_certificate_permutation_invariant():
    rng = random.Random(11)
    for t in generate_trees(9):
        cert = tree_certificate(t)
        perm = list(range(t.n))
        rng.shuffle(perm)
        assert tree_certificate(permuted(t, perm)) == cert


def test_tree_certificate_rejects_non_trees():
    for g in (complete_graph(4), cycle_graph(4), graph_from_edges(4, [(0, 1), (2, 3)])):
        with pytest.raises(ValueError, match="connected graph with n - 1 edges"):
            tree_certificate(g)
    # the certificates of the trees with n <= 8 are pinned
    certs = [tree_certificate(t) for n in range(1, 9) for t in generate_trees(n)]
    assert len(certs) == 48
    digest = hashlib.sha256(repr(certs).encode()).hexdigest()
    assert digest == "224629935faa658656603a54a6996fe86f431738fa4d2eaa181b99e5092cf286"


def test_generators_match_unpruned_reference():
    # Twin pruning and the derived neighbour lists must keep the first-seen
    # labelled representative of every class, in the same order.
    for n in range(1, 8):
        assert tuple(generate_connected_graphs(n)) == connected_level_reference(n)
    for n in range(1, 13):
        assert tuple(generate_trees(n)) == tree_level_reference(n)


def test_canonical_key_matches_reference_on_every_candidate():
    checked = 0
    for n in range(2, 7):
        for small in connected_level_reference(n - 1):
            for g in connected_candidates(small):
                assert canonical_key(g) == canonical_key_reference(g)
                checked += 1
    assert checked == 1 + 3 + 2 * 7 + 6 * 15 + 21 * 31


def test_canonical_key_matches_reference_beyond_generator_orders():
    # graph6 corpora beyond n = 8 are deduplicated with canonical_key.
    rng = random.Random(3)
    samples = [cycle_graph(9), star_graph(9), petersen_graph(), complete_graph(8)]
    for n in range(9, 17):
        for p in (0.2, 0.5, 0.8):
            edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
            samples.append(graph_from_edges(n, edges))
    for g in samples:
        assert canonical_key(g) == canonical_key_reference(g)


def test_canonical_key_on_strongly_regular_families():
    # Refinement cannot split a strongly regular graph, so the search
    # relies on its automorphism pruning (T(8) has 40320 automorphisms).
    rng = random.Random(11)
    for family in (triangular_and_chang_graphs(), rook_and_shrikhande_graphs()):
        keys = [canonical_key(g) for g in family]
        assert len(set(keys)) == len(family)
        for g, key in zip(family, keys):
            for _ in range(25):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_key(permuted(g, perm)) == key
    for g in rook_and_shrikhande_graphs():
        assert canonical_key(g) == canonical_key_reference(g)


def _full_group_minima(g):
    """By brute force over every relabelling: the nonempty neighbourhoods of
    g that are the least of their orbit under its whole automorphism group."""
    autos = [p for p in permutations(range(g.n)) if permuted(g, p) == g]
    return [s for s in range(1, 1 << g.n)
            if all(s <= sum(1 << p[u] for u in range(g.n) if s >> u & 1) for p in autos)]


def _regenerated(monkeypatch, n):
    """Level n built again from the cached levels below it, and per parent
    the neighbourhoods of the candidates searched after its own search."""
    visited = []
    search = generators._canonical_mask

    def counted(k, adj, nbrs):
        if k == n - 1:
            visited.append([])
        else:
            visited[-1].append(adj[-1])
        return search(k, adj, nbrs)

    monkeypatch.setattr(generators, "_canonical_mask", counted)
    level = generators._connected_level.__wrapped__(n)
    monkeypatch.undo()
    return level, visited


def test_orbit_rule_visits_full_group_orbit_minima(monkeypatch):
    # Each parent is searched once for its automorphisms; on every parent
    # with n <= 5 they and its twin swaps generate its whole group.
    for n in range(2, 7):
        level, visited = _regenerated(monkeypatch, n)
        assert level == tuple(generate_connected_graphs(n))
        assert visited == [_full_group_minima(g) for g in generate_connected_graphs(n - 1)]


def test_orbit_rule_candidate_searches_at_seven(monkeypatch):
    # 4818 candidates under the twin rule alone; 3771 is the count under
    # each parent's whole automorphism group, found by brute force.
    level, visited = _regenerated(monkeypatch, 7)
    assert len(level) == 853
    assert len(visited) == 112
    assert sum(map(len, visited)) == 3771


def test_tree_twin_rule_candidate_counts(monkeypatch):
    # A parent offers each attachment vertex v with no twin u < v; every
    # attachment would give 77 candidates at n = 8 and 2585 at n = 12.
    certify = generators._tree_certificate
    for n, want in ((8, 59), (12, 2075)):
        parents = list(generate_trees(n - 1))
        calls = []
        monkeypatch.setattr(generators, "_tree_certificate",
                            lambda k, nbrs: calls.append(k) or certify(k, nbrs))
        level = generators._tree_level.__wrapped__(n)
        monkeypatch.undo()
        assert level == tuple(generate_trees(n))
        assert len(calls) == want == sum(
            not any(_twins_reference(t.adj, u, v) for u in range(v))
            for t in parents for v in range(t.n))


def test_trees_are_the_connected_graphs_with_n_minus_1_edges():
    for n in range(1, 9):
        trees = {canonical_key(t) for t in generate_trees(n)}
        assert trees == {canonical_key(g) for g in generate_connected_graphs(n)
                         if g.edge_count() == n - 1}
        assert len(trees) == TREE_COUNTS[n]


def test_search_automorphisms_map_adjacency_onto_itself():
    graphs = [g for n in range(1, 8) for g in generate_connected_graphs(n)]
    graphs += triangular_and_chang_graphs() + rook_and_shrikhande_graphs()
    assert len(graphs) == 996 + 6
    found = []
    for g in graphs:
        _, autos = generators._canonical_mask(g.n, g.adj, [g.neighbors(u) for u in range(g.n)])
        for a in autos:
            assert sorted(a) == list(range(g.n))
            assert permuted(g, a) == g
        found.append(len(autos))
    # refinement cannot split a strongly regular graph: its search must
    # find automorphisms to stay cheap
    assert sum(found[:996]) > 0 and all(found[996:])
