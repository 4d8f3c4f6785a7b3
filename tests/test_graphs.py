import math
import pickle
import random
from fractions import Fraction

import pytest

from graphinv import graphs
from graphinv.graphs import (
    Graph,
    Graph6ParseError,
    complete_graph,
    conductance,
    cricket_graph,
    cycle_graph,
    distance_profile,
    graph_from_edges,
    iter_graph6,
    parse_graph6,
    path_graph,
    star_graph,
    triangle_count,
    wiener_indices,
    write_graph6,
)
from graphinv.generators import generate_connected_graphs

from oracles import (
    conductance_bruteforce,
    conductance_fraction_loop,
    distances_floyd_warshall,
    has_edge,
    permuted,
)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (0b1,))  # self-loop
    with pytest.raises(ValueError):
        Graph(0, ())
    with pytest.raises(ValueError):
        Graph(2, (0b100, 0b000))  # bit beyond n
    with pytest.raises(ValueError, match="adjacency row 2 is not an integer: 3.0"):
        Graph(3, (6, 5, 3.0))


def test_graph_rejects_a_non_integer_order_or_bool_row():
    # 3.0 once failed with a raw TypeError from 1 << n; True passed as n = 1,
    # and as a row, since a bool is an int; complete_graph(-1) once failed with
    # a raw "negative shift count", and star_graph(-1) blamed a vertex count of 0
    for make, message in ((lambda: Graph(3.0, (6, 5, 3)), "vertex count is not an integer: 3.0"),
                          (lambda: Graph(True, (0,)), "vertex count is not an integer: True"),
                          (lambda: complete_graph(True), "vertex count is not an integer: True"),
                          (lambda: complete_graph(-1), "vertex count must be in 1..64, got -1"),
                          (lambda: star_graph(-1), "leaves must be in 0..63, got -1"),
                          (lambda: star_graph(64), "leaves must be in 0..63, got 64"),
                          (lambda: Graph(2, (2, True)), "adjacency row 1 is not an integer: True")):
        with pytest.raises(ValueError, match=message):
            make()


@pytest.mark.parametrize("n, adj, message", [
    (3.0, (6, 5, 3), "vertex count is not an integer: 3.0"),
    (0, (), "vertex count must be in 1..64, got 0"),
    (2, (1,), "adjacency row count does not match vertex count"),
    (3, (6, 5, 3.0), "adjacency row 2 is not an integer: 3.0"),
    (2, (4, 0), "adjacency row 0 references vertices beyond n"),
    (1, (1,), "self-loop at vertex 0"),
    (2, (2, 0), r"adjacency not symmetric at pair \(0, 1\)"),
])
def test_graph_checks_every_way_it_is_made(n, adj, message):
    # Graph is a tuple, so a positional or keyword call, _make, _replace and
    # unpickling (how --jobs workers receive graphs) must all run the checks
    good = Graph(2, (2, 1))
    made = (lambda: Graph(n, adj), lambda: Graph(n=n, adj=adj), lambda: Graph._make((n, adj)),
            lambda: good._replace(n=n, adj=adj),
            lambda: pickle.loads(pickle.dumps(tuple.__new__(Graph, (n, adj)))))
    for make in made:
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()


def test_graph_survives_a_pickle_round_trip():
    for g in (path_graph(1), cricket_graph(), complete_graph(64)):
        back = pickle.loads(pickle.dumps(g))
        assert type(back) is Graph and back == g and hash(back) == hash(g)


def test_graph_from_edges_rejects_a_non_integer_endpoint():
    # 1.0 once failed with a raw TypeError from 1 << v; True passed as 1
    for edge in ((0, 1.0), (True, 2)):
        with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}\) has a non-integer endpoint"):
            graph_from_edges(3, [edge])


def test_graph_from_edges_rejects_endpoint_out_of_range():
    for edge in ((0, 5), (0, -1), (3, 0)):
        with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}\) .* outside 0\.\.2"):
            graph_from_edges(3, [(0, 1), edge])
    # the first edge repeated, in either orientation, was once kept silently
    for edge in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match=rf"^edge \({edge[0]}, {edge[1]}\) given twice$"):
            graph_from_edges(3, [(0, 1), edge])


@pytest.mark.parametrize("n, edges, message", [
    # an edge record that is not a pair once raised a raw unpacking error
    (3, [(0, 1, 2)], r"^edge \(0, 1, 2\) is not a pair of endpoints$"),
    (3, [(0, 1), (2,)], r"^edge \(2,\) is not a pair of endpoints$"),
    (3, [0], r"^edge 0 is not a pair of endpoints$"),
    (3, [None], r"^edge None is not a pair of endpoints$"),
    # an order out of range once blamed the first edge
    (0, [(0, 1)], r"^vertex count must be in 1\.\.64, got 0$"),
    (-1, [(0, 1)], r"^vertex count must be in 1\.\.64, got -1$"),
    (65, [(0, 1, 2)], r"^vertex count must be in 1\.\.64, got 65$"),
    (0, [0], r"^vertex count must be in 1\.\.64, got 0$"),
])
def test_graph_from_edges_names_the_record_at_fault(n, edges, message):
    with pytest.raises(ValueError, match=message):
        graph_from_edges(n, edges)


def test_parse_graph6_smallest():
    g = parse_graph6("@")
    assert g.n == 1 and g.edge_count() == 0


def test_parse_graph6_k2():
    g = parse_graph6("A_")
    assert g.n == 2 and has_edge(g, 0, 1)


def test_parse_graph6_five_vertex_star():
    # 'D' = 5 vertices; '?{' decodes to upper-triangle bits with exactly the
    # four pairs (0,4), (1,4), (2,4), (3,4) set.
    g = parse_graph6("D?{")
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]


def test_parse_graph6_header_tolerated():
    g = parse_graph6(">>graph6<<A_")
    assert g.n == 2 and has_edge(g, 0, 1)
    gs = list(iter_graph6([">>graph6<<", "A_", "", "@"]))
    assert [h.n for h in gs] == [2, 1]


def test_parse_graph6_errors_name_offset():
    for line, message, offset in (
        ("", "empty graph6 record", 0),
        ("D?", "truncated edge bit data", 2),
        ("A_?", "trailing garbage after edge bit data", 2),
        ("A\x07", "byte 7 outside graph6 alphabet", 1),
        ("~~", "beyond 258047 vertices", 1),
        ("~?", "truncated vertex-count header", 2),
        ("?", "vertex count must be at least 1", 0),
        ("~?@@", "vertex count 65 exceeds supported 64", 0),
        ("A`", "nonzero padding bits", 1),
    ):
        with pytest.raises(Graph6ParseError, match=message) as exc:
            parse_graph6(line)
        assert exc.value.offset == offset


def test_parse_graph6_rejects_non_ascii():
    # a lossy ASCII encoding once turned "é" into "?", a valid graph6 byte
    for line, offset in (("Bé", 1), (">>graph6<<Bé", 1), ("D?é{", 2), ("\udce9@", 0),
                         ("B\ud800", 1), ("\udc41", 0), ("é\ud800", 0)):
        with pytest.raises(Graph6ParseError) as exc:
            parse_graph6(line)
        assert exc.value.offset == offset

def test_write_graph6_examples():
    assert write_graph6(Graph(1, (0,))) == "@"
    assert write_graph6(graph_from_edges(2, [(0, 1)])) == "A_"
    p3 = path_graph(3)
    assert parse_graph6(write_graph6(p3)) == p3


def test_graph6_roundtrip_all_small():
    for n in range(1, 9):
        for g in generate_connected_graphs(n):
            assert parse_graph6(write_graph6(g)) == g


def test_graph6_seeded_mutations_fail_cleanly_or_round_trip():
    # 10000 random edits of 1-3 bytes (replace, insert or delete, any byte
    # value) of the connected records with n <= 7: the parser raises nothing
    # but Graph6ParseError, and every record it accepts (the line without its
    # line ending) is exactly what write_graph6 writes for the parsed graph
    rng = random.Random(2024)
    records = [write_graph6(g).encode("ascii") for n in range(1, 8) for g in generate_connected_graphs(n)]
    accepted = 0
    for _ in range(10000):
        data = bytearray(rng.choice(records))
        for _ in range(rng.randint(1, 3)):
            op, at = rng.randrange(3), rng.randint(0, len(data))
            if op == 0 and at < len(data):
                data[at] = rng.randrange(256)
            elif op == 1:
                data.insert(at, rng.randrange(256))
            elif at < len(data):
                del data[at]
        line = data.decode("ascii", "surrogateescape")
        try:
            g = parse_graph6(line)
        except Graph6ParseError:
            continue
        accepted += 1
        assert write_graph6(g) == line.rstrip("\r\n"), line
    assert 0 < accepted < 10000


def test_graph6_large_n_header():
    # 63 vertices forces the long vertex-count form.
    g = path_graph(63)
    line = write_graph6(g)
    assert line.startswith("~")
    assert parse_graph6(line) == g


def test_graph6_round_trips_across_the_long_header():
    # n = 62 is the last short header; 62, 63 and 64 leave 5, 3 and 0 padding bits
    rng = random.Random(6264)
    for n, head in ((62, "}"), (63, "~??~"), (64, "~?@?")):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graphs = [complete_graph(n), graph_from_edges(n, [])]
        graphs += [graph_from_edges(n, [p for p in pairs if rng.random() < q]) for q in (0.05, 0.5, 0.95)]
        for g in graphs:
            line = write_graph6(g)
            assert line[:len(head)] == head
            assert len(line) == len(head) + (len(pairs) + 5) // 6
            assert parse_graph6(line) == g


def test_random_graphs_round_trip_and_agree_on_connectivity():
    # The orders 1..64 reach every padding width and both header forms; edge
    # probabilities up to twice ln(n + 1) / n give both outcomes at each n >= 2.
    rng = random.Random(164)
    for n in range(1, 65):
        outcomes = set()
        for _ in range(16):
            p = min(1.0, rng.random() * 2 * math.log(n + 1) / n)
            rows = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < p:
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
            g = Graph(n, rows)
            assert parse_graph6(write_graph6(g)) == g
            try:
                distance_profile(g)
            except ValueError:
                connected = False
            else:
                connected = True
            assert g.is_connected() == connected
            outcomes.add(connected)
        assert outcomes == ({True} if n == 1 else {True, False}), n


def test_edges_order():
    # by first endpoint, then second
    assert cycle_graph(5).edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert star_graph(4).edges() == [(0, 1), (0, 2), (0, 3), (0, 4)]
    assert parse_graph6("D?{").edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert path_graph(1).edges() == []


def test_distance_profile_path():
    prof = distance_profile(path_graph(3))
    assert prof.tr == (3, 2, 3)
    assert prof.deg == (1, 2, 1)


def test_distance_profile_cycle5():
    prof = distance_profile(cycle_graph(5))
    assert prof.tr == (6, 6, 6, 6, 6)


def test_distance_profile_complete():
    prof = distance_profile(complete_graph(4))
    assert all(prof.dist[u][v] == 1 for u in range(4) for v in range(4) if u != v)
    assert prof.tr == (3, 3, 3, 3)
    assert prof.deg == (3, 3, 3, 3)


def test_distance_profile_disconnected():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="not connected"):
        distance_profile(g)


def test_distance_profile_invariants_small():
    for n in range(2, 7):
        for g in generate_connected_graphs(n):
            prof = distance_profile(g)
            oracle = distances_floyd_warshall(g)
            for u in range(n):
                assert prof.dist[u][u] == 0
                for v in range(n):
                    assert prof.dist[u][v] == oracle[u][v]
                    assert prof.dist[u][v] == prof.dist[v][u]
                    if u != v:
                        assert prof.dist[u][v] >= 1
                    for w in range(n):
                        assert prof.dist[u][w] <= prof.dist[u][v] + prof.dist[v][w]
                # deg <= tr with equality exactly for dominating vertices
                assert prof.deg[u] <= prof.tr[u]
                assert (prof.deg[u] == prof.tr[u]) == (prof.deg[u] == n - 1)


def test_degree_transmission_inequality_full_range():
    for n in range(2, 9):
        for g in generate_connected_graphs(n):
            prof = distance_profile(g)
            for u in range(n):
                assert prof.deg[u] <= prof.tr[u]
                assert (prof.deg[u] == prof.tr[u]) == (prof.deg[u] == n - 1)


def test_distance_profile_permutation_equivariance():
    rng = random.Random(42)
    for g in (path_graph(5), cycle_graph(6), cricket_graph(), star_graph(5)):
        prof = distance_profile(g)
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            prof2 = distance_profile(permuted(g, perm))
            for u in range(g.n):
                assert prof2.tr[perm[u]] == prof.tr[u]
                assert prof2.deg[perm[u]] == prof.deg[u]
                for v in range(g.n):
                    assert prof2.dist[perm[u]][perm[v]] == prof.dist[u][v]


def test_triangle_count():
    assert triangle_count(complete_graph(4)) == 4
    assert triangle_count(cycle_graph(5)) == 0
    assert triangle_count(cricket_graph()) == 1
    assert triangle_count(complete_graph(6)) == 20


def test_wiener_indices():
    assert wiener_indices(distance_profile(cycle_graph(5))) == (30, 60)
    assert wiener_indices(distance_profile(path_graph(3))) == (8, 10)
    for n in range(2, 7):
        assert wiener_indices(distance_profile(complete_graph(n))) == (n * (n - 1), n * (n - 1) ** 2)


def test_conductance_examples():
    phi, s = conductance(graph_from_edges(2, [(0, 1)]))
    assert phi == 1 and len(s) == 1
    phi, _ = conductance(cycle_graph(4))
    assert phi == 1
    for n in range(2, 9):
        phi, s = conductance(complete_graph(n))
        assert phi == (n + 1) // 2
        assert len(s) == n // 2


def test_conductance_against_bruteforce():
    for n in range(2, 6):
        for g in generate_connected_graphs(n):
            phi, s = conductance(g)
            assert phi == conductance_bruteforce(g)
            # the reported subset realises the reported ratio
            sset = set(s)
            boundary = sum(1 for u, v in g.edges() if (u in sset) != (v in sset))
            assert phi == Fraction(boundary, len(s))


def test_conductance_matches_fraction_loop():
    # the cross-multiplied comparison keeps the ratio and the first
    # minimising subset of the loop that built a Fraction per subset
    checked = 0
    for n in range(2, 8):
        for g in generate_connected_graphs(n):
            assert conductance(g) == conductance_fraction_loop(g)
            checked += 1
    assert checked == 1 + 2 + 6 + 21 + 112 + 853


def test_conductance_as_two_ints_reads_the_same_float():
    # the bounds suite reads the least ratio as boundary / size, with no
    # Fraction: correctly rounded, so bit for bit float(phi), though the
    # pair need not be in lowest terms
    unreduced = 0
    for n in range(2, 8):
        for g in generate_connected_graphs(n):
            boundary, size, mask = graphs._conductance(g)
            phi, s = conductance(g)
            assert Fraction(boundary, size) == phi and boundary / size == float(phi)
            assert [v for v in range(n) if mask >> v & 1] == list(s)
            unreduced += math.gcd(boundary, size) > 1
    assert unreduced


def test_conductance_limits():
    with pytest.raises(ValueError, match="n <= 20"):
        conductance(path_graph(21))
    # a single vertex has no admissible subset: once an AssertionError
    with pytest.raises(ValueError, match="at least two vertices"):
        conductance(complete_graph(1))
    with pytest.raises(ValueError, match="not connected"):
        conductance(graph_from_edges(4, [(0, 1), (2, 3)]))
