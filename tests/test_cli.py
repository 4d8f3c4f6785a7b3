import ast
import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import graphinv
from graphinv import cli, verify
from graphinv.cli import main
from graphinv.generators import canonical_key, generate_connected_graphs
from graphinv.graphs import cricket_graph, graph_from_edges, parse_graph6, path_graph, write_graph6
from oracles import permuted, triangular_and_chang_graphs


@pytest.fixture
def cricket_file(tmp_path):
    path = tmp_path / "cricket.g6"
    path.write_text(write_graph6(cricket_graph()) + "\n")
    return str(path)


def test_gen_connected(capsys):
    assert main(["gen", "--n", "4"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 6
    assert all(parse_graph6(line).n == 4 for line in lines)


def test_gen_trees(capsys):
    assert main(["gen", "--n", "5", "--trees"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3
    assert all(parse_graph6(line).edge_count() == 4 for line in lines)


@pytest.mark.parametrize("argv, sha256", [
    (["gen", "--n", "7"], "2139c5e182eb64ad090534b7c0d26eeb51a36cae7daac3cea0b694ceb42600a0"),
    (["gen", "--n", "12", "--trees"],
     "7c87c7427ce36c42ecb00e7670c6b7e00e3db0188492acfb1bc0ee032a3a78eb"),
    (["gen", "--n", "8"], "be6505368bc35eca5985ad2d1812de413441850adc5b3cdcc7c487b7b100a753"),
])
def test_gen_output_bytes_pinned(argv, sha256, capsys):
    # The generators return the first-seen labelled representative of each
    # class, in canonical-key order; these bytes must not drift.
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest() == sha256


def test_census_tsv(capsys):
    assert main(["census", "--n", "5", "--matrices", "Atr",
                 "--modes", "spectral,invariant", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "5\tAtr\tspectral\t2\t21\t0.095238\t2/21" in out
    assert "5\tAtr\tinvariant\t2\t21\t0.095238\t2/21" in out


def test_census_deterministic(capsys):
    args = ["census", "--n", "4", "--matrices", "Atr,Ddeg", "--jobs", "1"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_census_from_input_file(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    lines = []

    def _collect():
        assert main(["gen", "--n", "5"]) == 0
        return capsys.readouterr().out

    path.write_text(_collect())
    assert main(["census", "--input", str(path), "--matrices", "Atr", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "2/21" in out


def test_census_input_n_mismatch(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text(write_graph6(cricket_graph()) + "\n")
    assert main(["census", "--input", str(path), "--n", "6",
                 "--matrices", "Atr", "--jobs", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_trees_census(capsys):
    assert main(["trees", "--n", "9", "--matrices", "DdegPlus",
                 "--modes", "invariant", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "9\tDdegPlus\tinvariant\t2\t47" in out


def test_snf_subcommand(cricket_file, capsys):
    assert main(["snf", "--input", cricket_file, "--matrix", "Atr"]) == 0
    assert capsys.readouterr().out == "1 1 1 7 812\n"


def test_spectrum_exact(cricket_file, capsys):
    assert main(["spectrum", "--input", cricket_file, "--matrix", "Atr", "--exact"]) == 0
    assert capsys.readouterr().out == "1 -30 352 -2006 5495 -5684\n"


def test_spectrum_numeric(cricket_file, capsys):
    assert main(["spectrum", "--input", cricket_file, "--matrix", "Atr"]) == 0
    values = [float(x) for x in capsys.readouterr().out.split()]
    assert values == sorted(values)
    assert abs(sum(values) - 30) < 1e-6


def test_sandpile_subcommand(cricket_file, capsys):
    assert main(["sandpile", "--input", cricket_file]) == 0
    assert capsys.readouterr().out == "Z_7 + Z_812, tau=5684\n"


def _g6_file(tmp_path, *records):
    path = tmp_path / "graphs.g6"
    path.write_text("".join(f"{r}\n" for r in records))
    return str(path)


# Each fault of the per-record input contract, as the records of one file
# (None: the file does not exist).  Line 2, where there is one, is at fault.
FAULTS = {
    "malformed": ("Bg", "B~"),
    "disconnected": ("Bg", "B?"),
    "order": ("Bg", "Ch"),
    "repeat": ("Bg", "Bg"),
    "isomorphic": ("Bg", "Bo"),
    "empty": (),
    "header-only": (">>graph6<<",),
    "missing": None,
}
NOT_FOUND = "error: [Errno 2] No such file or directory: '{path}'\n"


def _census_rows(jobs):
    # a census needs records of one order, each connected and none repeated,
    # not even up to isomorphism
    argv = ["census", "--matrices", "A", "--modes", "spectral", "--jobs", jobs]
    return [
        pytest.param(argv, "malformed", 1, "",
                     "error: {path}:2: nonzero padding bits (byte offset 1)\n",
                     id=f"census-j{jobs}-malformed"),
        pytest.param(argv, "disconnected", 1, "", "error: {path}:2: graph not connected\n",
                     id=f"census-j{jobs}-disconnected"),
        pytest.param(argv, "order", 1, "", "error: {path}:2: graph on 4 vertices, expected 3\n",
                     id=f"census-j{jobs}-order"),
        pytest.param([*argv, "--n", "4"], "order", 1, "",
                     "error: {path}:1: graph on 3 vertices, expected 4\n", id=f"census-j{jobs}-n4-order"),
        pytest.param(argv, "repeat", 1, "", "error: {path}:2: duplicate of line 1\n",
                     id=f"census-j{jobs}-repeat"),
        pytest.param(argv, "isomorphic", 1, "", "error: {path}:2: isomorphic to line 1\n",
                     id=f"census-j{jobs}-isomorphic"),
        pytest.param(argv, "empty", 1, "", "error: {path}: no graph6 records\n",
                     id=f"census-j{jobs}-empty"),
        pytest.param(argv, "header-only", 1, "", "error: {path}: no graph6 records\n",
                     id=f"census-j{jobs}-header-only"),
        pytest.param(argv, "missing", 1, "", NOT_FOUND, id=f"census-j{jobs}-missing"),
    ]


def _per_record_rows(name, argv, p3, p4, disconnected):
    # snf, spectrum and sandpile read each record on its own, so a repeat,
    # a mixed order or an empty file is accepted; each prints its lines only
    # once every record has succeeded
    return [
        pytest.param(argv, "malformed", 1, "",
                     "error: {path}:2: nonzero padding bits (byte offset 1)\n", id=f"{name}-malformed"),
        pytest.param(argv, "disconnected", *disconnected, id=f"{name}-disconnected"),
        pytest.param(argv, "order", 0, p3 + p4, "", id=f"{name}-order"),
        pytest.param(argv, "repeat", 0, p3 + p3, "", id=f"{name}-repeat"),
        pytest.param(argv, "isomorphic", 0, p3 + p3, "", id=f"{name}-isomorphic"),
        pytest.param(argv, "empty", 0, "", "", id=f"{name}-empty"),
        pytest.param(argv, "header-only", 0, "", "", id=f"{name}-header-only"),
        pytest.param(argv, "missing", 1, "", NOT_FOUND, id=f"{name}-missing"),
    ]


NOT_CONNECTED = (1, "", "error: {path}:2: graph not connected\n")


@pytest.mark.parametrize("argv, fault, code, stdout, stderr", [
    *_census_rows("1"),
    *_census_rows("2"),
    # the adjacency matrix needs no distances, so snf --matrix A takes a
    # disconnected graph
    *_per_record_rows("snf", ["snf", "--matrix", "A"], "1 1 0\n", "1 1 1 1\n",
                      (0, "1 1 0\n0 0 0\n", "")),
    *_per_record_rows("spectrum", ["spectrum", "--matrix", "Atr", "--exact"], "1 -8 19 -12\n",
                      "1 -20 145 -448 493\n", NOT_CONNECTED),
    # P3 and P4, not K3: the cone over a complete graph is refused first
    *_per_record_rows("sandpile", ["sandpile"], "Z_12, tau=12\n", "Z_493, tau=493\n",
                      NOT_CONNECTED),
])
def test_input_fault_contract(argv, fault, code, stdout, stderr, tmp_path, capsys):
    records = FAULTS[fault]
    path = str(tmp_path / "graphs.g6") if records is None else _g6_file(tmp_path, *records)
    assert main([*argv, "--input", path]) == code
    assert capsys.readouterr() == (stdout, stderr.format(path=path))


def test_census_input_reports_first_fault_in_file_order(tmp_path, capsys):
    # the whole file was once parsed before any record was checked, so the
    # parse error on line 3 was named ahead of the disconnected line 2
    path = tmp_path / "graphs.g6"
    path.write_bytes(b"Bg\nB?\nB\xc3\n")
    assert main(["census", "--input", str(path), "--matrices", "A", "--jobs", "1"]) == 1
    assert capsys.readouterr() == ("", f"error: {path}:2: graph not connected\n")


def test_census_input_accepts_every_connected_graph(tmp_path, capsys):
    # the 112 connected graphs on 6 vertices are pairwise non-isomorphic,
    # though 34 share their sorted degrees and transmissions with another
    argv = ["--matrices", "A", "--modes", "invariant", "--jobs", "1"]
    assert main(["gen", "--n", "6"]) == 0
    path = _g6_file(tmp_path, *capsys.readouterr().out.split())
    assert main(["census", "--input", path, *argv]) == 0
    from_file = capsys.readouterr()
    assert main(["census", "--n", "6", *argv]) == 0
    assert from_file == capsys.readouterr()


def test_census_input_on_cospectral_strongly_regular_graphs(tmp_path, capsys):
    # T(8) and the three Chang graphs share their adjacency spectrum but are
    # not isomorphic; T(8) has 40320 automorphisms, which the canonical
    # search prunes.  A relabelled copy of T(8) is still rejected.
    graphs = triangular_and_chang_graphs()
    records = [write_graph6(g) for g in graphs]
    argv = ["--matrices", "A", "--modes", "spectral", "--jobs", "1"]
    assert main(["census", "--input", _g6_file(tmp_path, *records), *argv]) == 0
    assert capsys.readouterr().out.splitlines()[1].split("\t")[3:5] == ["4", "4"]
    relabelled = write_graph6(permuted(graphs[0], [(5 * v + 3) % 28 for v in range(28)]))
    path = _g6_file(tmp_path, *records, relabelled)
    assert main(["census", "--input", path, *argv]) == 1
    assert capsys.readouterr().err == f"error: {path}:5: isomorphic to line 1\n"


# K_{3,3} and the triangular prism: connected, 3-regular on 6 vertices and
# not isomorphic, so only a canonical key tells them apart
K33 = graph_from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
PRISM = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


@pytest.mark.parametrize("records, fault", [
    # the second record keys the first; the third, the second relabelled,
    # matches the second's key
    ((K33, PRISM, permuted(PRISM, [5, 3, 4, 0, 2, 1])), "isomorphic to line 2"),
    ((K33, PRISM, K33), "duplicate of line 1"),
    # P6's degrees are its own, so the first record is keyed only by the third
    ((K33, path_graph(6), K33), "duplicate of line 1"),
    ((K33, path_graph(6), permuted(K33, [1, 2, 3, 4, 5, 0])), "isomorphic to line 1"),
], ids=["isomorphic-to-second", "duplicate-of-first", "first-keyed-late", "isomorphic-first-keyed-late"])
def test_census_input_names_first_record_of_a_class(records, fault, tmp_path, capsys):
    lines = [write_graph6(g) for g in records]
    assert len(set(lines)) == len(lines) - fault.startswith("duplicate")
    path = _g6_file(tmp_path, *lines)
    assert main(["census", "--input", path, "--matrices", "A", "--jobs", "1"]) == 1
    assert capsys.readouterr() == ("", f"error: {path}:3: {fault}\n")


def _degrees(g):
    return tuple(sorted(g.degree_sequence()))


def test_census_input_keys_only_records_whose_degrees_are_shared(tmp_path, capsys, monkeypatch):
    # a record's canonical key is taken once another record has its sorted
    # degrees, and then exactly once
    keyed = []
    monkeypatch.setattr(cli, "canonical_key", lambda g: keyed.append(g) or canonical_key(g))
    rng = random.Random(11)
    graphs = list(generate_connected_graphs(6))
    rng.shuffle(graphs)
    graphs = [permuted(g, rng.sample(range(6), 6)) for g in graphs]
    apart = list({_degrees(g): g for g in graphs}.values())
    argv = ["--matrices", "A", "--modes", "invariant", "--jobs", "1"]
    for records in (apart, graphs[:40]):
        keyed.clear()
        path = _g6_file(tmp_path, *map(write_graph6, records))
        assert main(["census", "--input", path, *argv]) == 0
        capsys.readouterr()
        shared = Counter(map(_degrees, records))
        assert Counter(keyed) == Counter(g for g in records if shared[_degrees(g)] > 1)
    assert 0 < len(keyed) < 40


def test_census_input_keys_each_record_at_most_once(tmp_path, capsys, monkeypatch):
    # most of the 853 connected graphs on 7 vertices share their sorted
    # degrees with another
    keyed = []
    monkeypatch.setattr(cli, "canonical_key", lambda g: keyed.append(g) or canonical_key(g))
    assert main(["gen", "--n", "7"]) == 0
    records = capsys.readouterr().out.split()
    path = _g6_file(tmp_path, *records)
    assert main(["census", "--input", path, "--matrices", "A", "--modes", "invariant", "--jobs", "1"]) == 0
    assert capsys.readouterr().err == ""
    assert len(records) // 2 < len(keyed) <= len(records) == 853
    assert set(Counter(keyed).values()) == {1}


def test_per_record_commands_leave_no_partial_output(tmp_path, capsys):
    # sandpile once printed "Z_12, tau=12" for Bg before failing on C~ (K4)
    for argv, records, message in (
            (["sandpile"], ("Bg", "C~"), "cone apex would be isolated"),
            (["snf", "--matrix", "Atr"], ("Bg", "B?"), "graph not connected"),
            (["spectrum", "--matrix", "Atr", "--exact"], ("Bg", "B?"), "graph not connected")):
        path = _g6_file(tmp_path, *records)
        assert main([*argv, "--input", path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}:2: {message}\n"


def test_verify_ok(capsys):
    assert main(["verify", "--suite", "moments", "--n-max", "5"]) == 0
    assert "ok moments" in capsys.readouterr().out


def test_verify_counts_on_stderr(capsys):
    assert main(["verify", "--n-max", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "".join(f"ok {name} (n <= 4)\n" for name in verify.N_MAX_RANGE)
    # 9 graphs with 2 <= n <= 4; closed forms: K2..K4 (6 kinds, 2 shift records), 4 stars (2 kinds),
    # 4 trees (SNF, det), C3, C4 (2 shift records), P3 (1 value): 3 + 4 + 4 + 2 + 1 = 14 objects,
    # 24 + 8 + 8 + 4 + 1 = 45 checks; sandpile skips K2, K3, K4; moments adds K1
    assert captured.err.splitlines() == [
        "bounds: 9 objects, 136 checks",
        "closed-forms: 14 objects, 45 checks",
        "sandpile: 6 objects, 6 checks",
        "moments: 10 objects, 30 checks",
    ]
    # every cap applies at 12: K2..K12 (6 kinds; 2 shift records on K2..K8), 12 stars, 986 trees,
    # C3..C12 and Petersen (2 shift records), cricket, C5, P3 (3 + 4 + 1 values):
    # 11 + 12 + 986 + 11 + 3 = 1023 objects, 66 + 14 + 24 + 1972 + 22 + 8 = 2106 checks
    assert main(["verify", "--suite", "closed-forms", "--n-max", "12"]) == 0
    assert capsys.readouterr() == ("ok closed-forms (n <= 12)\n", "closed-forms: 1023 objects, 2106 checks\n")


def test_verify_fail_exits_1(monkeypatch, capsys):
    # with n <= 3 the only non-complete graph is the path P3, "Bo" as generated
    monkeypatch.setattr(verify, "cross_check", lambda ctx: False)
    assert main(["verify", "--suite", "sandpile", "--n-max", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "FAIL sandpile: 1 failures\n"
    assert "  cone cross-check failed: Bo" in captured.err


def test_verify_rejects_n_max_before_any_work(monkeypatch, capsys):
    ran = []
    for name in ("generate_connected_graphs", "generate_trees", "_closed_forms"):
        monkeypatch.setattr(verify, name, ran.append)
    # moments reaches n = 9 only after computing every n <= 8
    for argv, allowed in ((["--suite", "moments", "--n-max", "9"], "1 <= n_max <= 8"),
                          (["--n-max", "0"], "2 <= n_max <= 8"),
                          (["--n-max", "2"], "3 <= n_max <= 8")):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        assert allowed in capsys.readouterr().err
    with pytest.raises(ValueError, match="3 <= n_max <= 8"):
        verify.run(["sandpile"], 2)
    with pytest.raises(ValueError, match="1 <= n_max <= 8"):
        verify.run(["closed-forms", "moments"], 9)
    with pytest.raises(ValueError, match="suite moments given twice"):
        verify.run(["moments", "closed-forms", "moments"], 3)
    with pytest.raises(ValueError, match="verify needs at least one suite"):
        verify.run([], 3)
    assert ran == []


def test_verify_rejects_non_integer_n_max_before_any_work(monkeypatch):
    # 5.0 once failed in range() with a raw TypeError, and True ran as n_max = 1
    ran = []
    for name in ("generate_connected_graphs", "generate_trees", "complete_graph", "star_graph"):
        monkeypatch.setattr(verify, name, ran.append)
    for call, n_max in ((lambda n: verify.run(["moments"], n), 5.0),
                        (lambda n: verify.run(["moments"], n), True),
                        (lambda n: verify.run(["closed-forms"], n), 3.0)):
        with pytest.raises(ValueError, match=f"n_max is not an integer: {n_max}"):
            call(n_max)
    assert ran == []


def test_verify_rejects_unknown_suite():
    message = "unknown suite 'nope'; suites are bounds, closed-forms, sandpile, moments"
    with pytest.raises(ValueError, match=message):
        verify.require_n_max("nope", 5)
    with pytest.raises(ValueError, match=message):
        verify.run(["moments", "nope"], 5)


def test_usage_errors_exit_2(cricket_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-subcommand"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["census", "--n", "4", "--matrices", "Atr", "--bogus-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["census", "--n", "4", "--matrices", "NotAKind"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
    # with --input, --n 0 was once ignored (exit 0) and --n -2 failed on
    # every record (exit 1); without it, --n 0 asked for --n
    for argv, n in ((["--input", cricket_file], "0"), (["--input", cricket_file], "-2"),
                    ([], "0")):
        with pytest.raises(SystemExit) as exc:
            main(["census", *argv, "--n", n, "--matrices", "A", "--jobs", "1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"--n needs N >= 1, got {n}" in err


@pytest.mark.parametrize("argv, message", [
    (["trees", "--n", "0", "--matrices", "A"], "--n needs 2 <= N <= 16 for a tree census, got 0"),
    (["trees", "--n", "17", "--matrices", "A"], "--n needs 2 <= N <= 16 for a tree census, got 17"),
    (["gen", "--n", "0"], "--n needs 1 <= N <= 8 for connected graphs, got 0"),
    (["gen", "--n", "20"], "--n needs 1 <= N <= 8 for connected graphs, got 20"),
    (["gen", "--n", "17", "--trees"], "--n needs 1 <= N <= 16 for trees, got 17"),
    (["census", "--n", "20", "--matrices", "A"],
     "--n needs 1 <= N <= 8 for the built-in corpus, got 20"),
])
def test_vertex_count_out_of_range_exit_2(argv, message, capsys):
    # these once exited 1, as computation errors, from the generators' checks
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


def test_jobs_below_one_exit_2(capsys):
    # a zero or negative pool width once ran serially and exited 0
    census = ["census", "--n", "4", "--matrices", "A", "--modes", "spectral"]
    trees = ["trees", "--n", "5", "--matrices", "A", "--modes", "spectral"]
    for argv, jobs in ((census, "-3"), (census, "0"), (trees, "0")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--jobs", jobs])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"--jobs needs N >= 1, got {jobs}" in err


def test_jobs_above_the_cap_exit_2(monkeypatch, capsys):
    # a pool width above MAX_JOBS once went to multiprocessing.Pool as it
    # stood; now it is a usage error, and no pool starts
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr("multiprocessing.Pool", no_pool)
    census = ["census", "--n", "4", "--matrices", "A", "--modes", "spectral"]
    trees = ["trees", "--n", "5", "--matrices", "A", "--modes", "spectral"]
    for argv, jobs in ((census, str(cli.MAX_JOBS + 1)), (census, "100000"), (trees, "100000")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--jobs", jobs])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"--jobs needs N <= {cli.MAX_JOBS}, got {jobs}" in err


@pytest.mark.parametrize("cores, width", [(None, 1), (2, 2), (cli.MAX_JOBS, cli.MAX_JOBS),
                                          (cli.MAX_JOBS + 1, cli.MAX_JOBS), (100000, cli.MAX_JOBS)])
def test_jobs_default_is_the_core_count_up_to_the_cap(monkeypatch, cores, width):
    # os.cpu_count() is the default width, so a host with more cores than
    # MAX_JOBS would have failed its own default
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    args = cli._build_parser().parse_args(["census", "--n", "4", "--matrices", "A"])
    assert args.jobs == width


def test_repeated_names_exit_2(capsys):
    # a repeated name once tallied each graph twice: mate_count 42 of total 21
    for argv, name in ((["census", "--n", "5", "--matrices", "A,A", "--modes", "spectral"], "'A'"),
                       (["census", "--n", "5", "--matrices", "A", "--modes", "spectral,spectral"],
                        "'spectral'"),
                       (["trees", "--n", "5", "--matrices", "Atr,Ddeg,Atr"], "'Atr'")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert name in err and "twice" in err


def test_computation_errors_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "missing.g6")
    assert main(["snf", "--input", missing, "--matrix", "Atr"]) == 1
    assert "error" in capsys.readouterr().err


def test_input_errors_name_path_and_line(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_bytes(write_graph6(cricket_graph()).encode() + b"\nB\xc3\xa9\n")
    assert main(["snf", "--input", str(path), "--matrix", "Atr"]) == 1
    err = capsys.readouterr().err
    assert f"{path}:2: " in err
    assert "byte 195 " in err
    assert "byte offset 1" in err


def test_import_does_not_load_multiprocessing():
    # only a census with --jobs above 1 needs a worker pool, and importing
    # multiprocessing costs every CLI start about 9 ms; dataclasses (with
    # inspect) and fractions (with decimal) cost it about 1.5 MB of peak RSS
    # and 15 ms, so the records are tuples and only a caller of conductance
    # or CensusEntry.uncertainty imports fractions: a serial census or tree
    # census loads none of them either, nor does the bounds suite, whose
    # conductance check reads the least ratio as a float of two ints
    src = Path(graphinv.__file__).resolve().parent.parent
    code = ("import contextlib, io, sys, graphinv.cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] in\n"
            "                  ('multiprocessing', 'dataclasses', 'inspect', 'fractions', 'decimal'))\n"
            "print(loaded())\n"
            "kinds = ['--matrices', ','.join(graphinv.cli.CLI_KINDS), '--jobs', '1']\n"
            "for argv in (['census', '--n', '5', *kinds], ['trees', '--n', '6', *kinds],\n"
            "             ['verify', '--suite', 'bounds', '--n-max', '5']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "        assert graphinv.cli.main(argv) == 0\n"
            "    print(loaded())\n")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n[]\n[]\n[]\n"


def test_import_fills_no_lru_cache():
    # the eigensolver's and the determinant's kernels, the Jacobi rotation
    # tables and the generators' levels are made on first use, so commands
    # that never take a spectrum, a determinant or a corpus pay nothing for
    # them; every lru_cache of those modules is found and must be empty
    src = Path(graphinv.__file__).resolve().parent.parent
    code = ("import graphinv.cli, graphinv.exact, graphinv.spectra, graphinv.generators, sys; "
            "print({m: sorted((f, v.cache_info().currsize) for f, v in vars(sys.modules[m]).items() "
            "if hasattr(v, 'cache_info')) for m in ('graphinv.exact', 'graphinv.spectra', 'graphinv.generators')})")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=True)
    caches = ast.literal_eval(done.stdout)
    assert all(caches.values()), caches
    assert {size for found in caches.values() for _, size in found} == {0}, caches
