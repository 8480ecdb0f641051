import concurrent.futures
import csv
import gc
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from degenmatch import cli, dp, oracles
from degenmatch.cli import main
from degenmatch.formats import serialize_graph6
from degenmatch.generate import (
    FAMILIES,
    complete,
    complete_bipartite,
    cycle,
    interval,
    k_tree,
    path,
)

from conftest import WRONG_RECURRENCES, flat_table, gnp


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def write_graph(tmp_path, g, name="g.g6"):
    p = tmp_path / name
    p.write_text(serialize_graph6(g) + "\n")
    return str(p)


def test_nur_p6(tmp_path, capsys):
    path6 = tmp_path / "p6.txt"
    path6.write_text("1 2\n2 3\n3 4\n4 5\n5 6\n")
    code, report = run(capsys, "nur", "--input", str(path6), "--r", "1",
                       "--emit-matching")
    assert code == 0
    assert report["results"]["nu_r"] == 3
    assert len(report["results"]["matching"]) == 3
    # a path has omega = 2, so r = 1 is answered by a maximum matching
    assert report["results"]["stats"] == {"nodes": 0, "max_table": 0,
                                          "path": "matching"}
    assert set(report) == {"command", "input_digest", "version", "results",
                           "elapsed_ms"}


def test_nur_inconsistent_tables_exit_internal(tmp_path, capsys, monkeypatch):
    # a root value that its witness does not add up to is an internal error
    run_tables = dp.run_tables

    def corrupted(decomp, r, weights=None):
        root, largest = run_tables(decomp, r, weights)
        value, witness = root[((), ())]
        return flat_table({((), ()): (value + 1, witness)}), largest

    monkeypatch.setattr(dp, "run_tables", corrupted)
    # a 2-tree has omega = 3, so r = 1 runs the DP
    g = k_tree(2, 8, seed=5)
    code = main(["nur", "--input", write_graph(tmp_path, g), "--r", "1"])
    out, err = capsys.readouterr()
    assert code == 5 and out == ""
    assert err.startswith("internal invariant violation: ")


@pytest.mark.parametrize("kind", sorted(WRONG_RECURRENCES))
def test_nur_wrong_recurrence_exit_internal(tmp_path, capsys, monkeypatch, kind):
    g, patches, _ = WRONG_RECURRENCES[kind]
    for name, fn in patches.items():
        monkeypatch.setattr(dp, name, fn)
    code = main(["nur", "--input", write_graph(tmp_path, g), "--r", "1",
                 "--emit-matching"])
    out, err = capsys.readouterr()
    assert code == 5 and out == ""
    assert err.startswith("internal invariant violation: ")


def test_out_of_memory_exits_limits(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "solve", exhausted)
    code = main(["nur", "--input", write_graph(tmp_path, path(6)), "--r", "1"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err == "limits exceeded: out of memory\n"


def test_nur_not_chordal(tmp_path, capsys):
    code, _ = run(capsys, "nur", "--input", write_graph(tmp_path, cycle(4)),
                  "--r", "1")
    assert code == 2


def test_nur_k4(tmp_path, capsys):
    code, report = run(capsys, "nur", "--input",
                       write_graph(tmp_path, complete(4)), "--r", "3")
    assert code == 0 and report["results"]["nu_r"] == 2


def test_nur_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n")
    code, _ = run(capsys, "nur", "--input", str(bad), "--r", "1")
    assert code == 3


def test_nur_weighted(tmp_path, capsys):
    p4 = tmp_path / "p4.txt"
    p4.write_text("1 2\n2 3\n3 4\n")
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps([[0, 1, 5], [1, 2, 9], [2, 3, 5]]))
    code, report = run(capsys, "nur", "--input", str(p4), "--r", "1",
                       "--weights", str(weights))
    assert code == 0 and report["results"]["nu_r"] == 10


@pytest.mark.parametrize("graph, weights", [
    ("1 2\n2 3\n", "[[0, 1, NaN], [1, 2, 1]]"),
    ("1 2\n2 3\n", '[[0, 1, "5"], [1, 2, 1]]'),
    ("1 2\n2 3\n", "[[0, 1, 1], [1, 2, 1], [0, 2, 7]]"),
    ("1 2\n", "[[0, 1, 1], [1, 0, 9]]"),
    ("1 2\n2 3\n", '[["a", 1, 5]]'),
    ("1 2\n2 3\n", "[5]"),
    ("1 2\n2 3\n", "[[0, 1, 1]]"),
    ("1 2\n2 3\n", "[[0, 1, Infinity], [1, 2, 1]]"),
    ("1 2\n2 3\n", "[[0, 1, true], [1, 2, 1]]"),
    ("1 2\n2 3\n3 4\n4 1\n", "[[0, 1, NaN], [1, 2, 1], [2, 3, 1], [0, 3, 1]]"),
], ids=["nan", "string", "non-edge", "duplicate", "string-vertex", "not-a-triple",
        "missing", "infinite", "boolean", "not-chordal"])
def test_nur_rejects_bad_weights(tmp_path, capsys, graph, weights):
    # solve checks the weights before it recognizes the graph, so a chordless
    # 4-cycle with a NaN weight exits 3, not 2
    g = tmp_path / "g.txt"
    g.write_text(graph)
    w = tmp_path / "w.json"
    w.write_text(weights)
    code = main(["nur", "--input", str(g), "--r", "1", "--weights", str(w)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("invalid input: ") and err.count("\n") == 1


def test_color_k22(tmp_path, capsys):
    code, report = run(capsys, "color", "--input",
                       write_graph(tmp_path, complete_bipartite(2, 2)),
                       "--r", "1", "--verify")
    assert code == 0
    res = report["results"]
    assert res["colors_used"] == 4 and res["K"] == 4 and res["verified"]


def test_color_k2_and_random_order(tmp_path, capsys):
    code, report = run(capsys, "color", "--input",
                       write_graph(tmp_path, complete(2)), "--r", "1")
    assert code == 0 and report["results"]["colors_used"] == 1
    code, report = run(capsys, "color", "--input",
                       write_graph(tmp_path, cycle(5)), "--r", "1",
                       "--order", "random", "--seed", "7", "--verify")
    assert code == 0
    assert report["results"]["colors_used"] <= 4
    assert report["results"]["verified"]


@pytest.mark.parametrize("graph, flags, results", [
    (cycle(5), ["--verify"],
     {"r": 1, "delta": 2, "K": 4, "colors_used": 3,
      "classes": {"1": [[0, 1], [2, 3]], "2": [[0, 4], [1, 2]], "3": [[3, 4]]},
      "verified": True}),
    (k_tree(2, 8, 1), ["--order", "random", "--seed", "7"],
     {"r": 1, "delta": 7, "K": 49, "colors_used": 11,
      "classes": {"1": [[1, 3], [4, 5]], "2": [[1, 2], [4, 6]], "3": [[0, 6]],
                  "4": [[1, 4]], "5": [[0, 2]], "6": [[0, 3]], "7": [[4, 7]],
                  "8": [[0, 7]], "9": [[0, 1]], "10": [[0, 5]], "11": [[0, 4]]}}),
], ids=["c5-verify", "2-tree-random"])
def test_color_report_is_pinned(tmp_path, capsys, graph, flags, results):
    # the whole results object, key order included: classes ascend by color
    # as numbers ("10" after "9"), the edges of a class ascend, and
    # "verified" comes last and only with --verify
    code, report = run(capsys, "color", "--input", write_graph(tmp_path, graph),
                       "--r", "1", *flags)
    assert code == 0
    assert json.dumps(report["results"]) == json.dumps(results)


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("flags, k", [
    (["--r", "1000000000", "--verify"], 7),
    (["--r", "1", "--delta-override", "100000"], 99999 ** 2 + 2 * 99999 + 1),
], ids=["r-1e9", "palette-1e10"])
def test_color_huge_r_and_palette_stay_small(tmp_path, flags, k):
    # nothing may be sized by r or by the palette K: the child runs under a
    # 512 MB address-space limit, so a list of r counters exits 4
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "degenmatch.cli", "color", "--input",
         write_graph(tmp_path, complete(5))] + flags,
        capture_output=True, text=True, env=env, preexec_fn=limit, timeout=30)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert proc.returncode == 0, proc.stderr
    cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    assert cpu_s < 1
    res = json.loads(proc.stdout)["results"]
    assert res["K"] == k and res.get("verified", True)


def test_oracle_variants_and_chi(tmp_path, capsys):
    code, report = run(capsys, "oracle", "--input",
                       write_graph(tmp_path, cycle(4)), "--what", "variants")
    assert code == 0
    assert report["results"] == {"nu_s": 1, "nu_1": 1, "nu_ur": 1, "nu": 2}
    code, report = run(capsys, "oracle", "--input",
                       write_graph(tmp_path, complete_bipartite(3, 3)),
                       "--what", "chi", "--r", "1")
    assert code == 0 and report["results"]["chi_r"] == 9


def test_oracle_limits(tmp_path, capsys):
    big = tmp_path / "big.txt"
    big.write_text("\n".join("%d %d" % (i, i + 1) for i in range(1, 30)))
    code, _ = run(capsys, "oracle", "--input", str(big), "--what", "chi",
                  "--r", "1")
    assert code == 4


@pytest.mark.parametrize("text, flags, message", [
    ("1 1000000000\n", [], "1000000000 vertices exceeds limit 1000000"),
    ("p edge 2000000 1\ne 1 2\n", [], "2000000 vertices exceeds limit 1000000"),
    ("p edge 10 20000000\n", [], "20000000 edges exceeds limit 10000000"),
    ("~" * 8 + "\n", [], "68719476735 vertices exceeds limit 1000000"),
    ("~}}}\n", ["--max-vertices", "100000"], "257982 vertices exceeds limit 100000"),
    ("1 2\n2 3\n", ["--max-edges", "1"], "2 edges exceeds limit 1"),
    ("1 2\n2 3\n", ["--max-vertices", "2"], "3 vertices exceeds limit 2"),
], ids=["edgelist-id", "dimacs-n", "dimacs-m", "graph6-long-header",
        "graph6-header", "max-edges-flag", "max-vertices-flag"])
def test_size_cap_exits_limits(tmp_path, capsys, text, flags, message):
    # each input is rejected before a Graph is built, so none of them
    # allocates its declared size
    p = tmp_path / "big.txt"
    p.write_text(text)
    for command in (["check-chordal"], ["nur", "--r", "1"], ["color", "--r", "1"]):
        code = main(command + ["--input", str(p)] + flags)
        out, err = capsys.readouterr()
        assert code == 4 and out == ""
        assert err == "limits exceeded: %s\n" % message


@pytest.mark.parametrize("flag", ["--max-vertices", "--max-edges"])
def test_negative_caps_are_usage_errors(tmp_path, capsys, flag):
    # a negative cap is invalid input (exit 3), not a limit every graph
    # exceeds (exit 4); a cap of 0 still admits the empty graph
    p = tmp_path / "g.txt"
    p.write_text("1 2\n")
    assert main(["check-chordal", "--input", str(p), flag, "-1"]) == 3
    assert capsys.readouterr() == (
        "", "invalid input: max_vertices and max_edges must be non-negative\n")
    p.write_text("?\n")  # graph6: no vertices
    code, report = run(capsys, "check-chordal", "--input", str(p),
                       "--max-vertices", "0", "--max-edges", "0")
    assert code == 0 and report["results"]["chordal"] is True


@pytest.mark.parametrize("text, flags, code, err", [
    ("".join("%d %d\n" % (i, i + 1) for i in range(1, 5001)), ["--max-edges", "1000"],
     4, "limits exceeded: 1001 edges exceeds limit 1000\n"),
    ("1 10\nx y\n", ["--max-vertices", "5"],
     4, "limits exceeded: 10 vertices exceeds limit 5\n"),
    ("p edge 3 1\ne 1 2\ne 2 3\n", [],
     3, "parse error: line 3: more edges than the 1 the header declares\n"),
    ("p edge x 1\n", [], 3, "parse error: line 1: bad problem line\n"),
    ("p edge 2 1\ne 1 y\n", [], 3, "parse error: line 2: non-integer vertex id\n"),
    ("1 2\n1_0 2\n", [], 3, "parse error: line 2: non-integer vertex id\n"),
    ("# c\n1 2\n\n2 3\n3 2\n1 3\n", [], 3, "parse error: line 5: duplicate edge\n"),
    ("c x\np edge 3 3\ne 1 2\nc y\ne 2 1\ne 2 3\n", [], 3,
     "parse error: line 5: duplicate edge\n"),
    ("c comments\n\nc only\n", [], 3, "parse error: missing problem line\n"),
    ("\n", ["--format", "dimacs"], 3, "parse error: missing problem line\n"),
], ids=["edgelist-edges", "edgelist-id", "dimacs-extra-edge", "dimacs-n-not-int",
        "dimacs-id-not-int", "edgelist-id-underscore", "edgelist-duplicate",
        "dimacs-duplicate", "dimacs-comments-only", "dimacs-blank"])
def test_parsers_stop_at_the_first_bad_line(tmp_path, capsys, text, flags, code,
                                            err):
    # an edge list or DIMACS file is rejected at the first line that passes a
    # cap or holds a non-integer, before the lines after it are read; a
    # duplicate edge is named by the line, in the file's own numbering, that
    # repeats an earlier one
    p = tmp_path / "g.txt"
    p.write_text(text)
    assert main(["check-chordal", "--input", str(p)] + flags) == code
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv", [
    ["check-chordal", "--input", "{dir}"],
    ["nur", "--input", "{p3}", "--r", "1", "--weights", "{dir}"],
    ["bench", "--suite", "{dir}"],
    ["gen", "--family", "path", "--n", "3", "--out", "{dir}"],
    ["bench", "--suite", "{suite}", "--out", "{dir}"],
], ids=["input", "weights", "suite", "gen-out", "bench-out"])
def test_unusable_paths_exit_parse(tmp_path, capsys, argv):
    # a path that cannot be opened or written, here a directory, exits 3 like
    # a missing file, under its own label since nothing was parsed
    p3 = tmp_path / "p3.txt"
    p3.write_text("1 2\n2 3\n")
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"instances": [{"family": "path", "params": {"n": 3}}]}))
    paths = {"dir": str(tmp_path), "p3": str(p3), "suite": str(suite)}
    code = main([a.format(**paths) for a in argv])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("file error: ") and err.count("\n") == 1


def test_bench_opens_out_before_any_instance(tmp_path, capsys, monkeypatch):
    # an output path that cannot be written fails before the suite runs
    ran = []
    monkeypatch.setattr(cli, "_bench_task", ran.append)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(BENCH_SUITE))
    code = main(["bench", "--suite", str(suite), "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and ran == []
    assert err.startswith("file error: ") and err.count("\n") == 1


def test_nur_max_states_exits_limits(tmp_path, capsys):
    # interval(30, 2) has a bag of 16 vertices; at r = 14 every subset of up
    # to 15 bag vertices is a state, 3**16 - 2**16 pairs (S, N), so the
    # default cap stops it at once (r = 15 = omega - 1 needs no table)
    g = interval(30, 2)
    started = time.monotonic()
    code = main(["nur", "--input", write_graph(tmp_path, g), "--r", "14"])
    assert time.monotonic() - started < 1
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err == ("limits exceeded: 42981185 DP states (largest bag 16, "
                   "r = 14) exceeds limit 1000000\n")
    # K5 at r = 2: 1 + 4*2 + 6*4 + 4*8 = 65 states over its largest bag of
    # 4 (the fifth vertex hangs as a pendant node)
    k5 = write_graph(tmp_path, complete(5), "k5.g6")
    code = main(["nur", "--input", k5, "--r", "2", "--max-states", "64"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err == ("limits exceeded: 65 DP states (largest bag 4, r = 2) "
                   "exceeds limit 64\n")
    code, report = run(capsys, "nur", "--input", k5, "--r", "2",
                       "--max-states", "65")
    assert code == 0 and report["results"]["nu_r"] == 1
    assert report["results"]["stats"]["path"] == "dp"
    # r = 4 = omega - 1 builds no table, so no cap applies
    code, report = run(capsys, "nur", "--input", k5, "--r", "4",
                       "--max-states", "1")
    assert code == 0 and report["results"]["nu_r"] == 2
    assert report["results"]["stats"]["path"] == "matching"


@pytest.mark.parametrize("r", ["2", "4"], ids=["dp", "matching"])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_nur_max_states_below_one_is_invalid(tmp_path, capsys, r, cap):
    # solve checks the cap before choosing a path, so both paths refuse it
    code = main(["nur", "--input", write_graph(tmp_path, complete(5)), "--r", r,
                 "--max-states", cap])
    assert code == 3
    assert capsys.readouterr() == (
        "", "invalid input: max_states must be a positive integer\n")


def test_nur_dp_memory_is_bounded_by_the_live_tables(tmp_path):
    # only the tables whose parents are still to come are held: at r = 2 on
    # interval(80, 1) the child runs under a 192 MB address-space limit,
    # which keeping every table overran (exit 4, out of memory)
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (192 << 20, 192 << 20))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "degenmatch.cli", "nur", "--input",
         write_graph(tmp_path, interval(80, seed=1)), "--r", "2",
         "--emit-matching"],
        capture_output=True, text=True, env=env, preexec_fn=limit, timeout=60)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)["results"]
    assert res["nu_r"] == 9 and len(res["matching"]) == 9
    assert res["stats"]["path"] == "dp"


@pytest.mark.parametrize("text, value, limit_s", [
    ("p edge 200000 0\n", 0, 3),
    ("".join("1 %d\n" % v for v in range(2, 20002)), 1, 1),
], ids=["edgeless-200000", "star-20000"])
def test_nur_edgeless_and_star_stay_linear(tmp_path, capsys, text, value,
                                           limit_s):
    # r = 1 >= omega - 1 on both, so no decomposition is built (for the
    # edgeless input it would be one leaf node, then a pendant node for each
    # vertex)
    f = tmp_path / "g.txt"
    f.write_text(text)
    started = time.monotonic()
    code, report = run(capsys, "nur", "--input", str(f), "--r", "1")
    assert time.monotonic() - started < limit_s
    assert code == 0 and report["results"]["nu_r"] == value
    assert report["results"]["stats"]["path"] == "matching"


def test_oracle_states(tmp_path, capsys):
    code, report = run(capsys, "oracle", "--input",
                       write_graph(tmp_path, path(3)), "--what", "states",
                       "--r", "1")
    assert code == 0
    assert [[], [], 1] in report["results"]["states"]


@pytest.mark.parametrize("what", ["nur", "states"])
@pytest.mark.parametrize("graph", [path(3), cycle(4)], ids=["path", "not-chordal"])
def test_oracle_rejects_negative_r(tmp_path, capsys, what, graph):
    # a negative r is a usage error on any input, a chordless 4-cycle too
    code = main(["oracle", "--input", write_graph(tmp_path, graph),
                 "--what", what, "--r", "-3"])
    assert code == 3
    assert capsys.readouterr() == ("", "invalid input: r must be non-negative\n")


@pytest.mark.parametrize("what", ["nur", "chi", "variants", "states"])
def test_oracle_checks_its_limits_before_decomposing(tmp_path, capsys, monkeypatch,
                                                     what):
    # five disjoint chordless 4-cycles (20 vertices) and a 300,000-vertex
    # path are past the oracles' 16 vertices; every oracle refuses both from
    # their size, and states does so before MCS and the decomposition, so the
    # cycles are not refused as not chordal and the path is not decomposed
    def decompose(*args):
        raise AssertionError("decomposed")

    monkeypatch.setattr(cli, "mcs_order", decompose)
    monkeypatch.setattr(cli, "build_nice_decomposition", decompose)
    cycles = tmp_path / "c4s.txt"
    cycles.write_text("".join("%d %d\n" % (4 * i + j + 1, 4 * i + (j + 1) % 4 + 1)
                              for i in range(5) for j in range(4)))
    long_path = tmp_path / "path.txt"
    long_path.write_text("".join("%d %d\n" % (v, v + 1) for v in range(1, 300000)))
    for graph, n in ((cycles, 20), (long_path, 300000)):
        assert main(["oracle", "--input", str(graph), "--what", what]) == 4
        assert capsys.readouterr() == (
            "", "limits exceeded: %d vertices exceeds limit 16\n" % n)


def test_gen_round_trip(tmp_path, capsys):
    out = tmp_path / "k33.g6"
    code, report = run(capsys, "gen", "--family", "complete-bipartite",
                       "--a", "3", "--b", "3", "--out", str(out))
    assert code == 0
    from degenmatch.formats import parse_graph6
    assert parse_graph6(out.read_text()) == complete_bipartite(3, 3)
    assert report["results"]["m"] == 9


def test_gen_missing_parameter(capsys):
    code = main(["gen", "--family", "k-tree", "--n", "10"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "invalid input: family 'k-tree' needs parameter 'k'\n"


def test_gen_refuses_a_parameter_the_family_does_not_take(capsys):
    # interval takes n only; --k and --a would be ignored without the check
    code = main(["gen", "--family", "interval", "--n", "10", "--k", "4", "--a", "2"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "invalid input: family 'interval' takes no parameter 'k'\n"


def test_gen_p_defaults_only_where_taken(capsys):
    # random-bounded-degree reads p, 0.2 when left out; p = 1 gives K12
    argv = ["gen", "--family", "random-bounded-degree", "--n", "12",
            "--max-degree", "11", "--seed", "1"]
    code, report = run(capsys, *argv)
    assert code == 0 and report["results"]["m"] == 18
    code, report = run(capsys, *argv, "--p", "1")
    assert code == 0 and report["results"]["m"] == 66
    assert main(["gen", "--family", "path", "--n", "5", "--p", "0.5"]) == 3
    assert capsys.readouterr().err == \
        "invalid input: family 'path' takes no parameter 'p'\n"


def test_gen_graph6_over_its_cap_exits_limits(capsys):
    # path(100000) has 99999 edges, but its graph6 body would take 833 MB
    code = main(["gen", "--family", "path", "--n", "100000"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err == ("limits exceeded: graph6 body of 833325000 bytes exceeds "
                   "limit %d\n" % (1 << 28))


def test_check_chordal(tmp_path, capsys):
    code, report = run(capsys, "check-chordal", "--input",
                       write_graph(tmp_path, k_tree(2, 7, seed=1)))
    assert code == 0 and report["results"]["chordal"] is True
    code, report = run(capsys, "check-chordal", "--input",
                       write_graph(tmp_path, cycle(5)))
    assert code == 0 and report["results"]["chordal"] is False


def test_golden_stability(tmp_path, capsys):
    g = write_graph(tmp_path, k_tree(2, 8, seed=5))
    reports = []
    for _ in range(2):
        code, report = run(capsys, "nur", "--input", g, "--r", "2",
                           "--emit-matching")
        assert code == 0
        report.pop("elapsed_ms")
        reports.append(json.dumps(report, sort_keys=False))
    assert reports[0] == reports[1]


BENCH_CSV = (
    "graph-id,n,m,delta,r,nu_r,chi_r,nu_s,nu_1,nu_ur,nu\r\n"
    "kt2,8,13,7,1,2,,1,2,2,3\r\n"
    "kt2,8,13,7,2,3,,1,2,2,3\r\n"
    "p5,5,4,2,1,2,2,2,2,2,2\r\n"
)


BENCH_SUITE = {"instances": [
    {"id": "kt2", "family": "k-tree", "params": {"k": 2, "n": 8},
     "seed": 1, "r": [1, 2]},
    {"id": "p5", "family": "path", "params": {"n": 5}, "r": [1]},
]}


def record_pools(monkeypatch, pool_class):
    """Replace concurrent.futures.ProcessPoolExecutor, which `bench` imports
    where it starts a pool, with a subclass of pool_class that records the
    max_workers of every pool made; returns that list."""
    made = []

    class Recording(pool_class):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return made


def test_import_loads_no_pool_csv_or_dataclasses():
    # every degenmatch process imports the CLI; the process pool (only
    # `bench --jobs N` with N > 1 starts one), csv (only `bench --out`) and
    # dataclasses with inspect are imported where they are used, or not at all
    heavy = ["concurrent.futures", "multiprocessing", "csv", "dataclasses",
             "inspect"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, degenmatch.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))",
         *heavy],
        capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench(tmp_path, capsys, monkeypatch, jobs):
    # the worker pool (--jobs 2) must give the serial run's counters and CSV;
    # two CPUs keep --jobs 2 on the pool on any machine
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    made = record_pools(monkeypatch, concurrent.futures.ProcessPoolExecutor)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(BENCH_SUITE))
    out = tmp_path / "survey.csv"
    code, report = run(capsys, "bench", "--suite", str(suite),
                       "--out", str(out), "--jobs", jobs)
    assert code == 0
    assert made == ([] if jobs == "1" else [2])
    assert report["results"] == {"rows": 3, "dp_oracle_checked": 3,
                                 "dp_oracle_disagreements": 0,
                                 "palette_checked": 3, "palette_failures": 0}
    assert out.read_bytes() == BENCH_CSV.encode()


class InProcessPool:
    """Runs the tasks in this process, so a large --jobs starts nothing."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs, cpus, instances, workers", [
    (2, 8, 2, [2]),
    (1000, 8, 2, [3]),      # three tasks: kt2 at r 1 and 2, p5 at r 1
    (1000, 8, 1, []),       # one task
    (1000, 2, 2, [2]),
    (1000, None, 2, []),    # cpu_count unknown
])
def test_bench_workers_capped(tmp_path, capsys, monkeypatch, jobs, cpus,
                              instances, workers):
    # the pool forks every worker at once, so --jobs is capped by the number
    # of tasks and of CPUs; the answers do not depend on the pool
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    made = record_pools(monkeypatch, InProcessPool)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(
        {"instances": BENCH_SUITE["instances"][2 - instances:]}))
    code, report = run(capsys, "bench", "--suite", str(suite),
                       "--jobs", str(jobs))
    assert code == 0 and made == workers
    assert report["results"]["rows"] == (3 if instances == 2 else 1)


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_bench_rejects_jobs_below_one(tmp_path, capsys, monkeypatch, jobs):
    made = record_pools(monkeypatch, InProcessPool)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(BENCH_SUITE))
    code = main(["bench", "--suite", str(suite), "--jobs", jobs])
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and made == []
    assert err == "invalid input: --jobs must be at least 1\n"


@pytest.mark.parametrize("suite, named", [
    ({}, False),
    ([], False),
    ({"instances": [{"id": "p5", "family": "path", "params": {"n": 5}, "r": 2}]}, True),
    ({"instances": [{"id": "p5", "family": "path", "params": {"n": 5}, "r": ["x"]}]}, True),
    ({"instances": [{"id": "p5", "family": "path", "params": {"n": 5}, "r": [0]}]}, True),
    ({"instances": [{"id": "p5", "family": "path", "params": 5, "r": [1]}]}, True),
    ({"instances": [{"id": "p5", "family": "path", "params": {"n": "x"}, "r": [1]}]}, True),
    ({"instances": [{"id": "p5", "family": "path", "params": {"n": 2.5}, "r": [1]}]}, True),
    ({"instances": [{"id": "p5", "family": "path", "params": {"n": True}, "r": [1]}]}, True),
    ({"instances": [{"id": "p5", "family": "k-tree", "params": {"k": 2, "n": 8},
                     "seed": "a", "r": [1]}]}, True),
], ids=["no-instances", "not-an-object", "r-not-a-list", "r-not-an-int", "r-zero",
        "params-not-an-object", "param-not-a-number", "param-float", "param-bool",
        "seed-not-an-int"])
def test_bench_rejects_bad_suite(tmp_path, capsys, suite, named):
    suite_file = tmp_path / "suite.json"
    suite_file.write_text(json.dumps(suite))
    code = main(["bench", "--suite", str(suite_file)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("invalid input: ") and err.count("\n") == 1
    assert ("'p5'" in err) == named


def test_bench_instance_over_state_cap(tmp_path, capsys):
    # interval n=30 at r=14 admits far more than MAX_STATES states; without
    # the cap its tables grow past 5 GB
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"instances": [
        {"id": "wide", "family": "interval", "params": {"n": 30}, "seed": 2,
         "r": [14]},
    ]}))
    started = time.monotonic()
    code = main(["bench", "--suite", str(suite)])
    elapsed = time.monotonic() - started
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err.startswith("limits exceeded: instance 'wide': ")
    assert "exceeds limit %d" % cli.MAX_STATES in err
    assert elapsed < 1


# complete(4473) has 10,001,628 edges, past the default edge cap
BIG_SUITE = {"instances": [{"id": "big", "family": "complete", "params": {"n": 4473}}]}


def _refuse_to_build_complete(monkeypatch):
    def build(*args):
        raise AssertionError("graph built")

    monkeypatch.setitem(FAMILIES, "complete", (build,) + FAMILIES["complete"][1:])


def test_bench_instance_over_edge_cap(tmp_path, capsys, monkeypatch):
    # bench builds each instance under gen's default edge cap: the count
    # n(n - 1)/2 refuses this one before its builder runs
    _refuse_to_build_complete(monkeypatch)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(BIG_SUITE))
    assert main(["bench", "--suite", str(suite)]) == 4
    assert capsys.readouterr() == (
        "", "limits exceeded: instance 'big': 10001628 edges exceeds limit 10000000\n")


def test_bench_sparse_instance_over_oracle_vertices(tmp_path, capsys):
    # 30 vertices and 4 edges: few enough edges for the chromatic oracle, but
    # more vertices than its limit, so the row leaves chi_r empty
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"instances": [
        {"id": "sparse30", "family": "random-bounded-degree",
         "params": {"n": 30, "p": 0.02, "max_degree": 3}, "seed": 1, "r": [1]},
    ]}))
    out = tmp_path / "survey.csv"
    code, report = run(capsys, "bench", "--suite", str(suite), "--out", str(out))
    assert code == 0
    assert report["results"]["rows"] == 1
    assert report["results"]["dp_oracle_checked"] == 0
    row = next(csv.DictReader(io.StringIO(out.read_text())))
    assert (row["graph-id"], row["n"], row["m"]) == ("sparse30", "30", "4")
    assert row["nu_r"] != "" and row["chi_r"] == ""


def test_bench_non_chordal_instance(tmp_path, capsys):
    # a chordless 5-cycle has no nu_r from the DP, so its row leaves nu_r
    # empty and only the path is checked against the oracle; both colorings
    # are still checked, and the suite exits 0
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"instances": [
        {"id": "c5", "family": "cycle", "params": {"n": 5}, "r": [1]},
        {"id": "p5", "family": "path", "params": {"n": 5}, "r": [1]},
    ]}))
    out = tmp_path / "survey.csv"
    code, report = run(capsys, "bench", "--suite", str(suite), "--out", str(out))
    assert code == 0
    assert report["results"] == {"rows": 2, "dp_oracle_checked": 1,
                                 "dp_oracle_disagreements": 0,
                                 "palette_checked": 2, "palette_failures": 0}
    assert out.read_text() == ("graph-id,n,m,delta,r,nu_r,chi_r,nu_s,nu_1,nu_ur,nu\n"
                               "c5,5,5,2,1,,3,1,2,2,2\n"
                               "p5,5,4,2,1,2,2,2,2,2,2\n")


@pytest.mark.parametrize("bad, message", [
    ({"params": {"n": 12, "max_degree": 11, "P": 1},
      "family": "random-bounded-degree", "seed": 1},
     "family 'random-bounded-degree' takes no parameter 'P'"),
    ({"family": "interval", "params": {"n": 10, "k": 4}},
     "family 'interval' takes no parameter 'k'"),
    ({"family": "path", "params": {"n": 5, "p": 0.5}},
     "family 'path' takes no parameter 'p'"),
    ({"family": "k-tree", "params": {"n": 8}}, "family 'k-tree' needs parameter 'k'"),
    ({"family": "random-bounded-degree", "params": {"n": 8, "max_degree": 2,
                                                    "p": float("nan")}},
     "parameter 'p' must be a finite number"),
    ({"family": "cycle", "params": {"n": 5.0}}, "parameter 'n' must be an integer"),
    ({"family": ["k-tree"], "params": {"k": 2, "n": 8}}, "unknown family ['k-tree']"),
    ({"family": {"a": 1}, "params": {"n": 8}}, "unknown family {'a': 1}"),
    ({"family": 7, "params": {"n": 8}}, "unknown family 7"),
    ({"params": {"n": 8}}, "unknown family None"),
    ({"family": "moebius", "params": {"n": 8}}, "unknown family 'moebius'"),
    # values in range for their type but not for the family's builder
    ({"family": "cycle", "params": {"n": 2}}, "cycle needs at least 3 vertices"),
    ({"family": "k-tree", "params": {"k": 0, "n": 5}}, "k-tree needs n >= k + 1 >= 2"),
    ({"family": "k-tree", "params": {"k": 3, "n": 3}}, "k-tree needs n >= k + 1 >= 2"),
    ({"family": "random-chordal", "params": {"n": 0}}, "need at least one vertex"),
    ({"family": "random-bounded-degree", "params": {"n": 8, "max_degree": 2,
                                                    "p": 1.5}},
     "p must be between 0 and 1, got 1.5"),
    ({"family": "random-bounded-degree", "params": {"n": 8, "max_degree": 2,
                                                    "p": -1}},
     "p must be between 0 and 1, got -1"),
    ({"family": "random-bounded-degree", "params": {"n": -3, "max_degree": 2}},
     "n must be non-negative, got -3"),
    ({"family": "random-bounded-degree", "params": {"n": 8, "max_degree": -1}},
     "max_degree must be non-negative, got -1"),
    ({"family": "path", "params": {"n": -1}}, "vertex count must be non-negative"),
    ({"family": "complete", "params": {"n": -1}}, "vertex count must be non-negative"),
    ({"family": "interval", "params": {"n": -1}}, "vertex count must be non-negative"),
    ({"family": "complete-bipartite", "params": {"a": -1, "b": 3}},
     "part sizes must be non-negative"),
    ({"family": "complete-bipartite", "params": {"a": 3, "b": -1}},
     "part sizes must be non-negative"),
], ids=["extra-P", "extra-k", "p-not-taken", "missing-k", "p-nan", "n-float",
        "family-list", "family-object", "family-number", "family-missing",
        "family-unknown", "cycle-n2", "k-tree-k0", "k-tree-n-small", "chordal-n0",
        "p-above-1", "p-below-0", "bounded-degree-n-negative",
        "max-degree-negative", "path-n-negative", "complete-n-negative",
        "interval-n-negative", "bipartite-a-negative", "bipartite-b-negative"])
def test_bench_checks_every_instance_before_any_runs(tmp_path, capsys, monkeypatch,
                                                     bad, message):
    # a bad instance after a good one is refused before the good one runs,
    # with its id and never a traceback
    ran = []
    monkeypatch.setattr(cli, "_bench_task", ran.append)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"instances": [
        {"id": "p5", "family": "path", "params": {"n": 5}},
        dict(bad, id="bad", r=[1]),
    ]}))
    code = main(["bench", "--suite", str(suite)])
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and ran == []
    assert err == "invalid input: instance 'bad': %s\n" % message


def test_bench_p_is_read(tmp_path, capsys):
    # p = 1 puts every pair in, up to the degree cap: K12 has 66 edges
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"instances": [
        {"id": "k12", "family": "random-bounded-degree",
         "params": {"n": 12, "max_degree": 11, "p": 1}, "seed": 1, "r": [1]},
    ]}))
    out = tmp_path / "survey.csv"
    code, report = run(capsys, "bench", "--suite", str(suite), "--out", str(out))
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out.read_text())))
    assert (row["graph-id"], row["n"], row["m"]) == ("k12", "12", "66")


def test_bench_missing_parameter(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"instances": [
        {"id": "kt-no-k", "family": "k-tree", "params": {"n": 8}, "r": [1]},
    ]}))
    code = main(["bench", "--suite", str(suite)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "kt-no-k" in err and "needs parameter 'k'" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, problem", [
    (["nur", "--input", "g.txt"], "the following arguments are required: --r"),
    (["decompose", "--input", "g.txt"], "invalid choice: 'decompose'"),
    (["nur", "--input", "g.txt", "--r", "1", "--format", "xml"],
     "invalid choice: 'xml'"),
    (["nur", "--input", "g.txt", "--r", "x"], "invalid int value: 'x'"),
], ids=["missing-r", "unknown-command", "unknown-format", "r-not-an-int"])
def test_usage_errors_exit_parse(capsys, argv, problem):
    # exit 2 means "not chordal", so argparse's own exit 2 is not used
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 3 and out == ""
    assert problem in err


@pytest.mark.parametrize("argv", [["--version"], ["nur", "--help"]])
def test_help_and_version_exit_ok(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0 and capsys.readouterr().out


def test_many_calls_in_one_process(tmp_path, capsys):
    # the parser is built once and shared; no call may see another's options
    p4 = tmp_path / "p4.txt"
    p4.write_text("1 2\n2 3\n3 4\n")
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps([[0, 1, 5], [1, 2, 9], [2, 3, 5]]))
    first = ["nur", "--input", str(p4), "--r", "1", "--emit-matching",
             "--weights", str(weights)]
    calls = [first,
             ["nur", "--input", str(p4), "--r", "1"],
             ["color", "--input", str(p4), "--r", "1", "--verify"],
             ["nur", "--input", str(p4)],
             ["check-chordal", "--input", str(p4)],
             first]
    reports = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        if code == 3:
            assert out == ""
            continue
        assert code == 0 and out.count("\n") == 1
        assert re.search(r'"elapsed_ms": \d+\.\d+(e-?\d+)?\}\n\Z', out)
        reports.append(json.loads(out))
    weighted, plain, colored, chordal, again = reports
    assert weighted["results"]["nu_r"] == 10
    assert plain["results"]["nu_r"] == 2 and "matching" not in plain["results"]
    assert colored["results"]["verified"] and chordal["results"]["chordal"]
    weighted.pop("elapsed_ms")
    again.pop("elapsed_ms")
    assert again == weighted


# main pauses the cyclic collector for each command and puts the caller's
# setting back, however the command ends
def _paused_commands(tmp_path, monkeypatch):
    """(argv, exit code) of calls that cover every command and exit path."""
    g = k_tree(2, 9, seed=4)
    kt = write_graph(tmp_path, g, "kt.g6")
    p6 = write_graph(tmp_path, path(6), "p6.g6")
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps([[u, v, u + 2 * v] for u, v in g.sorted_edges()]))
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(BENCH_SUITE))
    big = tmp_path / "big.json"
    big.write_text(json.dumps(BIG_SUITE))
    _refuse_to_build_complete(monkeypatch)
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n")
    # a budget of 0 ms stops each oracle search at its first deadline check,
    # after 2048 ticks; these three graphs take more (see
    # tests/test_oracles.py), and the oracle calls on kt, p6 and the suite
    # fewer, so they still answer
    sparse = write_graph(tmp_path, gnp(24, 0.17, 0), "sparse.g6")
    dense = write_graph(tmp_path, gnp(12, 0.35, 2), "dense.g6")
    k15 = write_graph(tmp_path, complete(15), "k15.g6")
    monkeypatch.setattr(oracles, "DEFAULT_LIMITS",
                        oracles.OracleLimits(24, 105, timeout_ms=0))
    return [
        (["nur", "--input", kt, "--r", "1", "--weights", str(weights),
          "--emit-matching"], 0),
        (["nur", "--input", p6, "--r", "1", "--emit-matching"], 0),
        (["nur", "--input", kt, "--r", "1"], 0),
        (["nur", "--input", p6, "--r", "1"], 0),
        (["color", "--input", kt, "--r", "1", "--verify"], 0),
        (["oracle", "--input", kt, "--what", "nur", "--r", "1"], 0),
        (["oracle", "--input", kt, "--what", "variants"], 0),
        (["oracle", "--input", p6, "--what", "chi", "--r", "1"], 0),
        (["oracle", "--input", kt, "--what", "states", "--r", "1"], 0),
        (["check-chordal", "--input", kt], 0),
        (["gen", "--family", "k-tree", "--k", "2", "--n", "9"], 0),
        (["bench", "--suite", str(suite), "--jobs", "1"], 0),
        (["nur", "--input", write_graph(tmp_path, cycle(5), "c5.g6"), "--r", "1"], 2),
        (["nur", "--input", str(bad), "--r", "1"], 3),
        (["nur", "--input", kt, "--r", "1", "--max-edges", "3"], 4),
        (["gen", "--family", "interval", "--n", "500", "--max-edges", "10"], 4),
        (["bench", "--suite", str(big)], 4),
        (["oracle", "--input", sparse, "--what", "nur", "--r", "1"], 4),
        (["oracle", "--input", sparse, "--what", "variants"], 4),
        (["oracle", "--input", dense, "--what", "chi", "--r", "2"], 4),
        (["oracle", "--input", k15, "--what", "states", "--r", "1"], 4),
    ]


@pytest.fixture
def collector_off():
    collecting = gc.isenabled()
    gc.disable()
    yield
    if collecting:
        gc.enable()


def test_commands_leave_no_reference_cycles(tmp_path, capsys, monkeypatch, collector_off):
    # with the collector paused, a cycle a command made would stay until the
    # caller collects, and in a bench worker forked from the paused process,
    # for good. The first call of each builds what later calls share (the
    # cached parser, the modules imported where they are used)
    calls = _paused_commands(tmp_path, monkeypatch)
    for argv, code in calls:
        assert main(argv) == code, argv
    capsys.readouterr()
    gc.collect()
    for argv, code in calls:
        assert main(argv) == code, argv
        capsys.readouterr()
        assert gc.collect() == 0, argv


@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
def test_main_restores_the_callers_collector(tmp_path, capsys, monkeypatch, collecting):
    kt = write_graph(tmp_path, k_tree(2, 9, seed=4), "kt.g6")
    calls = [argv for argv, _ in _paused_commands(tmp_path, monkeypatch)]
    seen = set()

    def broken(*args, **kwargs):
        raise error  # the one the loop below has bound

    def observe(argv):
        before = gc.isenabled()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = "exit %s" % exc.code
        except RuntimeError:
            code = "raised"
        capsys.readouterr()
        seen.add(code)
        assert gc.isenabled() is before is collecting, argv

    (gc.enable if collecting else gc.disable)()
    try:
        for argv in calls + [["nur", "--input", kt], ["--version"]]:
            observe(argv)
        monkeypatch.setattr(cli, "solve", broken)
        for error in (dp.DPInvariantError("table"), RuntimeError("escapes main")):
            observe(["nur", "--input", kt, "--r", "1"])
    finally:
        gc.enable()
    assert seen == {0, 2, 3, 4, 5, "exit 3", "exit 0", "raised"}
