import json
import re

import pytest

from degenmatch import dp
from degenmatch.cli import main
from degenmatch.formats import serialize_graph6
from degenmatch.generate import complete, complete_bipartite, cycle, k_tree, path


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
    assert set(report) == {"command", "input_digest", "version", "results",
                           "elapsed_ms"}


def test_nur_inconsistent_tables_exit_internal(tmp_path, capsys, monkeypatch):
    # a DP table whose root value no child state explains is an internal error
    run_tables = dp.run_tables

    def corrupted(decomp, r, weights=None):
        tables = run_tables(decomp, r, weights)
        tables[decomp.root][((), ())] += 1
        return tables

    monkeypatch.setattr(dp, "run_tables", corrupted)
    code = main(["nur", "--input", write_graph(tmp_path, path(6)), "--r", "1"])
    out, err = capsys.readouterr()
    assert code == 5 and out == ""
    assert err.startswith("internal invariant violation: ")


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
], ids=["nan", "string", "non-edge", "duplicate", "string-vertex", "not-a-triple"])
def test_nur_rejects_bad_weights(tmp_path, capsys, graph, weights):
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


def test_oracle_states(tmp_path, capsys):
    code, report = run(capsys, "oracle", "--input",
                       write_graph(tmp_path, path(3)), "--what", "states",
                       "--r", "1")
    assert code == 0
    assert [[], [], 1] in report["results"]["states"]


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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench(tmp_path, capsys, jobs):
    # the worker pool (--jobs 2) must give the serial run's counters and CSV
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"instances": [
        {"id": "kt2", "family": "k-tree", "params": {"k": 2, "n": 8},
         "seed": 1, "r": [1, 2]},
        {"id": "p5", "family": "path", "params": {"n": 5}, "r": [1]},
    ]}))
    out = tmp_path / "survey.csv"
    code, report = run(capsys, "bench", "--suite", str(suite),
                       "--out", str(out), "--jobs", jobs)
    assert code == 0
    assert report["results"] == {"rows": 3, "dp_oracle_checked": 3,
                                 "dp_oracle_disagreements": 0,
                                 "palette_checked": 3, "palette_failures": 0}
    assert out.read_bytes() == BENCH_CSV.encode()


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
