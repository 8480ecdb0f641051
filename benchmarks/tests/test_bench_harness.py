"""Tests of the benchmark harness: toy-size workloads, the checker, the pins."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import jobs  # noqa: E402
import worker  # noqa: E402  (puts src/ on sys.path)
from tracer import WRAPS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", jobs.WORKLOADS)
def test_workload_runs_at_toy_size_without_failures(name, tmp_path):
    res = worker.run_workload(name, 3, 0, 0, toy=True, min_jobs=1,
                              workdir=tmp_path)
    assert res["failed"] == 0, res["info"]["errors"]
    assert res["correct"] and res["info"]["fail_ratio"] == 0
    assert res["attempted"] == len(jobs.build(name, 3, toy=True).jobs)
    assert {k: m["unit"] for k, m in res["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_unwraps(tmp_path):
    import importlib

    originals = {(mod, attr): getattr(importlib.import_module(mod), attr)
                 for mod, attr, _, _ in WRAPS}
    res = worker.run_workload("oracle-crosscheck", 3, 0, 1, toy=True,
                              workdir=tmp_path)
    assert res["failed"] == 0, res["info"]["errors"]
    metrics = res["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == _units("per_layer")
    assert metrics["oracles.calls"]["value"] > 0
    assert metrics["dp.nodes.introduce"]["value"] > 0
    assert 0 < metrics["dp.kept_ratio"]["value"] <= 1
    assert sum(metrics["share." + layer]["value"]
               for layer in ("cli", "formats", "graphs", "chordal", "dp",
                             "coloring", "oracles")) == pytest.approx(100)
    assert (tmp_path / "spans.tsv").stat().st_size > 0
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn


def test_same_seed_gives_same_digest(tmp_path):
    def digest(seed, sub):
        res = worker.run_workload("interval-wide", seed, 0, 0, toy=True,
                                  min_jobs=1, workdir=tmp_path / sub)
        return res["info"]["digest"]

    first = digest(5, "a")
    assert digest(5, "b") == first
    assert digest(6, "c") != first


# -- the checker -------------------------------------------------------------

P4 = checker.Graph(4, [(0, 1), (1, 2), (2, 3)])
K4 = checker.Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def _nur_job(r=1, emit=True, expect_exit=0):
    return jobs.Job("g:nur", "nur", "g", (), r=r, emit=emit,
                    expect_exit=expect_exit)


def _report(command, results):
    return json.dumps({"command": command, "results": results,
                       "elapsed_ms": 1.0})


def _check_nur(g, value, matching, r=1):
    out = _report("nur", {"nu_r": value, "r": r, "matching": matching})
    return checker.check_job(_nur_job(r), g, None, 0, out, "")


def test_checker_accepts_a_valid_witness():
    assert _check_nur(P4, 1, [[0, 1]]) == (1, None)


@pytest.mark.parametrize("value, matching", [
    (2, [[0, 1], [1, 2]]),      # not a matching
    (1, [[0, 2]]),              # not an edge
    (2, [[0, 1]]),              # worth 1, reported 2
])
def test_checker_rejects_a_corrupted_witness(value, matching):
    answer, error = _check_nur(P4, value, matching)
    assert answer is None and error


def test_checker_rejects_a_witness_that_is_not_r_degenerate():
    # K4 on the endpoints of a perfect matching is 3-degenerate, not 1
    answer, error = _check_nur(K4, 2, [[0, 1], [2, 3]], r=1)
    assert answer is None and "degenerate" in error
    assert _check_nur(K4, 2, [[0, 1], [2, 3]], r=3) == (2, None)


def _color_check(classes, r=1, k=4):
    job = jobs.Job("g:color", "color", "g", (), r=r)
    out = _report("color", {"r": r, "delta": 2, "K": k,
                            "colors_used": len(classes), "classes": classes})
    return checker.check_job(job, P4, None, 0, out, "")


def test_checker_rejects_an_over_palette_coloring():
    assert checker.palette_bound(2, 1) == 4
    assert _color_check({"1": [[0, 1], [2, 3]], "2": [[1, 2]]}) == ([4, 2], None)
    answer, error = _color_check({"1": [[0, 1], [2, 3]], "5": [[1, 2]]})
    assert answer is None and "palette" in error
    answer, error = _color_check({"1": [[0, 1], [2, 3]], "2": [[1, 2]]}, k=9)
    assert answer is None and "palette" in error


def test_checker_rejects_an_uncolored_edge_and_a_bad_class():
    assert _color_check({"1": [[0, 1], [2, 3]]})[1]
    assert _color_check({"1": [[0, 1], [1, 2]], "2": [[2, 3]]})[1]


def test_checker_rejects_a_wrong_exit_code_and_tracebacks():
    out = _report("nur", {"nu_r": 1, "r": 1, "matching": [[0, 1]]})
    assert checker.check_job(_nur_job(), P4, None, 2, "", "not chordal")[1]
    assert checker.check_job(_nur_job(expect_exit=2), P4, None, 0, out, "")[1]
    assert checker.check_job(_nur_job(expect_exit=2), P4, None, 2, "",
                             "not chordal") == ({"exit": 2}, None)
    tb = "Traceback (most recent call last):\n  ...\nKeyError: 1\n"
    assert checker.check_job(_nur_job(), P4, None, 0, out, tb)[1]


def test_cross_check_catches_dp_oracle_disagreement():
    dp = jobs.Job("g:nur", "nur", "g", (), r=1, emit=True)
    oracle = jobs.Job("g:oracle", "oracle-nur", "g", (), r=1)
    assert checker.cross_check([dp, oracle], {dp.id: 2, oracle.id: 2},
                               {"g": P4}) == []
    errors = checker.cross_check([dp, oracle], {dp.id: 1, oracle.id: 2},
                                 {"g": P4})
    assert [job_id for job_id, _ in errors] == [dp.id]


def test_peel_degeneracy():
    assert checker.peel_degeneracy(K4, range(4)) == 3
    assert checker.peel_degeneracy(K4, [0, 1, 2]) == 2
    assert checker.peel_degeneracy(P4, range(4)) == 1
    assert checker.peel_degeneracy(P4, [0, 2]) == 0


# -- the pins ----------------------------------------------------------------

def _pins(name):
    return json.loads((BENCH / "pins" / ("%s.json" % name)).read_text())


@pytest.mark.parametrize("name", jobs.WORKLOADS)
def test_pins_cover_the_default_seed_jobs(name):
    wl = jobs.build(name, jobs.DEFAULT_SEED)
    pins = _pins(name)
    assert set(pins["answers"]) == {job.id for job in wl.jobs}
    assert set(pins["inputs"]) == set(wl.files)
    assert all(a is not None for a in pins["answers"].values())


def test_pinned_small_values_agree_with_brute_force():
    from degenmatch.graphs import Graph
    from degenmatch.oracles import brute_nu_r

    wl = jobs.build("oracle-crosscheck", jobs.DEFAULT_SEED)
    pins = _pins("oracle-crosscheck")
    checked = 0
    for job in wl.jobs:
        g = wl.graphs[job.input]
        if job.kind == "nur" and g.n <= 14:
            assert job.id in pins["brute_checked"]
            assert pins["answers"][job.id] == brute_nu_r(Graph(g.n, g.edges), job.r)
            checked += 1
    assert checked >= 10


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:]
        + ["--workload", "ktree-large", "--seed", "1", "--seconds", "1",
           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
