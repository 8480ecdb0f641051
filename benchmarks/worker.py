"""One workload in one process: set up, run jobs through `cli.main`, check, report.

The loop is closed: one client, one thread, and the next job starts only
after the previous one returned. Whole passes over the job list run while
the next pass is expected to end within the time budget, and until at
least MIN_JOBS jobs were timed. Prints one JSON object on its last line;
`run.py` starts this file as a child process.
"""

import argparse
import gc
import hashlib
import importlib
import io
import json
import re
import resource
import statistics
import sys
import traceback
from collections import defaultdict, deque
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checker  # noqa: E402
import jobs  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

SETUP_REPEATS = 3
MIN_JOBS = 100
_ELAPSED = re.compile(r'"elapsed_ms": [^\n]*')

# The time reference_loop takes on the machine the benchmark was tuned on (a
# 2-core VM, Python 3.11.7). Shared hosts change speed by about 20% over
# seconds to minutes; every wall time is multiplied by this over the loop's
# current time, so the metrics follow the program and not the host's load.
REFERENCE_LOOP_S = 0.001


def reference_loop():
    """Fixed pure-Python work: tuple keys, dict probes and a sort."""
    table = {}
    for i in range(4000):
        key = ((i * 7) % 61, (i * 13) % 17)
        cur = table.get(key)
        if cur is None or i > cur:
            table[key] = i
    return sorted(table)


class HostSpeed:
    """Rolling estimate of the host's speed from reference_loop timings,
    taken at most every EVERY_S seconds, median of the last WINDOW."""

    EVERY_S = 0.25
    WINDOW = 5

    def __init__(self):
        self.samples = deque(maxlen=self.WINDOW)
        self.last = None

    def scale(self):
        """Factor that turns a wall time measured now into reference time."""
        now = perf_counter()
        if self.last is None or now - self.last >= self.EVERY_S:
            runs = []
            for _ in range(3):
                t = perf_counter()
                reference_loop()
                runs.append(perf_counter() - t)
            self.samples.append(statistics.median(runs))
            self.last = perf_counter()
        return REFERENCE_LOOP_S / statistics.median(self.samples)


def setup(name, seed, workdir, speed, toy=False):
    """Import the package, generate the inputs and write them, SETUP_REPEATS
    times; returns (cli.main, workload, median setup seconds, the same in
    reference time)."""
    scale = speed.scale()
    t0 = perf_counter()
    cli = importlib.import_module("degenmatch.cli")
    import_s = perf_counter() - t0
    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit("degenmatch imported from %s, not from %s"
                         % (cli.__file__, src))
    samples = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        wl = jobs.build(name, seed, toy)
        jobs.write_files(wl, workdir)
        samples.append(import_s + perf_counter() - t)
    wall_s = statistics.median(samples)
    return cli.main, wl, wall_s, wall_s * (scale + speed.scale()) / 2


class Runner:
    """Runs jobs, checks every answer, and keeps the timing samples."""

    def __init__(self, wl, workdir, main, speed):
        self.wl = wl
        self.workdir = workdir
        self.main = main
        self.speed = speed
        self.verdicts = {}   # (job id, exit code, output) -> (answer, error)
        self.answers = {}    # job id -> answer of its first run
        self.errors = []     # (job id, message)
        self.attempted = 0
        self.failed = 0
        self.samples_ms = []             # reference-time ms of every run
        self.wall_ms = []                # wall-clock ms of every run
        self.job_s = 0.0
        self.times = defaultdict(list)   # job id -> reference seconds per run
        self.correct = 0

    def run_job(self, job, tracer=None):
        out, err = io.StringIO(), io.StringIO()
        argv = job.argv(self.workdir)
        raised = None
        gc.collect()
        scale = self.speed.scale()
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is not None:
                tracer.job = job.id
                tracer.open("cli.main")
            t0 = perf_counter()
            try:
                code = self.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:  # the loop must go on; the job counts as failed
                code, raised = None, traceback.format_exc()
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.close()
        self.attempted += 1
        self.job_s += elapsed * scale
        self.times[job.id].append(elapsed * scale)
        self.samples_ms.append(elapsed * scale * 1000.0)
        self.wall_ms.append(elapsed * 1000.0)
        if raised is not None:
            error = "raised " + raised.strip().splitlines()[-1]
        else:
            answer, error = self._check(job, code, out.getvalue(), err.getvalue())
            if error is None and self.answers.setdefault(job.id, answer) != answer:
                error = "answer %r differs from the first run's %r" % (
                    answer, self.answers[job.id])
        if error is None:
            self.correct += 1
        else:
            self._fail(job.id, error)

    def _check(self, job, code, out, err):
        key = (job.id, code, _ELAPSED.sub("", out), err)
        if key not in self.verdicts:
            weights = self.wl.weights.get(job.weights)
            try:
                verdict = checker.check_job(job, self.wl.graphs[job.input],
                                            weights, code, out, err)
            except (TypeError, ValueError, KeyError, AttributeError) as exc:
                verdict = (None, "malformed report: %r" % (exc,))
            self.verdicts[key] = verdict
        return self.verdicts[key]

    def _fail(self, job_id, error):
        self.failed += 1
        self.errors.append((job_id, error))

    def run_pass(self, tracer=None):
        for job in self.wl.jobs:
            self.run_job(job, tracer)

    def check_agreement(self, pins=None):
        """Cross-job checks, then the pinned answers when given; each
        disagreement counts as one failed job."""
        for job_id, error in checker.cross_check(self.wl.jobs, self.answers,
                                                 self.wl.graphs):
            self._fail(job_id, error)
        if pins is None:
            return
        for name, digest in pins["inputs"].items():
            text = self.wl.files.get(name)
            if text is None or hashlib.sha256(text.encode()).hexdigest() != digest:
                self._fail(name, "input differs from the pinned input")
        for job in self.wl.jobs:
            want = pins["answers"].get(job.id, "missing pin")
            if job.id in self.answers and self.answers[job.id] != want:
                self._fail(job.id, "answer %r, pinned %r" % (self.answers[job.id],
                                                             want))

    def digest(self):
        h = hashlib.sha256()
        for job in self.wl.jobs:
            h.update(("%s=%s\n" % (job.id, json.dumps(self.answers.get(job.id),
                                                      sort_keys=True))).encode())
        return h.hexdigest()

    def jobs_per_s(self):
        """Correct jobs per second of job time (reference time), taking each
        job's time as the median of its runs so that a burst of load on the
        machine during one pass does not move the figure."""
        pass_s = sum(statistics.median(t) for t in self.times.values())
        return self.correct / self.attempted * len(self.times) / pass_s


def load_pins(name, seed, toy):
    path = HERE / "pins" / ("%s.json" % name)
    if toy or seed != jobs.DEFAULT_SEED or not path.is_file():
        return None
    return json.loads(path.read_text())


def run_workload(name, seed, seconds, trace, toy=False, min_jobs=MIN_JOBS,
                 workdir=None):
    """Run one workload and return its result record (see run.py).

    Untraced, whole passes over the job list run while the next pass is
    expected to end within `seconds`, and until at least min_jobs jobs ran.
    Traced, one pass runs each job twice, untraced and then traced, so the
    tracing overhead is measured on the same jobs in the same warm state."""
    workdir = workdir or ROOT / ".bench_work" / ("%s-seed%d" % (name, seed))
    speed = HostSpeed()
    main, wl, setup_wall_s, setup_s = setup(name, seed, workdir, speed, toy)
    runner = Runner(wl, workdir, main, speed)
    pass_job_s = []
    if trace:
        traced = Runner(wl, workdir, main, speed)
        traced.answers = runner.answers
        tracer = Tracer()
        for job in wl.jobs:
            runner.run_job(job)
            with tracer:
                traced.run_job(job, tracer)
        runner.check_agreement(load_pins(name, seed, toy))
        tracer.write(workdir / "spans.tsv")
        sizes = {job.id: wl.graphs[job.input].n for job in wl.jobs}
        metrics = layer_metrics(tracer, sizes, runner.jobs_per_s(),
                                traced.jobs_per_s())
        runner.attempted += traced.attempted
        runner.failed += traced.failed
        runner.errors += traced.errors
        passes = 1
    else:
        start = perf_counter()
        passes = 0
        while True:
            job_s = runner.job_s
            runner.run_pass()
            passes += 1
            pass_job_s.append(runner.job_s - job_s)
            if passes == 1:
                runner.check_agreement(load_pins(name, seed, toy))
            elapsed = perf_counter() - start
            if (elapsed * (passes + 1) / passes > seconds
                    and runner.attempted >= min_jobs):
                break
        ms = runner.samples_ms
        metrics = {
            "jobs_per_s": (runner.jobs_per_s(), "1/s"),
            "job_ms.p50": (statistics.median(ms), "ms"),
            "job_ms.p90": (statistics.quantiles(ms, n=10)[8], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "setup_s": (setup_s, "s"),
        }
    wall = runner.wall_ms
    info = {"passes": passes, "pass_job_s": pass_job_s,
            "wall": {"jobs_per_s": 1000.0 * runner.correct / sum(wall),
                     "job_ms.p50": statistics.median(wall),
                     "job_ms.p90": statistics.quantiles(wall, n=10)[8],
                     "setup_s": setup_wall_s},
            "samples": len(runner.samples_ms), "digest": runner.digest(),
            "errors": runner.errors[:20],
            "fail_ratio": runner.failed / runner.attempted}
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "info": info}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=jobs.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
