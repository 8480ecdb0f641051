"""degenmatch benchmark: closed-loop CLI jobs on four workloads.

    python3 benchmarks/run.py --workload ktree-large --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all

Each workload runs in its own child process (worker.py), which generates
its input files from the seed, calls `degenmatch.cli.main` on every job in
a closed loop and checks every answer with the harness's own checker. With
--trace 0 the last line of output is a JSON object with the end-to-end
metrics (jobs_per_s, job_ms.p50, job_ms.p90, peak_rss_mb, setup_s); with
--trace 1 one untraced and one traced pass run, and the metrics are the
per-layer ones. The lines before it print every metric by name and unit,
the sample count, fail_ratio and a digest of all answers. The package is
imported from src/ next to this directory; without it the run exits 2.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from jobs import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
WALL_UNITS = {"jobs_per_s": "1/s", "job_ms.p50": "ms", "job_ms.p90": "ms",
              "setup_s": "s"}


def run_child(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit("%s: worker exited %d" % (workload, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(workload, seed, res):
    info = res["info"]
    print("== %s seed=%d passes=%d samples=%d attempted=%d failed=%d"
          % (workload, seed, info["passes"], info["samples"], res["attempted"],
             res["failed"]))
    if info["pass_job_s"]:
        print("  job seconds per pass: " + " ".join(
            "%.3f" % s for s in info["pass_job_s"]))
    for name, m in res["metrics"].items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-28s %14.6g ratio" % ("fail_ratio", info["fail_ratio"]))
    for name, value in info["wall"].items():
        print("  %-28s %14.6g %s" % ("wall." + name, value, WALL_UNITS[name]))
    print("  answers_digest %s" % info["digest"])
    for job_id, error in info["errors"]:
        print("  FAILED %s: %s" % (job_id, error))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "degenmatch" / "__init__.py").is_file():
        print("no src/degenmatch next to %s; run from a degenmatch checkout"
              % HERE.name, file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_child(name, args.seed, args.seconds, args.trace)
        summarize(name, args.seed, res)
        final["correct"] = final["correct"] and res["correct"]
        final["attempted"] += res["attempted"]
        final["failed"] += res["failed"]
        prefix = "" if len(names) == 1 else name + "/"
        for metric, m in res["metrics"].items():
            final["metrics"][prefix + metric] = m
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
