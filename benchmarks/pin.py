"""Write the pinned answers of every workload at the default seed.

    python3 benchmarks/pin.py

Runs one checked pass of each workload, cross-checks every unweighted `nur`
answer on a graph with at most PIN_BRUTE_MAX_N vertices against
`degenmatch.oracles.brute_nu_r`, and writes benchmarks/pins/<workload>.json
with the sha256 of every input file and the answer of every job. A run at
the default seed fails any job whose answer or input differs from its pin.
"""

import hashlib
import json
import sys

from worker import HERE, ROOT, HostSpeed, Runner, setup
import jobs

PIN_BRUTE_MAX_N = 14


def brute_checked(wl, answers):
    """Job ids whose pinned value brute_nu_r confirmed; raises on a mismatch."""
    from degenmatch.graphs import Graph
    from degenmatch.oracles import brute_nu_r

    confirmed = []
    for job in wl.jobs:
        g = wl.graphs[job.input]
        if job.kind not in ("nur", "oracle-nur") or job.weights or g.n > PIN_BRUTE_MAX_N:
            continue
        want = brute_nu_r(Graph(g.n, g.edges), job.r)
        if answers[job.id] != want:
            raise SystemExit("%s: answer %r, brute_nu_r says %r"
                             % (job.id, answers[job.id], want))
        confirmed.append(job.id)
    return confirmed


def pin(name):
    workdir = ROOT / ".bench_work" / ("%s-pin" % name)
    speed = HostSpeed()
    main, wl, _, _ = setup(name, jobs.DEFAULT_SEED, workdir, speed)
    runner = Runner(wl, workdir, main, speed)
    runner.run_pass()
    runner.check_agreement()
    if runner.failed:
        raise SystemExit("%s: %d jobs failed: %s" % (name, runner.failed,
                                                     runner.errors[:5]))
    payload = {
        "seed": jobs.DEFAULT_SEED,
        "inputs": {f: hashlib.sha256(text.encode()).hexdigest()
                   for f, text in sorted(wl.files.items())},
        "answers": {job.id: runner.answers[job.id] for job in wl.jobs},
        "brute_checked": brute_checked(wl, runner.answers),
    }
    path = HERE / "pins" / ("%s.json" % name)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print("%s: %d answers pinned, %d confirmed by brute_nu_r"
          % (name, len(payload["answers"]), len(payload["brute_checked"])))


if __name__ == "__main__":
    for workload in sys.argv[1:] or jobs.WORKLOADS:
        pin(workload)
