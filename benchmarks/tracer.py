"""Outside-in tracing: wrap degenmatch functions where their callers look them up.

Nothing in the package changes. While a `Tracer` is installed, each wrapped
name is replaced by a function that records a span (name, start, end, parent
span, job id) around the original call. Counters that need to look at a
call's arguments or result (table sizes, insert attempts, colors used) run
in a `trace.count` span after the wrapped span closes, so their cost is
charged to neither the layer nor its caller. A span's self time is its
duration minus the durations of its direct children.
"""

import importlib
import math
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "formats", "graphs", "chordal", "dp", "coloring", "oracles")
COUNT_SPAN = "trace.count"


def _table_states(table):
    try:
        return len(table)
    except TypeError:
        return 0


def _introduce_attempts(child, x, r):
    # every child state is kept once, and extended by x when |S| <= r
    return sum(1 + (x not in s and len(s) <= r) for s, n in child)


def _forget_attempts(child, x, *_):
    total = 0
    for s, n in child:
        if x not in s:
            total += 1
        elif x in n:
            total += 1
        else:
            total += sum(1 for y in s if y != x and y not in n)
    return total


def _join_attempts(left, right):
    by_s = defaultdict(list)
    for s, n in right:
        by_s[s].append(set(n))
    return sum(1 for s, n in left for rn in by_s.get(s, ())
               if rn.isdisjoint(n))


_ATTEMPTS = {"dp.introduce": _introduce_attempts, "dp.forget": _forget_attempts,
             "dp.join": _join_attempts}


def _count_dp(tracer, name, args, result):
    kind = name.split(".")[1]
    states = _table_states(result)
    tracer.counts["dp.states." + kind] += states
    tracer.counts["dp.max_table"] = max(tracer.counts["dp.max_table"], states)
    attempts = _ATTEMPTS.get(name)
    if attempts is None:
        return
    # raises for tables whose keys are not (S, N) tuples; the wrapper then
    # counts a counter error and kept_ratio covers the nodes it could read
    tried = attempts(*args)
    tracer.counts["dp.attempts"] += tried
    tracer.counts["dp.kept"] += states


def _count_greedy(tracer, name, args, result):
    tracer.counts["coloring.colors_used"] += len(set(result.color.values()))


def _count_verify(tracer, name, args, result):
    coloring = args[1]
    color = getattr(coloring, "color", coloring)
    if result[0]:
        tracer.counts["coloring.classes_verified"] += len(set(color.values()))


# (module, attribute, span name, counter). A function imported into several
# modules is wrapped in each, under one span name.
WRAPS = (
    ("degenmatch.cli", "load_graph", "formats.load_graph", None),
    ("degenmatch.cli", "is_chordal", "chordal.is_chordal", None),
    ("degenmatch.chordal", "mcs_order", "chordal.mcs_order", None),
    ("degenmatch.dp", "mcs_order", "chordal.mcs_order", None),
    ("degenmatch.chordal", "is_perfect_elimination", "chordal.peo_check", None),
    ("degenmatch.chordal", "build_nice_decomposition", "chordal.decompose", None),
    ("degenmatch.dp", "build_nice_decomposition", "chordal.decompose", None),
    ("degenmatch.cli", "solve", "dp.solve", None),
    ("degenmatch.dp", "run_tables", "dp.run_tables", None),
    ("degenmatch.dp", "dp_leaf", "dp.leaf", _count_dp),
    ("degenmatch.dp", "dp_introduce", "dp.introduce", _count_dp),
    ("degenmatch.dp", "dp_forget", "dp.forget", _count_dp),
    ("degenmatch.dp", "dp_join", "dp.join", _count_dp),
    ("degenmatch.cli", "greedy_color", "coloring.greedy", _count_greedy),
    ("degenmatch.cli", "verify_coloring", "coloring.verify", _count_verify),
    ("degenmatch.coloring", "degeneracy", "graphs.degeneracy", None),
    ("degenmatch.coloring", "induced_subgraph", "graphs.induced_subgraph", None),
    ("degenmatch.cli", "brute_nu_r", "oracles.nu_r", None),
    ("degenmatch.cli", "brute_nu_variants", "oracles.variants", None),
    ("degenmatch.cli", "brute_chromatic_index_r", "oracles.chi_r", None),
)


class Tracer:
    """In-memory span recorder; `install` patches the names in WRAPS."""

    def __init__(self):
        self.spans = []      # [name, start_ns, end_ns, parent index, job id]
        self.stack = []
        self.job = None
        self.counts = defaultdict(int)
        self._saved = []

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.job])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = perf_counter_ns()

    def _wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if counter is not None:
                tracer.open(COUNT_SPAN)
                try:
                    counter(tracer, name, args, result)
                except Exception as exc:  # a counter must never fail the job
                    tracer.counts["trace.counter_errors"] += 1
                    if tracer.counts["trace.counter_errors"] == 1:
                        print("trace: counter for %s failed: %r" % (name, exc),
                              file=sys.stderr)
                finally:
                    tracer.close()
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module_name, attr, name, counter in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                print("trace: %s.%s not found, not traced" % (module_name, attr),
                      file=sys.stderr)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def self_times(self):
        """Per (job, span name): [summed self time in ns, span count]."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: [0, 0])
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            acc = out[(job, name)]
            acc[0] += end - start - child_ns[i]
            acc[1] += 1
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index\tparent\tjob\tname\tstart_ns\tend_ns\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write("%d\t%d\t%s\t%s\t%d\t%d\n"
                         % (i, parent, job, name, start, end))


def loglog_slope(points):
    """Least-squares slope of log(y) against log(x); 0.0 with < 2 distinct x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def layer_metrics(tracer, job_sizes, untraced_jobs_per_s, traced_jobs_per_s):
    """The per-layer metrics of one traced pass.

    job_sizes maps job id to the vertex count of its input, for the
    `.exponent` fits of time against n."""
    per_job = tracer.self_times()
    ms = defaultdict(float)
    calls = defaultdict(int)
    for (job, name), (ns, count) in per_job.items():
        ms[name] += ns / 1e6
        calls[name] += count

    def fit(name):
        return loglog_slope([(job_sizes[job], ns) for (job, span), (ns, _)
                             in per_job.items() if span == name])

    counts = tracer.counts
    layer_ms = {layer: sum(v for k, v in ms.items() if k.split(".")[0] == layer)
                for layer in LAYERS}
    total = sum(layer_ms.values())
    m = {
        "cli.self_ms": ms["cli.main"],
        "formats.load_graph_ms": ms["formats.load_graph"],
        "graphs.induced_subgraph_ms": ms["graphs.induced_subgraph"],
        "graphs.degeneracy_ms": ms["graphs.degeneracy"],
        "graphs.degeneracy.exponent": fit("graphs.degeneracy"),
        "chordal.mcs_search_ms": ms["chordal.mcs_order"],
        "chordal.peo_check_ms": ms["chordal.peo_check"],
        "chordal.peo_checks": calls["chordal.peo_check"],
        "chordal.decompose_ms": ms["chordal.decompose"],
        "chordal.mcs_search.exponent": fit("chordal.mcs_order"),
        "dp.introduce_ms": ms["dp.introduce"],
        "dp.forget_ms": ms["dp.forget"],
        "dp.join_ms": ms["dp.join"],
        "dp.reconstruct_ms": ms["dp.solve"],
        "dp.run_tables_ms": ms["dp.run_tables"],
        "dp.max_table": counts["dp.max_table"],
        "dp.kept_ratio": (counts["dp.kept"] / counts["dp.attempts"]
                          if counts["dp.attempts"] else 0.0),
        "coloring.greedy_ms": ms["coloring.greedy"],
        "coloring.verify_ms": ms["coloring.verify"],
        "coloring.classes_verified": counts["coloring.classes_verified"],
        "coloring.colors_used": counts["coloring.colors_used"],
        "oracles.nu_r_ms": ms["oracles.nu_r"],
        "oracles.variants_ms": ms["oracles.variants"],
        "oracles.chi_r_ms": ms["oracles.chi_r"],
        "oracles.calls": (calls["oracles.nu_r"] + calls["oracles.variants"]
                          + calls["oracles.chi_r"]),
        "trace.overhead": (untraced_jobs_per_s / traced_jobs_per_s
                           if traced_jobs_per_s else 0.0),
    }
    for kind in ("leaf", "introduce", "forget", "join"):
        m["dp.nodes." + kind] = calls["dp." + kind]
    for kind in ("introduce", "forget", "join"):
        m["dp.states." + kind] = counts["dp.states." + kind]
    for layer in LAYERS:
        m["share." + layer] = 100.0 * layer_ms[layer] / total if total else 0.0
    return {name: (value, unit_of(name)) for name, value in m.items()}


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".exponent"):
        return "slope"
    if name.startswith("share."):
        return "%"
    if name in ("dp.kept_ratio", "trace.overhead"):
        return "ratio"
    return "count"
