"""Answer checker for the benchmark, written without importing degenmatch.

Every job's captured report is checked here against the input graph the
harness generated: witnesses are matchings of the input whose endpoint set
passes this module's own min-degree peel, colorings cover every edge with
r-degenerate matchings inside the palette bound, and exit codes are the
expected ones. `cross_check` then compares answers between jobs that must
agree (value-only against witness runs, the DP against the oracles)."""

import heapq
import json
import math

TRACEBACK = "Traceback (most recent call last)"


class Graph:
    """The harness's view of an input: n vertices and sorted 0-based edges."""

    def __init__(self, n, edges):
        self.n = n
        self.edges = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
        self.edge_set = frozenset(self.edges)
        self.adj = [[] for _ in range(n)]
        for u, v in self.edges:
            self.adj[u].append(v)
            self.adj[v].append(u)

    def max_degree(self):
        return max((len(a) for a in self.adj), default=0)


def peel_degeneracy(g, vertices):
    """Degeneracy of the subgraph of g induced by `vertices`, by a heap peel."""
    alive = set(vertices)
    deg = {v: sum(1 for w in g.adj[v] if w in alive) for v in alive}
    heap = [(d, v) for v, d in deg.items()]
    heapq.heapify(heap)
    worst = 0
    while heap:
        d, v = heapq.heappop(heap)
        if v not in alive or d != deg[v]:
            continue
        worst = max(worst, d)
        alive.remove(v)
        for w in g.adj[v]:
            if w in alive:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return worst


def palette_bound(delta, r):
    return (2 * (delta - 1) ** 2) // (r + 1) + 2 * (delta - 1) + 1


def max_matching_size(g):
    """Exact matching number of a small graph by memoised vertex elimination."""
    memo = {}

    def best(free):
        if free == 0:
            return 0
        if free in memo:
            return memo[free]
        v = (free & -free).bit_length() - 1
        rest = free & ~(1 << v)
        out = best(rest)
        for w in g.adj[v]:
            if rest >> w & 1:
                out = max(out, 1 + best(rest & ~(1 << w)))
        memo[free] = out
        return out

    return best((1 << g.n) - 1)


def _matching_error(g, pairs, r):
    used = set()
    for pair in pairs:
        if len(pair) != 2:
            return "witness entry %r is not an edge" % (pair,)
        u, v = pair
        if (min(u, v), max(u, v)) not in g.edge_set:
            return "witness edge %s is not an edge of the input" % (pair,)
        if u in used or v in used:
            return "witness is not a matching at %s" % (pair,)
        used.update((u, v))
    if peel_degeneracy(g, used) > r:
        return "witness endpoints induce a subgraph that is not %d-degenerate" % r
    return None


def _check_nur(job, g, weights, results):
    if results.get("r") != job.r:
        return None, "report echoes r=%r, asked %d" % (results.get("r"), job.r)
    value = results.get("nu_r")
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        return None, "nu_r %r is not a non-negative integer" % (value,)
    if job.emit:
        pairs = results.get("matching")
        if not isinstance(pairs, list):
            return None, "no witness in the report"
        err = _matching_error(g, pairs, job.r)
        if err:
            return None, err
        if weights is None:
            got = len(pairs)
        else:
            got = sum(weights[(min(u, v), max(u, v))] for u, v in pairs)
        if got != value:
            return None, "witness is worth %r, report says %r" % (got, value)
    elif "matching" in results:
        return None, "witness emitted without --emit-matching"
    return value, None


def _check_color(job, g, results):
    delta = g.max_degree()
    if results.get("r") != job.r or results.get("delta") != delta:
        return None, "report echoes r=%r delta=%r" % (results.get("r"),
                                                      results.get("delta"))
    classes = results.get("classes")
    if not isinstance(classes, dict):
        return None, "no classes in the report"
    bound = palette_bound(delta, job.r) if g.edges else 0
    if results.get("K") != bound:
        return None, "palette K=%r, the bound is %d" % (results.get("K"), bound)
    seen = set()
    for key, es in classes.items():
        c = int(key)
        if not 1 <= c <= bound:
            return None, "color %d outside the palette 1..%d" % (c, bound)
        for pair in es:
            e = (min(pair), max(pair))
            if e not in g.edge_set:
                return None, "colored pair %s is not an edge" % (pair,)
            if e in seen:
                return None, "edge %s colored twice" % (e,)
            seen.add(e)
        err = _matching_error(g, es, job.r)
        if err:
            return None, "class %d: %s" % (c, err)
    if len(seen) != len(g.edges):
        return None, "%d of %d edges colored" % (len(seen), len(g.edges))
    if results.get("colors_used") != len(classes):
        return None, "colors_used %r but %d classes" % (results.get("colors_used"),
                                                        len(classes))
    if job.verify and results.get("verified") is not True:
        return None, "--verify did not report verified"
    return [results.get("K"), len(classes)], None


def _check_oracle(job, g, results):
    if job.kind == "oracle-nur":
        value = results.get("nu_r")
    elif job.kind == "oracle-chi":
        value = results.get("chi_r")
    else:
        value = [results.get(k) for k in ("nu_s", "nu_1", "nu_ur", "nu")]
        if value != sorted(value):
            return None, "variants %r break nu_s <= nu_1 <= nu_ur <= nu" % (value,)
        if value[3] != max_matching_size(g):
            return None, "nu %r is not the matching number" % (value[3],)
        return value, None
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        return None, "%s %r is not a non-negative integer" % (job.kind, value)
    if job.kind == "oracle-chi" and g.edges:
        delta = g.max_degree()
        if not delta <= value <= palette_bound(delta, job.r):
            return None, "chi_r %d outside [%d, %d]" % (
                value, delta, palette_bound(delta, job.r))
    return value, None


def check_job(job, g, weights, code, out, err):
    """Check one captured CLI call; returns (answer, error).

    The answer is the job's value in a compact form, used for the digest,
    the pins and `cross_check`; error is None when every check passed."""
    if TRACEBACK in out or TRACEBACK in err:
        return None, "printed a traceback"
    if code != job.expect_exit:
        return None, "exit %r, expected %d: %s" % (code, job.expect_exit,
                                                   err.strip()[:200])
    if code != 0:
        return {"exit": code}, None
    try:
        report = json.loads(out)
        results = report["results"]
    except (ValueError, KeyError, TypeError):
        return None, "stdout is not a JSON report"
    if report.get("command") != job.command:
        return None, "report is for command %r" % (report.get("command"),)
    if job.kind == "nur":
        return _check_nur(job, g, weights, results)
    if job.kind == "check-chordal":
        if results.get("chordal") is not job.chordal:
            return None, "chordal=%r, input is %schordal" % (
                results.get("chordal"), "" if job.chordal else "not ")
        return job.chordal, None
    if job.kind == "color":
        return _check_color(job, g, results)
    return _check_oracle(job, g, results)


def cross_check(jobs, answers, graphs):
    """Compare the answers of jobs that must agree; returns [(job_id, error)].

    answers maps job id to the answer check_job returned; jobs missing from
    it (because they failed) are skipped."""
    errors = []
    nur = {}
    oracle = {}
    for job in jobs:
        if job.id not in answers or job.expect_exit != 0:
            continue
        key = (job.input, job.r, job.weights)
        if job.kind == "nur":
            first = nur.setdefault(key, (job.id, answers[job.id]))
            if first[1] != answers[job.id]:
                errors.append((job.id, "value %r differs from %s's %r"
                               % (answers[job.id], first[0], first[1])))
        elif job.kind.startswith("oracle"):
            oracle[(job.kind, job.input, job.r)] = (job.id, answers[job.id])

    def oracle_value(name, r):
        return oracle.get(("oracle-nur", name, r), (None, None))[1]

    for (kind, name, r), (job_id, value) in oracle.items():
        if kind == "oracle-nur":
            dp = nur.get((name, r, None))
            if dp is not None and dp[1] != value:
                errors.append((dp[0], "DP value %r, oracle says %r" % (dp[1], value)))
        elif kind == "oracle-variants":
            nu_1 = oracle_value(name, 1)
            if nu_1 is not None and nu_1 != value[1]:
                errors.append((job_id, "nu_1 %r differs from nu_r(r=1) %r"
                               % (value[1], nu_1)))
        elif kind == "oracle-chi":
            cap = oracle_value(name, r)
            m = len(graphs[name].edges)
            if cap and value < math.ceil(m / cap):
                errors.append((job_id, "chi_r %d below m/nu_r = %d/%d"
                               % (value, m, cap)))
    return errors
