"""Workloads: the input files each one generates from a seed, and its jobs.

A job is one `degenmatch.cli.main` call. Inputs come from the package
generators only; the i-th generator seed drawn by a run with seed s is
s * 1000 + i, so the same seed always gives the same files and jobs.

Why these four workloads: each one loads a different layer, so a change to
one layer shows on the workload that exercises it and not on the others.

- ktree-large: k-trees of 600 to 1200 vertices. Thousands of decomposition
  nodes with tiny tables, so chordality (quadratic MCS, PEO checks)
  dominates. One input graph in seven is not chordal, so the rejection
  path (exit 2) runs beside the accept path.
- interval-wide: interval graphs whose bags hold up to about 30 vertices,
  so a few nodes carry DP tables of thousands of states; this drives peak
  memory. Weighted against unweighted and witness against value-only runs
  use the same kernel differently.
- color-bounded: bounded-degree random graphs; coloring and the
  degeneracy peel of `verify_coloring` only, never chordal or dp.
- oracle-crosscheck: graphs within the oracle limits; the exhaustive
  oracles run beside the DP on the same graph, and the answers must agree.
"""

import importlib
import json
from dataclasses import dataclass

from checker import Graph

DEFAULT_SEED = 1
WORKLOADS = ("ktree-large", "interval-wide", "color-bounded",
             "oracle-crosscheck")


@dataclass(frozen=True)
class Job:
    id: str
    kind: str        # nur | check-chordal | color | oracle-nur | oracle-variants | oracle-chi
    input: str       # input file name
    args: tuple      # CLI arguments after `--input <file>`
    r: int = None
    emit: bool = False
    weights: str = None   # weights file name
    verify: bool = False
    chordal: bool = True
    expect_exit: int = 0

    @property
    def command(self):
        return "oracle" if self.kind.startswith("oracle") else self.kind

    def argv(self, workdir):
        argv = [self.command, "--input", str(workdir / self.input)]
        argv.extend(self.args)
        if self.weights:
            argv.extend(["--weights", str(workdir / self.weights)])
        return argv


@dataclass
class Workload:
    name: str
    seed: int
    graphs: dict      # input file name -> checker.Graph
    files: dict       # file name -> text (inputs and weights files)
    weights: dict     # weights file name -> {(u, v): w}
    jobs: list


def _edge_list(g):
    return "".join("%d %d\n" % (u + 1, v + 1) for u, v in g.edges)


def _dimacs(g):
    return "p edge %d %d\n" % (g.n, len(g.edges)) + "".join(
        "e %d %d\n" % (u + 1, v + 1) for u, v in g.edges)


class _Maker:
    def __init__(self, name, seed):
        self.gen = importlib.import_module("degenmatch.generate")
        self.formats = importlib.import_module("degenmatch.formats")
        self.wl = Workload(name, seed, {}, {}, {}, [])
        self.count = 0

    def sub_seed(self):
        self.count += 1
        return self.wl.seed * 1000 + self.count

    def add_input(self, name, g, fmt, extra_edges=(), extra_vertices=0):
        """Register package graph g (plus optional extra edges) as a file."""
        hg = Graph(g.n + extra_vertices, list(g.edges) + list(extra_edges))
        if fmt == "graph6":
            text = self.formats.serialize_graph6(g) + "\n"
        elif fmt == "dimacs":
            text = _dimacs(hg)
        else:
            text = _edge_list(hg)
        self.wl.graphs[name] = hg
        self.wl.files[name] = text
        return name

    def add_weights(self, name, g):
        rng = self.gen.Rng(self.sub_seed())
        weights = {e: 1 + rng.randbelow(9) for e in g.edges}
        self.wl.weights[name] = weights
        self.wl.files[name] = json.dumps([[u, v, w] for (u, v), w
                                          in sorted(weights.items())])
        return name

    def job(self, kind, input, *args, **fields):
        job_id = "%s:%s" % (input, " ".join((kind,) + args))
        if fields.get("weights"):
            job_id += " --weights"
        self.wl.jobs.append(Job(job_id, kind, input, args, **fields))


def _ktree_large(b, toy):
    sizes = [60, 120] if toy else [600, 900, 1200]
    # k=3 at r=1 and k=2 at r=2 keep the DP tables small, so the quadratic
    # MCS stays the largest cost, as it is on large chordal inputs; each
    # graph is written in both formats and checked for chordality in both
    for i, (n, k) in enumerate((n, k) for n in sizes for k in (2, 3)):
        r = 4 - k
        g = b.gen.k_tree(k, n, b.sub_seed())
        names = [b.add_input("kt%d-n%d.%s" % (k, n, fmt), g, fmt)
                 for fmt in ("edgelist", "dimacs")]
        b.job("nur", names[i % 2], "--r", str(r), r=r)
        b.job("nur", names[i % 2], "--r", str(r), "--emit-matching", r=r,
              emit=True)
        for name in names:
            b.job("check-chordal", name)
    # a k-tree plus a disjoint chordless 5-cycle: MCS runs in full, the PEO
    # check fails, and nur must exit 2
    for i, (k, n) in enumerate([(2, 60)] if toy else [(3, 900)]):
        g = b.gen.k_tree(k, n, b.sub_seed())
        c5 = [(n + j, n + (j + 1) % 5) for j in range(5)]
        fmt = ("edgelist", "dimacs")[i % 2]
        name = b.add_input("kt%d-n%d-c5.%s" % (k, n, fmt), g, fmt, c5, 5)
        b.job("nur", name, "--r", "1", r=1, chordal=False, expect_exit=2)
        b.job("check-chordal", name, chordal=False)


# The widest graphs of interval-wide, as (n, generator seed), the same for
# every run seed. Their jobs are the slowest eighth of the workload and the
# largest tables, so job_ms.p90 and peak_rss_mb (a maximum over jobs) measure
# the same instances on every seed instead of following whichever random
# graph of a seed happens to have the largest bags.
WIDEST_INTERVALS = ((35, 0), (36, 0), (36, 1), (37, 0))


def _interval_wide(b, toy):
    # the random graphs: r=2 on the narrower ones and r=1 on the wider ones,
    # whose job times overlap, so p50 does not fall in a gap between
    # clusters; many small graphs average out how each seed's bags differ
    widest = [(14, 0)] if toy else WIDEST_INTERVALS
    plan = ([(12, 2), (13, 2), (16, 1), (18, 1)] if toy else
            [(n, 2) for n in range(20, 26) for _ in "abc"]
            + [(n, 1) for n in range(40, 60, 2)])
    graphs = ([(n, 2, b.gen.interval(n, seed)) for n, seed in widest]
              + [(n, r, b.gen.interval(n, b.sub_seed())) for n, r in plan])
    for i, (n, r, g) in enumerate(graphs):
        stem = "int-n%d-r%d-%d" % (n, r, i)
        name = b.add_input(stem + ".g6", g, "graph6")
        weights = b.add_weights(stem + ".weights.json", g) if i % 2 else None
        b.job("nur", name, "--r", str(r), r=r, weights=weights)
        b.job("nur", name, "--r", str(r), "--emit-matching", r=r, emit=True,
              weights=weights)


def _color_bounded(b, toy):
    sizes = [60, 80] if toy else [400, 600, 800, 1000]
    for i, n in enumerate(sizes):
        d = (6, 8)[i % 2]
        g = b.gen.random_bounded_degree(n, (d + 2) / n, d, b.sub_seed())
        name = b.add_input("rbd-n%d-d%d.txt" % (n, d), g, "edgelist")
        for r in (1, 2, 3):
            for order in ("lex", "random"):
                args = ["--r", str(r), "--order", order]
                if order == "random":
                    args += ["--seed", str(b.sub_seed())]
                # most jobs verify; lex order at r=3 measures the colorer alone
                verify = not (order == "lex" and r == 3)
                if verify:
                    args.append("--verify")
                b.job("color", name, *args, r=r, verify=verify)


def _small(b, make, m_cap, tries=50):
    """First graph from `make(seed)` with at most m_cap edges."""
    for _ in range(tries):
        g = make(b.sub_seed())
        if g.m <= m_cap:
            return g
    raise RuntimeError("no generated graph within %d edges" % m_cap)


# brute_chromatic_index_r is exponential in m; at 14 or 15 edges a few
# generated graphs take seconds where most take milliseconds, so one seed's
# draw would decide the workload's throughput
CHI_MAX_M = 13


def _oracle_crosscheck(b, toy):
    gen = b.gen
    if toy:
        specs = [("kt2", 8, CHI_MAX_M), ("int", 8, 48), ("rc", 10, 48)]
    else:
        # many graphs of similar, moderate cost: branch-and-bound time varies
        # a lot from graph to graph, and the larger sizes (n=15, 16 or 12
        # intervals) would let a few graphs decide a seed's total
        specs = ([("kt2", n, 48) for n in (10, 10, 11, 11, 12, 12, 13, 13)]
                 + [("kt3", n, 48) for n in (9, 9, 10, 10, 11, 11, 12, 12)]
                 + [("int", n, 48) for n in (8, 8, 9, 9, 10, 10, 11, 11)]
                 + [("rc", n, 48) for n in (11, 11, 12, 12, 13, 13, 14, 14)]
                 + [("kt2", n, CHI_MAX_M) for n in (7, 7, 8, 8)]
                 + [("rc", n, CHI_MAX_M) for n in (8, 8, 9, 9, 10, 10)])
    makers = {"kt2": lambda n, s: gen.k_tree(2, n, s),
              "kt3": lambda n, s: gen.k_tree(3, n, s),
              "int": gen.interval,
              "rc": gen.random_chordal}
    for i, (family, n, m_cap) in enumerate(specs):
        g = _small(b, lambda s: makers[family](n, s), m_cap)
        name = b.add_input("%s-n%d-%d.g6" % (family, n, i), g, "graph6")
        for r in (1, 2):
            b.job("oracle-nur", name, "--what", "nur", "--r", str(r), r=r)
            b.job("nur", name, "--r", str(r), "--emit-matching", r=r, emit=True)
        b.job("oracle-variants", name, "--what", "variants")
        if g.m <= CHI_MAX_M:
            for r in (1, 2):
                b.job("oracle-chi", name, "--what", "chi", "--r", str(r), r=r)


_MAKERS = {"ktree-large": _ktree_large, "interval-wide": _interval_wide,
             "color-bounded": _color_bounded,
             "oracle-crosscheck": _oracle_crosscheck}


def build(name, seed, toy=False):
    """Generate the inputs and the job list of workload `name`.

    toy shrinks every input so that the benchmark's own tests run fast."""
    b = _Maker(name, seed)
    _MAKERS[name](b, toy)
    return b.wl


def write_files(wl, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in wl.files.items():
        (workdir / name).write_text(text)
