"""Command-line front door: solver, coloring, oracles, generators, benchmarks."""

import argparse
import functools
import gc
import hashlib
import json
import os
import sys
import time
from contextlib import nullcontext

from . import __version__, oracles
from .chordal import NotChordalError, build_nice_decomposition, is_chordal, mcs_order
from .coloring import ColoringInvariantError, greedy_color, verify_coloring
from .dp import MAX_STATES, DPInvariantError, solve
from .formats import ParseError, check_graph6_size, load_graph, serialize_graph6
from .generate import FAMILIES, PARAMS, Rng, check_params, generate
from .graphs import MAX_EDGES, MAX_VERTICES, _check_size, _norm_edge
from .oracles import (
    LimitsExceededError,
    brute_chromatic_index_r,
    brute_degenerate_states,
    brute_nu_r,
    brute_nu_variants,
)

EXIT_OK = 0
EXIT_NOT_CHORDAL = 2
EXIT_PARSE = 3
EXIT_LIMITS = 4
EXIT_INTERNAL = 5
SURVEY_FIELDS = ("graph-id", "n", "m", "delta", "r",
                 "nu_r", "chi_r", "nu_s", "nu_1", "nu_ur", "nu")
BENCH_CHECKS = ("dp_oracle_checked", "dp_oracle_disagreements",
                "palette_checked", "palette_failures")


def _read_input(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _emit_report(command, input_text, results, started):
    digest = (hashlib.sha256(input_text.encode()).hexdigest()
              if input_text is not None else None)
    report = {
        "command": command,
        "input_digest": digest,
        "version": __version__,
        "results": results,
        "elapsed_ms": round((time.monotonic() - started) * 1000, 3),
    }
    # one line; elapsed_ms stays the last key, so a reader can strip the
    # timing from '"elapsed_ms": ' to the end of the line
    sys.stdout.write(json.dumps(report) + "\n")


def _load_weights(path):
    with open(path) as fh:
        entries = json.load(fh)
    # type(...) is int: JSON true/false load as bools, which are ints too
    if not (isinstance(entries, list) and all(
            isinstance(e, list) and len(e) == 3 and all(type(x) is int for x in e[:2])
            for e in entries)):
        raise ValueError("weights must be a JSON list of [u, v, w] with integer u, v")
    weights = {}
    for u, v, w in entries:
        e = _norm_edge(u, v)
        if e in weights:
            raise ValueError("edge %s listed twice in the weights file" % (e,))
        weights[e] = w
    return weights


# Each handler gets the parsed arguments and the input graph (None for the
# commands without --input) and returns the report's results.
def cmd_nur(args, g):
    weights = _load_weights(args.weights) if args.weights else None
    res = solve(g, args.r, weights=weights, max_states=args.max_states)
    results = {
        "nu_r": res.value,
        "r": args.r,
        "stats": {"nodes": res.nodes, "max_table": res.max_table,
                  "path": res.path},
    }
    if args.emit_matching:
        results["matching"] = list(res.matching)
    return results


def cmd_color(args, g):
    if args.order == "lex":
        order = None
    else:
        order = g.sorted_edges()
        Rng(args.seed).shuffle(order)
    coloring = greedy_color(g, args.r, order=order, delta=args.delta_override)
    results = {
        "r": coloring.r,
        "delta": coloring.delta,
        "K": coloring.k,
        "colors_used": coloring.colors_used(),
        "classes": {str(c): es for c, es in sorted(coloring.classes().items())},
    }
    if args.verify:
        ok, report = verify_coloring(g, coloring, args.r)
        if not ok:
            raise ColoringInvariantError(report)
        results["verified"] = ok
    return results


def cmd_oracle(args, g):
    if args.what == "nur":
        return {"nu_r": brute_nu_r(g, args.r), "r": args.r}
    if args.what == "chi":
        return {"chi_r": brute_chromatic_index_r(g, args.r), "r": args.r}
    if args.what == "variants":
        nu_s, nu_1, nu_ur, nu = brute_nu_variants(g)
        return {"nu_s": nu_s, "nu_1": nu_1, "nu_ur": nu_ur, "nu": nu}
    # states, at the decomposition root: r and the size limits are checked
    # first, as the other oracles check them, so an input that fails either
    # is not decomposed (nor refused as not chordal)
    if args.r < 0:
        raise ValueError("r must be non-negative")
    limits = oracles.DEFAULT_LIMITS
    _check_size(g.n, g.m, limits.max_vertices, limits.max_edges)
    decomp = build_nice_decomposition(g, mcs_order(g))
    states = brute_degenerate_states(g, decomp, args.r, decomp.root)
    return {
        "r": args.r,
        "node": decomp.root,
        "states": sorted([list(s), list(n), k] for s, n, k in states),
    }


def cmd_gen(args, _):
    params = {name: getattr(args, name) for name in PARAMS
              if getattr(args, name) is not None}
    check_params(args.family, params, args.seed)
    # the graph6 body's size depends only on the vertex count, so a graph
    # too large to write is refused before it is built
    check_graph6_size(params["n"] if "n" in params else params["a"] + params["b"])
    g = generate(args.family, params, args.seed, args.max_edges)
    line = serialize_graph6(g)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(line + "\n")
    return {"family": args.family, "n": g.n, "m": g.m, "graph6": line}


def cmd_check_chordal(args, g):
    return {"chordal": is_chordal(g)}


def _bench_task(task):
    inst, r = task
    limits = oracles.DEFAULT_LIMITS
    checks = [0] * len(BENCH_CHECKS)
    # cmd_bench has passed every instance through check_params; generate
    # and solve refuse an instance past the default edge or state cap
    try:
        g = generate(inst["family"], inst.get("params", {}), inst.get("seed", 0))
        row = {"graph-id": inst.get("id", inst["family"]), "n": g.n, "m": g.m,
               "delta": g.max_degree(), "r": r}
        row["nu_r"] = solve(g, r).value
    except NotChordalError:
        pass
    except LimitsExceededError as exc:
        raise LimitsExceededError("instance %r: %s" % (inst.get("id"), exc)) from None
    else:
        if g.n <= limits.max_vertices and g.m <= limits.max_edges:
            checks[:2] = 1, int(brute_nu_r(g, r) != row["nu_r"])
    if g.n <= limits.max_vertices and g.m <= 12:
        row["chi_r"] = brute_chromatic_index_r(g, r)
    if g.n <= 10 and g.m <= limits.max_edges:
        nu_s, nu_1, nu_ur, nu = brute_nu_variants(g)
        row.update({"nu_s": nu_s, "nu_1": nu_1, "nu_ur": nu_ur, "nu": nu})
    if g.m:
        coloring = greedy_color(g, r)
        ok, _ = verify_coloring(g, coloring, r)
        checks[2:] = 1, int(not ok or coloring.max_color() > coloring.k)
    return row, checks


def write_survey_csv(rows, fileobj):
    """Emit the survey table; rows are dicts keyed by SURVEY_FIELDS."""
    import csv  # only bench --out writes CSV, so no other call loads it

    writer = csv.DictWriter(fileobj, fieldnames=SURVEY_FIELDS)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in SURVEY_FIELDS})


def cmd_bench(args, _):
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    with open(args.suite) as fh:
        suite = json.load(fh)
    # the whole suite is checked before any instance runs
    if not (isinstance(suite, dict) and isinstance(suite.get("instances"), list)
            and all(isinstance(inst, dict) for inst in suite["instances"])):
        raise ValueError("suite needs an 'instances' list of JSON objects")
    tasks = []
    for inst in suite["instances"]:
        rs = inst.get("r", [1])
        try:
            if not (isinstance(rs, list) and all(type(r) is int and r >= 1 for r in rs)):
                raise ValueError("r must be a list of positive integers")
            check_params(inst.get("family"), inst.get("params", {}),
                         inst.get("seed", 0))
        except ValueError as exc:
            raise ValueError("instance %r: %s" % (inst.get("id"), exc)) from None
        tasks.extend((inst, r) for r in rs)
    # the output is opened before any instance runs, so a path that cannot
    # be written fails at once instead of after the whole suite
    with open(args.out, "w", newline="") if args.out else nullcontext() as out:
        # the pool forks all its workers at once, so start no more than can run
        workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
        if workers > 1:
            # the pool pulls in multiprocessing, socket and pickle, so it is
            # imported only here, where one is started
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(_bench_task, tasks))
        else:
            outcomes = [_bench_task(t) for t in tasks]
        rows = [row for row, _ in outcomes]
        if out is not None:
            write_survey_csv(rows, out)
    # a row of zeros keeps every count when the suite has no instance
    counts = [checks for _, checks in outcomes] + [[0] * len(BENCH_CHECKS)]
    return {"rows": len(rows), **dict(zip(BENCH_CHECKS, map(sum, zip(*counts))))}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_PARSE; exit 2 means "not chordal"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, "%s: error: %s\n" % (self.prog, message))


@functools.cache
def _build_parser():
    """The parser, built on the first call and shared by later ones;
    parse_args does not change it."""
    parser = _Parser(
        prog="degenmatch",
        description="r-degenerate matchings and edge colorings")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # the input options, shared by the subcommands that read a graph; argparse
    # copies them into each one, which is cheaper than adding them four times
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--input", required=True,
                        help="graph file or '-' for stdin")
    inputs.add_argument("--format", default="auto",
                        choices=["auto", "graph6", "edgelist", "dimacs"])
    inputs.add_argument("--max-vertices", type=int, default=MAX_VERTICES,
                        help="reject larger inputs with exit 4 (default %(default)s)")
    inputs.add_argument("--max-edges", type=int, default=MAX_EDGES,
                        help="reject larger inputs with exit 4 (default %(default)s)")

    p = sub.add_parser("nur", parents=[inputs],
                       help="maximum r-degenerate matching (chordal)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--weights", help="JSON list of [u, v, weight] (0-based ids)")
    p.add_argument("--emit-matching", action="store_true")
    p.add_argument("--max-states", type=int, default=MAX_STATES,
                   help="exit 4 when the largest bag admits more DP states "
                   "(default %(default)s)")
    p.set_defaults(func=cmd_nur)

    p = sub.add_parser("color", parents=[inputs],
                       help="greedy r-degenerate edge coloring")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--order", default="lex", choices=["lex", "random"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta-override", type=int)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("oracle", parents=[inputs],
                       help="exhaustive desk-scale oracles")
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--what", required=True,
                   choices=["nur", "chi", "variants", "states"])
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="deterministic instance generators")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    for name, kind in PARAMS.items():
        p.add_argument("--" + name.replace("_", "-"), type=kind)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-edges", type=int, default=MAX_EDGES,
                   help="refuse larger graphs with exit 4 (default %(default)s)")
    p.add_argument("--out", help="write graph6 to this file")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check-chordal", parents=[inputs],
                       help="chordality test")
    p.set_defaults(func=cmd_check_chordal)

    p = sub.add_parser("bench", help="run a suite and emit the survey CSV")
    p.add_argument("--suite", required=True, help="suite JSON file")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    text = g = None
    # No command makes a reference cycle (tests/test_cli.py pins it), so the
    # cyclic collector would only rescan the live DP tables: it is paused for
    # the command, and the caller's setting is put back after it
    collecting = gc.isenabled()
    gc.disable()
    try:
        if "input" in args:
            text = _read_input(args.input)
            g = load_graph(text, args.format, args.max_vertices, args.max_edges)
        results = args.func(args, g)
    except NotChordalError as exc:
        print("not chordal: %s" % exc, file=sys.stderr)
        return EXIT_NOT_CHORDAL
    except (ParseError, json.JSONDecodeError) as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print("file error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except LimitsExceededError as exc:
        print("limits exceeded: %s" % exc, file=sys.stderr)
        return EXIT_LIMITS
    except MemoryError:
        print("limits exceeded: out of memory", file=sys.stderr)
        return EXIT_LIMITS
    except (ColoringInvariantError, DPInvariantError, AssertionError) as exc:
        print("internal invariant violation: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    else:
        _emit_report(args.command, text, results, started)
        return EXIT_OK
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
