"""Command-line front door: solver, coloring, oracles, generators, benchmarks."""

import argparse
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import __version__
from .chordal import NotChordalError, is_chordal
from .coloring import ColoringInvariantError, greedy_color, verify_coloring
from .dp import DPInvariantError, WeightedGraph, solve
from .formats import ParseError, load_graph, serialize_graph6
from .generate import FAMILIES, GeneratorSpec, Rng, generate
from .graphs import _norm_edge
from .oracles import (
    DEFAULT_LIMITS,
    LimitsExceededError,
    brute_chromatic_index_r,
    brute_degenerate_states,
    brute_nu_r,
    brute_nu_variants,
    write_survey_csv,
)

EXIT_OK = 0
EXIT_NOT_CHORDAL = 2
EXIT_PARSE = 3
EXIT_LIMITS = 4
EXIT_INTERNAL = 5


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
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _load_weights(path, g):
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
    return WeightedGraph(g, weights)


# Each handler gets the parsed arguments and the input graph (None for the
# commands without --input) and returns the report's results.
def cmd_nur(args, g):
    weights = _load_weights(args.weights, g) if args.weights else None
    res = solve(g, args.r, weights=weights)
    results = {
        "nu_r": res.value,
        "r": args.r,
        "stats": {"nodes": res.nodes, "max_table": res.max_table},
    }
    if args.emit_matching:
        results["matching"] = [list(e) for e in res.matching]
    return results


def cmd_color(args, g):
    if args.order == "lex":
        order = None
    else:
        order = g.sorted_edges()
        Rng(args.seed).shuffle(order)
    coloring = greedy_color(g, args.r, order=order, delta=args.delta_override)
    verified = None
    if args.verify:
        ok, report = verify_coloring(g, coloring, args.r)
        if not ok:
            raise ColoringInvariantError(report)
        verified = ok
    return coloring.to_payload(verified)


def cmd_oracle(args, g):
    if args.what == "nur":
        return {"nu_r": brute_nu_r(g, args.r), "r": args.r}
    if args.what == "chi":
        return {"chi_r": brute_chromatic_index_r(g, args.r), "r": args.r}
    if args.what == "variants":
        nu_s, nu_1, nu_ur, nu = brute_nu_variants(g)
        return {"nu_s": nu_s, "nu_1": nu_1, "nu_ur": nu_ur, "nu": nu}
    # states, at the decomposition root
    from .chordal import build_nice_decomposition, mcs_order
    decomp = build_nice_decomposition(g, mcs_order(g))
    states = brute_degenerate_states(g, decomp, args.r, decomp.root)
    return {
        "r": args.r,
        "node": decomp.root,
        "states": sorted([list(s), list(n), k] for s, n, k in states),
    }


def cmd_gen(args, _):
    params = {}
    for name in ("n", "k", "a", "b", "p", "max_degree"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    g = generate(GeneratorSpec(args.family, params, args.seed))
    line = serialize_graph6(g)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(line + "\n")
    return {"family": args.family, "n": g.n, "m": g.m, "graph6": line}


def cmd_check_chordal(args, g):
    return {"chordal": is_chordal(g)}


def _bench_task(task):
    inst, r = task
    spec = GeneratorSpec(inst.get("family"), inst.get("params", {}),
                         inst.get("seed", 0))
    try:
        g = generate(spec)
    except ValueError as exc:
        raise ValueError("instance %r: %s" % (inst.get("id"), exc)) from None
    row = {"graph-id": inst.get("id", inst["family"]), "n": g.n, "m": g.m,
           "delta": g.max_degree(), "r": r}
    agree = {"dp_oracle": None, "palette": None}
    try:
        row["nu_r"] = solve(g, r).value
    except NotChordalError:
        pass
    else:
        if g.n <= DEFAULT_LIMITS.max_vertices and g.m <= DEFAULT_LIMITS.max_edges:
            agree["dp_oracle"] = brute_nu_r(g, r) == row["nu_r"]
    if g.m <= 12:
        row["chi_r"] = brute_chromatic_index_r(g, r)
    if g.n <= 10 and g.m <= DEFAULT_LIMITS.max_edges:
        nu_s, nu_1, nu_ur, nu = brute_nu_variants(g)
        row.update({"nu_s": nu_s, "nu_1": nu_1, "nu_ur": nu_ur, "nu": nu})
    if g.m:
        coloring = greedy_color(g, r)
        ok, _ = verify_coloring(g, coloring, r)
        agree["palette"] = ok and coloring.max_color() <= coloring.k
    return row, agree


def cmd_bench(args, _):
    with open(args.suite) as fh:
        suite = json.load(fh)
    # the whole suite is checked before any instance runs
    if not (isinstance(suite, dict) and isinstance(suite.get("instances"), list)
            and all(isinstance(inst, dict) for inst in suite["instances"])):
        raise ValueError("suite needs an 'instances' list of JSON objects")
    tasks = []
    for inst in suite["instances"]:
        rs, params = inst.get("r", [1]), inst.get("params", {})
        checks = (
            (isinstance(rs, list) and all(type(r) is int and r >= 1 for r in rs),
             "r must be a list of positive integers"),
            (isinstance(params, dict) and all(
                type(v) is int
                or (name == "p" and type(v) is float and abs(v) < math.inf)
                for name, v in params.items()),
             "params must be an object of integers (p may be a finite number)"),
            (type(inst.get("seed", 0)) is int, "seed must be an integer"),
        )
        for ok, message in checks:
            if not ok:
                raise ValueError("instance %r: %s" % (inst.get("id"), message))
        tasks.extend((inst, r) for r in rs)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_bench_task, tasks))
    else:
        outcomes = [_bench_task(t) for t in tasks]
    rows = [row for row, _ in outcomes]
    counters = {"rows": len(rows),
                "dp_oracle_checked": 0, "dp_oracle_disagreements": 0,
                "palette_checked": 0, "palette_failures": 0}
    for _, agree in outcomes:
        if agree["dp_oracle"] is not None:
            counters["dp_oracle_checked"] += 1
            counters["dp_oracle_disagreements"] += not agree["dp_oracle"]
        if agree["palette"] is not None:
            counters["palette_checked"] += 1
            counters["palette_failures"] += not agree["palette"]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_survey_csv(rows, fh)
    return counters


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="degenmatch",
        description="r-degenerate matchings and edge colorings")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", required=True,
                       help="graph file or '-' for stdin")
        p.add_argument("--format", default="auto",
                       choices=["auto", "graph6", "edgelist", "dimacs"])

    p = sub.add_parser("nur", help="maximum r-degenerate matching (chordal)")
    add_input(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--weights", help="JSON list of [u, v, weight] (0-based ids)")
    p.add_argument("--emit-matching", action="store_true")
    p.set_defaults(func=cmd_nur)

    p = sub.add_parser("color", help="greedy r-degenerate edge coloring")
    add_input(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--order", default="lex", choices=["lex", "random"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta-override", type=int)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("oracle", help="exhaustive desk-scale oracles")
    add_input(p)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--what", required=True,
                   choices=["nur", "chi", "variants", "states"])
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="deterministic instance generators")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--max-degree", type=int, dest="max_degree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write graph6 to this file")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check-chordal", help="chordality test")
    add_input(p)
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
    try:
        if "input" in args:
            text = _read_input(args.input)
            g = load_graph(text, args.format)
        results = args.func(args, g)
    except NotChordalError as exc:
        print("not chordal: %s" % exc, file=sys.stderr)
        return EXIT_NOT_CHORDAL
    except (ParseError, FileNotFoundError, json.JSONDecodeError) as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except LimitsExceededError as exc:
        print("limits exceeded: %s" % exc, file=sys.stderr)
        return EXIT_LIMITS
    except (ColoringInvariantError, DPInvariantError, AssertionError) as exc:
        print("internal invariant violation: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    _emit_report(args.command, text, results, started)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
