"""Exhaustive ground truth for matching numbers and chromatic indices at desk scale.

Everything here is coded independently of the DP and the greedy coloring so the
two sides can be cross-verified against each other."""

import csv
import time
from dataclasses import dataclass
from itertools import combinations

from .graphs import LimitsExceededError, _check_size


@dataclass(frozen=True)
class OracleLimits:
    max_vertices: int = 16
    max_edges: int = 48
    timeout_ms: int = 60_000


DEFAULT_LIMITS = OracleLimits()


def _check_limits(g, limits):
    limits = limits or DEFAULT_LIMITS
    _check_size(g.n, g.m, limits.max_vertices, limits.max_edges)
    return time.monotonic() + limits.timeout_ms / 1000.0


class _Deadline:
    def __init__(self, deadline):
        self.deadline = deadline
        self.ticks = 0

    def tick(self):
        self.ticks += 1
        if self.ticks % 2048 == 0 and time.monotonic() > self.deadline:
            raise LimitsExceededError("oracle timeout")


def _sub_degeneracy(g, vs):
    # peel the induced subgraph without remapping ids
    alive = set(vs)
    deg = {v: sum(1 for w in g.adj[v] if w in alive) for v in alive}
    worst = 0
    while alive:
        v = min(alive, key=lambda x: (deg[x], x))
        worst = max(worst, deg[v])
        alive.remove(v)
        for w in g.adj[v]:
            if w in alive:
                deg[w] -= 1
    return worst


def _induced_edge_count(g, vs):
    vs = set(vs)
    return sum(1 for u, v in g.edges if u in vs and v in vs)


def _induced_has_cycle(g, vs):
    vs = set(vs)
    comps = 0
    seen = set()
    edges = 0
    for s in vs:
        if s in seen:
            continue
        comps += 1
        stack = [s]
        seen.add(s)
        size = 0
        while stack:
            x = stack.pop()
            size += 1
            for w in g.adj[x]:
                if w in vs:
                    edges += 1
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
    return edges // 2 > len(vs) - comps


def _perfect_matching_count(g, vs):
    """Number of perfect matchings of G[vs], counted until it reaches 2."""
    vs = sorted(vs)

    def rec(free):
        if not free:
            return 1
        v = free[0]
        rest = free[1:]
        total = 0
        nbrs = set(g.adj[v])
        for i, w in enumerate(rest):
            if w in nbrs:
                total += rec(rest[:i] + rest[i + 1:])
                if total >= 2:
                    return total
        return total

    return rec(vs)


def _bnb_matching(g, feasible, deadline):
    """Max matching under a hereditary feasibility predicate, branch and bound."""
    edges = g.sorted_edges()
    best = 0

    def rec(i, used, count):
        nonlocal best
        deadline.tick()
        if count > best:
            best = count
        if count + (g.n - len(used)) // 2 <= best:
            return
        for j in range(i, len(edges)):
            u, v = edges[j]
            if u in used or v in used:
                continue
            nxt = used | {u, v}
            if feasible(nxt, count + 1):
                rec(j + 1, nxt, count + 1)

    rec(0, frozenset(), 0)
    return best


def brute_nu_r(g, r, limits=None):
    """Exact nu_r by branching over edges.

    A branch dies as soon as the covered set is no longer r-degenerate;
    degeneracy is closed under induced subgraphs, so no superset recovers."""
    if r < 0:
        raise ValueError("r must be non-negative")
    deadline = _Deadline(_check_limits(g, limits))
    return _bnb_matching(g, lambda vs, k: _sub_degeneracy(g, vs) <= r, deadline)


def brute_nu_variants(g, limits=None):
    """(nu_s, nu_1, nu_ur, nu) by four independent searches.

    Induced, acyclic, and uniquely restricted are all hereditary, so the same
    branch-and-bound applies; uniquely restricted uses the definitional test
    that G[V(M)] has exactly one perfect matching."""
    deadline = _Deadline(_check_limits(g, limits))
    nu = _bnb_matching(g, lambda vs, k: True, deadline)
    nu_s = _bnb_matching(g, lambda vs, k: _induced_edge_count(g, vs) == k, deadline)
    nu_1 = _bnb_matching(g, lambda vs, k: not _induced_has_cycle(g, vs), deadline)
    nu_ur = _bnb_matching(
        g, lambda vs, k: _perfect_matching_count(g, vs) == 1, deadline)
    return nu_s, nu_1, nu_ur, nu


def _bnb_chromatic(g, class_feasible, cap, deadline):
    edges = g.sorted_edges()
    m = len(edges)
    if m == 0:
        return 0
    best = m
    classes = []  # list of vertex sets

    def rec(i):
        nonlocal best
        deadline.tick()
        if i == m:
            best = len(classes)
            return
        remaining = m - i
        slack = sum(cap - len(cls) // 2 for cls in classes)
        slack += (best - 1 - len(classes)) * cap
        if remaining > slack:
            return
        u, v = edges[i]
        for cls in classes:
            if u in cls or v in cls:
                continue
            if not class_feasible(cls | {u, v}):
                continue
            cls.update((u, v))
            rec(i + 1)
            cls.difference_update((u, v))
            if len(classes) >= best:  # best improved below us; re-prune
                return
        if len(classes) + 1 <= best - 1:
            classes.append({u, v})
            rec(i + 1)
            classes.pop()

    rec(0)
    return best


def brute_chromatic_index_r(g, r, limits=None):
    """Exact r-degenerate chromatic index by first-fit backtracking.

    A new color may only be opened as the next unused index; classes are
    bounded by nu_r(g), giving a counting prune. Intended for small edge
    counts."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    deadline = _Deadline(_check_limits(g, limits))
    if g.m == 0:
        return 0
    cap = brute_nu_r(g, r, limits)
    return _bnb_chromatic(g, lambda vs: _sub_degeneracy(g, vs) <= r,
                          cap, deadline)


def brute_chromatic_index(g, limits=None):
    """Classical chromatic index chi' by the same backtracking without
    degeneracy constraints."""
    deadline = _Deadline(_check_limits(g, limits))
    if g.m == 0:
        return 0
    cap = _bnb_matching(g, lambda vs, k: True, deadline)
    return _bnb_chromatic(g, lambda vs: True, cap, deadline)


def brute_degenerate_states(g, d, r, node, limits=None):
    """The literal state set at a decomposition node, by full enumeration.

    Enumerates every matching of G_t avoiding edges inside the bag, then every
    S between V(M) cap X_t and X_t keeping G[V(M) u S] r-degenerate."""
    deadline = _Deadline(_check_limits(g, limits))
    bag = set(d.nodes[node].bag)
    vt = d.subtree_vertices(node)
    allowed = sorted(e for e in g.edges
                     if e[0] in vt and e[1] in vt
                     and not (e[0] in bag and e[1] in bag))
    states = set()

    def emit(used, count):
        n_set = tuple(sorted(used & bag))
        outside = sorted(bag - used)
        for extra in range(len(outside) + 1):
            for combo in combinations(outside, extra):
                deadline.tick()
                s_set = tuple(sorted(n_set + combo))
                if _sub_degeneracy(g, used | set(combo)) <= r:
                    states.add((s_set, n_set, count))

    def rec(i, used, count):
        deadline.tick()
        emit(used, count)
        for j in range(i, len(allowed)):
            u, v = allowed[j]
            if u in used or v in used:
                continue
            rec(j + 1, used | {u, v}, count + 1)

    rec(0, frozenset(), 0)
    return states


SURVEY_FIELDS = ("graph-id", "n", "m", "delta", "r",
                 "nu_r", "chi_r", "nu_s", "nu_1", "nu_ur", "nu")


def write_survey_csv(rows, fileobj):
    """Emit the survey table; rows are dicts keyed by SURVEY_FIELDS."""
    writer = csv.DictWriter(fileobj, fieldnames=SURVEY_FIELDS)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in SURVEY_FIELDS})
