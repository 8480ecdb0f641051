"""Exhaustive ground truth for matching numbers and chromatic indices at desk scale.

Everything here is coded independently of the DP and the greedy coloring so the
two sides can be cross-verified against each other. Each public call builds one
_Search: one limit check, one deadline and one set of masks, shared by every
search the call runs (the chromatic searches find their class cap inside it).
A search's recursive closure is unbound when the search ends, however it
ends, so no call leaves a reference cycle for the cyclic collector."""

import time
from collections import namedtuple

from .graphs import LimitsExceededError, _check_size


class OracleLimits(namedtuple("OracleLimits", "max_vertices max_edges timeout_ms",
                              defaults=(16, 48, 60_000))):
    """The size limits and the time budget of one oracle call."""

    __slots__ = ()


DEFAULT_LIMITS = OracleLimits()


# The searches below keep vertex sets as int masks: bit v stands for vertex v,
# and adj[v] is the mask of v's neighbours, built once per call.


class _Search:
    """The bound on one oracle call: it checks the size limits, starts the
    deadline (read every 2048 ticks) and builds adj and the sorted edge masks,
    once for every search the call runs."""

    def __init__(self, g, limits):
        limits = limits or DEFAULT_LIMITS
        _check_size(g.n, g.m, limits.max_vertices, limits.max_edges)
        self.deadline = time.monotonic() + limits.timeout_ms / 1000.0
        self.ticks = 0
        self.adj = _adjacency(g)
        self.edges = [(1 << u) | (1 << v) for u, v in g.sorted_edges()]

    def tick(self):
        self.ticks += 1
        if self.ticks % 2048 == 0 and time.monotonic() > self.deadline:
            raise LimitsExceededError("oracle timeout")


def _adjacency(g):
    return [_mask(nbrs) for nbrs in g.adj]


def _mask(vs):
    mask = 0
    for v in vs:
        mask |= 1 << v
    return mask


def _vertices(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _peels(adj, alive, r):
    """Whether G[alive] is r-degenerate: remove vertices with at most r
    neighbours left until none is left, or fail when no vertex qualifies."""
    while alive:
        rest = alive
        removed = False
        while rest:
            low = rest & -rest
            rest ^= low
            if (adj[low.bit_length() - 1] & alive).bit_count() <= r:
                alive ^= low
                removed = True
        if not removed:
            return False
    return True


def _edge_count(adj, mask):
    """Number of edges of G[mask]."""
    ends = 0
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        ends += (adj[low.bit_length() - 1] & mask).bit_count()
    return ends // 2


def _has_cycle(adj, mask):
    """Whether G[mask] has a cycle: more edges than vertices minus components."""
    comps = 0
    rest = mask
    while rest:
        comps += 1
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= adj[low.bit_length() - 1]
            frontier = reach & rest & ~comp
            comp |= frontier
        rest &= ~comp
    return _edge_count(adj, mask) > mask.bit_count() - comps


def _perfect_matchings(adj, mask):
    """Number of perfect matchings of G[mask], counted until it reaches 2:
    the lowest vertex is matched to each of its neighbours in turn."""
    if not mask:
        return 1
    low = mask & -mask
    rest = mask ^ low
    nbrs = adj[low.bit_length() - 1] & rest
    total = 0
    while nbrs:
        w = nbrs & -nbrs
        nbrs ^= w
        total += _perfect_matchings(adj, rest ^ w)
        if total >= 2:
            return total
    return total


def _bnb_matching(search, feasible):
    """Max matching under a hereditary feasibility predicate, branch and bound.

    feasible(used) gets the vertex mask of a matching, which covers
    used.bit_count() // 2 edges. cover[j] is the set of vertices that
    edges[j:] touch, so a node at edge j can add at most
    (cover[j] & ~used).bit_count() // 2 more edges. The loop stops once that
    bound cannot beat best (cover only shrinks as j grows), and an edge whose
    child could not beat best is skipped before feasible runs. Each pruned
    subtree holds no matching larger than best, so best rises at the same
    nodes as under the plain bound by every unused vertex,
    (n - used.bit_count()) // 2, which cover[j] & ~used never exceeds: the
    tree searched is a subtree of the plain one and the value is the same."""
    edges = search.edges
    cover = [0] * (len(edges) + 1)
    for j in range(len(edges) - 1, -1, -1):
        cover[j] = cover[j + 1] | edges[j]
    best = 0

    def rec(i, used, count):
        nonlocal best
        search.tick()
        if count > best:
            best = count
        for j in range(i, len(edges)):
            if count + (cover[j] & ~used).bit_count() // 2 <= best:
                return
            e = edges[j]
            if used & e:
                continue
            nxt = used | e
            if count + 1 + (cover[j + 1] & ~nxt).bit_count() // 2 <= best:
                continue
            if feasible(nxt):
                rec(j + 1, nxt, count + 1)

    try:
        rec(0, 0, 0)
    finally:
        del rec  # rec reaches itself through its closure cell: break the cycle
    return best


def brute_nu_r(g, r, limits=None):
    """Exact nu_r by branching over edges.

    A branch dies as soon as the covered set is no longer r-degenerate;
    degeneracy is closed under induced subgraphs, so no superset recovers."""
    if type(r) is not int or r < 0:
        raise ValueError("r must be non-negative")
    search = _Search(g, limits)
    return _bnb_matching(search, lambda vs: _peels(search.adj, vs, r))


def brute_nu_variants(g, limits=None):
    """(nu_s, nu_1, nu_ur, nu) by four independent searches.

    Induced, acyclic, and uniquely restricted are all hereditary, so the same
    branch-and-bound applies; uniquely restricted uses the definitional test
    that G[V(M)] has exactly one perfect matching."""
    search = _Search(g, limits)
    adj = search.adj
    nu = _bnb_matching(search, lambda vs: True)
    nu_s = _bnb_matching(
        search, lambda vs: _edge_count(adj, vs) == vs.bit_count() // 2)
    nu_1 = _bnb_matching(search, lambda vs: not _has_cycle(adj, vs))
    nu_ur = _bnb_matching(search, lambda vs: _perfect_matchings(adj, vs) == 1)
    return nu_s, nu_1, nu_ur, nu


def _bnb_chromatic(search, class_feasible):
    """Least number of feasible classes covering the edges, first-fit
    backtracking; each class holds at most the cap of a maximum feasible
    matching, which the same search finds first."""
    edges = search.edges
    m = len(edges)
    if m == 0:
        return 0
    cap = _bnb_matching(search, class_feasible)
    best = m
    classes = []  # vertex masks, in the order the colors were opened

    def rec(i):
        nonlocal best
        search.tick()
        if i == m:
            best = len(classes)
            return
        remaining = m - i
        slack = sum(cap - cls.bit_count() // 2 for cls in classes)
        slack += (best - 1 - len(classes)) * cap
        if remaining > slack:
            return
        e = edges[i]
        for c, cls in enumerate(classes):
            if cls & e:
                continue
            nxt = cls | e
            if not class_feasible(nxt):
                continue
            classes[c] = nxt
            rec(i + 1)
            classes[c] = cls
            if len(classes) >= best:  # best improved below us; re-prune
                return
        if len(classes) + 1 <= best - 1:
            classes.append(e)
            rec(i + 1)
            classes.pop()

    try:
        rec(0)
    finally:
        del rec  # as in _bnb_matching
    return best


def brute_chromatic_index_r(g, r, limits=None):
    """Exact r-degenerate chromatic index by first-fit backtracking.

    A new color may only be opened as the next unused index; classes are
    bounded by nu_r(g), giving a counting prune. Intended for small edge
    counts."""
    if type(r) is not int or r < 1:
        raise ValueError("r must be a positive integer")
    search = _Search(g, limits)
    return _bnb_chromatic(search, lambda vs: _peels(search.adj, vs, r))


def _subtree_mask(d, t):
    """The vertices of G_t at node t of d, as a mask."""
    mask = 0
    stack = [t]
    while stack:
        nd = d.nodes[stack.pop()]
        mask |= _mask(nd.bag)
        if nd.kind == "pendant":
            mask |= 1 << nd.vertex
        stack.extend(nd.children)
    return mask


def brute_degenerate_states(g, d, r, node, limits=None):
    """The literal state set at a decomposition node, by full enumeration.

    G_t holds the vertices of the bags at the node and below it, and the
    vertices the pendant nodes there hang. Enumerates every matching of G_t
    avoiding edges inside the bag, then every S between V(M) cap X_t and X_t
    keeping G[V(M) u S] r-degenerate."""
    if type(r) is not int or r < 0:
        raise ValueError("r must be non-negative")
    if type(node) is not int or not 0 <= node < len(d.nodes):
        raise ValueError("node %r is not a node of the decomposition" % (node,))
    search = _Search(g, limits)
    adj = search.adj
    bag = _mask(d.nodes[node].bag)
    vt = _subtree_mask(d, node)
    allowed = [e for e in search.edges if e & vt == e and e & bag != e]
    states = set()

    def emit(used, count):
        matched = used & bag
        n_set = _vertices(matched)
        outside = bag & ~used
        extra = outside
        while True:  # every sub-mask of outside, from outside down to 0
            search.tick()
            if _peels(adj, used | extra, r):
                states.add((_vertices(matched | extra), n_set, count))
            if not extra:
                break
            extra = (extra - 1) & outside

    def rec(i, used, count):
        search.tick()
        emit(used, count)
        for j in range(i, len(allowed)):
            e = allowed[j]
            if used & e:
                continue
            rec(j + 1, used | e, count + 1)

    try:
        rec(0, 0, 0)
    finally:
        del rec  # as in _bnb_matching
    return states
