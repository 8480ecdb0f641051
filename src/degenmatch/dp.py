"""Bottom-up dynamic program for maximum r-degenerate matchings in chordal graphs.

Tables map a state (S, N) -- N inside S inside the current bag, |S| <= r+1 --
to the best matching size (or weight) achievable below the node; the
recursions are monotone in the value, so keeping only the maximum is exact.
Each handler copies the states it keeps with `dict(child)`, which carries
their stored hashes, and rehashes only the states that change: the ones an
introduce adds, and at a forget the ones holding the forgotten vertex.
The witness is re-derived from these values by a walk down from the root: a
node takes the first child state (two at a join) whose value its recurrence
turns into its own, a forget trying keep, drop, then match in N order, a join
the splits of N in mask order. `solve` then certifies the witness with the
class check of `verify_coloring`: a matching of g whose vertices induce an
r-degenerate subgraph, of the reported size when unweighted.

The tables run only when they can matter: unweighted with r >= omega - 1,
every matching of a chordal graph is r-degenerate, and `solve` returns
`graphs.max_matching` under the same certificate instead."""

import math
from dataclasses import dataclass

from .chordal import build_nice_decomposition, mcs_order
from .coloring import _is_r_degenerate
from .graphs import LimitsExceededError, Matching, _norm_edge, max_matching


@dataclass(frozen=True)
class WeightedGraph:
    graph: object
    weights: dict  # edge (u, v) with u < v -> number

    def __post_init__(self):
        missing = self.graph.edges - set(self.weights)
        if missing:
            raise ValueError("missing weight for edges %s" % sorted(missing))
        extra = set(self.weights) - self.graph.edges
        if extra:
            raise ValueError("weight given for non-edges %s" % sorted(extra))
        # abs(w) < inf rejects NaN and infinities; math.isfinite overflows on big ints
        for e, w in sorted(self.weights.items()):
            if (isinstance(w, bool) or not isinstance(w, (int, float))
                    or not abs(w) < math.inf):
                raise ValueError("weight %r of edge %s is not a finite number" % (w, e))

    def weight(self, u, v):
        return self.weights[_norm_edge(u, v)]


_EMPTY = ((), ())


class DPInvariantError(RuntimeError):
    """The value tables admit no witness, or the witness is not an
    r-degenerate matching of the reported value; signals an implementation
    bug."""


def dp_leaf():
    return {_EMPTY: 0}


def dp_introduce(child, x, r):
    """Introduce node for x: keep child states, and add x to any S' of size <= r."""
    # x is new to the bag, so no two candidates share a key; dict(child) copies
    # the kept states with their stored hashes, and each distinct S is sorted once
    table = dict(child)
    grown = {}
    for (s, n), value in child.items():
        if len(s) <= r:
            s_x = grown.get(s)
            if s_x is None:
                s_x = grown[s] = tuple(sorted(s + (x,)))
            table[(s_x, n)] = value
    return table


def dp_forget(child, x, weights=None):
    """Forget node for x, one case family per child state.

    A state avoiding x is kept; a state with x matched (x in N) drops x;
    otherwise x is matched to each y in S' outside N (the bag is a clique, so xy
    is an edge), adding 1 or weight(xy). Each state keeps its best value; the
    witness walk tries the cases as keep, drop, then match in N order."""
    # the kept states are copied with their stored hashes; only the states
    # holding x are popped, and their cases folded back in by maximum (a
    # folded key never holds x, so it is never one still waiting to be popped)
    table = dict(child)
    shrunk = {}
    for key, value in child.items():
        s, n = key
        if x not in s:
            continue
        del table[key]
        s_minus = shrunk.get(s)
        if s_minus is None:
            i = s.index(x)
            s_minus = shrunk[s] = s[:i] + s[i + 1:]
        if x in n:
            i = n.index(x)
            new = (s_minus, n[:i] + n[i + 1:])
            cur = table.get(new)
            if cur is None or value > cur:
                table[new] = value
            continue
        for y in s_minus:
            if y in n:
                continue
            new = (s_minus, tuple(sorted(n + (y,))))
            gained = value + (1 if weights is None else weights.weight(x, y))
            cur = table.get(new)
            if cur is None or gained > cur:
                table[new] = gained
    return table


def dp_join(left, right):
    """Join node: combine same-S states with disjoint matched sets."""
    by_s = {}
    for (s, rn), rvalue in right.items():
        by_s.setdefault(s, []).append((rn, rvalue))
    table = {}
    for (s, ln), lvalue in left.items():
        rights = by_s.get(s)
        if rights is None:
            continue
        lset = set(ln) if ln else None
        for rn, rvalue in rights:
            # an empty side merges to the other one, with no set and no sort
            if lset is None:
                n = rn
            elif not rn:
                n = ln
            elif lset.isdisjoint(rn):
                n = tuple(sorted(ln + rn))
            else:
                continue
            key = (s, n)
            value = lvalue + rvalue
            cur = table.get(key)
            if cur is None or value > cur:
                table[key] = value
    return table


def run_tables(decomp, r, weights=None):
    """Compute the table at every decomposition node, children first."""
    tables = {}
    for t, nd in enumerate(decomp.nodes):
        if nd.kind == "leaf":
            tables[t] = dp_leaf()
        elif nd.kind == "introduce":
            tables[t] = dp_introduce(tables[nd.children[0]], nd.vertex, r)
        elif nd.kind == "forget":
            tables[t] = dp_forget(tables[nd.children[0]], nd.vertex, weights)
        elif nd.kind == "join":
            tables[t] = dp_join(tables[nd.children[0]], tables[nd.children[1]])
        else:
            raise ValueError("unknown node kind %r" % nd.kind)
    return tables


def _forget_source(child, key, x, value, weights, pairs):
    """The child state a forget of x turns into key at value, trying keep,
    drop, then match with each y in N in N order (a match appends xy to
    pairs); None if there is none."""
    if child.get(key) == value:
        return key
    s, n = key
    s_x = tuple(sorted(s + (x,)))
    ckey = (s_x, tuple(sorted(n + (x,))))
    if child.get(ckey) == value:
        return ckey
    for i, y in enumerate(n):
        ckey = (s_x, n[:i] + n[i + 1:])
        cvalue = child.get(ckey)
        if cvalue is not None and cvalue + (
                1 if weights is None else weights.weight(x, y)) == value:
            pairs.append(_norm_edge(x, y))
            return ckey
    return None


def _join_split(left, right, key, value):
    """The first split (ln, rn) of key's N, in mask order (bit i of the mask
    puts N[i] on the left), whose child values add up to value; None if
    there is none."""
    s, n = key
    for mask in range(1 << len(n)):
        ln = rn = ()
        bit = 1
        for v in n:
            if mask & bit:
                ln += (v,)
            else:
                rn += (v,)
            bit <<= 1
        lvalue = left.get((s, ln))
        if lvalue is not None:
            rvalue = right.get((s, rn))
            if rvalue is not None and lvalue + rvalue == value:
                return ln, rn
    return None


def _reconstruct(decomp, tables, weights=None):
    """Witness for the root state: each node takes the first candidate whose
    child values plus gain equal its value (the same additions as the forward
    pass, so float weights compare exactly), else raises DPInvariantError.
    Each node's candidates are checked in place, with no per-node generator."""
    pairs = []
    stack = [(decomp.root, _EMPTY)]
    nodes = decomp.nodes
    while stack:
        t, key = stack.pop()
        nd = nodes[t]
        value = tables[t][key]
        if nd.kind == "leaf":
            if value == 0:
                continue
        elif nd.kind == "introduce":
            c, x = nd.children[0], nd.vertex
            s, n = key
            ckey = key
            if x in s:
                i = s.index(x)
                ckey = (s[:i] + s[i + 1:], n)
            if tables[c].get(ckey) == value:
                stack.append((c, ckey))
                continue
        elif nd.kind == "forget":
            c = nd.children[0]
            ckey = _forget_source(tables[c], key, nd.vertex, value, weights, pairs)
            if ckey is not None:
                stack.append((c, ckey))
                continue
        else:
            lc, rc = nd.children
            split = _join_split(tables[lc], tables[rc], key, value)
            if split is not None:
                stack.append((lc, (key[0], split[0])))
                stack.append((rc, (key[0], split[1])))
                continue
        raise DPInvariantError("no child state of %s node %r gives %r = %r"
                               % (nd.kind, t, key, value))
    try:
        return Matching(pairs)
    except ValueError as exc:
        raise DPInvariantError("witness is not a matching: %s" % exc) from None


@dataclass(frozen=True)
class DPResult:
    """value and witness of a solve; path is "dp" when the tables ran and
    "matching" when a maximum matching answered, with nodes and max_table 0."""

    value: object
    matching: Matching
    nodes: int
    max_table: int
    path: str


MAX_STATES = 10**6


def _state_bound(bag_size, r):
    """The number of states (S, N) over a bag of bag_size vertices (N inside
    S inside the bag, |S| <= r+1): a bound on every table of a decomposition
    whose largest bag has that size."""
    return sum(math.comb(bag_size, k) << k for k in range(min(r + 1, bag_size) + 1))


def solve(g, r, weights=None, max_states=MAX_STATES):
    """Full pipeline: recognize, then answer, then certify the witness.

    When unweighted and r >= omega - 1 (omega the clique number, read from
    the checked elimination order), every matching is r-degenerate (a
    chordal graph's degeneracy is omega - 1, and so is that of each induced
    subgraph), so a maximum matching is the answer and no decomposition or
    table is built. Otherwise the DP runs: decompose, fill the tables,
    reconstruct a witness.

    Raises NotChordalError on non-chordal input, ValueError for r < 1 or
    for weights built on another graph, LimitsExceededError, before the
    decomposition is built, when the DP would run and a bag of omega
    vertices admits more than max_states states (default MAX_STATES; the
    cap bounds tables, so it applies to the DP only), and DPInvariantError
    when the witness is not an r-degenerate matching of g of the reported
    size (the size is not re-summed when weighted: the walk has already
    checked the forward pass's own additions exactly)."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    if weights is not None and (
            (weights.graph.n, weights.graph.edges) != (g.n, g.edges)):
        raise ValueError("weights are given for another graph")
    peo = mcs_order(g)
    omega = max(map(len, peo.later), default=-1) + 1
    if weights is None and r >= omega - 1:
        matching = max_matching(g)
        res = DPResult(len(matching), matching, 0, 0, "matching")
    else:
        # a nice decomposition's largest bag is a largest clique
        bound = _state_bound(omega, r)
        if bound > max_states:
            raise LimitsExceededError(
                "%d DP states (largest bag %d, r = %d) exceeds limit %d"
                % (bound, omega, r, max_states))
        decomp = build_nice_decomposition(g, peo)
        tables = run_tables(decomp, r, weights)
        res = DPResult(tables[decomp.root][_EMPTY],
                       _reconstruct(decomp, tables, weights), len(decomp.nodes),
                       max(len(t) for t in tables.values()), "dp")
    matching = res.matching
    if not matching.edges <= g.edges:
        raise DPInvariantError("witness edge %s is not an edge of the graph"
                               % (min(matching.edges - g.edges),))
    if weights is None and len(matching) != res.value:
        raise DPInvariantError("witness has %d edges, value is %r"
                               % (len(matching), res.value))
    if not _is_r_degenerate(g, matching.vertices, r):
        raise DPInvariantError(
            "witness induces a subgraph that is not %d-degenerate" % r)
    return res


def nu_r(g, r):
    """Maximum size of an r-degenerate matching of a chordal graph, with
    witness; raises LimitsExceededError when the DP would pass MAX_STATES."""
    res = solve(g, r)
    return res.value, res.matching


def nu_r_weighted(wg, r):
    """Maximum weight of an r-degenerate matching; unit weights reduce to
    nu_r. Raises LimitsExceededError when the DP would pass MAX_STATES."""
    res = solve(wg.graph, r, weights=wg)
    return res.value, res.matching
