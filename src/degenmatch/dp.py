"""Bottom-up dynamic program for maximum r-degenerate matchings in chordal graphs.

Tables map a state (S, N) -- N inside S inside the current bag, |S| <= r+1 --
to the best matching size (or weight) achievable below the node, together with
a backpointer for witness reconstruction. Only the maximum value per state is
kept; the recursions are monotone in the value, so pruning is exact."""

import math
from dataclasses import dataclass

from .chordal import build_nice_decomposition, mcs_order
from .graphs import Matching, _norm_edge


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


def dp_leaf():
    return {_EMPTY: (0, ("leaf",))}


def _insert(table, key, value, bp):
    # strictly greater replaces; ties keep the first insertion, so callers
    # control tie-breaking by insertion order
    cur = table.get(key)
    if cur is None or value > cur[0]:
        table[key] = (value, bp)


def dp_introduce(child, x, r):
    """Introduce node for x: keep child states, and add x to any S' of size <= r."""
    # x is new to the bag, so no two candidates share a key
    table = {}
    for key, (value, _) in child.items():
        table[key] = (value, ("intro-keep", key))
        s, n = key
        if len(s) <= r:
            table[(tuple(sorted(s + (x,))), n)] = (value, ("intro-add", key))
    return table


def dp_forget(child, x, weights=None):
    """Forget node for x, one case family per child state.

    A state avoiding x is kept; a state with x matched (x in N) drops x;
    otherwise x is matched to each y in S' outside N (the bag is a clique, so xy
    is an edge), adding 1 or weight(xy). Ties keep the candidate met first in
    child-table order, which the decomposition fixes."""
    table = {}
    for key, (value, _) in child.items():
        s, n = key
        if x not in s:
            _insert(table, key, value, ("forget-keep", key))
        elif x in n:
            new_key = (tuple(v for v in s if v != x), tuple(v for v in n if v != x))
            _insert(table, new_key, value, ("forget-drop", key))
        else:
            s_minus = tuple(v for v in s if v != x)
            for y in s_minus:
                if y in n:
                    continue
                gain = 1 if weights is None else weights.weight(x, y)
                new_key = (s_minus, tuple(sorted(n + (y,))))
                _insert(table, new_key, value + gain,
                        ("forget-match", key, _norm_edge(x, y)))
    return table


def dp_join(left, right):
    """Join node: combine same-S states with disjoint matched sets."""
    by_s = {}
    for rkey, (rvalue, _) in right.items():
        by_s.setdefault(rkey[0], []).append((rkey, rvalue))
    table = {}
    for lkey, (lvalue, _) in left.items():
        s, ln = lkey
        lset = set(ln)
        for rkey, rvalue in by_s.get(s, ()):
            if lset.isdisjoint(rkey[1]):
                new_key = (s, tuple(sorted(ln + rkey[1])))
                _insert(table, new_key, lvalue + rvalue, ("join", lkey, rkey))
    return table


def run_tables(decomp, r, weights=None):
    """Compute the table at every decomposition node, bottom-up."""
    tables = {}
    for t in decomp.post_order():
        nd = decomp.nodes[t]
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


def _reconstruct(decomp, tables, root):
    pairs = []
    stack = [(root, _EMPTY)]
    while stack:
        t, key = stack.pop()
        _, bp = tables[t][key]
        nd = decomp.nodes[t]
        tag = bp[0]
        if tag == "leaf":
            continue
        if tag == "forget-match":
            pairs.append(bp[2])
            stack.append((nd.children[0], bp[1]))
        elif tag == "join":
            stack.append((nd.children[0], bp[1]))
            stack.append((nd.children[1], bp[2]))
        else:
            stack.append((nd.children[0], bp[1]))
    return Matching(pairs)


@dataclass(frozen=True)
class DPResult:
    value: object
    matching: Matching
    nodes: int
    max_table: int


def solve(g, r, weights=None):
    """Full pipeline: recognize, decompose, run the DP, reconstruct a witness.

    Raises NotChordalError on non-chordal input and ValueError for r < 1."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    peo = mcs_order(g)
    decomp = build_nice_decomposition(g, peo)
    tables = run_tables(decomp, r, weights)
    root_table = tables[decomp.root]
    value = root_table[_EMPTY][0]
    matching = _reconstruct(decomp, tables, decomp.root)
    return DPResult(value, matching, len(decomp.nodes),
                    max(len(t) for t in tables.values()))


def nu_r(g, r):
    """Maximum size of an r-degenerate matching of a chordal graph, with witness."""
    res = solve(g, r)
    return res.value, res.matching


def nu_r_weighted(wg, r):
    """Maximum weight of an r-degenerate matching; unit weights reduce to nu_r."""
    res = solve(wg.graph, r, weights=wg)
    return res.value, res.matching
