"""Bottom-up dynamic program for maximum r-degenerate matchings in chordal graphs.

Tables map a state (S, N) -- N inside S inside the current bag, |S| <= r+1 --
to the best matching size (or weight) achievable below the node; the
recursions are monotone in the value, so keeping only the maximum is exact.
The witness is re-derived from these values by a walk down from the root: a
node takes the first child state (two at a join) whose value its recurrence
turns into its own, a forget trying keep, drop, then match in N order, a join
the splits of N in mask order."""

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


class DPInvariantError(RuntimeError):
    """The value tables admit no witness; signals an implementation bug."""


def dp_leaf():
    return {_EMPTY: 0}


def _insert(table, key, value):
    cur = table.get(key)
    if cur is None or value > cur:
        table[key] = value


def dp_introduce(child, x, r):
    """Introduce node for x: keep child states, and add x to any S' of size <= r."""
    # x is new to the bag, so no two candidates share a key
    table = dict(child)
    for (s, n), value in child.items():
        if len(s) <= r:
            table[(tuple(sorted(s + (x,))), n)] = value
    return table


def dp_forget(child, x, weights=None):
    """Forget node for x, one case family per child state.

    A state avoiding x is kept; a state with x matched (x in N) drops x;
    otherwise x is matched to each y in S' outside N (the bag is a clique, so xy
    is an edge), adding 1 or weight(xy). Each state keeps its best value; the
    witness walk tries the cases as keep, drop, then match in N order."""
    table = {}
    for key, value in child.items():
        s, n = key
        if x not in s:
            _insert(table, key, value)
        elif x in n:
            _insert(table, (tuple(v for v in s if v != x),
                            tuple(v for v in n if v != x)), value)
        else:
            s_minus = tuple(v for v in s if v != x)
            for y in s_minus:
                if y in n:
                    continue
                gain = 1 if weights is None else weights.weight(x, y)
                _insert(table, (s_minus, tuple(sorted(n + (y,)))), value + gain)
    return table


def dp_join(left, right):
    """Join node: combine same-S states with disjoint matched sets."""
    by_s = {}
    for rkey, rvalue in right.items():
        by_s.setdefault(rkey[0], []).append((rkey[1], rvalue))
    table = {}
    for (s, ln), lvalue in left.items():
        lset = set(ln)
        for rn, rvalue in by_s.get(s, ()):
            if lset.isdisjoint(rn):
                _insert(table, (s, tuple(sorted(ln + rn))), lvalue + rvalue)
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


def _candidates(nd, key, weights):
    """(child keys, gain, witness edges) for each way the recurrence of node
    nd can produce state key, in the order the witness walk tries them."""
    s, n = key
    if nd.kind == "leaf":
        yield (), 0, ()
    elif nd.kind == "introduce":
        yield ((tuple(v for v in s if v != nd.vertex), n),), 0, ()
    elif nd.kind == "forget":
        x = nd.vertex
        s_x = tuple(sorted(s + (x,)))
        yield (key,), 0, ()
        yield ((s_x, tuple(sorted(n + (x,)))),), 0, ()
        for y in n:
            gain = 1 if weights is None else weights.weight(x, y)
            yield ((s_x, tuple(v for v in n if v != y)),), gain, (_norm_edge(x, y),)
    else:
        for mask in range(1 << len(n)):
            ln = tuple(v for i, v in enumerate(n) if mask >> i & 1)
            yield ((s, ln), (s, tuple(v for v in n if v not in ln))), 0, ()


def _reconstruct(decomp, tables, weights=None):
    """Witness for the root state: each node takes the first candidate whose
    child values plus gain equal its value (the same additions as the forward
    pass, so float weights compare exactly), else raises DPInvariantError."""
    pairs = []
    stack = [(decomp.root, _EMPTY)]
    while stack:
        t, key = stack.pop()
        nd = decomp.nodes[t]
        for ckeys, gain, edges in _candidates(nd, key, weights):
            values = [tables[c].get(k) for c, k in zip(nd.children, ckeys)]
            if None not in values and sum(values) + gain == tables[t][key]:
                break
        else:
            raise DPInvariantError("no child state of %s node %r gives %r = %r"
                                   % (nd.kind, t, key, tables[t][key]))
        pairs.extend(edges)
        stack.extend(zip(nd.children, ckeys))
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
    value = tables[decomp.root][_EMPTY]
    matching = _reconstruct(decomp, tables, weights)
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
