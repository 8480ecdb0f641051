"""Bottom-up dynamic program for maximum r-degenerate matchings in chordal graphs.

Tables map a state (S, N) -- N inside S inside the current bag, |S| <= r+1 --
to (value, witness): the best matching size (or weight) achievable in G_t,
the subgraph on the vertices of the bags below the node and of the vertices
its pendant nodes hang, and a matching that reaches it, from the first
candidate to reach it (the recursions are monotone in the value, so keeping
the maximum is exact). Each handler copies the states it keeps with
`dict(child)`, which carries their stored hashes, and rehashes only the
states that change: the ones an introduce or a pendant node adds, and at a
forget the ones holding the forgotten vertex.

A pendant node hangs a vertex c with no earlier neighbour, which lies in no
bag, off its parent's bag, which holds N(c). c's neighbours in V(M) u S are
then exactly S cap N(c), so c may be matched, to a y there outside N, exactly
when that set has at most r vertices: r + 1 would close a clique of r + 2.
Forget and pendant nodes share one match step, `_match`.

A witness is a linked structure shared between states: None, (x, y, rest)
where a forget or a pendant node matches x to y, or (left, right) at a join
of two that are not None. Introduce, keep and drop reuse the child's
(value, witness), and no table is read once its parent is built. `solve`
re-adds the witness as the forward pass did and requires the value exactly,
then certifies it with the class check of `verify_coloring`: a matching of g
whose vertices induce an r-degenerate subgraph.

The tables run only when they can matter: unweighted with r >= omega - 1,
every matching of a chordal graph is r-degenerate, and `solve` returns
`graphs.max_matching` under the same certificate instead."""

import math
from collections import namedtuple

from .chordal import _largest_bag, build_nice_decomposition, mcs_order
from .coloring import _is_r_degenerate
from .graphs import LimitsExceededError, Matching, _norm_edge, max_matching


_EMPTY = ((), ())


class DPInvariantError(RuntimeError):
    """The witness is not an r-degenerate matching of g whose weights add up
    to the reported value; signals an implementation bug."""


def dp_leaf():
    return {_EMPTY: (0, None)}


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


def _match(table, s, n, x, ys, value, weights):
    """The match step of forget and pendant nodes: for each y in ys outside
    n, the state (s, n + y) with x matched to y, at value's size plus 1 or
    the weight of xy and with the witness node (x, y, rest). A state keeps
    the first candidate that reaches its best value."""
    v, witness = value
    for y in ys:
        if y in n:
            continue
        new = (s, tuple(sorted(n + (y,))))
        gained = v + (1 if weights is None else weights[_norm_edge(x, y)])
        cur = table.get(new)
        if cur is None or gained > cur[0]:
            table[new] = (gained, (x, y, witness))


def dp_forget(child, x, weights=None):
    """Forget node for x, one case family per child state.

    A state avoiding x is kept; a state with x matched (x in N) drops x;
    otherwise x is matched to each y in S' outside N (the bag is a clique, so xy
    is an edge), adding 1 or the weight of xy and the witness node (x, y, rest).
    Each state keeps the first case, in that order, that reaches its best
    value."""
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
            if cur is None or value[0] > cur[0]:
                table[new] = value
            continue
        _match(table, s_minus, n, x, s_minus, value, weights)
    return table


def dp_pendant(child, x, neighbours, r, weights=None):
    """Pendant node for x, a vertex in no bag whose neighbours lie in the bag.

    Every child state is kept (x unmatched). A state (S, N) with at most r
    vertices in S cap N(x) also offers, for each y there outside N, the state
    (S, N + y), with x matched to y: 1 or the weight of xy more and the
    witness node (x, y, rest). x's neighbours in V(M) u S are then S cap N(x),
    so G[V(M) u S] stays r-degenerate exactly when there are at most r of them
    (r + 1 would close a clique of r + 2 with x). Each state keeps the first
    candidate, in that order, that reaches its best value."""
    table = dict(child)
    near = set(neighbours)
    offers = {}
    for (s, n), value in child.items():
        ys = offers.get(s)
        if ys is None:
            ys = [y for y in s if y in near]
            ys = offers[s] = ys if len(ys) <= r else ()
        if ys:
            _match(table, s, n, x, ys, value, weights)
    return table


def dp_join(left, right):
    """Join node: combine same-S states with disjoint matched sets; the
    witness is (left, right), or the one side that is not None."""
    by_s = {}
    for (s, rn), rvalue in right.items():
        by_s.setdefault(s, []).append((rn, rvalue))
    table = {}
    for (s, ln), (lvalue, lwitness) in left.items():
        rights = by_s.get(s)
        if rights is None:
            continue
        lset = set(ln) if ln else None
        for rn, (rvalue, rwitness) in rights:
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
            if cur is None or value > cur[0]:
                table[key] = (value, rwitness if lwitness is None else lwitness
                              if rwitness is None else (lwitness, rwitness))
    return table


def run_tables(decomp, r, weights=None):
    """The root table and the size of the largest table. Nodes run children
    first, and each child table is dropped once its parent is built, so only
    the tables whose parents are still to come are held."""
    tables = {}
    largest = 0
    for t, nd in enumerate(decomp.nodes):
        if nd.kind == "leaf":
            table = dp_leaf()
        elif nd.kind == "introduce":
            table = dp_introduce(tables.pop(nd.children[0]), nd.vertex, r)
        elif nd.kind == "forget":
            table = dp_forget(tables.pop(nd.children[0]), nd.vertex, weights)
        elif nd.kind == "join":
            table = dp_join(tables.pop(nd.children[0]), tables.pop(nd.children[1]))
        elif nd.kind == "pendant":
            table = dp_pendant(tables.pop(nd.children[0]), nd.vertex,
                               nd.neighbours, r, weights)
        else:
            raise ValueError("unknown node kind %r" % nd.kind)
        tables[t] = table
        largest = max(largest, len(table))
    return tables[decomp.root], largest


def _witness_edges(witness, weights=None):
    """The edges of a witness and its total, re-added as the forward pass
    added them: a match node adds 1 or the weight of xy to the total of its rest,
    a join adds its two sides. Iterative, since the nesting grows with n."""
    nodes, stack = [], [witness]
    while stack:
        node = stack.pop()
        if node is not None:
            nodes.append(node)
            stack += node[2:] if len(node) == 3 else node
    total = {id(None): 0}
    for node in reversed(nodes):  # each node after the nodes it holds
        if len(node) == 2:
            total[id(node)] = total[id(node[0])] + total[id(node[1])]
        else:  # a pair that is no edge has no weight, and nan fails the check
            total[id(node)] = total[id(node[2])] + (1 if weights is None else
                weights.get(_norm_edge(node[0], node[1]), math.nan))
    return [node[:2] for node in nodes if len(node) == 3], total[id(witness)]


class DPResult(namedtuple("DPResult", "value matching nodes max_table path")):
    """value and witness of a solve; path is "dp" when the tables ran, with
    nodes the decomposition's size (one pendant node for each vertex with no
    earlier neighbour, which has no branch of its own) and max_table its
    largest table, and "matching" when a maximum matching answered, with
    nodes and max_table 0."""

    __slots__ = ()


MAX_STATES = 10**6


def _state_bound(bag_size, r):
    """The number of states (S, N) over a bag of bag_size vertices (N inside
    S inside the bag, |S| <= r+1): a bound on every table of a decomposition
    whose largest bag has that size."""
    return sum(math.comb(bag_size, k) << k for k in range(min(r + 1, bag_size) + 1))


def solve(g, r, weights=None, max_states=MAX_STATES):
    """nu_r of a chordal graph g with a witness, or with weights (a dict from
    each edge (u, v), u < v, of g to a finite int or float) the maximum
    weight: check the input, recognize, answer, then certify the witness.

    When unweighted and r >= omega - 1 (omega the clique number, read from
    the checked elimination order), every matching is r-degenerate (a
    chordal graph's degeneracy is omega - 1, and so is that of each induced
    subgraph), so a maximum matching is the answer and no decomposition or
    table is built. Otherwise the DP runs: decompose, fill the tables, and
    read the witness carried with the root value.

    Raises ValueError, before anything else, for a weight missing, given
    for a non-edge or not a finite number, then for an r or a max_states
    that is not an int of at least 1,
    NotChordalError on non-chordal input, LimitsExceededError,
    before the decomposition is built, when the DP would run and its largest
    bag (omega or omega - 1 vertices, read from the elimination tree) admits
    more than max_states states (default MAX_STATES; the cap bounds tables,
    so it applies to the DP only), and
    DPInvariantError when the witness is not an r-degenerate matching of g
    whose total, re-added as the forward pass added it, is the value."""
    if weights is not None:
        # the caller's dict may change between calls, so each call checks it
        missing = [e for e in g.sorted_edges() if e not in weights]
        if missing:
            raise ValueError("missing weight for edges %s" % missing)
        if len(weights) > g.m:
            try:
                extra = sorted(set(weights) - g.edges)
            except TypeError:  # keys of mixed types have no order
                extra = sorted(set(weights) - g.edges, key=repr)
            raise ValueError("weight given for non-edges %s" % extra)
        # abs(w) < inf rejects NaN and infinities; math.isfinite overflows on big ints
        bad = [e for e, w in weights.items() if isinstance(w, bool)
               or not isinstance(w, (int, float)) or not abs(w) < math.inf]
        if bad:
            raise ValueError("weight %r of edge %s is not a finite number"
                             % (weights[min(bad)], min(bad)))
    if type(r) is not int or r < 1:
        raise ValueError("r must be a positive integer")
    if type(max_states) is not int or max_states < 1:
        raise ValueError("max_states must be a positive integer")
    peo = mcs_order(g)
    omega = max(map(len, peo.later), default=-1) + 1
    if weights is None and r >= omega - 1:
        # only omega is read from the order here: it is freed before the
        # matching and its certificate run (115 MB less at path(10^6))
        del peo
        matching = max_matching(g)
        res = DPResult(len(matching), matching, 0, 0, "matching")
    else:
        # every bag is a clique, so no table outgrows the largest bag's states
        bag = _largest_bag(peo)
        bound = _state_bound(bag, r)
        if bound > max_states:
            raise LimitsExceededError(
                "%d DP states (largest bag %d, r = %d) exceeds limit %d"
                % (bound, bag, r, max_states))
        decomp = build_nice_decomposition(g, peo)
        root, largest = run_tables(decomp, r, weights)
        value, witness = root[_EMPTY]
        edges, total = _witness_edges(witness, weights)
        try:
            matching = Matching(edges)
        except ValueError as exc:
            raise DPInvariantError("witness is not a matching: %s" % exc) from None
        if total != value:
            raise DPInvariantError("witness adds up to %r, value is %r"
                                   % (total, value))
        res = DPResult(value, matching, len(decomp.nodes), largest, "dp")
    matching = res.matching
    stray = [e for e in matching.edges if not g.has_edge(*e)]
    if stray:
        raise DPInvariantError("witness edge %s is not an edge of the graph"
                               % (min(stray),))
    if not _is_r_degenerate(g, matching.vertices, r):
        raise DPInvariantError(
            "witness induces a subgraph that is not %d-degenerate" % r)
    return res
