"""Shared corpus helpers for the test suite, and the references that only
the tests use: the pair-by-pair graph constructor, the classical chromatic
index and the decomposition validator."""

from itertools import combinations

from degenmatch import Graph, Matching, dp, oracles
from degenmatch.chordal import build_nice_decomposition, mcs_order
from degenmatch.dp import dp_introduce, dp_pendant
from degenmatch.generate import (
    Rng,
    cycle,
    interval,
    k_tree,
    random_bounded_degree,
    random_chordal,
)
from degenmatch.graphs import _norm_edge


def reference_graph(n, edges):
    """Graph(n, edges) checked pair by pair, as the constructor once was: the
    same ValueError for the first pair, in the order given, out of range, a
    self-loop or a repeat, else the graph whose adjacency is sorted from a
    set of edge tuples. It shares no code with graphs._adjacency, the path
    of the constructor, the text readers and the generators."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("vertex out of range in edge (%s, %s)" % (u, v))
        if u == v:
            raise ValueError("self-loop at vertex %s" % u)
        e = _norm_edge(u, v)
        if e in seen:
            raise ValueError("duplicate edge (%s, %s)" % (u, v))
        seen.add(e)
    adj = [[] for _ in range(n)]
    for u, v in seen:
        adj[u].append(v)
        adj[v].append(u)
    return Graph._from_adjacency([tuple(sorted(a)) for a in adj])


def gnp(n, p, seed):
    """Erdos-Renyi-style graph from the package RNG (degree cap disabled)."""
    return random_bounded_degree(n, p, max_degree=max(n, 1), seed=seed)


def _reference_sub_degeneracy(g, vs):
    """Degeneracy of G[vs] by a set-based min-degree peel, without remapping
    ids: the reference for the oracles' mask peel and for DP witnesses."""
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


def brute_chromatic_index(g, limits=None):
    """Classical chromatic index chi' by the oracles' backtracking without
    degeneracy constraints: the all-feasible search that chi'_r at r = Delta
    must equal (acceptance criterion 8)."""
    return oracles._bnb_chromatic(oracles._Search(g, limits), lambda vs: True)


def validate_decomposition(g, d):
    """Check every nice-decomposition invariant; returns (ok, report).

    report names the first violated axiom, None when everything holds. The
    reference for build_nice_decomposition (acceptance criterion 9), coded
    apart from it."""
    n_nodes = len(d.nodes)
    if not 0 <= d.root < n_nodes:
        return False, "tree-structure: root out of range"
    parent = [None] * n_nodes
    seen = [False] * n_nodes
    stack = [d.root]
    seen[d.root] = True
    while stack:
        t = stack.pop()
        for c in d.nodes[t].children:
            if not 0 <= c < n_nodes or seen[c]:
                return False, "tree-structure: not a tree"
            if c >= t:
                return False, "tree-structure: child after parent at node %d" % t
            seen[c] = True
            parent[c] = t
            stack.append(c)
    if not all(seen):
        return False, "tree-structure: unreachable nodes"

    hung = [False] * g.n
    for t, nd in enumerate(d.nodes):
        if len(nd.children) > 2:
            return False, "binary: node %d has %d children" % (t, len(nd.children))
        bag = set(nd.bag)
        if len(bag) != len(nd.bag):
            return False, "bag: duplicate vertices at node %d" % t
        if any(not 0 <= v < g.n for v in bag):
            return False, "bag: unknown vertex at node %d" % t
        if nd.kind == "leaf":
            if nd.children or nd.bag:
                return False, "leaf-shape: node %d" % t
        elif nd.kind == "join":
            if len(nd.children) != 2:
                return False, "join-shape: node %d" % t
            for c in nd.children:
                if set(d.nodes[c].bag) != bag:
                    return False, "join-shape: bag mismatch at node %d" % t
        elif nd.kind == "introduce":
            if len(nd.children) != 1:
                return False, "introduce-shape: node %d" % t
            child = set(d.nodes[nd.children[0]].bag)
            if nd.vertex is None or bag != child | {nd.vertex} or nd.vertex in child:
                return False, "introduce-shape: node %d" % t
        elif nd.kind == "forget":
            if len(nd.children) != 1:
                return False, "forget-shape: node %d" % t
            child = set(d.nodes[nd.children[0]].bag)
            if nd.vertex is None or child != bag | {nd.vertex} or nd.vertex in bag:
                return False, "forget-shape: node %d" % t
        elif nd.kind == "pendant":
            c = nd.vertex
            if (len(nd.children) != 1 or set(d.nodes[nd.children[0]].bag) != bag
                    or c is None or not 0 <= c < g.n or c in bag):
                return False, "pendant-shape: node %d" % t
            if (sorted(nd.neighbours) != list(g.adj[c])
                    or not bag.issuperset(nd.neighbours)):
                return False, "pendant-neighbours: node %d" % t
            if hung[c]:
                return False, "pendant-twice: vertex %d" % c
            hung[c] = True
        else:
            return False, "kind: unknown kind %r at node %d" % (nd.kind, t)

    if d.nodes[d.root].bag:
        return False, "root-empty"

    covered = {v for v in range(g.n) if hung[v]}
    for nd in d.nodes:
        covered.update(nd.bag)
    if covered != set(range(g.n)):
        return False, "vertex-coverage"

    # one walk over the nodes: the bag pairs that are edges of g, the first
    # bag that is not a clique, and per vertex the holders whose parent lacks
    # it (a connected subtree has exactly one such top; the shapes make its
    # parent a forget of that vertex, so each vertex is forgotten once). A
    # pendant node covers the edges at its vertex, which is in no bag.
    adj = [set(g.adj[v]) for v in range(g.n)]
    bag_edges = set()
    not_clique = None
    tops = [0] * g.n
    for t, nd in enumerate(d.nodes):
        bag = nd.bag
        if nd.kind == "pendant":
            bag_edges.update(_norm_edge(nd.vertex, y) for y in nd.neighbours)
        for i in range(len(bag)):
            for j in range(i + 1, len(bag)):
                if bag[j] in adj[bag[i]]:
                    bag_edges.add(_norm_edge(bag[i], bag[j]))
                elif not_clique is None:
                    not_clique = t
        above = d.nodes[parent[t]].bag if parent[t] is not None else ()
        for v in bag:
            if v not in above:
                tops[v] += 1

    for u, v in g.edges:
        if (u, v) not in bag_edges:
            return False, "edge-coverage: edge (%d, %d) in no bag" % (u, v)
    for v in range(g.n):
        if hung[v] and tops[v]:
            return False, "pendant-in-bag: vertex %d" % v
        if not hung[v] and tops[v] != 1:
            return False, "connectivity: vertex %d" % v
    if not_clique is not None:
        return False, "clique-bag: node %d" % not_clique

    largest = max(len(nd.bag) for nd in d.nodes)
    bound = 6 * max(g.n, 1) * max(largest, 1) + 3
    if n_nodes > bound:
        return False, "size-bound: %d nodes > %d" % (n_nodes, bound)
    return True, None


def dp_value(g, r):
    """The DP's root value for nu_r, whichever path solve takes: solve answers
    r >= omega - 1 with a maximum matching, and the DP is its reference."""
    decomp = build_nice_decomposition(g, mcs_order(g))
    return dp.run_tables(decomp, r)[0][dp._EMPTY][0]


def node_table(nd, kids, r, weights=None):
    """The table of decomposition node nd, built from its children's tables."""
    if nd.kind == "leaf":
        return dp.dp_leaf()
    if nd.kind == "introduce":
        return dp.dp_introduce(kids[0], nd.vertex, r)
    if nd.kind == "forget":
        return dp.dp_forget(kids[0], nd.vertex, weights)
    if nd.kind == "pendant":
        return dp.dp_pendant(kids[0], nd.vertex, nd.neighbours, r, weights)
    return dp.dp_join(*kids)


def all_tables(decomp, r, weights=None):
    """Every node's table, children first. run_tables keeps only the tables
    whose parents are still to come; the tests that read inner tables keep
    them all here."""
    tables = {}
    for t, nd in enumerate(decomp.nodes):
        tables[t] = node_table(nd, [tables[c] for c in nd.children], r, weights)
    return tables


def random_matching(g, rng):
    """Greedy random matching: shuffle edges, take what fits."""
    edges = g.sorted_edges()
    rng.shuffle(edges)
    used = set()
    chosen = []
    for u, v in edges:
        if u not in used and v not in used:
            chosen.append((u, v))
            used.update((u, v))
    k = rng.randbelow(len(chosen) + 1)
    return Matching(chosen[:k])


def all_matchings(g):
    """Every matching of g, the empty one included."""
    edges = g.sorted_edges()
    out = []

    def rec(i, used, chosen):
        out.append(list(chosen))
        for j in range(i, len(edges)):
            u, v = edges[j]
            if u in used or v in used:
                continue
            chosen.append((u, v))
            rec(j + 1, used | {u, v}, chosen)
            chosen.pop()

    rec(0, set(), [])
    return out


def is_induced_cycle(g, vs):
    vs = list(vs)
    inside = set(vs)
    degs = [sum(1 for w in g.adj[v] if w in inside) for v in vs]
    if any(d != 2 for d in degs):
        return False
    # connected 2-regular subgraph on >= 3 vertices is a cycle
    seen = {vs[0]}
    stack = [vs[0]]
    while stack:
        x = stack.pop()
        for w in g.adj[x]:
            if w in inside and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vs)


def has_chordless_cycle(g):
    """Brute search for an induced cycle of length >= 4."""
    for size in range(4, g.n + 1):
        for vs in combinations(range(g.n), size):
            if is_induced_cycle(g, vs):
                return True
    return False


def order_corpus():
    """Graphs for the order-equality tests of MCS and the degeneracy peel:
    chordal, interval and k-tree graphs over seeds 0..59, bounded-degree
    graphs, a disconnected graph, an edgeless graph and a chordless cycle."""
    graphs = []
    for seed in range(60):
        graphs.append(random_chordal(5 + seed % 40, seed))
        graphs.append(interval(5 + seed % 30, seed))
        graphs.append(k_tree(1 + seed % 4, 5 + 2 * seed, seed))
        graphs.append(random_bounded_degree(10 + seed, 0.3, 2 + seed % 5, seed))
    graphs.append(Graph(9, [(0, 1), (1, 2), (0, 2), (4, 5), (6, 7), (7, 8)]))
    graphs.append(Graph(6))
    graphs.append(cycle(6))
    return graphs



# Wrong DP recurrences that still fill consistent tables and carry a witness
# with each value, so only a check of the witness itself can catch them. Each
# graph holds a triangle, so at r = 1 < omega - 1 solve runs the DP, and each
# is chosen so that its row's wrong kernel decides the answer (a leaf of the
# elimination tree hangs as a pendant node, and never reaches the introduce,
# forget or join kernels).
# the triangle 0 1 2 with the tail 0-3: 3 and 2 hang off the bags (0,) and
# (0, 1)
PAW = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
# the triangle 0 1 2 with the tail 2-3: only 3 hangs, off the bag (0, 1, 2)
PAW_TAIL_AT_2 = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
# the triangle 0 2 3 with the tail 3-1-4: 4 hangs, and forgets match the rest
TRIANGLE_TAIL_2 = Graph(5, [(0, 2), (0, 3), (2, 3), (1, 3), (1, 4)])
# the triangle 0 2 3 with the tail 0-4-1-5: the triangle's branch and the
# tail's branch meet at a join over the bag (0,)
TRIANGLE_TAIL_3 = Graph(6, [(0, 2), (0, 3), (2, 3), (0, 4), (1, 4), (1, 5)])


def flat_table(states):
    """The dp.Table of states, a flat dict from (S, N) to (value, witness),
    grouped by S in the dict's order: every table the tests build by hand."""
    groups = {}
    for (s, n), value in states.items():
        groups.setdefault(s, {})[n] = value
    return dp.Table(groups, len(states))


def introduce_one_too_many(child, x, r):
    """dp_introduce that grows S up to r + 2 vertices instead of r + 1."""
    return dp_introduce(child, x, r + 1)


def join_overlapping(left, right):
    """dp_join that lets both sides match the same bag vertex."""
    table = {}
    for (s, ln), (lvalue, lwitness) in left.items():
        for (rs, rn), (rvalue, rwitness) in right.items():
            key = (s, tuple(sorted(set(ln) | set(rn))))
            cur = table.get(key)
            if rs == s and (cur is None or lvalue + rvalue > cur[0]):
                table[key] = (lvalue + rvalue, (lwitness, rwitness))
    return flat_table(table)


def join_left_twice(left, right):
    """dp_join whose witness holds the left side's witness twice instead of
    the two sides' witnesses."""
    table = {}
    for (s, ln), (lvalue, lwitness) in left.items():
        for (rs, rn), (rvalue, rwitness) in right.items():
            if rs != s or not set(ln).isdisjoint(rn):
                continue
            key = (s, tuple(sorted(ln + rn)))
            cur = table.get(key)
            if cur is None or lvalue + rvalue > cur[0]:
                table[key] = (lvalue + rvalue, rwitness if lwitness is None
                              else lwitness if rwitness is None
                              else (lwitness, lwitness))
    return flat_table(table)


def forget_unrecorded_match(child, x, weights=None):
    """dp_forget whose match case adds the gain but keeps the child's witness."""
    table = {}
    for (s, n), (value, witness) in child.items():
        s_minus = tuple(v for v in s if v != x)
        if x not in s or x in n:
            cases = [((s_minus, tuple(v for v in n if v != x)), value)]
        else:
            cases = [((s_minus, tuple(sorted(n + (y,)))),
                      value + (1 if weights is None else weights[_norm_edge(x, y)]))
                     for y in s_minus if y not in n]
        for key, gained in cases:
            cur = table.get(key)
            if cur is None or gained > cur[0]:
                table[key] = (gained, witness)
    return flat_table(table)


def pendant_one_too_many(child, x, neighbours, r, weights=None):
    """dp_pendant that matches x while up to r + 1 of its neighbours are in S."""
    return dp_pendant(child, x, neighbours, r + 1, weights)


# name -> (graph, dp attributes to replace, DPInvariantError message); each
# run at r = 1
WRONG_RECURRENCES = {
    # witness {01, 23}, which spans the triangle held in the bag (0, 1, 2)
    "introduce": (PAW_TAIL_AT_2, {"dp_introduce": introduce_one_too_many},
                  "not 1-degenerate"),
    # witness {03, 04, 15}: both sides of the join match the bag's vertex 0
    "join": (TRIANGLE_TAIL_3, {"dp_join": join_overlapping}, "not a matching"),
    # value 2 with the witness {23, 23}: the join repeats the triangle
    # branch's match 23 in place of the tail's 15
    "join-witness": (TRIANGLE_TAIL_3, {"dp_join": join_left_twice},
                     "not a matching"),
    # the value counts the forget's match of the triangle, which the witness
    # {14} does not hold
    "forget": (TRIANGLE_TAIL_2, {"dp_forget": forget_unrecorded_match},
               "witness adds up to 1, value is 2"),
    # witness {12, 03}: 2 hangs matched to 1 beside its other neighbour 0,
    # and the two edges span the paw's triangle
    "pendant": (PAW, {"dp_pendant": pendant_one_too_many}, "not 1-degenerate"),
}
