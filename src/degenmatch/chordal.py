"""Chordality recognition and nice clique-tree decompositions."""

from collections import namedtuple

from .graphs import _min_key_order, _norm_edge


class NotChordalError(Exception):
    """Raised when an input graph contains a chordless cycle of length >= 4."""


class EliminationOrder(namedtuple("EliminationOrder", "order later parent")):
    """A perfect elimination order with its elimination tree, as built and
    checked by elimination_order: order is a tuple, later[v] lists the
    neighbours of v after it in order, parent[v] is the earliest of them
    (None at a component root)."""

    __slots__ = ()


def elimination_order(g, order):
    """The checked EliminationOrder of order. Raises ValueError at the first
    violation of the perfect-elimination property (Rose-Tarjan-Lueker):
    every other later neighbor of v must be adjacent to the parent of v."""
    order = tuple(order)
    if sorted(order) != list(range(g.n)):
        raise ValueError("order is not a permutation of the vertices")
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    later = [[w for w in g.adj[v] if pos[w] > pos[v]] for v in range(g.n)]
    parent = [None] * g.n
    edges = g.edges
    for v in order:
        if not later[v]:
            continue
        u = parent[v] = min(later[v], key=pos.__getitem__)
        for w in later[v]:
            if w != u and _norm_edge(u, w) not in edges:
                raise ValueError("invalid perfect elimination order at vertex %d" % v)
    return EliminationOrder(order, later, parent)


def is_perfect_elimination(g, order):
    """Lex check of the perfect-elimination property (Rose-Tarjan-Lueker)."""
    try:
        elimination_order(g, order)
    except ValueError:
        return False
    return True


def mcs_order(g):
    """Maximum cardinality search, reversed into a checked elimination order.

    Tie-break: most visited neighbours, then smallest vertex id; this is
    graphs._min_key_order with every key starting at 0. Raises
    NotChordalError when the resulting order fails the perfect-elimination
    check."""
    visits = _min_key_order(g.adj, [0] * g.n)
    try:
        return elimination_order(g, [v for _, v in reversed(visits)])
    except ValueError:
        raise NotChordalError("graph is not chordal") from None


def is_chordal(g):
    try:
        mcs_order(g)
        return True
    except NotChordalError:
        return False


class DecompNode(namedtuple("DecompNode", "kind bag children vertex neighbours",
                            defaults=((), None, ()))):
    """A node of a nice decomposition. kind is "leaf", "introduce", "forget",
    "join" or "pendant"; bag and children are tuples. vertex is the vertex
    an introduce or forget node adds or removes, or the vertex a pendant
    node hangs off its child's bag; neighbours, on a pendant node only, is
    that vertex's neighbourhood, a clique inside the bag."""

    __slots__ = ()


class NiceTreeDecomposition:
    """Rooted binary tree of clique bags with empty root and leaf bags.

    Every node's children come before it in nodes, so walking nodes in
    index order visits children first and the root (the empty bag) last.
    A pendant vertex lies in no bag: its pendant node, whose bag equals its
    child's, covers it and every edge at it."""

    def __init__(self, nodes=None, root=0):
        self.nodes = [] if nodes is None else nodes
        self.root = root

    def max_bag_size(self):
        return max((len(nd.bag) for nd in self.nodes), default=0)

    def subtree_vertices(self, t):
        """Union of the bags at t and all its descendants, and of the
        vertices their pendant nodes hang."""
        seen = set()
        stack = [t]
        while stack:
            nd = self.nodes[stack.pop()]
            seen.update(nd.bag)
            if nd.kind == "pendant":
                seen.add(nd.vertex)
            stack.extend(nd.children)
        return frozenset(seen)


def _largest_bag(peo):
    """The size of the largest bag build_nice_decomposition builds from the
    checked elimination order peo, the largest of its parents' bags: omega - 1
    when every largest clique holds an elimination-tree leaf."""
    return max((len(peo.later[p]) for p in peo.parent if p is not None),
               default=-1) + 1


def build_nice_decomposition(g, peo):
    """Nice decomposition from a checked EliminationOrder (mcs_order or
    elimination_order); its tree is read, not rebuilt or re-checked.

    Only a vertex p that is some vertex's parent in the elimination tree
    gets a bag, {p} + later(p), built at the bag of p's parent; every other
    bag is a subset of one of these. The tree is then normalized: left-deep
    join binarization, canonical forget-before-introduce chains, empty root
    and leaves. A leaf c of the elimination tree has no earlier neighbour,
    so N(c) = later(c) is a clique inside its parent's bag: c gets no bag and
    no branch, but one pendant node above the joins at its parent's bag (at
    the empty root when c is isolated). Disconnected graphs get one subtree
    per component joined under the empty root. Nodes are appended children
    first."""
    # the empty root is one more parent, with index g.n
    children = [[] for _ in range(g.n + 1)]
    for v in range(g.n):
        children[g.n if peo.parent[v] is None else peo.parent[v]].append(v)
    nodes = []
    top = [None] * g.n

    def add(kind, bag, kids=(), vertex=None, neighbours=()):
        nodes.append(DecompNode(kind, tuple(bag), tuple(kids), vertex,
                                tuple(neighbours)))
        return len(nodes) - 1

    def chain(below, to_bag):
        """Forget/introduce chain from node below's bag up to to_bag:
        forgets before introduces, each in ascending vertex id."""
        from_bag = nodes[below].bag
        bag = set(from_bag)
        for v in sorted(bag.difference(to_bag)):
            bag.remove(v)
            below = add("forget", sorted(bag), (below,), v)
        for v in sorted(set(to_bag).difference(from_bag)):
            bag.add(v)
            below = add("introduce", sorted(bag), (below,), v)
        return below

    def attach(kids, bag):
        """Chains from the tops of the kids that have kids (ascending) up to
        bag, joined left-deep (a leaf and a chain when there are none), then
        one pendant node per kid that has none."""
        subtrees = [chain(top[c], bag) for c in kids if children[c]]
        cur = subtrees[0] if subtrees else chain(add("leaf", ()), bag)
        for s in subtrees[1:]:
            cur = add("join", bag, (cur, s))
        for c in kids:
            if not children[c]:
                cur = add("pendant", bag, (cur,), c, peo.later[c])
        return cur

    # a vertex comes before its parent in the order, so each top is built
    # before the chain that reads it; the bag is a tuple, so the join and
    # pendant nodes at it share one object
    for v in peo.order:
        if children[v]:
            top[v] = attach(children[v], tuple(sorted([v] + peo.later[v])))
    return NiceTreeDecomposition(nodes, attach(children[g.n], ()))


def validate_decomposition(g, d):
    """Check every nice-decomposition invariant; returns (ok, report).

    report names the first violated axiom, None when everything holds."""
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

    bound = 6 * max(g.n, 1) * max(d.max_bag_size(), 1) + 3
    if n_nodes > bound:
        return False, "size-bound: %d nodes > %d" % (n_nodes, bound)
    return True, None
