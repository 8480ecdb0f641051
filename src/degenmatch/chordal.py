"""Chordality recognition and nice clique-tree decompositions."""

import heapq
from dataclasses import dataclass, field

from .graphs import _norm_edge


class NotChordalError(Exception):
    """Raised when an input graph contains a chordless cycle of length >= 4."""


@dataclass(frozen=True)
class EliminationOrder:
    """A perfect elimination order with its elimination tree, as built and
    checked by elimination_order: later[v] lists the neighbours of v after
    it in order, parent[v] is the earliest of them (None at a component
    root)."""

    order: tuple
    later: list
    parent: list


def elimination_order(g, order):
    """The checked EliminationOrder of order. Raises ValueError at the first
    violation of the perfect-elimination property (Rose-Tarjan-Lueker):
    every other later neighbor of v must be adjacent to the parent of v."""
    order = tuple(order)
    if sorted(order) != list(range(g.n)):
        raise ValueError("order is not a permutation of the vertices")
    pos = {v: i for i, v in enumerate(order)}
    adj = [set(g.adj[v]) for v in range(g.n)]
    later = [[w for w in g.adj[v] if pos[w] > pos[v]] for v in range(g.n)]
    parent = [None] * g.n
    for v in order:
        if not later[v]:
            continue
        u = parent[v] = min(later[v], key=lambda w: pos[w])
        for w in later[v]:
            if w != u and w not in adj[u]:
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

    Tie-break: highest weight, then smallest vertex id. A lazy-deletion heap
    keyed (-weight, v) finds each next vertex; an entry whose vertex is
    visited or whose weight is stale is skipped, so the search runs in
    O((n+m) log n). Raises NotChordalError when the resulting order fails
    the perfect-elimination check."""
    weight = [0] * g.n
    visited = [False] * g.n
    heap = [(0, v) for v in range(g.n)]  # sorted, hence already a heap
    visit = []
    while heap:
        neg, v = heapq.heappop(heap)
        if visited[v] or -neg != weight[v]:
            continue
        visited[v] = True
        visit.append(v)
        for w in g.adj[v]:
            if not visited[w]:
                weight[w] += 1
                heapq.heappush(heap, (-weight[w], w))
    try:
        return elimination_order(g, reversed(visit))
    except ValueError:
        raise NotChordalError("graph is not chordal") from None


def is_chordal(g):
    try:
        mcs_order(g)
        return True
    except NotChordalError:
        return False


@dataclass
class DecompNode:
    kind: str  # "leaf" | "introduce" | "forget" | "join"
    bag: tuple
    children: tuple = ()
    vertex: int = None


@dataclass
class NiceTreeDecomposition:
    """Rooted binary tree of clique bags with empty root and leaf bags.

    Every node's children come before it in nodes, so walking nodes in
    index order visits children first and the root (the empty bag) last."""

    nodes: list = field(default_factory=list)
    root: int = 0

    def max_bag_size(self):
        return max((len(nd.bag) for nd in self.nodes), default=0)

    def subtree_vertices(self, t):
        """Union of the bags at t and all its descendants."""
        seen = set()
        stack = [t]
        while stack:
            s = stack.pop()
            seen.update(self.nodes[s].bag)
            stack.extend(self.nodes[s].children)
        return frozenset(seen)


class _Builder:
    def __init__(self):
        self.nodes = []

    def add(self, kind, bag, children=(), vertex=None):
        self.nodes.append(DecompNode(kind, tuple(bag), tuple(children), vertex))
        return len(self.nodes) - 1

    def chain(self, below, from_bag, to_bag):
        """Forget/introduce chain turning from_bag into to_bag, bottom-up.

        Forgets come before introduces, each in ascending vertex id."""
        cur = below
        bag = set(from_bag)
        for v in sorted(set(from_bag) - set(to_bag)):
            bag.remove(v)
            cur = self.add("forget", sorted(bag), (cur,), v)
        for v in sorted(set(to_bag) - set(from_bag)):
            bag.add(v)
            cur = self.add("introduce", sorted(bag), (cur,), v)
        return cur


def build_nice_decomposition(g, peo):
    """Nice decomposition from a checked EliminationOrder (mcs_order or
    elimination_order); its tree is read, not rebuilt or re-checked.

    Per-vertex bags {v} + later-neighbors parented at the bag of v's earliest
    later neighbor, then normalized: left-deep join binarization, canonical
    forget-before-introduce chains, empty root and leaves. Disconnected graphs
    get one subtree per component joined under the empty root. Nodes are
    appended children first."""
    bags = [tuple(sorted([v] + peo.later[v])) for v in range(g.n)]
    # the empty root is one more parent, with index g.n
    children = [[] for _ in range(g.n + 1)]
    for v in range(g.n):
        children[g.n if peo.parent[v] is None else peo.parent[v]].append(v)

    b = _Builder()
    top = [None] * g.n

    def attach(kids, bag):
        """Chains from the tops of kids (ascending) up to bag, then joined
        left-deep; a leaf and a chain when there are none."""
        subtrees = [b.chain(top[c], bags[c], bag) for c in kids]
        if not subtrees:
            return b.chain(b.add("leaf", ()), (), bag)
        cur = subtrees[0]
        for s in subtrees[1:]:
            cur = b.add("join", bag, (cur, s))
        return cur

    for v in peo.order:
        top[v] = attach(children[v], bags[v])
    return NiceTreeDecomposition(b.nodes, attach(children[g.n], ()))


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
        else:
            return False, "kind: unknown kind %r at node %d" % (nd.kind, t)

    if d.nodes[d.root].bag:
        return False, "root-empty"

    covered = set()
    for nd in d.nodes:
        covered.update(nd.bag)
    if covered != set(range(g.n)):
        return False, "vertex-coverage"

    # one walk over the nodes: the bag pairs that are edges of g, the first
    # bag that is not a clique, and per vertex the holders whose parent lacks
    # it (a connected subtree has exactly one such top)
    adj = [set(g.adj[v]) for v in range(g.n)]
    bag_edges = set()
    not_clique = None
    tops = [0] * g.n
    for t, nd in enumerate(d.nodes):
        bag = nd.bag
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
        if tops[v] != 1:
            return False, "connectivity: vertex %d" % v
    if not_clique is not None:
        return False, "clique-bag: node %d" % not_clique

    forgets = {}
    for nd in d.nodes:
        if nd.kind == "forget":
            forgets[nd.vertex] = forgets.get(nd.vertex, 0) + 1
    if g.n and any(forgets.get(v, 0) != 1 for v in range(g.n)):
        return False, "forget-uniqueness"

    bound = 6 * max(g.n, 1) * max(d.max_bag_size(), 1) + 3
    if n_nodes > bound:
        return False, "size-bound: %d nodes > %d" % (n_nodes, bound)
    return True, None
