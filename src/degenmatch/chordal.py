"""Chordality recognition and nice clique-tree decompositions."""

from collections import namedtuple

from .graphs import _min_key_order


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
    violation of the perfect-elimination property: every other later
    neighbour of v must be adjacent to the parent u of v. Such a neighbour
    comes after u, so it must be in later(u); as in Rose, Tarjan and Lueker
    (SIAM J. Comput. 5(2), 1976), later(u) is made a set once, for all the
    children of u at once, and the violation reported is the earliest one in
    order."""
    order = tuple(order)
    if sorted(order) != list(range(g.n)):
        raise ValueError("order is not a permutation of the vertices")
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    later = [[w for w in g.adj[v] if pos[w] > pos[v]] for v in range(g.n)]
    parent = [None] * g.n
    # the children of each parent with a later neighbour besides it
    waiting = {}
    for v in order:
        if later[v]:
            u = parent[v] = min(later[v], key=pos.__getitem__)
            if len(later[v]) > 1:
                waiting.setdefault(u, []).append(v)
    bad = []
    for u, kids in waiting.items():
        near = set(later[u])
        near.add(u)
        bad += (v for v in kids if not near.issuperset(later[v]))
    if bad:
        raise ValueError("invalid perfect elimination order at vertex %d"
                         % min(bad, key=pos.__getitem__))
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


class NiceTreeDecomposition(namedtuple("NiceTreeDecomposition", "nodes root")):
    """Rooted binary tree of clique bags with empty root and leaf bags: nodes
    is the list of DecompNodes, root the index of the root.

    Every node's children come before it in nodes, so walking nodes in
    index order visits children first and the root (the empty bag) last.
    A pendant vertex lies in no bag: its pendant node, whose bag equals its
    child's, covers it and every edge at it."""

    __slots__ = ()


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

