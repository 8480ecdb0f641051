"""Simple undirected graphs, induced subgraphs, degeneracy, and matchings."""

import heapq
from bisect import bisect_right
from functools import cached_property
from itertools import chain, compress, count, islice, repeat
from operator import eq, ne


class LimitsExceededError(Exception):
    """An input or a search is larger than a configured limit allows."""


# Default caps on the size of a graph, checked before its adjacency is built:
# the readers check both while a graph's ids are read, the generators the
# edge cap before or while they list its pairs.
MAX_VERTICES = 10 ** 6
MAX_EDGES = 10 ** 7


def _check_size(n, m, max_vertices, max_edges):
    if n > max_vertices:
        raise LimitsExceededError(
            "%d vertices exceeds limit %d" % (n, max_vertices))
    _check_edges(m, max_edges)


def _check_edges(m, max_edges):
    if m > max_edges:
        raise LimitsExceededError("%d edges exceeds limit %d" % (m, max_edges))


def _norm_edge(u, v):
    return (u, v) if u < v else (v, u)


def _first_self_loop(ends):
    """The index of the first pair (u, u) of the flat id list ends, or None."""
    it = iter(ends)
    return next(compress(count(), map(eq, it, it)), None)


def _adjacency(n, ends):
    """(adj, loop, again): the ascending adjacency tuples, over one shared int
    per vertex, of the pairs of the flat list ends (u0, v0, u1, v1, ...) of
    ids in 0..n-1, with the index of the first self-loop and of the first
    pair that repeats an earlier one, or None. Distinct pairs cost one fill
    and one set pass; the rest runs only when a vertex lists a neighbour twice."""
    ids = list(range(n))
    adj = [[] for _ in ids]
    it = iter(ends)
    for u, v in zip(it, it):
        adj[u].append(ids[v])
        adj[v].append(ids[u])
    # each list is sorted and replaced by its tuple in place, so it is freed
    # as its tuple is made
    for u, a in enumerate(adj):
        a.sort()
        adj[u] = tuple(a)
    extra = len(ends) - sum(map(len, map(set, adj)))
    if not extra:
        return adj, None, None
    # each pair a vertex lists twice, both ways round; no more vertices list
    # one than there are extra entries
    dups = compress(range(n), map(ne, map(len, adj), map(len, map(set, adj))))
    twice = {(u, v) for u in islice(dups, extra)
             for v, w in zip(adj[u], adj[u][1:]) if v == w}
    seen = set()
    it = iter(ends)
    for k in compress(count(), map(twice.__contains__, zip(it, it))):
        e = _norm_edge(*ends[2 * k:2 * k + 2])
        if e in seen:
            return adj, _first_self_loop(ends), k
        seen.add(e)
    return adj, _first_self_loop(ends), None


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Immutable after construction; no self-loops or parallel edges. adj[v]
    is the ascending tuple of v's neighbours, and adj is all a graph holds:
    Graph(n, edges) builds it through _adjacency and raises ValueError for
    the first pair in edges out of range, a self-loop or a repeat;
    _from_adjacency (a parsed, generated or induced graph) takes it as is."""

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        ends = [x for u, v in edges for x in (u, v)]
        if ends and not (0 <= min(ends) and max(ends) < n):
            i = next(i for i, x in enumerate(ends) if not 0 <= x < n) // 2 * 2
            # a fault in the pairs before the first one out of range comes first
            Graph(n, zip(ends[:i:2], ends[1:i:2]))
            raise ValueError("vertex out of range in edge (%s, %s)"
                             % tuple(ends[i:i + 2]))
        self.adj, loop, again = _adjacency(n, ends)
        k = min({loop, again} - {None}, default=None)
        if k is not None:
            u, v = ends[2 * k:2 * k + 2]
            raise ValueError("self-loop at vertex %s" % u if u == v
                             else "duplicate edge (%s, %s)" % (u, v))

    @classmethod
    def _from_adjacency(cls, adj):
        """The graph whose adjacency is adj, a list of ascending tuples that
        already describe a simple graph; nothing is checked or copied."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g.adj = adj
        return g

    @cached_property
    def edges(self):
        # a set filled in ascending order, then frozen: the order of a graph built from
        # pairs given in ascending order (path, complete, complete-bipartite, interval,
        # random-bounded-degree), in which the pinned interval-wide weights are drawn
        return frozenset(set(self.sorted_edges()))

    @property
    def m(self):
        return sum(map(len, self.adj)) // 2

    def max_degree(self):
        return max((len(a) for a in self.adj), default=0)

    def sorted_edges(self):
        # the neighbours above u end each ascending adjacency tuple
        return list(chain.from_iterable(zip(repeat(u), a[bisect_right(a, u):])
                                        for u, a in enumerate(self.adj)))

    def has_edge(self, u, v):
        """Whether uv is an edge; a u that is no vertex id gives False."""
        if type(u) is not int or not 0 <= u < self.n:
            return False
        a = self.adj[u]
        i = bisect_right(a, v)
        return i > 0 and a[i - 1] == v

    def __eq__(self, other):
        if isinstance(other, Graph):
            return self.n == other.n and self.adj == other.adj
        return NotImplemented

    def __hash__(self):
        return hash((self.n, tuple(self.adj)))

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, self.m)


def induced_subgraph(g, s):
    """Subgraph of g induced by vertex set s.

    Vertices are remapped to 0..|s|-1 in ascending order of their original
    identifiers; returns (subgraph, original_ids) with original_ids[i] the
    vertex of g that became i. The remapped adjacency stays ascending."""
    vs = sorted(set(s))
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError("unknown vertex %s" % v)
    index = {v: i for i, v in enumerate(vs)}
    adj = [tuple(map(index.__getitem__, filter(index.__contains__, g.adj[v])))
           for v in vs]
    return Graph._from_adjacency(adj), tuple(vs)


def _min_key_order(adj, key):
    """Visit every vertex, each time the unvisited one with the smallest
    (key, id); visiting v lowers the key of each unvisited w in adj[v] by 1.

    Returns [(key when visited, v), ...] in visit order. Min-degree peeling
    starts from the degrees; maximum cardinality search starts every key at
    0, so minus the key counts visited neighbours. A bucket queue (Matula and
    Beck, J. ACM 30(3), 1983) keeps one min-heap of vertex ids per key value.
    A visit at the current key lowers its neighbours' keys to no less than
    one below it, so the current key drops by exactly 1 after each visit and
    climbs past empty buckets; an entry whose vertex has since moved to a
    lower key, or been visited, is stale and skipped. That is
    O(n + m + max key - min key) bucket steps, each with one heap operation
    of O(log n)."""
    n = len(adj)
    if not n:
        return []
    key = list(key)
    # no key falls below its start minus its degree; key[v] holds v's bucket
    # index from here on, and -1 once v is visited
    lo = min(k - len(a) for k, a in zip(key, adj))
    key = [k - lo for k in key]
    buckets = [[] for _ in range(max(key) + 1)]
    for v, k in enumerate(key):
        # ascending ids: each bucket list is already a heap
        buckets[k].append(v)
    cur = min(key)
    visits = []
    for _ in range(n):
        while True:
            bucket = buckets[cur]
            if not bucket:
                cur += 1
                continue
            v = heapq.heappop(bucket)
            if key[v] == cur:
                break
        key[v] = -1
        visits.append((cur + lo, v))
        for w in adj[v]:
            k = key[w]
            if k >= 0:
                key[w] = k - 1
                heapq.heappush(buckets[k - 1], w)
        if cur:
            cur -= 1
    return visits


def degeneracy(g):
    """Exact degeneracy: the largest minimum degree seen while peeling."""
    return max((d for d, _ in _min_key_order(g.adj, map(len, g.adj))), default=0)


class Matching:
    """Edge subset with pairwise disjoint endpoints; an edge listed twice
    shares its endpoints with itself, and is refused."""

    def __init__(self, edges):
        es = set()
        used = set()
        for u, v in edges:
            if u == v:
                raise ValueError("self-loop (%s, %s) in matching" % (u, v))
            if u in used or v in used:
                raise ValueError("edges share endpoint at (%s, %s)" % (u, v))
            es.add(_norm_edge(u, v))
            used.add(u)
            used.add(v)
        self.edges = frozenset(es)
        self.vertices = frozenset(used)

    def __len__(self):
        return len(self.edges)

    def __iter__(self):
        return iter(sorted(self.edges))

    def __eq__(self, other):
        if isinstance(other, Matching):
            return self.edges == other.edges
        return NotImplemented

    def __hash__(self):
        return hash(self.edges)

    def __repr__(self):
        return "Matching(%s)" % (sorted(self.edges),)


def max_matching(g):
    """A maximum matching of g (Edmonds, "Paths, trees, and flowers", 1965).

    Greedy start: each vertex in ascending order takes its smallest free
    neighbour. Then each exposed vertex with a neighbour roots one
    breadth-first alternating-tree search, which contracts blossoms by
    relabelling their vertices to the blossom's base and augments along the
    first path it finds to an exposed vertex. A search resets only the
    vertices it reached. A search that fails leaves a Hungarian tree: every
    neighbour of its even vertices lies in the tree, and every tree vertex
    but the root is matched inside it, so deleting the tree keeps every later
    augmenting path and it is never entered again. Neighbours are scanned in
    ascending order, so the result is deterministic."""
    adj = g.adj
    n = g.n
    mate = [-1] * n
    for v in range(n):
        if mate[v] < 0:
            for w in adj[v]:
                if mate[w] < 0:
                    mate[v], mate[w] = w, v
                    break
    base = list(range(n))
    parent = [-1] * n
    even = [False] * n
    dead = [False] * n

    def lca(a, b):
        # the first base on b's path to the root that is also on a's path
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = parent[mate[b]]

    def mark_path(v, b, child, blossom):
        # point the path from v up to base b back toward child, and collect
        # the bases it passes
        while base[v] != b:
            blossom.add(base[v])
            blossom.add(base[mate[v]])
            parent[v] = child
            child = mate[v]
            v = parent[child]

    def search(root):
        # augment from root, or mark its Hungarian tree dead
        tree = [root]
        even[root] = True
        queue = [root]
        found = -1
        for v in queue:
            for w in adj[v]:
                if dead[w] or base[v] == base[w] or mate[v] == w:
                    continue
                if even[w]:
                    b = lca(v, w)
                    blossom = set()
                    mark_path(v, b, w, blossom)
                    mark_path(w, b, v, blossom)
                    for u in tree:
                        if base[u] in blossom:
                            base[u] = b
                            if not even[u]:
                                even[u] = True
                                queue.append(u)
                elif parent[w] < 0:
                    parent[w] = v
                    tree.append(w)
                    if mate[w] < 0:
                        found = w
                        break
                    u = mate[w]
                    even[u] = True
                    tree.append(u)
                    queue.append(u)
            if found >= 0:
                break
        augmented = found >= 0
        while found >= 0:
            p = parent[found]
            nxt = mate[p]
            mate[found], mate[p] = p, found
            found = nxt
        for u in tree:
            base[u] = u
            parent[u] = -1
            even[u] = False
            dead[u] = not augmented

    for v in range(n):
        if mate[v] < 0 and adj[v] and not dead[v]:
            search(v)
    return Matching((v, mate[v]) for v in range(n) if v < mate[v])
