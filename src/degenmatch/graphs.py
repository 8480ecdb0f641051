"""Simple undirected graphs, induced subgraphs, degeneracy, and matchings."""

import heapq


class LimitsExceededError(Exception):
    """An input or a search is larger than a configured limit allows."""


def _check_size(n, m, max_vertices, max_edges):
    if n > max_vertices:
        raise LimitsExceededError(
            "%d vertices exceeds limit %d" % (n, max_vertices))
    if m > max_edges:
        raise LimitsExceededError("%d edges exceeds limit %d" % (m, max_edges))


def _norm_edge(u, v):
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Immutable after construction; no self-loops or parallel edges."""

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
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
        self.edges = frozenset(seen)
        adj = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = [tuple(sorted(a)) for a in adj]

    @property
    def m(self):
        return len(self.edges)

    def degree(self, v):
        return len(self.adj[v])

    def has_edge(self, u, v):
        return _norm_edge(u, v) in self.edges

    def max_degree(self):
        return max((len(a) for a in self.adj), default=0)

    def sorted_edges(self):
        return sorted(self.edges)

    def __eq__(self, other):
        if isinstance(other, Graph):
            return self.n == other.n and self.edges == other.edges
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, self.m)


def induced_subgraph(g, s):
    """Subgraph of g induced by vertex set s.

    Vertices are remapped to 0..|s|-1 in ascending order of their original
    identifiers; returns (subgraph, original_ids) with original_ids[i] the
    vertex of g that became i."""
    vs = sorted(set(s))
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError("unknown vertex %s" % v)
    index = {v: i for i, v in enumerate(vs)}
    edges = [(index[u], index[w]) for u in vs for w in g.adj[u]
             if u < w and w in index]
    return Graph(len(vs), edges), tuple(vs)


def _min_key_order(adj, key):
    """Visit every vertex, each time the unvisited one with the smallest
    (key, id); visiting v lowers the key of each unvisited w in adj[v] by 1.

    Returns [(key when visited, v), ...] in visit order. Min-degree peeling
    starts from the degrees; maximum cardinality search starts every key at
    0, so minus the key counts visited neighbours. A lazy-deletion heap
    finds each next vertex in O((n+m) log n): keys only fall, so a vertex's
    newest entry pops before its stale ones, which are skipped as visited."""
    key = list(key)
    visited = [False] * len(adj)
    heap = [(k, v) for v, k in enumerate(key)]
    heapq.heapify(heap)
    visits = []
    while heap:
        k, v = heapq.heappop(heap)
        if visited[v]:
            continue
        visited[v] = True
        visits.append((k, v))
        for w in adj[v]:
            if not visited[w]:
                key[w] -= 1
                heapq.heappush(heap, (key[w], w))
    return visits


def degeneracy(g):
    """Exact degeneracy: the largest minimum degree seen while peeling."""
    return max((d for d, _ in _min_key_order(g.adj, map(len, g.adj))), default=0)


class Matching:
    """Edge subset with pairwise disjoint endpoints."""

    def __init__(self, edges):
        es = set()
        used = set()
        for u, v in edges:
            if u == v:
                raise ValueError("self-loop (%s, %s) in matching" % (u, v))
            e = _norm_edge(u, v)
            if e in es:
                continue
            if u in used or v in used:
                raise ValueError("edges share endpoint at (%s, %s)" % (u, v))
            es.add(e)
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
