import random

import pytest

from degenmatch import Graph, Matching, degeneracy, induced_subgraph
from degenmatch.formats import parse_edge_list
from degenmatch.generate import (FAMILIES, Rng, complete, complete_bipartite, cycle,
                                 generate, path)
from degenmatch.graphs import _min_key_order, max_matching
from degenmatch.oracles import _adjacency, _has_cycle, _mask, brute_nu_variants

from conftest import gnp, order_corpus, random_matching, reference_graph


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])


def _built(build, n, edges):
    try:
        g = build(n, edges)
    except ValueError as exc:
        return str(exc)
    return g.n, g.adj


def test_constructor_matches_the_pair_by_pair_reference():
    # n 0-6, ids -1..n (so a pair may be out of range on either side), 0-8
    # pairs with self-loops and repeats, given as a list, an iterator and a
    # set: the same adjacency or the same message for the first bad pair
    rng = random.Random(5)
    faults = set()
    for _ in range(30000):
        n = rng.randint(0, 6)
        pairs = [(rng.randint(-1, n), rng.randint(-1, n))
                 for _ in range(rng.randint(0, 8))]
        for edges in (pairs, set(pairs)):
            want = _built(reference_graph, n, edges)
            assert _built(Graph, n, edges) == want, (n, edges)
            assert _built(Graph, n, iter(edges)) == want, (n, edges)
            if isinstance(want, str):
                faults.add(want.split()[0])
    assert faults == {"vertex", "self-loop", "duplicate"}


def test_adjacency_consistent():
    g = Graph(4, [(0, 1), (1, 2), (0, 3)])
    assert g.adj[1] == (0, 2)
    assert (0, 3) in g.edges
    assert (2, 3) not in g.edges


def test_parsed_graph_builds_edges_on_first_use():
    # every graph, parsed, constructed or generated, holds its adjacency; it
    # equals, and hashes like, the graph built from its edges, and builds its
    # edge set when asked
    g = parse_edge_list("1 2\n4 1\n2 3\n")
    want = Graph(4, [(0, 1), (0, 3), (1, 2)])
    assert "edges" not in vars(g) and "edges" not in vars(want)
    assert g == want and hash(g) == hash(want) and g.adj == want.adj
    assert g.m == 3 and g.sorted_edges() == [(0, 1), (0, 3), (1, 2)]
    assert "edges" not in vars(g) and "edges" not in vars(want)
    assert g.edges == want.edges and "edges" in vars(g) and "edges" in vars(want)
    assert g == want and hash(g) == hash(want)
    assert g != Graph(4, [(0, 1), (0, 3)]) and g != Graph(5, want.edges)
    params = {"n": 12, "k": 3, "a": 4, "b": 8, "p": 0.4, "max_degree": 5}
    for family, (_, names, _, _, _) in FAMILIES.items():
        h = generate(family, {name: params[name] for name in names}, 3)
        same = Graph(h.n, h.sorted_edges())
        assert "edges" not in vars(h) and h.m and h == same and hash(h) == hash(same)
        assert "edges" not in vars(h)
        assert h.edges == set(h.sorted_edges()) and "edges" in vars(h)
        assert h == same and hash(h) == hash(same)


def test_has_edge():
    g = Graph(4, [(0, 1), (1, 3)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0) and g.has_edge(3, 1)
    for u, v in ((0, 2), (0, 3), (1, 2), (2, 3), (-1, 1), (4, 1), (0, 4), (0, -1)):
        assert not g.has_edge(u, v), (u, v)
    assert not g.has_edge(0.0, 1) and not g.has_edge("0", 1)


def test_c4_not_1_degenerate():
    assert degeneracy(cycle(4)) == 2


def test_forests_are_1_degenerate():
    for g in (path(1), path(5), Graph(7, [(0, 1), (0, 2), (2, 3), (4, 5)])):
        assert degeneracy(g) <= 1


def test_complete_graph_degeneracy():
    assert degeneracy(complete(4)) == 3


def test_degeneracy_hereditary_on_random_subgraphs():
    rng = Rng(11)
    for seed in range(40):
        g = gnp(9, 0.4, seed)
        r = degeneracy(g)
        vs = [v for v in range(g.n) if rng.randbelow(2)]
        sub, _ = induced_subgraph(g, vs)
        assert degeneracy(sub) <= r


def test_certificate_soundness():
    # the peel order certifies the degeneracy: no vertex has more than r
    # neighbours later in it
    for seed in range(30):
        g = gnp(10, 0.35, seed)
        r = degeneracy(g)
        order = [v for _, v in _min_key_order(g.adj, map(len, g.adj))]
        assert sorted(order) == list(range(g.n))
        pos = {v: i for i, v in enumerate(order)}
        for v in order:
            assert sum(1 for w in g.adj[v] if pos[w] > pos[v]) <= r


def _reference_peel(g, stop_above=None):
    """Min-degree peeling by a scan of every remaining vertex per step
    (lowest degree, then smallest id). Returns (order, degeneracy, stuck);
    with stop_above, peeling stops once the minimum degree exceeds it and
    stuck holds the vertices left."""
    deg = [len(g.adj[v]) for v in range(g.n)]
    alive = set(range(g.n))
    order = []
    worst = 0
    while alive:
        v = min(alive, key=lambda x: (deg[x], x))
        if stop_above is not None and deg[v] > stop_above:
            return order, worst, frozenset(alive)
        worst = max(worst, deg[v])
        alive.remove(v)
        order.append(v)
        for w in g.adj[v]:
            if w in alive:
                deg[w] -= 1
    return order, worst, frozenset()


@pytest.mark.parametrize("stop_above", [None, 0, 1, 2, 3])
def test_peel_equals_reference_scan(stop_above):
    # each visit's key is the vertex's degree among the unvisited, so the
    # vertices left when the key first exceeds stop_above are the stuck set
    stuck = 0
    for g in order_corpus():
        order, worst, remaining = _reference_peel(g, stop_above)
        visits = _min_key_order(g.adj, map(len, g.adj))
        if stop_above is None:
            assert [v for _, v in visits] == order
            assert degeneracy(g) == worst
            continue
        first = next((i for i, (d, _) in enumerate(visits) if d > stop_above),
                     len(visits))
        assert [v for _, v in visits[:first]] == order
        assert frozenset(v for _, v in visits[first:]) == remaining
        stuck += bool(remaining)
    if stop_above is not None:
        assert stuck > 0


def test_induced_subgraph_examples():
    c4 = cycle(4)
    sub, ids = induced_subgraph(c4, {0, 1})
    assert sub.n == 2 and sub.edges == frozenset({(0, 1)}) and ids == (0, 1)
    k3, _ = induced_subgraph(complete(4), {1, 2, 3})
    assert k3 == complete(3)
    p4 = path(4)
    same, ids = induced_subgraph(p4, {0, 1, 2, 3})
    assert same == p4 and ids == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        induced_subgraph(p4, {0, 9})


def test_matching_rejects_shared_endpoints():
    # an edge listed twice shares both endpoints with itself, so solve's
    # certificate refuses a witness that repeats a match
    for edges in ([(0, 1), (1, 2)], [(0, 1), (1, 0)], [(0, 1), (0, 1)]):
        with pytest.raises(ValueError, match="edges share endpoint"):
            Matching(edges)


def test_acyclic_iff_1_degenerate():
    rng = Rng(5)
    for seed in range(40):
        g = gnp(8, 0.45, seed)
        if not g.m:
            continue
        vs = random_matching(g, rng).vertices
        assert _has_cycle(_adjacency(g), _mask(vs)) == (
            degeneracy(induced_subgraph(g, vs)[0]) > 1)


def test_max_degree():
    assert complete_bipartite(3, 3).max_degree() == 3
    assert path(4).max_degree() == 2
    assert Graph(1).max_degree() == 0


PETERSEN = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


# The greedy start matches 1-0, 2-3 and 4-5 and leaves 6 and 7 exposed. The
# only augmenting path, 6-1=0-2=3-4=5-7, reaches 5 as an odd vertex from 0,
# so the search finds it only by contracting the 5-cycle 0-2-3-4-5.
BLOSSOM_ON_THE_PATH = Graph(8, [(6, 1), (1, 0), (0, 2), (2, 3), (3, 4),
                                (4, 5), (5, 0), (5, 7)])


def test_max_matching_equals_oracle():
    graphs = [Graph(0), Graph(3), cycle(5), cycle(7), PETERSEN,
              BLOSSOM_ON_THE_PATH, complete(7), complete_bipartite(3, 5)]
    graphs += [gnp(n, p, seed) for seed in range(25)
               for n, p in ((8, 0.5), (12, 0.3), (14, 0.25), (16, 0.2))]
    for g in graphs:
        m = max_matching(g)
        assert m.edges <= g.edges
        assert len(m) == brute_nu_variants(g)[3], g.sorted_edges()
