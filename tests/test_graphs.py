import pytest

from degenmatch import (
    Graph,
    Matching,
    classify_matching,
    degeneracy,
    induced_subgraph,
    is_r_degenerate,
)
from degenmatch.generate import Rng, complete, complete_bipartite, cycle, path
from degenmatch.graphs import _min_key_order
from degenmatch.oracles import _induced_has_cycle

from conftest import all_matchings, gnp, order_corpus, random_matching


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])


def test_adjacency_consistent():
    g = Graph(4, [(0, 1), (1, 2), (0, 3)])
    assert g.adj[1] == (0, 2)
    assert g.has_edge(3, 0)
    assert not g.has_edge(2, 3)


def test_c4_not_1_degenerate():
    ok, witness = is_r_degenerate(cycle(4), 1)
    assert not ok
    assert witness == frozenset({0, 1, 2, 3})


def test_forests_are_1_degenerate():
    for g in (path(1), path(5), Graph(7, [(0, 1), (0, 2), (2, 3), (4, 5)])):
        ok, cert = is_r_degenerate(g, 1)
        assert ok
        assert cert.verify(g)


def test_complete_graph_degeneracy():
    k4 = complete(4)
    ok, cert = is_r_degenerate(k4, 3)
    assert ok and cert.verify(k4)
    ok, witness = is_r_degenerate(k4, 2)
    assert not ok and witness == frozenset(range(4))
    assert degeneracy(k4) == 3


def test_degeneracy_hereditary_on_random_subgraphs():
    rng = Rng(11)
    for seed in range(40):
        g = gnp(9, 0.4, seed)
        r = degeneracy(g)
        vs = [v for v in range(g.n) if rng.randbelow(2)]
        sub, _ = induced_subgraph(g, vs)
        assert is_r_degenerate(sub, r)[0]


def test_certificate_soundness():
    for seed in range(30):
        g = gnp(10, 0.35, seed)
        r = degeneracy(g)
        ok, cert = is_r_degenerate(g, r)
        assert ok and cert.verify(g)
        pos = {v: i for i, v in enumerate(cert.order)}
        for v in cert.order:
            assert sum(1 for w in g.adj[v] if pos[w] > pos[v]) <= r


def _reference_peel(g, stop_above=None):
    """Min-degree peeling by a scan of every remaining vertex per step
    (lowest degree, then smallest id). Returns (order, degeneracy, stuck);
    with stop_above, peeling stops once the minimum degree exceeds it and
    stuck holds the vertices left."""
    deg = [g.degree(v) for v in range(g.n)]
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
    stuck = 0
    for g in order_corpus():
        order, worst, remaining = _reference_peel(g, stop_above)
        if stop_above is None:
            visits = _min_key_order(g.adj, map(len, g.adj))
            assert [v for _, v in visits] == order
            assert degeneracy(g) == worst
            continue
        ok, result = is_r_degenerate(g, stop_above)
        if remaining:
            assert not ok and result == remaining
        else:
            assert ok and result.order == tuple(order)
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


def test_classify_c4_two_edge_matching():
    # M' = {12, 30} covers the same vertices, and G[V(M)] is the whole C4
    c4 = cycle(4)
    cls = classify_matching(c4, Matching([(0, 1), (2, 3)]), 1)
    assert cls.is_matching
    assert not cls.is_induced
    assert not cls.is_acyclic
    assert not cls.is_uniquely_restricted
    assert cls.degeneracy_of_induced == 2
    assert not cls.is_r_degenerate


def test_classify_p4_end_edges():
    p4 = path(4)
    cls = classify_matching(p4, Matching([(0, 1), (2, 3)]), 1)
    assert not cls.is_induced
    assert cls.is_acyclic
    assert cls.is_uniquely_restricted
    assert cls.is_r_degenerate


def test_classify_single_edge_and_empty():
    g = gnp(8, 0.5, 3)
    e = g.sorted_edges()[0]
    cls = classify_matching(g, Matching([e]), 1)
    assert cls.is_induced and cls.is_acyclic and cls.is_uniquely_restricted
    assert cls.is_r_degenerate
    empty = classify_matching(g, Matching([]), 0)
    assert empty.is_induced and empty.is_acyclic and empty.is_uniquely_restricted
    assert empty.degeneracy_of_induced == 0 and empty.is_r_degenerate


def test_classify_rejects_non_graph_edges():
    with pytest.raises(ValueError):
        classify_matching(path(4), Matching([(0, 2)]), 1)


def test_matching_rejects_shared_endpoints():
    with pytest.raises(ValueError):
        Matching([(0, 1), (1, 2)])


def test_hierarchy_never_violated():
    # induced => acyclic => uniquely restricted, over 1000 random pairs
    rng = Rng(99)
    checked = 0
    for seed in range(125):
        g = gnp(8, 0.4, seed)
        if not g.m:
            continue
        for _ in range(8):
            m = random_matching(g, rng)
            cls = classify_matching(g, m, 1)
            if cls.is_induced:
                assert cls.is_acyclic
            if cls.is_acyclic:
                assert cls.is_uniquely_restricted
            assert cls.is_matching
            checked += 1
    assert checked >= 900


def test_uniquely_restricted_agrees_with_definition():
    # definitional: no distinct matching covers the same vertex set
    for seed in range(25):
        g = gnp(7, 0.45, seed)
        matchings = [frozenset(m) for m in all_matchings(g)]
        by_vertices = {}
        for m in matchings:
            vs = frozenset(v for e in m for v in e)
            by_vertices.setdefault(vs, []).append(m)
        for m in matchings:
            vs = frozenset(v for e in m for v in e)
            definitional = len(by_vertices[vs]) == 1
            cls = classify_matching(g, Matching(m), 1)
            assert cls.is_uniquely_restricted == definitional


def test_acyclic_iff_1_degenerate():
    rng = Rng(5)
    for seed in range(40):
        g = gnp(8, 0.45, seed)
        if not g.m:
            continue
        m = random_matching(g, rng)
        cls = classify_matching(g, m, 1)
        assert cls.is_acyclic == (not _induced_has_cycle(g, m.vertices))
        assert cls.is_r_degenerate == cls.is_acyclic


def test_max_degree():
    assert complete_bipartite(3, 3).max_degree() == 3
    assert path(4).max_degree() == 2
    assert Graph(1).max_degree() == 0
