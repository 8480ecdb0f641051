from itertools import combinations

import pytest

from degenmatch import (
    EliminationOrder,
    NiceTreeDecomposition,
    NotChordalError,
    build_nice_decomposition,
    is_chordal,
    mcs_order,
    validate_decomposition,
)
from degenmatch.chordal import DecompNode, elimination_order, is_perfect_elimination
from degenmatch.generate import (
    complete,
    complete_bipartite,
    cycle,
    interval,
    k_tree,
    path,
    random_chordal,
)

from conftest import gnp, has_chordless_cycle, order_corpus


def test_c4_not_chordal():
    with pytest.raises(NotChordalError):
        mcs_order(cycle(4))


def _reference_mcs(g):
    """Maximum cardinality search by a scan of every unvisited vertex per
    step (highest weight, then smallest id), reversed; the order mcs_order
    must return."""
    weight = [0] * g.n
    visited = [False] * g.n
    visit = []
    for _ in range(g.n):
        v = max((v for v in range(g.n) if not visited[v]),
                key=lambda v: (weight[v], -v))
        visited[v] = True
        visit.append(v)
        for w in g.adj[v]:
            if not visited[w]:
                weight[w] += 1
    return tuple(reversed(visit))


def test_mcs_order_equals_reference_scan():
    chordal = 0
    for g in order_corpus():
        expected = _reference_mcs(g)
        if is_perfect_elimination(g, expected):
            assert mcs_order(g).order == expected
            chordal += 1
        else:
            with pytest.raises(NotChordalError):
                mcs_order(g)
    assert chordal >= 180


def test_complete_graphs_chordal():
    for n in range(1, 6):
        peo = mcs_order(complete(n))
        assert is_perfect_elimination(complete(n), peo.order)


def test_p4_elimination_order():
    p4 = path(4)
    assert is_perfect_elimination(p4, (0, 3, 1, 2))
    peo = mcs_order(p4)
    assert is_perfect_elimination(p4, peo.order)
    assert isinstance(peo, EliminationOrder)
    assert peo == elimination_order(p4, peo.order)
    assert peo.parent[peo.order[-1]] is None


def test_recognition_matches_chordless_cycle_search():
    for seed in range(60):
        g = gnp(8, 0.35, seed)
        assert is_chordal(g) == (not has_chordless_cycle(g))
    for seed in range(10):
        g = gnp(10, 0.3, seed + 100)
        assert is_chordal(g) == (not has_chordless_cycle(g))


def test_build_k2():
    g = complete(2)
    d = build_nice_decomposition(g, mcs_order(g))
    ok, report = validate_decomposition(g, d)
    assert ok, report
    assert any(set(nd.bag) == {0, 1} for nd in d.nodes)


def test_build_single_vertex():
    g = complete(1)
    d = build_nice_decomposition(g, mcs_order(g))
    ok, report = validate_decomposition(g, d)
    assert ok, report
    kinds = sorted(nd.kind for nd in d.nodes)
    assert kinds == ["forget", "introduce", "leaf"]


def test_build_random_2_tree():
    g = k_tree(2, 8, seed=4)
    d = build_nice_decomposition(g, mcs_order(g))
    ok, report = validate_decomposition(g, d)
    assert ok, report
    assert d.max_bag_size() == 3


def test_build_disconnected():
    from degenmatch import Graph
    g = Graph(6, [(0, 1), (2, 3), (3, 4)])
    d = build_nice_decomposition(g, mcs_order(g))
    ok, report = validate_decomposition(g, d)
    assert ok, report


def test_build_empty_graph():
    from degenmatch import Graph
    g = Graph(0)
    d = build_nice_decomposition(g, mcs_order(g))
    assert validate_decomposition(g, d)[0]


def test_invalid_peo_rejected():
    # the check runs where the tree is built, before any decomposition
    with pytest.raises(ValueError):
        elimination_order(path(4), (1, 2, 0, 3))
    with pytest.raises(ValueError):
        elimination_order(path(4), (0, 1, 2))


def test_validator_on_random_chordal_corpus():
    graphs = []
    for seed in range(100):
        graphs.append(random_chordal(4 + seed % 11, seed))
    for seed in range(50):
        graphs.append(k_tree(2 + seed % 2, 5 + seed % 8, seed))
    for seed in range(50):
        graphs.append(interval(4 + seed % 9, seed))
    assert len(graphs) >= 200
    for g in graphs:
        d = build_nice_decomposition(g, mcs_order(g))
        ok, report = validate_decomposition(g, d)
        assert ok, report


def test_validator_reports_edge_coverage():
    g = complete(2)
    # leaf - introduce 0 - introduce 1(bag not clique-covered) ... build a
    # decomposition that simply never holds both endpoints together
    nodes = [
        DecompNode("leaf", ()),
        DecompNode("introduce", (0,), (0,), 0),
        DecompNode("forget", (), (1,), 0),
        DecompNode("leaf", ()),
        DecompNode("introduce", (1,), (3,), 1),
        DecompNode("forget", (), (4,), 1),
        DecompNode("join", (), (2, 5)),
    ]
    ok, report = validate_decomposition(g, NiceTreeDecomposition(nodes, 6))
    assert not ok and report.startswith("edge-coverage")


def test_validator_reports_connectivity():
    from degenmatch import Graph
    g = Graph(1)
    # vertex 0 sits in two subtrees that meet only at the empty join
    nodes = [
        DecompNode("leaf", ()),
        DecompNode("introduce", (0,), (0,), 0),
        DecompNode("forget", (), (1,), 0),
        DecompNode("leaf", ()),
        DecompNode("introduce", (0,), (3,), 0),
        DecompNode("forget", (), (4,), 0),
        DecompNode("join", (), (2, 5)),
    ]
    ok, report = validate_decomposition(g, NiceTreeDecomposition(nodes, 6))
    assert not ok and report == "connectivity: vertex 0"


def test_validator_reports_child_after_parent():
    from degenmatch import Graph
    g = Graph(1)
    nodes = [
        DecompNode("introduce", (0,), (2,), 0),
        DecompNode("forget", (), (0,), 0),
        DecompNode("leaf", ()),
    ]
    ok, report = validate_decomposition(g, NiceTreeDecomposition(nodes, 1))
    assert not ok and report == "tree-structure: child after parent at node 0"


def test_validator_reports_clique_bag():
    from degenmatch import Graph
    g = Graph(2)  # no edge between 0 and 1
    nodes = [
        DecompNode("leaf", ()),
        DecompNode("introduce", (0,), (0,), 0),
        DecompNode("introduce", (0, 1), (1,), 1),
        DecompNode("forget", (1,), (2,), 0),
        DecompNode("forget", (), (3,), 1),
    ]
    ok, report = validate_decomposition(g, NiceTreeDecomposition(nodes, 4))
    assert not ok and report.startswith("clique-bag")


def test_forget_uniqueness():
    for seed in range(30):
        g = random_chordal(10, seed)
        d = build_nice_decomposition(g, mcs_order(g))
        forgotten = [nd.vertex for nd in d.nodes if nd.kind == "forget"]
        assert sorted(forgotten) == list(range(g.n))


def _max_clique(g):
    best = 0
    for size in range(1, g.n + 1):
        for vs in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(vs, 2)):
                best = max(best, size)
    return best


def test_max_bag_equals_clique_number():
    for seed in range(15):
        g = random_chordal(9, seed)
        d = build_nice_decomposition(g, mcs_order(g))
        assert d.max_bag_size() == _max_clique(g)


def test_curated_recognition_suite():
    assert is_chordal(path(7))
    assert is_chordal(k_tree(3, 9, seed=1))
    assert is_chordal(interval(10, seed=2))
    for n in range(4, 8):
        assert not is_chordal(cycle(n))
    assert not is_chordal(complete_bipartite(2, 3))
    petersen_edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                      (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                      (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    from degenmatch import Graph
    assert not is_chordal(Graph(10, petersen_edges))
