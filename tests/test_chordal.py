from itertools import combinations

import pytest

from degenmatch import (
    EliminationOrder,
    NiceTreeDecomposition,
    NotChordalError,
    build_nice_decomposition,
    is_chordal,
    mcs_order,
)
from degenmatch.chordal import DecompNode, elimination_order, is_perfect_elimination
from degenmatch.generate import (
    Rng,
    complete,
    complete_bipartite,
    cycle,
    interval,
    k_tree,
    path,
    random_chordal,
)

from conftest import gnp, has_chordless_cycle, order_corpus, validate_decomposition


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
    assert isinstance(d, tuple) and d == (d.nodes, d.root)
    # the first vertex of the order has no earlier neighbour: it hangs off
    # the other one's bag, and that pendant node covers the edge
    assert [nd.kind for nd in d.nodes] == ["leaf", "introduce", "pendant", "forget"]
    pendant = d.nodes[2]
    assert (pendant.bag, pendant.vertex, pendant.neighbours) == ((0,), 1, (0,))


def test_build_single_vertex():
    g = complete(1)
    d = build_nice_decomposition(g, mcs_order(g))
    ok, report = validate_decomposition(g, d)
    assert ok, report
    # an isolated vertex hangs off the empty root bag
    kinds = [nd.kind for nd in d.nodes]
    assert kinds == ["leaf", "pendant"]


def test_build_random_2_tree():
    g = k_tree(2, 8, seed=4)
    d = build_nice_decomposition(g, mcs_order(g))
    ok, report = validate_decomposition(g, d)
    assert ok, report
    assert max(len(nd.bag) for nd in d.nodes) == 3


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


def _reference_first_violation(g, order):
    """The vertex elimination_order reports: the first v in order with a later
    neighbour other than its parent u that is not adjacent to u, found by
    probing the edge set; None when order is a perfect elimination order."""
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [w for w in g.adj[v] if pos[w] > pos[v]]
        if later:
            u = min(later, key=pos.__getitem__)
            if any(w != u and (min(u, w), max(u, w)) not in g.edges for w in later):
                return v
    return None


def test_invalid_peo_reports_the_earliest_violation():
    # later(u) is checked once for all of u's children, yet the vertex named
    # is still the first violation in order
    rng = Rng(5)
    named = 0
    for seed in range(150):
        g = gnp(3 + seed % 10, 0.5, seed)
        order = list(range(g.n))
        rng.shuffle(order)
        for order in (order, order[::-1]):
            bad = _reference_first_violation(g, order)
            if bad is None:
                peo = elimination_order(g, order)
                for v in range(g.n):
                    if peo.later[v]:
                        u = peo.parent[v]
                        assert set(peo.later[v]) - {u} <= set(peo.later[u])
            else:
                named += 1
                with pytest.raises(ValueError, match="^invalid perfect elimination "
                                   "order at vertex %d$" % bad):
                    elimination_order(g, order)
    assert named > 100


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


def test_validator_reports_pendant_neighbour_outside_bag():
    # vertex 1 hangs off the empty bag, away from its neighbour 0: the
    # recorded neighbours equal N(1), but the edge 01 is in no bag
    g = complete(2)
    nodes = [
        DecompNode("leaf", ()),
        DecompNode("introduce", (0,), (0,), 0),
        DecompNode("forget", (), (1,), 0),
        DecompNode("pendant", (), (2,), 1, (0,)),
    ]
    ok, report = validate_decomposition(g, NiceTreeDecomposition(nodes, 3))
    assert not ok and report == "pendant-neighbours: node 3"


LEAF = DecompNode("leaf", ())


@pytest.mark.parametrize("n, nodes, root, report", [
    (0, [], 0, "tree-structure: root out of range"),
    (0, [LEAF, DecompNode("join", (), (0, 0))], 1,
     "tree-structure: not a tree"),
    (0, [LEAF, LEAF], 1, "tree-structure: unreachable nodes"),
    (0, [LEAF, LEAF, LEAF, DecompNode("join", (), (0, 1, 2))], 3,
     "binary: node 3 has 3 children"),
    (1, [LEAF, DecompNode("introduce", (0, 0), (0,), 0),
         DecompNode("forget", (), (1,), 0)], 2,
     "bag: duplicate vertices at node 1"),
    (1, [LEAF, DecompNode("introduce", (1,), (0,), 1),
         DecompNode("forget", (), (1,), 1)], 2,
     "bag: unknown vertex at node 1"),
    (1, [DecompNode("leaf", (0,)), DecompNode("forget", (), (0,), 0)], 1,
     "leaf-shape: node 0"),
    (0, [LEAF, DecompNode("join", (), (0,))], 1, "join-shape: node 1"),
    (1, [LEAF, DecompNode("introduce", (0,), (0,), 0), LEAF,
         DecompNode("join", (), (1, 2))], 3,
     "join-shape: bag mismatch at node 3"),
    (1, [LEAF, DecompNode("introduce", (0,), (0,))], 1,
     "introduce-shape: node 1"),
    (1, [LEAF, DecompNode("forget", (), (0,), 0)], 1, "forget-shape: node 1"),
    (0, [DecompNode("root", ())], 0, "kind: unknown kind 'root' at node 0"),
    (1, [LEAF, DecompNode("introduce", (0,), (0,), 0)], 1, "root-empty"),
    (1, [LEAF], 0, "vertex-coverage"),
    # four leaf-introduce(0) chains joined under (0,), then a forget of 0:
    # valid shapes, but more nodes than 6 * n * omega + 3 = 9
    (1, [LEAF, DecompNode("introduce", (0,), (0,), 0),
         LEAF, DecompNode("introduce", (0,), (2,), 0),
         LEAF, DecompNode("introduce", (0,), (4,), 0),
         LEAF, DecompNode("introduce", (0,), (6,), 0),
         DecompNode("join", (0,), (1, 3)), DecompNode("join", (0,), (8, 5)),
         DecompNode("join", (0,), (9, 7)), DecompNode("forget", (), (10,), 0)],
     11, "size-bound: 12 nodes > 9"),
    # a pendant vertex inside the bag it hangs off
    (1, [LEAF, DecompNode("introduce", (0,), (0,), 0),
         DecompNode("pendant", (0,), (1,), 0), DecompNode("forget", (), (2,), 0)],
     3, "pendant-shape: node 2"),
    # 0 recorded as a neighbour of vertex 1, which has none
    (2, [LEAF, DecompNode("introduce", (0,), (0,), 0),
         DecompNode("pendant", (0,), (1,), 1, (0,)),
         DecompNode("forget", (), (2,), 0)],
     3, "pendant-neighbours: node 2"),
    # vertex 0 is introduced and forgotten, then hung as well
    (1, [LEAF, DecompNode("introduce", (0,), (0,), 0),
         DecompNode("forget", (), (1,), 0), DecompNode("pendant", (), (2,), 0)],
     3, "pendant-in-bag: vertex 0"),
    (1, [LEAF, DecompNode("pendant", (), (0,), 0), DecompNode("pendant", (), (1,), 0)],
     2, "pendant-twice: vertex 0"),
], ids=["root-range", "not-a-tree", "unreachable", "binary", "duplicate",
        "unknown-vertex", "leaf-shape", "join-children", "join-bags",
        "introduce-shape", "forget-shape", "kind", "root-empty",
        "vertex-coverage", "size-bound", "pendant-in-its-bag",
        "pendant-neighbours", "pendant-in-bag", "pendant-twice"])
def test_validator_reports(n, nodes, root, report):
    from degenmatch import Graph
    d = NiceTreeDecomposition(nodes, root)
    assert validate_decomposition(Graph(n), d) == (False, report)


def test_forget_uniqueness():
    # each vertex is forgotten once or hung once, never both
    for seed in range(30):
        g = random_chordal(10, seed)
        d = build_nice_decomposition(g, mcs_order(g))
        gone = [nd.vertex for nd in d.nodes if nd.kind in ("forget", "pendant")]
        assert sorted(gone) == list(range(g.n))


def _max_clique(g):
    best = 0
    for size in range(1, g.n + 1):
        for vs in combinations(range(g.n), size):
            if all(e in g.edges for e in combinations(vs, 2)):
                best = max(best, size)
    return best


def test_max_bag_equals_clique_number():
    # a largest clique is a bag, or a pendant vertex with its neighbours
    for seed in range(15):
        g = random_chordal(9, seed)
        d = build_nice_decomposition(g, mcs_order(g))
        hung = max((len(nd.neighbours) + 1 for nd in d.nodes
                    if nd.kind == "pendant"), default=0)
        assert max(max(len(nd.bag) for nd in d.nodes), hung) == _max_clique(g)


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
