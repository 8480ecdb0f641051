import pytest

from degenmatch import (
    Graph,
    brute_chromatic_index,
    brute_chromatic_index_r,
    forbidden_sets,
    greedy_color,
    palette_size,
    verify_coloring,
)
from degenmatch.generate import (
    Rng,
    complete_bipartite,
    cycle,
    path,
    random_bounded_degree,
)


def test_palette_size_examples():
    assert palette_size(3, 1) == 9  # simplifies to Delta^2 at r=1
    assert palette_size(1, 1) == 1
    assert palette_size(4, 3) == 11
    with pytest.raises(ValueError):
        palette_size(0, 1)


def test_forbidden_sets_first_edge():
    g = path(5)
    f1, f2 = forbidden_sets(g, {}, (0, 1), 1)
    assert f1 == set() and f2 == set()


def test_forbidden_sets_star():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    f1, f2 = forbidden_sets(star, {(0, 1): 1, (0, 2): 2}, (0, 3), 1)
    assert f1 == {1, 2} and f2 == set()


def test_forbidden_sets_p5():
    g = path(5)
    f1, f2 = forbidden_sets(g, {(0, 1): 1, (3, 4): 1}, (2, 3), 1)
    assert f1 == {1} and f2 == set()
    f1, f2 = forbidden_sets(g, {(0, 1): 1, (2, 3): 2, (3, 4): 1}, (1, 2), 1)
    assert f1 == {1, 2}


def test_forbidden_sets_rejects_colored_edge():
    with pytest.raises(ValueError):
        forbidden_sets(path(3), {(0, 1): 1}, (0, 1), 1)


def test_f2_detects_degeneracy_pressure():
    # P6 with both outer edges colored 1: coloring the middle edge 23 with 1
    # too touches vertices 1 and 4, coverage d_u + d_v = 2
    g = path(6)
    color = {(0, 1): 1, (4, 5): 1}
    assert forbidden_sets(g, color, (2, 3), 1) == (set(), {1})
    assert forbidden_sets(g, color, (2, 3), 2) == (set(), set())
    # triangle 012 plus pendant 23: the common neighbour 2 of edge 01 is
    # touched by color 1 and counts twice, 2*d_uv = 2
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    color = {(2, 3): 1}
    assert forbidden_sets(g, color, (0, 1), 1) == (set(), {1})
    assert forbidden_sets(g, color, (0, 1), 2) == (set(), set())


def test_greedy_k22():
    g = complete_bipartite(2, 2)
    coloring = greedy_color(g, 1)
    assert coloring.k == 4
    assert coloring.colors_used() == 4
    assert all(len(es) == 1 for es in coloring.classes().values())
    assert verify_coloring(g, coloring, 1)[0]


def test_greedy_p3():
    coloring = greedy_color(path(3), 1)
    assert coloring.colors_used() == 2


def test_greedy_c5_vs_exact():
    g = cycle(5)
    coloring = greedy_color(g, 1)
    assert coloring.colors_used() <= 4
    assert verify_coloring(g, coloring, 1)[0]
    assert brute_chromatic_index_r(g, 1) == 3


def test_verify_negative_cases():
    g = cycle(4)
    ok, report = verify_coloring(g, {(0, 1): 1, (1, 2): 1, (2, 3): 2, (0, 3): 3}, 1)
    assert not ok and "matching" in report
    ok, report = verify_coloring(g, {(0, 1): 1, (2, 3): 1, (1, 2): 2, (0, 3): 2}, 1)
    assert not ok and "degeneracy" in report
    ok, report = verify_coloring(g, {(0, 1): 1}, 1)
    assert not ok and "uncolored" in report


def test_random_corpus_palette_respect():
    for seed in range(120):
        g = random_bounded_degree(6 + seed % 20, 0.3, 5, seed)
        if not g.m:
            continue
        for r in (1, 2):
            coloring = greedy_color(g, r)
            assert coloring.max_color() <= palette_size(max(g.max_degree(), 1), r)
            ok, report = verify_coloring(g, coloring, r)
            assert ok, report


def test_determinism_and_order_option():
    g = random_bounded_degree(15, 0.4, 4, seed=9)
    a = greedy_color(g, 1)
    b = greedy_color(g, 1)
    assert a.color == b.color
    order = g.sorted_edges()
    Rng(3).shuffle(order)
    c = greedy_color(g, 1, order=order)
    assert verify_coloring(g, c, 1)[0]
    d = greedy_color(g, 1, order=list(order))
    assert c.color == d.color


def test_order_must_be_permutation():
    g = path(4)
    with pytest.raises(ValueError):
        greedy_color(g, 1, order=[(0, 1)])


def test_delta_override():
    g = path(4)
    coloring = greedy_color(g, 1, delta=4)
    assert coloring.k == palette_size(4, 1)
    assert verify_coloring(g, coloring, 1)[0]
    with pytest.raises(ValueError):
        greedy_color(g, 1, delta=1)


def test_edgeless_graph():
    coloring = greedy_color(Graph(3), 1)
    assert coloring.color == {} and coloring.colors_used() == 0


def test_collapse_for_large_r():
    for seed in range(20):
        g = random_bounded_degree(8, 0.4, 4, seed)
        if not g.m:
            continue
        delta = g.max_degree()
        coloring = greedy_color(g, delta)
        assert verify_coloring(g, coloring, delta)[0]
        if g.m <= 12:
            assert brute_chromatic_index_r(g, delta) == brute_chromatic_index(g)


def test_kdd_lower_bound_small():
    for delta in (2, 3):
        for r in (1, 2, 3):
            g = complete_bipartite(delta, delta)
            chi = brute_chromatic_index_r(g, r)
            assert chi * r >= delta * delta
