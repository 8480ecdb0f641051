import pytest

from degenmatch import (
    Graph,
    brute_chromatic_index_r,
    greedy_color,
    palette_size,
    verify_coloring,
)
from degenmatch.coloring import _forbidden
from degenmatch.generate import (
    Rng,
    complete,
    complete_bipartite,
    cycle,
    k_tree,
    path,
    random_bounded_degree,
)

from conftest import brute_chromatic_index


def test_palette_size_examples():
    assert palette_size(3, 1) == 9  # simplifies to Delta^2 at r=1
    assert palette_size(1, 1) == 1
    assert palette_size(4, 3) == 11
    # a delta or r that is not an int is refused like one out of range
    for delta, r in ((0, 1), (3, 1.5), (3.0, 1), (3, True), ("3", 1), (3, "1")):
        with pytest.raises(ValueError, match="^delta and r must be positive$"):
            palette_size(delta, r)
    for r in (0, 1.5, 1.0, True, "1"):
        with pytest.raises(ValueError, match="^r must be a positive integer$"):
            greedy_color(path(3), r)


def forbidden_sets(g, color, uv, r):
    """(F1, F2) as sets for the uncolored edge uv under the partial coloring
    color: builds the per-vertex color masks and decodes the returned masks."""
    colors_at = [0] * g.n
    for e, a in color.items():
        for x in e:
            colors_at[x] |= 1 << a
    return tuple({a for a in range(mask.bit_length()) if mask >> a & 1}
                 for mask in _forbidden(g, colors_at, uv[0], uv[1], r))


def _reference_forbidden(g, colors_at, u, v, r):
    """Set-based (F1, F2) for uv; colors_at maps a vertex to its color set."""
    f1 = set()
    f1.update(colors_at.get(u, ()))
    f1.update(colors_at.get(v, ()))
    count = {}
    for x, other in ((u, v), (v, u)):
        for w in g.adj[x]:
            if w != other:
                for a in colors_at.get(w, ()):
                    count[a] = count.get(a, 0) + 1
    f2 = {a for a, c in count.items() if c >= r + 1} - f1
    return f1, f2


def _reference_greedy(g, r, order=None, delta=None):
    """First-fit over the palette with set-based forbidden colors: the
    reference greedy_color's masks must reproduce."""
    delta = g.max_degree() if delta is None else delta
    edges = g.sorted_edges() if order is None else [tuple(sorted(e)) for e in order]
    k = palette_size(delta, r)
    color = {}
    colors_at = {}
    for uv in edges:
        f1, f2 = _reference_forbidden(g, colors_at, uv[0], uv[1], r)
        chosen = next(a for a in range(1, k + 1) if a not in f1 and a not in f2)
        color[uv] = chosen
        colors_at.setdefault(uv[0], set()).add(chosen)
        colors_at.setdefault(uv[1], set()).add(chosen)
    return color


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


def _reference_cases():
    for seed in range(120):
        g = random_bounded_degree(8 + seed % 30, 0.25, 3 + seed % 6, seed)
        if g.m:
            yield "rbd-%d" % seed, g
    for k, n in ((2, 12), (3, 14), (4, 16)):
        yield "ktree-%d-%d" % (k, n), k_tree(k, n, seed=n)
    for n in (3, 5, 8):
        yield "K%d" % n, complete(n)


def test_greedy_equals_reference_first_fit():
    # first fit passes color 2(delta-1)+1 only where F2 is non-empty; some
    # case must, or the counters went untested
    nonempty_f2 = 0
    for i, (name, g) in enumerate(_reference_cases()):
        delta = g.max_degree()
        for r in sorted({1, 2, 3, delta, 2 * delta, 10 ** 6}):
            expected = _reference_greedy(g, r)
            assert greedy_color(g, r).color == expected, (name, r)
            nonempty_f2 += max(expected.values()) > 2 * delta - 1
        order = g.sorted_edges()
        Rng(i).shuffle(order)
        for r in (1, 2):
            for over in (None, delta + 2):
                assert greedy_color(g, r, order=order, delta=over).color == (
                    _reference_greedy(g, r, order=order, delta=over)), (name, r, over)
    assert nonempty_f2 > 0


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


def test_verify_reads_each_edge_once():
    # a key may name an edge either way round, but must name an edge of g,
    # and no edge may be named twice
    g = path(3)
    assert verify_coloring(g, {(1, 0): 1, (2, 1): 2}, 1) == (True, None)
    assert verify_coloring(g, {(0, 1): 1, (1, 2): 2, (2, 0): 3}, 1) == (
        False, "colored non-edge (0, 2)")
    assert verify_coloring(g, {(0, 1): 1, (1, 2): 2, (1, 0): 3}, 1) == (
        False, "edge (0, 1) colored twice")
    assert verify_coloring(path(4), {(2, 3): 1}, 1) == (False, "uncolored edge (0, 1)")


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


def test_delta_override_must_be_an_int():
    # on an edgeless graph, which never reaches palette_size, and on a path,
    # which does, a delta that is not an int gets one message
    for g in (Graph(3), path(4)):
        for delta in (3.5, 3.0, True, "3"):
            with pytest.raises(ValueError, match="^delta override must be an integer$"):
                greedy_color(g, 1, delta=delta)


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
