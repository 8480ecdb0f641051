import tracemalloc

import pytest

from degenmatch import (
    Graph,
    brute_chromatic_index_r,
    greedy_color,
    palette_size,
    verify_coloring,
)
from degenmatch.coloring import _Sparse, _add_color, _forbidden, _levels
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


def replay(g, color, r):
    """The colorer's state after it colored the edges of color, in that
    order, through its own update."""
    colors_at, near, pairs, watch, hint = _levels(g, r)
    for (u, v), a in color.items():
        _add_color(watch, colors_at, near, hint, u, v, a)
    return colors_at, near, pairs


def forbidden_sets(g, color, uv, r):
    """(F1, F2) as sets for the uncolored edge uv under the partial coloring
    color: replays it and decodes the masks the colorer's query returns."""
    colors_at, _, pairs = replay(g, color, r)
    return tuple({a for a in range(mask.bit_length()) if mask >> a & 1}
                 for mask in _forbidden(g, colors_at, pairs, uv[0], uv[1], r))


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
    for k, n in ((2, 12), (3, 14), (4, 16), (5, 18)):
        yield "ktree-%d-%d" % (k, n), k_tree(k, n, seed=n)
    for n in (3, 5, 8, 12):
        yield "K%d" % n, complete(n)


def test_greedy_equals_reference_first_fit():
    # first fit passes color 2(delta-1)+1 only where F2 is non-empty; some
    # case must, or the levels went untested. delta-1 and delta+1 sit on
    # either side of the level cap min(r+1, delta), and 2*delta-3 is the
    # last r at which F2 can be non-empty
    nonempty_f2 = 0
    for i, (name, g) in enumerate(_reference_cases()):
        delta = g.max_degree()
        rs = {1, 2, 3, delta - 1, delta, delta + 1, 2 * delta - 3, 2 * delta, 10 ** 6}
        for r in sorted(r for r in rs if r >= 1):
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


def _hub(seed):
    """A bounded-degree graph with vertex 0 joined to every third vertex:
    its high levels are reached by vertex 0 alone."""
    g = random_bounded_degree(60, 0.08, 4, seed)
    return Graph(60, set(g.edges) | {(0, x) for x in range(3, 60, 3)})


def test_levels_count_each_neighbour_once_per_color():
    # after each edge of greedy's own order, level j of a vertex that keeps
    # levels (one with an edge that can take F2) holds the colors met on at
    # least j of its neighbours, the top level counting r+1 or more at once
    cases = [(k_tree(3, 14, seed=14), r) for r in (1, 2, 3, 6)]
    cases += [(complete(8), r) for r in (1, 3, 6, 11)]
    cases += [(_hub(seed), r) for seed in range(4) for r in (1, 4, 12)]
    sparse = 0
    for g, r in cases:
        deg = [len(nbrs) for nbrs in g.adj]
        kept = [x for x in range(g.n) if g.adj[x]
                and deg[x] + max(deg[y] for y in g.adj[x]) - 2 > r]
        coloring = greedy_color(g, r).color
        done = {}
        for uv in g.sorted_edges():
            done[uv] = coloring[uv]
            colors_at, near, _ = replay(g, done, r)
            top = len(near) - 1
            assert top == min(r + 1, max((deg[x] for x in kept), default=0))
            for x in kept:
                met = {}
                for y in g.adj[x]:
                    for a in range(colors_at[y].bit_length()):
                        if colors_at[y] >> a & 1:
                            met[a] = met.get(a, 0) + 1
                for j in range(1, top + 1):
                    want = sum(1 << a for a, count in met.items() if count >= j)
                    assert near[j][x] == want, (g.n, r, uv, x, j)
            # the others are never raised
            assert not any(level[x] for x in set(range(g.n)) - set(kept)
                           for level in near[1:])
        sparse += any(isinstance(level, _Sparse) for level in near)
    assert sparse > 0


def test_levels_take_no_space_past_the_last_r_with_f2():
    # no edge can take F2 at r >= 2*delta - 2, so r = 10**9 must allocate
    # no more than r = 2*delta on the same graph: r sizes at most
    # min(r+1, delta) levels a vertex
    g = random_bounded_degree(300, 0.03, 6, seed=4)
    peaks = {}
    for r in (2 * g.max_degree(), 10 ** 9):
        tracemalloc.start()
        try:
            greedy_color(g, r)
            peaks[r] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[10 ** 9] <= peaks[2 * g.max_degree()]


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


def test_a_given_order_is_checked_against_the_edges():
    g = path(5)
    edges = g.sorted_edges()
    for order in ([(0, 1), (1, 2), (2, 3), (2, 3)],  # a repeat, at the edge count
                  [(0, 1), (2, 1), (2, 3), (1, 2)],  # a reversed repeat
                  [(0, 1), (1, 2), (2, 3), (0, 4)],  # a non-edge
                  [(0, 1), (1, 2), (2, 3), (3, 9)],  # past the last vertex
                  [(0, 1), (1, 2), (2, 3), (-1, 0)],
                  [(0, 1), (1, 2), (2, 3), ("a", "b")],
                  edges[:3],  # short
                  edges + [(0, 2)], edges + [(0, 1)]):  # long
        with pytest.raises(ValueError, match="^order is not a permutation of the edge set$"):
            greedy_color(g, 1, order=order)
    backwards = [(v, u) for u, v in reversed(edges)]
    assert greedy_color(g, 1, order=backwards).color == (
        greedy_color(g, 1, order=edges[::-1]).color)
    assert greedy_color(g, 1, order=iter(backwards)).color == (
        greedy_color(g, 1, order=edges[::-1]).color)


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
