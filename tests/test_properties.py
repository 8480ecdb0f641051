"""Property tests over small drawn graphs: the DP against brute force, and
the greedy colorer's validity and palette bound under any edge order."""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from conftest import all_matchings

from degenmatch import (
    Graph,
    WeightedGraph,
    classify_matching,
    degeneracy,
    greedy_color,
    induced_subgraph,
    nu_r_weighted,
    palette_size,
    verify_coloring,
)

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def chordal_graphs(draw, max_n=9):
    """Grow a chordal graph one simplicial vertex at a time: each new vertex
    is joined to a clique of the graph so far (a vertex and some of its
    pairwise adjacent neighbours), or to nothing."""
    n = draw(st.integers(1, max_n))
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        anchor = draw(st.integers(-1, v - 1))
        if anchor < 0:
            continue
        clique = [anchor]
        for w in sorted(adj[anchor]):
            if all(w in adj[c] for c in clique) and draw(st.booleans()):
                clique.append(w)
        for c in clique:
            adj[v].add(c)
            adj[c].add(v)
    return Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    return Graph(n, [e for e in pairs if draw(st.booleans())])


def brute_max_weight(g, weights, r):
    """Best total weight over all r-degenerate matchings, the empty one included."""
    best = 0
    for m in all_matchings(g):
        value = sum(weights[e] for e in m)
        if value > best:
            sub, _ = induced_subgraph(g, {x for e in m for x in e})
            if degeneracy(sub) <= r:
                best = value
    return best


@SETTINGS
@given(chordal_graphs(), st.integers(1, 3), st.data())
def test_weighted_dp_equals_brute_force(g, r, data):
    edges = g.sorted_edges()
    ws = data.draw(st.lists(st.integers(-5, 9), min_size=len(edges),
                            max_size=len(edges)))
    weights = dict(zip(edges, ws))
    value, m = nu_r_weighted(WeightedGraph(g, weights), r)
    assert value == brute_max_weight(g, weights, r)
    assert sum(weights[e] for e in m) == value
    assert classify_matching(g, m, r).is_r_degenerate


@SETTINGS
@given(graphs(), st.integers(1, 3), st.integers(0, 2), st.data())
def test_greedy_coloring_valid_within_palette(g, r, extra, data):
    order = data.draw(st.permutations(g.sorted_edges()))
    delta = max(g.max_degree(), 1) + extra
    coloring = greedy_color(g, r, order=order, delta=delta)
    assert verify_coloring(g, coloring, r) == (True, None)
    assert coloring.max_color() <= palette_size(delta, r)
