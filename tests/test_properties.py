"""Property tests over small drawn graphs: the DP against brute force, the
greedy colorer's validity and palette bound under any edge order, and the
graph6, edge-list and DIMACS round trips."""

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
    parse_graph6,
    serialize_graph6,
    verify_coloring,
)
from degenmatch.formats import parse_dimacs, parse_edge_list

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


@st.composite
def sparse_graphs(draw, min_n=0, max_n=70):
    """Up to 80 edges on min_n..max_n vertices, drawn as vertex pairs."""
    n = draw(st.integers(min_n, max_n))
    if n < 2:
        return Graph(n)
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=80))
    return Graph(n, {(min(e), max(e)) for e in pairs if e[0] != e[1]})


@SETTINGS
@given(sparse_graphs())
def test_graph6_round_trip(g):
    # n crosses 62/63, where the graph6 header grows from one byte to four
    assert parse_graph6(serialize_graph6(g)) == g


@SETTINGS
@given(sparse_graphs(min_n=2), st.data())
def test_edge_list_and_dimacs_round_trip(g, data):
    # the edge list sets n to its largest id, so vertex n-1 gets an edge
    u = data.draw(st.integers(0, g.n - 2))
    g = Graph(g.n, g.edges | {(u, g.n - 1)})
    lines = ["%d %d" % (u + 1, v + 1) for u, v in g.sorted_edges()]
    assert parse_edge_list("\n".join(lines)) == g
    dimacs = ["p edge %d %d" % (g.n, g.m)] + ["e " + line for line in lines]
    assert parse_dimacs("\n".join(dimacs)) == g
