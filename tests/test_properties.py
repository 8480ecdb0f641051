"""Property tests over drawn graphs: the DP against brute force, the
greedy colorer's validity and palette bound under any edge order,
metamorphic relations of the DP above the oracles' size limit (relabelling,
growth in r, disjoint unions, vertex deletion, weight scaling), the graph6,
edge-list and DIMACS round trips, and the CLI's exit codes on arbitrary
input bytes."""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
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
    nu_r,
    nu_r_weighted,
    palette_size,
    parse_graph6,
    serialize_graph6,
    verify_coloring,
)
from degenmatch.cli import main
from degenmatch.formats import parse_dimacs, parse_edge_list
from degenmatch.generate import interval, k_tree, random_chordal
from degenmatch.oracles import DEFAULT_LIMITS

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


# Above the oracles' vertex limit no brute force checks a DP value; these
# relations need none.
METAMORPHIC = settings(max_examples=40, deadline=None)


@st.composite
def large_chordal_graphs(draw):
    """Generated chordal graphs with 17 to 60 vertices. Interval graphs stop
    at 30, where an r=2 table still holds only a few thousand states."""
    family = draw(st.sampled_from(["random-chordal", "k-tree", "interval"]))
    low = DEFAULT_LIMITS.max_vertices + 1
    seed = draw(st.integers(0, 2 ** 32))
    if family == "interval":
        return interval(draw(st.integers(low, 30)), seed)
    n = draw(st.integers(low, 60))
    if family == "k-tree":
        return k_tree(draw(st.integers(1, 3)), n, seed)
    return random_chordal(n, seed)


@METAMORPHIC
@given(large_chordal_graphs(), st.integers(1, 2), st.data())
def test_relabelling_keeps_the_values(g, r, data):
    # another labelling gives another MCS order, decomposition and tables
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    assert nu_r(h, r)[0] == nu_r(g, r)[0]
    edges = g.sorted_edges()
    ws = data.draw(st.lists(st.integers(-2, 6), min_size=len(edges),
                            max_size=len(edges)))
    weights = dict(zip(edges, ws))
    moved = {tuple(sorted((perm[u], perm[v]))): w for (u, v), w in weights.items()}
    assert (nu_r_weighted(WeightedGraph(h, moved), r)[0]
            == nu_r_weighted(WeightedGraph(g, weights), r)[0])


@METAMORPHIC
@given(large_chordal_graphs(), st.integers(1, 2), st.data())
def test_greedy_classes_are_at_most_nu_r(g, r, data):
    # each class is an r-degenerate matching, so no class beats the optimum
    order = data.draw(st.permutations(g.sorted_edges()))
    coloring = greedy_color(g, r, order=order)
    largest = max((len(es) for es in coloring.classes().values()), default=0)
    assert largest <= nu_r(g, r)[0]


# At an interval graph's degeneracy (7 to 23 here) every subset of a bag is
# a state, so the relations that run r up to the degeneracy keep to 4.
LOW_DEGENERACY = large_chordal_graphs().filter(lambda g: degeneracy(g) <= 4)


@METAMORPHIC
@given(LOW_DEGENERACY)
def test_nu_r_grows_with_r_up_to_the_degeneracy(g):
    # G[V(M)] is a subgraph of G, so every matching is degeneracy(G)-degenerate
    d = degeneracy(g)
    rs = sorted({1, 2, 3, d, g.n})
    values = {r: nu_r(g, r)[0] for r in rs}
    assert [values[r] for r in rs] == sorted(values.values())
    assert values[d] == values[g.n]


@METAMORPHIC
@given(large_chordal_graphs(), large_chordal_graphs(), st.integers(1, 2))
def test_nu_r_adds_over_a_disjoint_union(g, h, r):
    union = Graph(g.n + h.n, list(g.edges)
                  + [(u + g.n, v + g.n) for u, v in h.edges])
    assert nu_r(union, r)[0] == nu_r(g, r)[0] + nu_r(h, r)[0]


@METAMORPHIC
@given(large_chordal_graphs(), st.integers(1, 2), st.data())
def test_deleting_a_vertex_lowers_nu_r_by_at_most_one(g, r, data):
    # an induced subgraph of a chordal graph is chordal
    v = data.draw(st.integers(0, g.n - 1))
    sub, _ = induced_subgraph(g, set(range(g.n)) - {v})
    assert nu_r(g, r)[0] - nu_r(sub, r)[0] in (0, 1)


@METAMORPHIC
@given(large_chordal_graphs(), st.integers(1, 2), st.integers(2, 5), st.data())
def test_unit_weights_give_nu_r_and_scaling_scales_the_value(g, r, c, data):
    edges = g.sorted_edges()
    unit = WeightedGraph(g, dict.fromkeys(edges, 1))
    assert nu_r_weighted(unit, r)[0] == nu_r(g, r)[0]
    ws = data.draw(st.lists(st.integers(-2, 6), min_size=len(edges),
                            max_size=len(edges)))
    weights = dict(zip(edges, ws))
    scaled = {e: c * w for e, w in weights.items()}
    assert (nu_r_weighted(WeightedGraph(g, scaled), r)[0]
            == c * nu_r_weighted(WeightedGraph(g, weights), r)[0])


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


# Lines of the three input formats, and whole graph6 strings, so that drawn
# inputs also get past the parsers and reach the solvers.
IDS = st.one_of(st.integers(-1, 9), st.sampled_from([600, 10 ** 9]))
LINES = st.one_of(
    st.tuples(IDS, IDS).map(lambda t: "%d %d" % t),
    st.tuples(IDS, IDS).map(lambda t: "e %d %d" % t),
    st.tuples(IDS, IDS).map(lambda t: "p edge %d %d" % t),
    st.sampled_from(["c x", "# x", "", "~", "C~", "~" * 8, "1 2 3", "e 1 x"]))
INPUT_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(LINES, max_size=12).map("\n".join),
    sparse_graphs(max_n=20).map(serialize_graph6),
).map(lambda x: x if isinstance(x, bytes) else x.encode()[:200])


@SETTINGS
@given(INPUT_BYTES)
def test_cli_exit_codes_on_arbitrary_bytes(data):
    # the vertex cap keeps every run small: a 200-byte DIMACS header can
    # declare a million vertices, which the default cap admits
    for command in (["check-chordal"], ["nur", "--r", "1"], ["color", "--r", "1"]):
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(command + ["--input", "-", "--max-vertices", "500"])
        finally:
            sys.stdin = stdin
        assert code in (0, 2, 3, 4, 5), (command, data, err.getvalue())
        assert "Traceback" not in err.getvalue()
