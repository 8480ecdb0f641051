import ast
import io
from itertools import combinations
from pathlib import Path

import pytest

from degenmatch import (
    Graph,
    OracleLimits,
    LimitsExceededError,
    brute_chromatic_index_r,
    brute_degenerate_states,
    brute_nu_r,
    brute_nu_variants,
)
from degenmatch import oracles
from degenmatch.chordal import build_nice_decomposition, mcs_order
from degenmatch.oracles import (
    _adjacency,
    _bnb_matching,
    _edge_count,
    _has_cycle,
    _mask,
    _peels,
    _perfect_matchings,
)
from degenmatch.cli import write_survey_csv
from degenmatch.generate import complete, complete_bipartite, cycle, path, random_chordal

from conftest import _reference_sub_degeneracy, brute_chromatic_index, gnp


# The set-based predicates the oracles ran before they moved to int vertex
# masks, kept as the references the mask versions must equal (the peel,
# _reference_sub_degeneracy, is in conftest: the DP tests use it too).

def _reference_induced_edge_count(g, vs):
    vs = set(vs)
    return sum(1 for u, v in g.edges if u in vs and v in vs)


def _reference_induced_has_cycle(g, vs):
    vs = set(vs)
    comps = 0
    seen = set()
    edges = 0
    for s in vs:
        if s in seen:
            continue
        comps += 1
        stack = [s]
        seen.add(s)
        while stack:
            x = stack.pop()
            for w in g.adj[x]:
                if w in vs:
                    edges += 1
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
    return edges // 2 > len(vs) - comps


def _reference_perfect_matching_count(g, vs):
    """Number of perfect matchings of G[vs], counted until it reaches 2."""
    vs = sorted(vs)

    def rec(free):
        if not free:
            return 1
        v = free[0]
        rest = free[1:]
        total = 0
        nbrs = set(g.adj[v])
        for i, w in enumerate(rest):
            if w in nbrs:
                total += rec(rest[:i] + rest[i + 1:])
                if total >= 2:
                    return total
        return total

    return rec(vs)


def _reference_bnb_matching(search, feasible):
    """The matching search before the suffix-cover bound: a node is bounded
    by every unused vertex, whether or not a remaining edge reaches it."""
    edges, n = search.edges, len(search.adj)
    best = 0

    def rec(i, used, count):
        nonlocal best
        search.tick()
        if count > best:
            best = count
        if count + (n - used.bit_count()) // 2 <= best:
            return
        for j in range(i, len(edges)):
            e = edges[j]
            if used & e:
                continue
            nxt = used | e
            if feasible(nxt):
                rec(j + 1, nxt, count + 1)

    rec(0, 0, 0)
    return best


def _predicate_corpus():
    """Small graphs, half of them not chordal: G(n, p) at n <= 10, cycles
    and K_{3,3}."""
    graphs = [gnp(4 + seed % 7, 0.2 + 0.1 * (seed % 5), seed)
              for seed in range(24)]
    graphs += [cycle(n) for n in (3, 4, 5, 6, 9)]
    graphs.append(complete_bipartite(3, 3))
    return graphs


def _every_subset(g):
    for size in range(g.n + 1):
        yield from combinations(range(g.n), size)


def test_sub_degeneracy_equals_reference():
    # G[vs] peels at its degeneracy d and not at d - 1
    for g in _predicate_corpus():
        adj = _adjacency(g)
        for vs in _every_subset(g):
            d = _reference_sub_degeneracy(g, vs)
            assert _peels(adj, _mask(vs), d), (g, vs)
            assert d == 0 or not _peels(adj, _mask(vs), d - 1), (g, vs)


def test_induced_has_cycle_equals_reference():
    for g in _predicate_corpus():
        adj = _adjacency(g)
        for vs in _every_subset(g):
            assert _has_cycle(adj, _mask(vs)) == \
                _reference_induced_has_cycle(g, vs), (g, vs)


def test_edge_count_equals_reference():
    for g in _predicate_corpus():
        adj = _adjacency(g)
        for vs in _every_subset(g):
            assert _edge_count(adj, _mask(vs)) == \
                _reference_induced_edge_count(g, vs), (g, vs)


def test_perfect_matchings_equals_reference():
    for g in _predicate_corpus():
        adj = _adjacency(g)
        for vs in _every_subset(g):
            assert _perfect_matchings(adj, _mask(vs)) == \
                _reference_perfect_matching_count(g, vs), (g, vs)


def _search_corpus():
    """Non-chordal graphs (odd cycles, K_{3,3}, Petersen, G(n, p) at n 8-14)
    and chordal ones."""
    petersen = Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                          (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                          (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)])
    graphs = [cycle(5), cycle(7), complete_bipartite(3, 3), petersen]
    graphs += [gnp(8 + seed % 7, 0.2 + 0.05 * (seed % 4), seed)
               for seed in range(14)]
    graphs += [random_chordal(7 + seed % 6, seed) for seed in range(10)]
    return graphs


def _matching_predicates(adj):
    """ν, the three variant classes and the r-peel at r 0-3, by name."""
    preds = {
        "nu": lambda vs: True,
        "nu_s": lambda vs: _edge_count(adj, vs) == vs.bit_count() // 2,
        "nu_1": lambda vs: not _has_cycle(adj, vs),
        "nu_ur": lambda vs: _perfect_matchings(adj, vs) == 1,
    }
    for r in range(4):
        preds["nu_%d-peel" % r] = lambda vs, r=r: _peels(adj, vs, r)
    return preds


def test_bnb_matching_equals_reference_in_fewer_ticks():
    unlimited = OracleLimits(max_vertices=16, max_edges=48, timeout_ms=600_000)
    for g in _search_corpus():
        for name, feasible in _matching_predicates(_adjacency(g)).items():
            ref, new = oracles._Search(g, unlimited), oracles._Search(g, unlimited)
            want = _reference_bnb_matching(ref, feasible)
            assert _bnb_matching(new, feasible) == want, (g, name)
            assert new.ticks <= ref.ticks, (g, name, new.ticks, ref.ticks)


def test_bnb_matching_bound_prunes_long_cycle():
    # the plain bound visits 271,441 nodes here; the cover bound stops once
    # the edges left cannot reach enough unused vertices
    search = oracles._Search(cycle(26), OracleLimits(26, 48, 600_000))
    assert _bnb_matching(search, lambda vs: _peels(search.adj, vs, 1)) == 12
    assert search.ticks <= 100


def test_nu_r_on_balanced_bipartite():
    # an r-edge matching of K_{d,d} induces K_{r,r}; more edges push past r
    for delta in range(1, 5):
        g = complete_bipartite(delta, delta)
        for r in range(1, 5):
            assert brute_nu_r(g, r) == min(r, delta)


def test_nu_r_examples():
    assert brute_nu_r(path(4), 1) == 2
    assert brute_nu_r(cycle(4), 1) == 1


def test_nu_r_monotone_and_matches_classical():
    for seed in range(20):
        g = random_chordal(8, seed)
        values = [brute_nu_r(g, r) for r in range(1, g.n)]
        assert values == sorted(values)
        assert brute_nu_r(g, max(g.max_degree(), 1)) == brute_nu_variants(g)[3]


def test_variants_examples():
    assert brute_nu_variants(cycle(4)) == (1, 1, 1, 2)
    assert brute_nu_variants(path(4)) == (1, 2, 2, 2)
    assert brute_nu_variants(complete(2)) == (1, 1, 1, 1)


def test_variants_chain():
    for seed in range(30):
        g = random_chordal(7, seed)
        nu_s, nu_1, nu_ur, nu = brute_nu_variants(g)
        assert nu_s <= nu_1 <= nu_ur <= nu


def test_chromatic_examples():
    assert brute_chromatic_index_r(complete_bipartite(3, 3), 1) == 9
    assert brute_chromatic_index_r(complete(2), 1) == 1
    assert brute_chromatic_index_r(complete(2), 5) == 1
    # any 2-edge matching of K4 induces all of K4 (degeneracy 3)
    assert brute_chromatic_index_r(complete(4), 2) == 6


def test_chromatic_bounds():
    for seed in range(10):
        g = random_chordal(6, seed)
        if not g.m:
            continue
        chi = brute_chromatic_index_r(g, 1)
        nu1 = brute_nu_variants(g)[1]
        assert chi * max(nu1, 1) >= g.m
        assert chi >= g.max_degree()


def test_classical_chromatic_index():
    assert brute_chromatic_index(cycle(5)) == 3
    assert brute_chromatic_index(cycle(6)) == 2
    assert brute_chromatic_index(complete_bipartite(3, 3)) == 3


def test_states_leaf_and_root():
    g = random_chordal(6, seed=4)
    d = build_nice_decomposition(g, mcs_order(g))
    leaf = next(i for i, nd in enumerate(d.nodes) if nd.kind == "leaf")
    assert brute_degenerate_states(g, d, 1, leaf) == {((), (), 0)}
    root_states = brute_degenerate_states(g, d, 1, d.root)
    ks = {k for _, _, k in root_states}
    assert ks == set(range(brute_nu_r(g, 1) + 1))
    assert all(s == () and n == () for s, n, _ in root_states)


def test_negative_r_is_rejected():
    # the oracles that take r and allow r = 0 (where only the empty matching
    # is 0-degenerate) refuse a negative r alike, and with the same message an
    # r that is not an int, which the peel would otherwise compare as a bound
    # (1.5 acting as 1 on path(4)); brute_chromatic_index_r, which needs
    # r >= 1, refuses those and r = 0
    g = path(3)
    d = build_nice_decomposition(g, mcs_order(g))
    for call in (lambda r: brute_nu_r(g, r),
                 lambda r: brute_nu_r(path(4), r),
                 lambda r: brute_degenerate_states(g, d, r, d.root)):
        for r in (-3, 1.5, 1.0, True, "1"):
            with pytest.raises(ValueError, match="^r must be non-negative$"):
                call(r)
    for r in (0, 1.5, 2.0, True, "1"):
        with pytest.raises(ValueError, match="^r must be a positive integer$"):
            brute_chromatic_index_r(g, r)
    assert brute_nu_r(g, 0) == 0
    assert brute_degenerate_states(g, d, 0, d.root) == {((), (), 0)}


def test_states_refuse_a_node_outside_the_decomposition():
    # -1 would read the root's states through negative indexing, and 8 would
    # raise IndexError
    g = path(4)
    d = build_nice_decomposition(g, mcs_order(g))
    assert len(d.nodes) == 8
    for node in (-1, 8, 1.0):
        with pytest.raises(ValueError, match="is not a node of the decomposition"):
            brute_degenerate_states(g, d, 1, node)
    # the first and the last index are nodes: the leaf, and the root with
    # the matchings of 0, 1 and 2 edges
    assert brute_degenerate_states(g, d, 1, 0) == {((), (), 0)}
    assert len(brute_degenerate_states(g, d, 1, 7)) == 3


def test_states_exclude_bag_internal_edges():
    # at the node where both endpoints of an edge are in the bag, and no
    # other edge is below it, no matching may use that edge (a K2 hangs one
    # endpoint off the other's bag, so the triangle's first bag of two is
    # used)
    g = complete(3)
    d = build_nice_decomposition(g, mcs_order(g))
    node = next(i for i, nd in enumerate(d.nodes) if len(nd.bag) == 2)
    assert oracles._subtree_mask(d, node) == sum(1 << v for v in d.nodes[node].bag)
    states = brute_degenerate_states(g, d, 1, node)
    assert {k for _, _, k in states} == {0}


def test_limits_enforced():
    with pytest.raises(LimitsExceededError):
        brute_nu_r(Graph(30), 1)
    with pytest.raises(LimitsExceededError):
        brute_chromatic_index_r(path(5), 1, limits=OracleLimits(max_vertices=3))
    tiny = OracleLimits(max_edges=2)
    with pytest.raises(LimitsExceededError):
        brute_nu_variants(path(5), limits=tiny)
    with pytest.raises(LimitsExceededError):
        brute_chromatic_index(path(5), limits=tiny)


def test_one_search_per_call(monkeypatch):
    # each public oracle checks its limits, starts its deadline and builds its
    # masks once; the chromatic ones search their class cap inside that bound
    searches = []

    class Counted(oracles._Search):
        def __init__(self, g, limits):
            super().__init__(g, limits)
            searches.append(self)

    monkeypatch.setattr(oracles, "_Search", Counted)
    g = random_chordal(7, 3)
    d = build_nice_decomposition(g, mcs_order(g))
    calls = [lambda: brute_nu_r(g, 1), lambda: brute_nu_variants(g),
             lambda: brute_chromatic_index_r(g, 1),
             lambda: brute_chromatic_index(g),
             lambda: brute_degenerate_states(g, d, 1, d.root)]
    for call in calls:
        searches.clear()
        call()
        assert len(searches) == 1 and searches[0].ticks > 0


def test_degenerate_states_timeout():
    # at K15's 14-vertex bag (its first vertex hangs off it) no edge is
    # allowed, so all the work is the 2^14 subsets of the bag, which the
    # deadline must bound as well
    g = complete(15)
    d = build_nice_decomposition(g, mcs_order(g))
    node = next(i for i, nd in enumerate(d.nodes) if len(nd.bag) == 14)
    with pytest.raises(LimitsExceededError):
        brute_degenerate_states(g, d, 1, node, OracleLimits(16, 200, timeout_ms=1))


# With timeout_ms=1 each call below must stop on its deadline. The deadline
# is read once every 2048 ticks of the call's one node counter, so each input
# is sized well past that. Untimed, on gnp(24, 0.17, seed 0) (24 vertices, 40
# edges) brute_nu_r at r = 1 visits 7,478 nodes and brute_nu_variants 20,191
# over its four searches; on gnp(12, 0.35, seed 2) brute_chromatic_index_r at
# r = 2 visits 423,716 and brute_chromatic_index 999,998, each counting the
# search for its class cap.
TIMEOUT = OracleLimits(max_vertices=26, max_edges=48, timeout_ms=1)


def test_nu_r_timeout():
    with pytest.raises(LimitsExceededError, match="oracle timeout"):
        brute_nu_r(gnp(24, 0.17, 0), 1, TIMEOUT)


def test_variants_timeout():
    with pytest.raises(LimitsExceededError, match="oracle timeout"):
        brute_nu_variants(gnp(24, 0.17, 0), TIMEOUT)


@pytest.mark.parametrize("chromatic_index, args", [
    (brute_chromatic_index_r, (2,)),
    (brute_chromatic_index, ()),
], ids=["r2", "classical"])
def test_chromatic_index_timeout(chromatic_index, args):
    with pytest.raises(LimitsExceededError, match="oracle timeout"):
        chromatic_index(gnp(12, 0.35, 2), *args, TIMEOUT)


def test_survey_csv():
    buf = io.StringIO()
    write_survey_csv([{"graph-id": "p4", "n": 4, "m": 3, "delta": 2, "r": 1,
                       "nu_r": 2, "nu": 2}], buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "graph-id,n,m,delta,r,nu_r,chi_r,nu_s,nu_1,nu_ur,nu"
    assert lines[1] == "p4,4,3,2,1,2,,,,,2"


def test_oracles_import_only_the_limit_check():
    # the oracles check the DP, the chordal layer and the colorer, so they
    # take nothing from degenmatch but the size limit and its error
    tree = ast.parse(Path(oracles.__file__).read_text())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "degenmatch" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "degenmatch"):
            taken.update(a.name for a in node.names)
    assert taken == {"LimitsExceededError", "_check_size"}
