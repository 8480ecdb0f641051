import math
import re

import pytest

from degenmatch.graphs import LimitsExceededError, max_matching

from degenmatch import chordal, dp
from degenmatch import (
    Graph,
    Matching,
    NotChordalError,
    brute_degenerate_states,
    brute_nu_r,
    degeneracy,
    solve,
)
from degenmatch.chordal import build_nice_decomposition, mcs_order
from degenmatch.dp import (
    DPInvariantError,
    _EMPTY,
    _state_bound,
    dp_forget,
    dp_introduce,
    dp_join,
    dp_leaf,
    dp_pendant,
    run_tables,
)
from degenmatch.generate import (
    Rng,
    complete,
    cycle,
    interval,
    k_tree,
    path,
    random_chordal,
)

from conftest import (
    PAW,
    WRONG_RECURRENCES,
    _reference_sub_degeneracy,
    all_tables,
    dp_value,
    node_table,
)


def _values(table):
    """A table's values without their witnesses."""
    return {key: value for key, (value, _) in table.items()}


def _table(values):
    """A table holding values, each with the empty witness."""
    return {key: (value, None) for key, value in values.items()}


def test_dp_leaf():
    t = dp_leaf()
    assert _values(t) == {((), ()): 0}
    assert dp_leaf() == t  # recomputation identical


def test_dp_introduce_both_cases():
    child = dp_leaf()
    t = _values(dp_introduce(child, 5, 2))
    assert set(t) == {((), ()), ((5,), ())}
    assert t[((5,), ())] == 0


def test_dp_introduce_size_guard():
    child = _table({((1, 2), ()): 0})
    t = dp_introduce(child, 3, 1)
    # |S'| = 2 > r = 1, so no augmented copy
    assert set(t) == {((1, 2), ())}


def test_dp_forget_cases():
    # downward-closed child table over bag {x=1, y=2}
    child = _table({((), ()): 0, ((1,), ()): 0, ((2,), ()): 0, ((1, 2), ()): 0})
    t = _values(dp_forget(child, 1))
    assert t[((), ())] == 0
    assert t[((2,), ())] == 0
    assert t[((2,), (2,))] == 1


def test_dp_forget_drop_case():
    child = _table({((1,), (1,)): 3})
    t = _values(dp_forget(child, 1))
    assert t == {((), ()): 3}


def test_dp_forget_weighted():
    child = _table({((1, 2), ()): 0})
    t = _values(dp_forget(child, 1, weights={(1, 2): 5}))
    assert t[((2,), (2,))] == 5


def test_dp_pendant_cases():
    # x = 9 hangs off the bag (1, 2, 3) with N(9) = (1, 2): every child state
    # is kept with its own (value, witness), and each state offers (S, N + y)
    # for each y in S cap N(9) outside N, 1 more and with the witness
    # (9, y, rest); ((1, 2), (1,)) keeps its 2 over the match 9-1 worth 1
    child = {((1, 2), ()): (0, None), ((1, 2), (1,)): (2, ("a",)),
             ((1, 3), ()): (1, ("b",)), ((3,), ()): (0, None)}
    before = dict(child)
    t = dp_pendant(child, 9, (1, 2), 2)
    assert child == before
    assert all(t[key] is value for key, value in child.items())
    assert t == {**child,
                 ((1, 2), (2,)): (1, (9, 2, None)),
                 ((1, 2), (1, 2)): (3, (9, 2, ("a",))),
                 ((1, 3), (1,)): (2, (9, 1, ("b",)))}


def test_dp_pendant_size_guard():
    # at r = 1, S = (1, 2) holds both neighbours of 9, and matching 9 would
    # close the triangle 1 2 9: nothing is offered there, while (1, 3),
    # which holds one, still offers its match
    child = {((1, 2), ()): (0, None), ((1, 3), ()): (1, ("b",))}
    before = dict(child)
    t = dp_pendant(child, 9, (1, 2), 1)
    assert child == before
    assert t == {**child, ((1, 3), (1,)): (2, (9, 1, ("b",)))}


def test_dp_pendant_weighted():
    # a match adds the weight of its edge; 9-1 worth 5 beats the kept 2
    child = {((1, 2), ()): (0, None), ((1, 2), (1,)): (2, ("a",))}
    before = dict(child)
    t = dp_pendant(child, 9, (1, 2), 2, weights={(1, 9): 5, (2, 9): 7})
    assert child == before
    assert t == {((1, 2), ()): (0, None),
                 ((1, 2), (1,)): (5, (9, 1, None)),
                 ((1, 2), (2,)): (7, (9, 2, None)),
                 ((1, 2), (1, 2)): (9, (9, 2, ("a",)))}


def test_dp_join():
    assert _values(dp_join(dp_leaf(), dp_leaf())) == {((), ()): 0}
    left = _table({((7,), (7,)): 1})
    right = _table({((7,), (7,)): 1})
    assert dp_join(left, right) == {}  # N sets overlap
    left = _table({((7, 8), (7,)): 1})
    right = _table({((7, 8), (8,)): 2})
    t = _values(dp_join(left, right))
    assert t[((7, 8), (7, 8))] == 3


def test_witness_is_carried_forward():
    # a match node records its pair over the child's witness, introduce and
    # keep reuse the child's (value, witness) object, and a join pairs two
    # witnesses or passes the one that is not None
    child = {((1, 2), ()): (0, None), ((2,), (2,)): (4, ("a",))}
    t = dp_forget(child, 1)
    assert t[((2,), (2,))] == (4, ("a",))  # the kept state beats the match
    child[((2,), (2,))] = (0, None)
    t = dp_forget(child, 1)
    assert t[((2,), (2,))] == (1, (1, 2, None))
    assert dp_introduce(t, 3, 2)[((2, 3), (2,))] is t[((2,), (2,))]
    left = {((7, 8), (7,)): (1, ("l",)), ((7, 8), ()): (0, None)}
    right = {((7, 8), (8,)): (2, ("r",)), ((7, 8), ()): (0, None)}
    t = dp_join(left, right)
    assert t[((7, 8), (7, 8))] == (3, (("l",), ("r",)))
    assert t[((7, 8), (7,))] == (1, ("l",))
    assert t[((7, 8), (8,))] == (2, ("r",))


def test_nu_r_examples():
    res = solve(path(6), 1)
    m = res.matching
    assert res.value == 3
    assert m.edges <= path(6).edges
    assert _reference_sub_degeneracy(path(6), m.vertices) <= 1
    assert solve(complete(4), 1).value == 1
    assert solve(complete(4), 3).value == 2
    res = solve(Graph(5), 2)
    assert res.value == 0 and len(res.matching) == 0


def test_nu_r_rejects_bad_inputs():
    with pytest.raises(NotChordalError):
        solve(cycle(5), 1)
    with pytest.raises(ValueError):
        solve(path(3), 0)
    # an r that is not an int, on the DP path (omega - 1 = 3 > r), where the
    # state bound needs an int, and on the matching path, where 3.5 would
    # compare as an r of 3 or more
    for r in (2.5, 3.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match="^r must be a positive integer$"):
            solve(k_tree(3, 12, 1), r)


def test_oracle_equivalence_small():
    for seed in range(25):
        g = random_chordal(4 + seed % 8, seed)
        for r in (1, 2, 3):
            res = solve(g, r)
            m = res.matching
            assert res.value == brute_nu_r(g, r)
            assert m.edges <= g.edges and len(m) == res.value
            assert _reference_sub_degeneracy(g, m.vertices) <= r


def test_state_bound_and_downward_closure():
    for seed in range(10):
        g = random_chordal(10, seed)
        decomp = build_nice_decomposition(g, mcs_order(g))
        for r in (1, 2):
            tables = all_tables(decomp, r)
            for t, table in tables.items():
                bag = set(decomp.nodes[t].bag)
                for (s, n), (value, _) in table.items():
                    assert set(n) <= set(s) <= bag
                    assert len(s) <= r + 1
                    # shrinking S outside N keeps a state with >= value
                    for drop in set(s) - set(n):
                        smaller = tuple(x for x in s if x != drop)
                        assert (smaller, n) in table
                        assert table[(smaller, n)][0] >= value
            assert set(tables[decomp.root]) == {((), ())}


def test_tables_match_full_state_enumeration():
    # pruned DP tables must agree with the literal state sets: same (S, N)
    # support and, per state, the maximum k; pendant nodes included, at the
    # empty root (isolated vertices, a K1 beside a component) and above a
    # join (a 2-tree with two isolated vertices added)
    graphs = [random_chordal(6, seed) for seed in range(6)]
    graphs += [Graph(3), Graph(6, random_chordal(5, 1).sorted_edges()),
               Graph(10, k_tree(2, 8, 14).sorted_edges()),
               Graph(8, k_tree(1, 7, 0).sorted_edges())]
    at_root = above_join = 0
    for g in graphs:
        decomp = build_nice_decomposition(g, mcs_order(g))
        for nd in decomp.nodes:
            if nd.kind == "pendant":
                at_root += nd.bag == ()
                above_join += decomp.nodes[nd.children[0]].kind == "join"
        for r in (1, 2):
            tables = all_tables(decomp, r)
            for t in range(len(decomp.nodes)):
                literal = brute_degenerate_states(g, decomp, r, t)
                best = {}
                for s, n, k in literal:
                    best[(s, n)] = max(best.get((s, n), -1), k)
                assert _values(tables[t]) == best
    assert at_root >= 5 and above_join >= 2


def test_monotone_in_r_and_delta_collapse():
    for seed in range(15):
        g = random_chordal(9, seed)
        delta = max(g.max_degree(), 1)
        values = [solve(g, r).value for r in range(1, delta + 1)]
        assert values == sorted(values)
        # any matching is Delta-degenerate
        assert values[-1] == brute_nu_r(g, g.n + 1)


def _witness_corpus():
    for s in range(60):
        yield random_chordal(8 + s % 12, s), (1, 2), s
        yield interval(10 + s % 20, s), (1, 2, 3), s
        yield k_tree(2 + s % 2, 30 + s, s), (1, 2), s


def test_witness_valid_over_wide_bags():
    # r = 3 on interval graphs gives joins over states with a nonempty N
    for g, rs, s in _witness_corpus():
        rng = Rng(s)
        wg = {e: rng.randbelow(9) - 2 for e in g.sorted_edges()}
        for r in rs:
            for weights in (None, wg):
                res = solve(g, r, weights=weights)
                m = res.matching  # Matching() rejects edges sharing an endpoint
                assert m.edges <= g.edges
                worth = len(m) if weights is None else sum(wg[e] for e in m)
                assert worth == res.value
                assert _reference_sub_degeneracy(g, m.vertices) <= r


def test_handlers_leave_child_tables_unchanged():
    # a handler copies its child table and must not edit the child itself:
    # the tables of all_tables, and the tests reading them, must be the ones
    # each node's handler built
    for s in range(12):
        g = interval(12 + s, s)
        wg = {e: 1 + e[0] % 3 for e in g.sorted_edges()}
        decomp = build_nice_decomposition(g, mcs_order(g))
        for r, weights in ((1, None), (2, wg)):
            tables = {}
            for t, nd in enumerate(decomp.nodes):
                kids = [tables[c] for c in nd.children]
                before = [list(k.items()) for k in kids]
                tables[t] = node_table(nd, kids, r, weights)
                assert [list(k.items()) for k in kids] == before
            assert tables == all_tables(decomp, r, weights)
            largest = max(map(len, tables.values()))
            assert run_tables(decomp, r, weights) == (tables[decomp.root], largest)


def test_state_bound():
    # sum over |S| = k <= min(r+1, b) of C(b, k) * 2^k
    assert _state_bound(0, 1) == 1
    assert _state_bound(4, 1) == 1 + 4 * 2 + 6 * 4
    assert _state_bound(16, 15) == 3 ** 16
    assert _state_bound(16, 100) == 3 ** 16
    for s in range(10):
        g = random_chordal(7, s)
        decomp = build_nice_decomposition(g, mcs_order(g))
        for r in (1, 2):
            bound = _state_bound(max(len(nd.bag) for nd in decomp.nodes), r)
            assert max(len(t) for t in all_tables(decomp, r).values()) <= bound


def test_largest_bag_is_the_decompositions():
    # the cap's bag size, read off the elimination order, is the largest bag
    # the decomposition builds: omega - 1 when every largest clique holds an
    # elimination-tree leaf (K_n), omega elsewhere, 0 with no edge
    graphs = [random_chordal(12, seed) for seed in range(20)]
    graphs += [Graph(n + 2, k_tree(k, n, seed).sorted_edges())
               for k, n, seed in ((1, 9, 0), (2, 10, 3), (3, 12, 5))]
    graphs += [complete(n) for n in range(1, 8)] + [Graph(0), Graph(4)]
    below_omega = 0
    for g in graphs:
        peo = mcs_order(g)
        size = chordal._largest_bag(peo)
        assert size == max(len(nd.bag) for nd in build_nice_decomposition(g, peo).nodes)
        below_omega += size < max(map(len, peo.later), default=-1) + 1
    assert below_omega >= 7


def test_solve_max_states(monkeypatch):
    # K5's elimination-tree leaf hangs as a pendant node, so its largest bag
    # holds 4 vertices: 1 + 4*2 + 6*4 + 4*8 = 65 states at r = 2
    g = complete(5)
    assert solve(g, 2, max_states=65).value == solve(g, 2).value == 1
    with pytest.raises(LimitsExceededError) as exc:
        solve(g, 2, max_states=64)
    assert str(exc.value) == "65 DP states (largest bag 4, r = 2) exceeds limit 64"
    # every DP call runs under dp.MAX_STATES by default, and a refused call
    # is refused from omega, before a decomposition is built
    def no_decomposition(g, peo):
        raise AssertionError("decomposition built past the state cap")

    monkeypatch.setattr(dp, "build_nice_decomposition", no_decomposition)
    g = interval(30, 2)  # a bag of 16
    message = ("42981185 DP states (largest bag 16, r = 14) exceeds limit %d"
               % dp.MAX_STATES)
    for weights in (None, dict.fromkeys(g.edges, 1)):
        with pytest.raises(LimitsExceededError) as exc:
            solve(g, 14, weights=weights)
        assert str(exc.value) == message


@pytest.mark.parametrize("cap", [0, -5, 2.5, 65.0, True, "65"])
def test_solve_rejects_max_states_below_one(cap):
    # a cap that is not an int is refused like one below 1
    # on the DP path (r = 2 < omega - 1 = 4) and the matching path alike
    for r in (2, 4):
        with pytest.raises(ValueError, match="max_states must be a positive"):
            solve(complete(5), r, max_states=cap)


def test_max_matching_equals_dp_at_omega_minus_one():
    # the DP is the reference of solve's matching path: at r = omega - 1 (a
    # chordal graph's degeneracy) its root value is the matching number
    graphs = [k_tree(k, n, seed) for k, n, seed in
              ((1, 300, 1), (2, 400, 2), (2, 600, 3), (3, 300, 4))]
    graphs += [random_chordal(20 + 5 * s, s) for s in range(12)]
    for g in graphs:
        assert len(max_matching(g)) == dp_value(g, max(degeneracy(g), 1)), g


def test_solve_takes_the_matching_path_exactly_when_r_reaches_omega_minus_one():
    for g in (Graph(0), Graph(4), path(5), complete(5), k_tree(2, 30, seed=1),
              interval(9, seed=3), random_chordal(15, seed=2)):
        omega = degeneracy(g) + 1
        unit = {e: 1 for e in g.edges}
        for r in range(1, omega + 2):
            res = solve(g, r)
            if r >= omega - 1:
                assert (res.path, res.nodes, res.max_table) == ("matching", 0, 0)
            else:
                assert res.path == "dp" and res.nodes > 0 and res.max_table > 0
            assert solve(g, r, weights=unit).path == "dp"


def test_the_matching_path_frees_the_elimination_order(monkeypatch):
    # solve reads only omega from the order on the matching path, so the
    # order is gone before the matching (and its certificate) is built. A
    # tuple takes no weak reference, so the copy counts its own deletion.
    made, freed = [], []

    class Order(chordal.EliminationOrder):
        def __del__(self):
            freed.append(len(self.order))

    def order_copy(g):
        made.append(g.n)
        return Order(*mcs_order(g))

    def matching_after_the_order(g):
        assert len(freed) == len(made), "the elimination order is still held"
        return max_matching(g)
    monkeypatch.setattr(dp, "mcs_order", order_copy)
    monkeypatch.setattr(dp, "max_matching", matching_after_the_order)
    for g, r in ((path(40), 1), (complete(6), 5), (k_tree(2, 30, seed=1), 2)):
        assert solve(g, r).path == "matching"
    assert solve(k_tree(2, 30, seed=1), 1).path == "dp"
    assert freed == made == [40, 6, 30, 30]


@pytest.mark.parametrize("where", ["root", "weighted-root", "leaves"])
def test_certificate_rejects_inconsistent_values(monkeypatch, where):
    # the certificate re-adds the witness exactly, so a root value off by the
    # smallest step a float allows is caught, and so are leaves that start
    # above 0 (every value then counts more than its witness holds)
    g = interval(14, seed=3)
    rng = Rng(3)
    weights = None
    if where == "weighted-root":
        weights = {e: rng.randbelow(10 ** 6) / 997 for e in g.sorted_edges()}
    solve(g, 2, weights=weights)
    if where == "leaves":
        monkeypatch.setattr(dp, "dp_leaf", lambda: {_EMPTY: (1, None)})
    else:
        run = dp.run_tables

        def corrupted(decomp, r, weights=None):
            root, largest = run(decomp, r, weights)
            v, witness = root[_EMPTY]
            root[_EMPTY] = (math.nextafter(v, math.inf) if weights else v + 1,
                            witness)
            return root, largest

        monkeypatch.setattr(dp, "run_tables", corrupted)
    with pytest.raises(DPInvariantError, match="^witness adds up to "):
        solve(g, 2, weights=weights)


@pytest.mark.parametrize("kind", sorted(WRONG_RECURRENCES))
def test_solve_rejects_wrong_recurrence(monkeypatch, kind):
    g, patches, problem = WRONG_RECURRENCES[kind]
    assert solve(g, 1).value == brute_nu_r(g, 1)
    for name, fn in patches.items():
        monkeypatch.setattr(dp, name, fn)
    with pytest.raises(DPInvariantError, match=problem):
        solve(g, 1)


def test_solve_certifies_witness_edges_and_size(monkeypatch):
    # nu_1(PAW) = 1, on the DP (omega = 3): a root witness that holds a
    # non-edge, or too few edges, is caught before the result leaves solve
    for witness, problem in (((1, 3, None), "not an edge"),
                             (None, "adds up to 0, value is 1")):
        monkeypatch.setattr(dp, "run_tables",
                            lambda *args, w=witness: ({_EMPTY: (1, w)}, 1))
        with pytest.raises(DPInvariantError, match=problem):
            solve(PAW, 1)
    # a weighted non-edge has no weight to re-add, and is still reported
    monkeypatch.setattr(dp, "run_tables", lambda *args: ({_EMPTY: (1, (1, 3, None))}, 1))
    with pytest.raises(DPInvariantError, match="adds up to nan"):
        solve(PAW, 1, weights=dict.fromkeys(PAW.edges, 1))


def test_weighted_solve_rejects_unrecorded_match(monkeypatch):
    # the forget mutant's value counts the weights of the forgets' matches,
    # which its witness does not hold; it still holds the pendant nodes'
    # matches, so it adds up to less than the true value, but not to 0
    g = interval(14, seed=3)
    wg = {e: 1 + e[0] % 3 for e in g.sorted_edges()}
    value = solve(g, 2, weights=wg).value
    assert value > 0
    monkeypatch.setattr(dp, "dp_forget", WRONG_RECURRENCES["forget"][1]["dp_forget"])
    with pytest.raises(DPInvariantError) as exc:
        solve(g, 2, weights=wg)
    total, reported = re.fullmatch(r"witness adds up to (\d+), value is (\d+)",
                                   str(exc.value)).groups()
    assert int(reported) == value and int(total) < value


def test_float_weights_certify_exactly():
    # solve re-adds the witness in the forward pass's own order and requires
    # the DP value exactly; a flat sum over the edges differs in its last
    # bits on some of these graphs
    flat_differs = 0
    for s in range(40):
        g = interval(12 + s % 20, s)
        rng = Rng(s)
        wg = {e: rng.randbelow(10 ** 6) / 997 for e in g.sorted_edges()}
        for r in (1, 2):
            res = solve(g, r, weights=wg)
            flat = sum(wg[e] for e in res.matching)
            assert math.isclose(flat, res.value)
            flat_differs += flat != res.value
    assert flat_differs > 0


def test_weighted_p4():
    res = solve(path(4), 1, weights={(0, 1): 5, (1, 2): 9, (2, 3): 5})
    assert res.value == 10
    assert res.matching == Matching([(0, 1), (2, 3)])


def test_unit_weights_collapse_to_nu_r():
    for seed in range(50):
        g = random_chordal(4 + seed % 9, seed)
        w = {e: 1 for e in g.edges}
        for r in (1, 2):
            assert solve(g, r, weights=w).value == solve(g, r).value


def test_weighted_single_edge_and_negative_weights():
    assert solve(Graph(2, [(0, 1)]), 1, weights={(0, 1): 7}).value == 7
    res = solve(path(3), 1, weights={(0, 1): -2, (1, 2): -4})
    assert res.value == 0 and len(res.matching) == 0


def test_weighted_graph_requires_all_weights():
    with pytest.raises(ValueError, match="missing weight"):
        solve(path(3), 1, weights={(0, 1): 1})


@pytest.mark.parametrize("weights, message", [
    ({(0, 1): 1}, "missing weight for edges [(1, 2)]"),
    ({(0, 1): 1, (1, 2): 1, (0, 2): 7}, "weight given for non-edges [(0, 2)]"),
    ({(0, 1): math.nan, (1, 2): 1}, "weight nan of edge (0, 1) is not a finite number"),
    ({(0, 1): 1, (1, 2): -math.inf},
     "weight -inf of edge (1, 2) is not a finite number"),
    # the smallest bad edge is named, whatever the dict's order
    ({(1, 2): math.nan, (0, 1): "5"},
     "weight '5' of edge (0, 1) is not a finite number"),
    ({(0, 1): True, (1, 2): 1}, "weight True of edge (0, 1) is not a finite number"),
    # keys of mixed types, which cannot be sorted together, are listed by repr
    ({(0, 1): 1, (1, 2): 1, (0, 2): 1, "a": 1},
     "weight given for non-edges ['a', (0, 2)]"),
], ids=["missing", "non-edge", "nan", "infinite", "string", "boolean",
        "mixed-key-types"])
def test_solve_rejects_bad_weights(weights, message):
    # the weights are checked first, before r, max_states and recognition:
    # on a chordless 4-cycle 0-1-2-3 with its other two edges weighted, the
    # same map is refused with the same message
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for g, w, r, cap in ((path(3), weights, 1, dp.MAX_STATES),
                         (path(3), weights, 0, 0),
                         (c4, weights | {(2, 3): 1, (0, 3): 1}, 1, 1)):
        with pytest.raises(ValueError) as exc:
            solve(g, r, weights=w, max_states=cap)
        assert str(exc.value) == message


def test_solve_checks_the_weights_on_every_call():
    # the caller's dict may change after a solve: a weight made NaN or a
    # string, or deleted, is refused by the next call, not summed or looked up
    g = interval(12, 1)
    weights = dict.fromkeys(g.edges, 1)
    e = min(g.edges)
    for bad, message in (
            (math.nan, "weight nan of edge %s is not a finite number" % (e,)),
            ("1", "weight '1' of edge %s is not a finite number" % (e,)),
            (None, "missing weight for edges [%s]" % (e,))):
        assert solve(g, 1, weights=weights).value == 2
        if bad is None:
            del weights[e]
        else:
            weights[e] = bad
        with pytest.raises(ValueError) as exc:
            solve(g, 1, weights=weights)
        assert str(exc.value) == message
        weights[e] = 1


def test_solve_accepts_weights_on_an_equal_graph():
    # the weights name edges only, so an isolated vertex needs none
    weights = {(0, 1): 5, (1, 2): 7}
    assert solve(path(3), 1, weights=weights).value == 7
    assert solve(Graph(4, [(0, 1), (1, 2)]), 1, weights=weights).value == 7


def test_solve_stats():
    res = solve(interval(8, seed=1), 2)
    assert res.nodes >= 1 and res.max_table >= 1
    assert len(res.matching) == res.value


def test_one_elimination_tree_per_solve(monkeypatch):
    calls = []
    build = chordal.elimination_order

    def counted(g, order):
        calls.append(g)
        return build(g, order)

    monkeypatch.setattr(chordal, "elimination_order", counted)
    for g in (k_tree(2, 12, seed=3), Graph(5, [(0, 1), (2, 3)]), Graph(0)):
        calls.clear()
        solve(g, 1)
        assert len(calls) == 1
    calls.clear()
    with pytest.raises(NotChordalError):
        solve(cycle(4), 1)
    assert len(calls) == 1
