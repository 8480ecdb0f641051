import pytest

from degenmatch import (
    Graph,
    Matching,
    NotChordalError,
    WeightedGraph,
    brute_degenerate_states,
    brute_nu_r,
    classify_matching,
    nu_r,
    nu_r_weighted,
    solve,
)
from degenmatch.chordal import build_nice_decomposition, mcs_order
from degenmatch.dp import dp_forget, dp_introduce, dp_join, dp_leaf, run_tables
from degenmatch.generate import (
    Rng,
    complete,
    cycle,
    interval,
    k_tree,
    path,
    random_chordal,
)


def test_dp_leaf():
    t = dp_leaf()
    assert t == {((), ()): (0, ("leaf",))}
    assert dp_leaf() == t  # recomputation identical


def test_dp_introduce_both_cases():
    child = dp_leaf()
    t = dp_introduce(child, 5, 2)
    assert set(t) == {((), ()), ((5,), ())}
    assert t[((5,), ())][0] == 0


def test_dp_introduce_size_guard():
    child = {((1, 2), ()): (0, ("leaf",))}
    t = dp_introduce(child, 3, 1)
    # |S'| = 2 > r = 1, so no augmented copy
    assert set(t) == {((1, 2), ())}


def test_dp_forget_cases():
    # downward-closed child table over bag {x=1, y=2}
    child = {
        ((), ()): (0, ("leaf",)),
        ((1,), ()): (0, ("leaf",)),
        ((2,), ()): (0, ("leaf",)),
        ((1, 2), ()): (0, ("leaf",)),
    }
    t = dp_forget(child, 1)
    assert t[((), ())][0] == 0
    assert t[((2,), ())][0] == 0
    assert t[((2,), (2,))] == (1, ("forget-match", ((1, 2), ()), (1, 2)))


def test_dp_forget_drop_case():
    child = {((1,), (1,)): (3, ("leaf",))}
    t = dp_forget(child, 1)
    assert t == {((), ()): (3, ("forget-drop", ((1,), (1,))))}


def test_dp_forget_weighted():
    w = WeightedGraph(Graph(3, [(1, 2)]), {(1, 2): 5})
    child = {((1, 2), ()): (0, ("leaf",))}
    t = dp_forget(child, 1, weights=w)
    assert t[((2,), (2,))][0] == 5


def test_dp_join():
    assert dp_join(dp_leaf(), dp_leaf()) == {((), ()): (0, ("join", ((), ()), ((), ())))}
    left = {((7,), (7,)): (1, ("leaf",))}
    right = {((7,), (7,)): (1, ("leaf",))}
    assert dp_join(left, right) == {}  # N sets overlap
    left = {((7, 8), (7,)): (1, ("leaf",))}
    right = {((7, 8), (8,)): (2, ("leaf",))}
    t = dp_join(left, right)
    assert t[((7, 8), (7, 8))][0] == 3


def test_nu_r_examples():
    value, m = nu_r(path(6), 1)
    assert value == 3
    assert classify_matching(path(6), m, 1).is_r_degenerate
    assert nu_r(complete(4), 1)[0] == 1
    assert nu_r(complete(4), 3)[0] == 2
    value, m = nu_r(Graph(5), 2)
    assert value == 0 and len(m) == 0


def test_nu_r_rejects_bad_inputs():
    with pytest.raises(NotChordalError):
        nu_r(cycle(5), 1)
    with pytest.raises(ValueError):
        nu_r(path(3), 0)


def test_oracle_equivalence_small():
    for seed in range(25):
        g = random_chordal(4 + seed % 8, seed)
        for r in (1, 2, 3):
            value, m = nu_r(g, r)
            assert value == brute_nu_r(g, r)
            cls = classify_matching(g, m, r)
            assert cls.is_r_degenerate and len(m) == value


def test_state_bound_and_downward_closure():
    for seed in range(10):
        g = random_chordal(10, seed)
        decomp = build_nice_decomposition(g, mcs_order(g))
        for r in (1, 2):
            tables = run_tables(decomp, r)
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
    # support and, per state, the maximum k
    for seed in range(6):
        g = random_chordal(6, seed)
        decomp = build_nice_decomposition(g, mcs_order(g))
        for r in (1, 2):
            tables = run_tables(decomp, r)
            for t in decomp.post_order():
                literal = brute_degenerate_states(g, decomp, r, t)
                best = {}
                for s, n, k in literal:
                    best[(s, n)] = max(best.get((s, n), -1), k)
                got = {key: value for key, (value, _) in tables[t].items()}
                assert got == best


def test_monotone_in_r_and_delta_collapse():
    for seed in range(15):
        g = random_chordal(9, seed)
        delta = max(g.max_degree(), 1)
        values = [nu_r(g, r)[0] for r in range(1, delta + 1)]
        assert values == sorted(values)
        # any matching is Delta-degenerate
        assert values[-1] == brute_nu_r(g, g.n + 1)


def test_witness_edges_leave_the_bag():
    # reconstruction creates edge xy only at x's forget node with y in the bag
    g = k_tree(2, 9, seed=2)
    decomp = build_nice_decomposition(g, mcs_order(g))
    tables = run_tables(decomp, 2)
    for t in decomp.post_order():
        nd = decomp.nodes[t]
        if nd.kind != "forget":
            continue
        for (s, n), (_, bp) in tables[t].items():
            if bp[0] == "forget-match":
                x, y = bp[2]
                assert nd.vertex in (x, y)
                other = y if nd.vertex == x else x
                assert other in nd.bag


def test_weighted_p4():
    w = WeightedGraph(path(4), {(0, 1): 5, (1, 2): 9, (2, 3): 5})
    value, m = nu_r_weighted(w, 1)
    assert value == 10
    assert m == Matching([(0, 1), (2, 3)])


def test_unit_weights_collapse_to_nu_r():
    for seed in range(50):
        g = random_chordal(4 + seed % 9, seed)
        w = WeightedGraph(g, {e: 1 for e in g.edges})
        for r in (1, 2):
            assert nu_r_weighted(w, r)[0] == nu_r(g, r)[0]


def test_weighted_single_edge_and_negative_weights():
    w = WeightedGraph(Graph(2, [(0, 1)]), {(0, 1): 7})
    assert nu_r_weighted(w, 1)[0] == 7
    w = WeightedGraph(path(3), {(0, 1): -2, (1, 2): -4})
    value, m = nu_r_weighted(w, 1)
    assert value == 0 and len(m) == 0


def test_weighted_graph_requires_all_weights():
    with pytest.raises(ValueError):
        WeightedGraph(path(3), {(0, 1): 1})


def test_solve_stats():
    res = solve(interval(8, seed=1), 2)
    assert res.nodes >= 1 and res.max_table >= 1
    assert len(res.matching) == res.value
