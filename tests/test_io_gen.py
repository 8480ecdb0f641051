import hashlib
import inspect
import json
import re
import sys
import tracemalloc

import pytest

from degenmatch import (
    Graph,
    LimitsExceededError,
    ParseError,
    formats,
    generate,
    is_chordal,
)
from degenmatch.cli import main
from degenmatch.formats import (
    load_graph,
    parse_dimacs,
    parse_edge_list,
    parse_graph6,
    serialize_graph6,
)
from degenmatch.generate import (
    FAMILIES,
    Rng,
    check_params,
    complete,
    complete_bipartite,
    cycle,
    interval,
    k_tree,
    path,
    random_bounded_degree,
    random_chordal,
)

from conftest import gnp, order_corpus, reference_graph


def test_graph6_hand_encoded():
    assert parse_graph6("@") == Graph(1)
    assert serialize_graph6(complete(4)) == "C~"
    assert parse_graph6("C~") == complete(4)
    # K_{2,2} with parts {0,1} and {2,3}: upper-triangle bits 011110
    k22 = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert serialize_graph6(k22) == "C]"
    assert parse_graph6("C]") == k22


def test_graph6_round_trip_fuzz():
    rng = Rng(77)
    for seed in range(250):
        g = gnp(1 + seed % 20, 0.3, seed)
        assert parse_graph6(serialize_graph6(g)) == g
    # string-side round trip on 1000 random valid strings
    count = 0
    for seed in range(1000):
        g = gnp(2 + seed % 12, (seed % 7) / 7.0, seed * 31 + 1)
        s = serialize_graph6(g)
        assert serialize_graph6(parse_graph6(s)) == s
        count += 1
    assert count == 1000


def _reference_graph6(g):
    """The quadratic encoder serialize_graph6 replaced: one edge lookup
    per vertex pair, bits packed six at a time."""
    n = g.n
    if n <= 62:
        data = [n + 63]
    else:
        data = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in g.edges else 0)
    for i in range(0, len(bits), 6):
        chunk = bits[i:i + 6]
        chunk += [0] * (6 - len(chunk))
        val = 0
        for b in chunk:
            val = (val << 1) | b
        data.append(val + 63)
    return "".join(chr(c) for c in data)


def test_graph6_equals_reference_encoder():
    graphs = order_corpus()
    for n in range(71):  # the header grows from one byte to four at 63
        graphs += [Graph(n), complete(n), path(n)]
    for g in graphs:
        assert serialize_graph6(g) == _reference_graph6(g)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_graph6_is_written_from_adjacency(family):
    # n 70 takes the four-byte header; a parsed graph holds adjacency only
    params = {"n": 70, "k": 3, "a": 5, "b": 65, "p": 0.1, "max_degree": 4}
    g = generate(family, {name: params[name] for name in FAMILIES[family][1]}, 2)
    parsed = parse_graph6(serialize_graph6(g))
    text = serialize_graph6(parsed)
    assert "edges" not in parsed.__dict__
    assert text == _reference_graph6(parsed) == _reference_graph6(g)


def test_graph6_long_form():
    g = path(80)
    s = serialize_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


def test_graph6_rejects_garbage():
    with pytest.raises(ParseError):
        parse_graph6("")
    with pytest.raises(ParseError):
        parse_graph6("C~~")  # extra group
    with pytest.raises(ParseError):
        parse_graph6("B~")  # nonzero trailing bits for n=3
    with pytest.raises(ParseError):
        parse_graph6("C\x07")


def test_graph6_edge_cap_checked_before_decoding(monkeypatch):
    # the count of set bits is exact across chunk boundaries, and a graph
    # over the cap is rejected before any edge is decoded
    monkeypatch.setattr(formats, "_G6_COUNT_CHUNK", 7)
    for g in (complete(13), k_tree(3, 40, seed=2), gnp(30, 0.4, seed=4)):
        text = serialize_graph6(g)
        assert parse_graph6(text, max_edges=g.m) == g
        with pytest.raises(LimitsExceededError, match="^%d edges exceeds limit %d$"
                           % (g.m, g.m - 1)):
            parse_graph6(text, max_edges=g.m - 1)
    monkeypatch.undo()
    text = serialize_graph6(complete(800))
    tracemalloc.start()
    try:
        with pytest.raises(LimitsExceededError, match="^319600 edges exceeds limit 1000$"):
            parse_graph6(text, max_edges=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_graph6_body_cap_checked_before_allocating():
    # path(100000) has 99999 edges, but its body would take 833 MB; the
    # largest graph under the 2^28-byte cap has 56756 vertices
    assert formats.MAX_GRAPH6_BYTES == 1 << 28
    g = path(100000)
    tracemalloc.start()
    try:
        with pytest.raises(LimitsExceededError,
                           match="^graph6 body of 833325000 bytes exceeds limit 268435456$"):
            serialize_graph6(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert (56756 * 56755 // 2 + 5) // 6 <= formats.MAX_GRAPH6_BYTES
    assert (56757 * 56756 // 2 + 5) // 6 > formats.MAX_GRAPH6_BYTES


def test_gen_checks_graph6_size_before_building(capsys, monkeypatch):
    # complete(56757) would build 1.6e9 edge tuples before serialize_graph6
    # refused it; the cap depends only on n, so the builder is never called
    def build(*args):
        raise AssertionError("builder called")

    for family, argv in (("complete", ["--n", "56757"]),
                         ("complete-bipartite", ["--a", "30000", "--b", "26757"])):
        monkeypatch.setitem(FAMILIES, family, (build,) + FAMILIES[family][1:])
        assert main(["gen", "--family", family] + argv) == 4
        assert capsys.readouterr() == ("", "limits exceeded: graph6 body of 268441691 "
                                       "bytes exceeds limit 268435456\n")


def _refuse_to_build(*args, **kwargs):
    raise AssertionError("graph built")


def _gen_argv(family, params, seed=1):
    return ["gen", "--family", family, "--seed", str(seed)] + [
        opt for name, value in params.items()
        for opt in ("--" + name.replace("_", "-"), str(value))]


def test_family_edge_counts_equal_the_built_graphs():
    for family, (_, names, _, _, edge_count) in FAMILIES.items():
        if edge_count is None:
            continue
        for n in range(1 + (family == "cycle") * 3, 9):
            for k in range(1, n):
                params = dict(zip(names, (k, n) if family == "k-tree" else (n, k)))
                assert edge_count(*params.values()) == generate(family, params).m
    assert FAMILIES["path"][4](0) == generate("path", {"n": 0}).m == 0


def _small_family_corpus(family):
    """Every graph of family over n 0 to 40 and seeds 0 to 5 that its rule
    allows: k-tree at k 1 to 4, complete-bipartite at three splits of n,
    random-bounded-degree at p 0, 0.3 and 1 and max_degree 0, 2 and 40."""
    for n in range(41):
        if family == "k-tree":
            choices = [{"k": k, "n": n} for k in range(1, 5)]
        elif family == "complete-bipartite":
            choices = [{"a": a, "b": n - a} for a in sorted({0, 1, n // 2})]
        elif family == "random-bounded-degree":
            choices = [{"n": n, "p": p, "max_degree": d}
                       for p in (0, 0.3, 1) for d in (0, 2, 40)]
        else:
            choices = [{"n": n}]
        for params in choices:
            for seed in range(6) if FAMILIES[family][2] else (0,):
                try:
                    check_params(family, params, seed)
                except ValueError:
                    continue
                yield generate(family, params, seed)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_builders_list_every_pair_of_a_simple_graph_once(family):
    # the builders hand a flat id list to the adjacency builder that the
    # readers and Graph(n, edges) share, which refuses a self-loop or a
    # repeat but takes each id as in range; so each adjacency tuple must be
    # strictly ascending, in range, free of its own vertex and symmetric, and
    # the pair-by-pair reference constructor must rebuild it
    count = 0
    for g in _small_family_corpus(family):
        for v, a in enumerate(g.adj):
            assert type(a) is tuple and all(map(int.__lt__, a, a[1:])), (g, v)
            assert v not in a and all(0 <= w < g.n for w in a), (g, v)
            assert all(g.has_edge(w, v) for w in a), (g, v)
        assert reference_graph(g.n, g.sorted_edges()) == g
        count += 1
    assert count >= 38  # cycle's corpus, the smallest, has n 3 to 40


_BUILDERS = sys.modules["degenmatch.generate"]


@pytest.mark.parametrize("ends, faults", [
    ([0, 1, 1, 2, 0, 1], [None, 2]),
    ([0, 1, 1, 2, 1, 0], [None, 2]),
    ([0, 1, 2, 2, 1, 2, 2, 1], [1, 3]),
    ([0, 0], [0, None]),
])
def test_the_build_step_refuses_a_self_loop_or_a_repeat(ends, faults):
    with pytest.raises(AssertionError) as exc:
        _BUILDERS._build(3, ends)
    assert str(exc.value) == "generated pairs: first self-loop, repeat %s" % faults


@pytest.mark.parametrize("ends", [[0, 1, 1, 2, 2, 1], [0, 1, 2, 2]])
def test_a_builder_that_lists_a_bad_pair_exits_internal(capsys, monkeypatch, ends):
    # a builder that lists a pair twice or a self-loop fails when it builds:
    # gen exits 5 and writes nothing
    monkeypatch.setitem(FAMILIES, "path", (lambda n: _BUILDERS._build(n, ends),)
                        + FAMILIES["path"][1:])
    assert main(["gen", "--family", "path", "--n", "3"]) == 5
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal invariant violation: generated pairs")


@pytest.mark.parametrize("family, params, m", [
    ("path", {"n": 12}, 11),
    ("cycle", {"n": 12}, 12),
    ("complete", {"n": 12}, 66),
    ("complete-bipartite", {"a": 3, "b": 5}, 15),
    ("k-tree", {"k": 3, "n": 12}, 30),
])
def test_gen_max_edges_refuses_before_building(capsys, monkeypatch, family, params, m):
    # these parameters fix the edge count, so a graph past --max-edges is
    # refused before its builder runs; at the cap it is built
    argv = _gen_argv(family, params)
    assert main(argv + ["--max-edges", str(m)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["m"] == m
    monkeypatch.setitem(FAMILIES, family, (_refuse_to_build,) + FAMILIES[family][1:])
    assert main(argv + ["--max-edges", str(m - 1)]) == 4
    assert capsys.readouterr() == (
        "", "limits exceeded: %d edges exceeds limit %d\n" % (m, m - 1))


def test_gen_max_edges_defaults_to_the_readers_cap(capsys, monkeypatch):
    # complete(56756) passes the graph6 cap with 1.6e9 edges, and
    # complete(4473) has 10,001,628; neither is built
    monkeypatch.setitem(FAMILIES, "complete",
                        (_refuse_to_build,) + FAMILIES["complete"][1:])
    for n, m in ((56756, 1610593390), (4473, 10001628)):
        assert main(["gen", "--family", "complete", "--n", str(n)]) == 4
        assert capsys.readouterr() == (
            "", "limits exceeded: %d edges exceeds limit %d\n" % (m, formats.MAX_EDGES))


def test_generate_defaults_to_the_readers_cap(monkeypatch):
    # generate has no uncapped mode: complete(4473), 10,001,628 edges, is
    # refused from its count before it is built
    monkeypatch.setitem(FAMILIES, "complete",
                        (_refuse_to_build,) + FAMILIES["complete"][1:])
    with pytest.raises(LimitsExceededError,
                       match="^10001628 edges exceeds limit 10000000$"):
        generate("complete", {"n": 4473})


@pytest.mark.parametrize("builder", [interval, random_chordal, random_bounded_degree])
def test_stopping_builders_default_to_the_readers_cap(builder):
    default = inspect.signature(builder).parameters["max_edges"].default
    assert default == formats.MAX_EDGES == 10 ** 7


@pytest.mark.parametrize("family, params", [
    ("interval", {"n": 50000}),
    ("random-chordal", {"n": 50000}),
    ("random-bounded-degree", {"n": 50000, "p": 1, "max_degree": 50000}),
])
def test_gen_max_edges_stops_at_the_first_edge_past_it(capsys, monkeypatch, family,
                                                       params):
    # the count is known only while building: the builder stops in the row
    # that passes the cap, where the whole graph would take minutes, and no
    # Graph is made
    monkeypatch.setattr(sys.modules["degenmatch.generate"], "Graph", _refuse_to_build)
    assert main(_gen_argv(family, params) + ["--max-edges", "1000"]) == 4
    assert capsys.readouterr() == ("", "limits exceeded: 1001 edges exceeds limit 1000\n")


@pytest.mark.parametrize("family, params", [
    ("interval", {"n": 60}),
    ("random-chordal", {"n": 60}),
    ("random-bounded-degree", {"n": 60, "p": 0.3, "max_degree": 6}),
])
def test_generate_max_edges_keeps_graphs_within_it(family, params):
    g = generate(family, params, 3)
    assert generate(family, params, 3, max_edges=g.m) == g
    with pytest.raises(LimitsExceededError,
                       match="^%d edges exceeds limit %d$" % (g.m, g.m - 1)):
        generate(family, params, 3, max_edges=g.m - 1)


def test_gen_negative_max_edges_is_invalid(capsys):
    assert main(["gen", "--family", "path", "--n", "3", "--max-edges", "-1"]) == 3
    assert capsys.readouterr() == ("", "invalid input: max_edges must be non-negative\n")


@pytest.mark.parametrize("cap, message", [
    (None, "an integer"), (2.5, "an integer"), (3.0, "an integer"),
    (True, "an integer"), ("3", "an integer"), (-1, "non-negative"),
])
def test_max_edges_must_be_an_int_of_at_least_0(cap, message):
    # generate and the builders that stop past the cap refuse it before they
    # build anything, as solve refuses an r or a max_states that is not an
    # int; True is no cap of 1
    calls = (lambda: generate("path", {"n": 3}, max_edges=cap),
             lambda: generate("interval", {"n": 5}, max_edges=cap),
             lambda: interval(5, max_edges=cap),
             lambda: random_chordal(5, max_edges=cap),
             lambda: random_bounded_degree(5, 0.5, 2, max_edges=cap))
    for call in calls:
        with pytest.raises(ValueError, match="^max_edges must be %s$" % message):
            call()


def test_header_prefix_accepted():
    assert parse_graph6(">>graph6<<C~") == complete(4)


def test_edge_list():
    assert parse_edge_list("1 2\n") == Graph(2, [(0, 1)])
    g = parse_edge_list("1 2\n2 3\n3 4\n4 1\n")
    assert g == cycle(4)
    with pytest.raises(ParseError):
        parse_edge_list("1 1\n")
    with pytest.raises(ParseError):
        parse_edge_list("1 2\n2 1\n")
    with pytest.raises(ParseError):
        parse_edge_list("0 2\n")


@pytest.mark.parametrize("ids", ["1_0 2", "\u0661 \u0662", "+1 2", "1 \uff12"],
                         ids=["underscore", "arabic-indic", "sign", "fullwidth"])
def test_vertex_ids_are_ascii_decimal_digits(ids):
    # int() reads all of these ('1_0' as 10); a parser must not
    with pytest.raises(ParseError, match="^line 2: non-integer vertex id$"):
        parse_edge_list("3 4\n%s\n" % ids)
    with pytest.raises(ParseError, match="^line 2: non-integer vertex id$"):
        parse_dimacs("p edge 12 1\ne %s\n" % ids)
    # the problem line's counts follow the same rule
    with pytest.raises(ParseError, match="^line 1: bad problem line$"):
        parse_dimacs("p edge %s\n" % ids)


def test_dimacs():
    assert parse_dimacs("p edge 2 1\ne 1 2\n") == Graph(2, [(0, 1)])
    with pytest.raises(ParseError):
        parse_dimacs("p edge 2 1\ne 1 1\n")
    with pytest.raises(ParseError):
        parse_dimacs("p edge 2 1\ne 1 3\n")
    with pytest.raises(ParseError):
        parse_dimacs("e 1 2\n")
    with pytest.raises(ParseError):
        parse_dimacs("p edge 3 2\ne 1 2\n")


def test_load_graph_autodetect():
    assert load_graph("C~") == complete(4)
    assert load_graph("1 2\n2 3\n") == path(3)
    assert load_graph("# a path on three vertices\n\n1 2\n2 3\n") == path(3)
    assert load_graph("p edge 3 1\ne 1 3\n") == Graph(3, [(0, 2)])
    assert load_graph("c\np edge 2 1\ne 1 2\n") == path(2)


def test_rng_portable_and_deterministic():
    r = Rng(0)
    assert [r.next_u64() for _ in range(3)] == [
        0x7BBCB40D550682D0, 0xDE7FE413D00CC9FD, 0xB3C638353C668C91]
    assert Rng(1).next_u64() != Rng(2).next_u64()
    r = Rng(5)
    vals = [r.randbelow(10) for _ in range(100)]
    assert all(0 <= v < 10 for v in vals)


def test_families():
    assert path(5).m == 4
    assert cycle(5).m == 5
    assert complete(5).m == 10
    kab = complete_bipartite(3, 3)
    assert kab.m == 9 and kab.max_degree() == 3
    with pytest.raises(ValueError):
        cycle(2)


def test_k_tree_properties():
    g = k_tree(2, 8, seed=11)
    assert g.m == 2 * 8 - 3
    assert is_chordal(g)
    with pytest.raises(ValueError):
        k_tree(3, 3)


def test_random_chordal_always_chordal():
    for seed in range(60):
        assert is_chordal(random_chordal(4 + seed % 10, seed))


def test_interval_chordal():
    for seed in range(40):
        assert is_chordal(interval(3 + seed % 10, seed))


@pytest.mark.parametrize("family, params, seed, digest", [
    ("k-tree", {"k": 3, "n": 40}, 2,
     "29befcb9624f42a0956cdf26c32a40d07aa5cb524dd0487f7a74921842412a33"),
    ("random-chordal", {"n": 30}, 5,
     "85130facc1cc46add201763f5788bfed0c455869636277a4a08e8acc00910f13"),
    ("interval", {"n": 30}, 4,
     "9953e8b7a84c718538d6b97608e7b058c62dc3d2dcde94f190d30c96c22b06f8"),
    ("random-bounded-degree", {"n": 40, "p": 0.3, "max_degree": 5}, 3,
     "156dfd3b47cb0c2d4de36a1a29493d2f30c2542b7973aba6bd276a5f953a4ef7"),
    ("random-bounded-degree", {"n": 40, "p": 1, "max_degree": 5}, 3,
     "6ed3592740f21aeb9334df27ad6139365c13d400b976a4d199c2a8fc4a92e6c2"),
], ids=["k-tree", "random-chordal", "interval", "bounded-degree-p0.3",
        "bounded-degree-p1"])
def test_seeded_families_match_pinned_graphs(family, params, seed, digest):
    # the sha256 of each graph6 line, so a changed random stream or draw
    # order fails on every Python version
    line = serialize_graph6(generate(family, params, seed))
    assert hashlib.sha256(line.encode()).hexdigest() == digest


def _reference_chance(rng, p):
    """The per-draw test Rng.chances replaced: true with probability p, via
    a 53-bit threshold."""
    return rng.next_u64() >> 11 < p * (1 << 53)


def _reference_bounded_degree(n, p, max_degree, seed=0):
    """The per-pair random_bounded_degree that one chances call per row
    replaced: one draw per pair in lexicographic order."""
    rng = Rng(seed)
    deg = [0] * n
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if _reference_chance(rng, p) and deg[u] < max_degree and deg[v] < max_degree:
                edges.append((u, v))
                deg[u] += 1
                deg[v] += 1
    return edges


# p at both ends (1 as an int and as a float), below one step of the 53-bit
# threshold, and one step under 1
REFERENCE_PS = [0, 1, 1.0, 2.0 ** -60, 0.05, 0.5, 1 - 2.0 ** -53]


def test_bounded_degree_equals_reference():
    for n in range(41):
        for p in REFERENCE_PS:
            for max_degree in sorted({0, 1, 3, n}):
                for seed in range(10):
                    g = random_bounded_degree(n, p, max_degree, seed)
                    assert sorted(g.edges) == _reference_bounded_degree(
                        n, p, max_degree, seed), (n, p, max_degree, seed)


def test_chances_equals_reference_draws():
    for p in REFERENCE_PS + [0.3, 5e-324]:
        for seed in range(5):
            for count in (0, 1, 2, 7, 64, 500):
                rng, twin = Rng(seed), Rng(seed)
                hits = rng.chances(p, count)
                assert hits == [i for i in range(count) if _reference_chance(twin, p)]
                assert rng.state == twin.state
                # the next draw continues the same stream
                assert rng.next_u64() == twin.next_u64()


@pytest.mark.parametrize("p", [float("nan"), -0.25, 1.5, float("inf"),
                               -float("inf"), 1 + 2.0 ** -52, 2, -1])
def test_chances_refuses_p_outside_unit_interval(p):
    # refused before any draw, with the message random_bounded_degree gives
    rng = Rng(9)
    before = rng.state
    with pytest.raises(ValueError, match=r"^p must be between 0 and 1, got %s$"
                       % re.escape(repr(p))):
        rng.chances(p, 10)
    assert rng.state == before
    with pytest.raises(ValueError, match="^p must be between 0 and 1"):
        random_bounded_degree(5, p, 2)


def test_chance_is_gone():
    assert not hasattr(Rng, "chance")


def test_bounded_degree_respects_cap():
    for seed in range(30):
        g = random_bounded_degree(20, 0.4, 4, seed)
        assert g.max_degree() <= 4


@pytest.mark.parametrize("option, value, message", [
    ("--p", "1.5", "p must be between 0 and 1, got 1.5"),
    ("--p", "-0.25", "p must be between 0 and 1, got -0.25"),
    ("--n", "-3", "n must be non-negative, got -3"),
    ("--max-degree", "-1", "max_degree must be non-negative, got -1"),
])
def test_bounded_degree_names_the_bad_parameter(capsys, option, value, message):
    args = {"--n": "12", "--max-degree": "11", "--p": "0.5", option: value}
    argv = ["gen", "--family", "random-bounded-degree"]
    for name, given in args.items():
        argv += [name + "=" + given]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "invalid input: %s\n" % message)


def test_generator_determinism():
    assert generate("random-chordal", {"n": 12}, seed=7) == \
        generate("random-chordal", {"n": 12}, seed=7)
    assert generate("k-tree", {"k": 2, "n": 8}, seed=3) == \
        generate("k-tree", {"k": 2, "n": 8}, seed=3)
    assert generate("complete-bipartite", {"a": 3, "b": 3}) == \
        complete_bipartite(3, 3)
    with pytest.raises(ValueError):
        generate("moebius", {"n": 5})
