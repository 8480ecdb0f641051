import pytest

from degenmatch import Graph, GeneratorSpec, ParseError, generate, is_chordal
from degenmatch.formats import (
    load_graph,
    parse_dimacs,
    parse_edge_list,
    parse_graph6,
    serialize_graph6,
)
from degenmatch.generate import (
    Rng,
    complete,
    complete_bipartite,
    cycle,
    interval,
    k_tree,
    path,
    random_bounded_degree,
    random_chordal,
)

from conftest import gnp, order_corpus


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
    """The quadratic encoder serialize_graph6 replaced: one has_edge call
    per vertex pair, bits packed six at a time."""
    n = g.n
    if n <= 62:
        data = [n + 63]
    else:
        data = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
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
    a = [Rng(0).next_u64() for _ in range(3)]
    b = [Rng(0).next_u64() for _ in range(3)]
    assert a == b
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


def test_bounded_degree_respects_cap():
    for seed in range(30):
        g = random_bounded_degree(20, 0.4, 4, seed)
        assert g.max_degree() <= 4


def test_generator_determinism():
    spec = GeneratorSpec("random-chordal", {"n": 12}, seed=7)
    assert generate(spec) == generate(spec)
    spec = GeneratorSpec("k-tree", {"k": 2, "n": 8}, seed=3)
    assert generate(spec) == generate(spec)
    assert generate(GeneratorSpec("complete-bipartite", {"a": 3, "b": 3})) == \
        complete_bipartite(3, 3)
    with pytest.raises(ValueError):
        generate(GeneratorSpec("moebius", {"n": 5}))
