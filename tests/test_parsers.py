"""Differential tests of the parsers against the line-by-line parsers they
replaced, kept here as _reference_*: every text, valid or not, must give an
equal graph with equal adjacency, or the same exception with the same
message. The texts are drawn and then mutated: comments, blank lines, CRLF
and the other line breaks of str.splitlines, tabs and other whitespace,
non-ASCII comments, leading zeros, duplicate edges, self-loops, ids out of
range, and caps on both sides of the graph's size."""

import contextlib
import hashlib
import math
import re
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from conftest import gnp, reference_graph

from degenmatch import Graph, ParseError, formats
from degenmatch.formats import (
    MAX_EDGES,
    MAX_VERTICES,
    load_graph,
    parse_dimacs,
    parse_edge_list,
    parse_graph6,
    serialize_graph6,
)
from degenmatch.generate import interval, k_tree, path, random_chordal
from degenmatch.graphs import _check_size

SETTINGS = settings(max_examples=300, deadline=None)

_REFERENCE_G6_BAD_BYTE = re.compile(r"[^?-~]")
_REFERENCE_G6_NONZERO_GROUP = re.compile(r"[@-~]")
_REFERENCE_G6_SUB_63 = bytes(63) + bytes(range(64)) + bytes(129)
_REFERENCE_G6_COUNT_CHUNK = 1 << 20


def _reference_parse_graph6(text, max_vertices, max_edges):
    """Decode in time linear in the text: one C-speed scan checks every
    byte, then only the groups other than '?' (no edge) are read."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty graph6 string")
    bad = _REFERENCE_G6_BAD_BYTE.search(s)
    if bad:
        raise ParseError("invalid graph6 byte %r" % bad.group())
    # the vertex count takes 1, 3 or 6 bytes after a '', '~' or '~~' prefix
    start, pos = (2, 8) if s[:2] == "~~" else (1, 4) if s[0] == "~" else (0, 1)
    if len(s) < pos:
        raise ParseError("truncated graph6 header")
    n = 0
    for ch in s[start:pos]:
        n = (n << 6) | (ord(ch) - 63)
    _check_size(n, 0, max_vertices, max_edges)
    nbits = n * (n - 1) // 2
    ngroups = (nbits + 5) // 6
    if len(s) - pos != ngroups:
        raise ParseError("graph6 body has %d groups, expected %d"
                         % (len(s) - pos, ngroups))
    # the last group's low padding bits must be zero
    if (ord(s[-1]) - 63) & ((1 << (6 * ngroups - nbits)) - 1):
        raise ParseError("nonzero trailing bits in graph6 string")
    m = sum(int.from_bytes(s[k:k + _REFERENCE_G6_COUNT_CHUNK].encode()
                           .translate(_REFERENCE_G6_SUB_63), "big").bit_count()
            for k in range(pos, len(s), _REFERENCE_G6_COUNT_CHUNK))
    _check_size(n, m, max_vertices, max_edges)
    # bit idx = j(j-1)/2 + i stands for the edge (i, j), i < j
    edges = []
    for group in _REFERENCE_G6_NONZERO_GROUP.finditer(s, pos):
        value = ord(group.group()) - 63
        base = 6 * (group.start() - pos)
        for k in range(6):
            if value & (32 >> k):
                idx = base + k
                j = (1 + math.isqrt(8 * idx + 1)) // 2
                edges.append((idx - j * (j - 1) // 2, j))
    return reference_graph(n, edges)


def _reference_content_lines(text, comment):
    """(line number, stripped line) for each line neither blank nor a comment."""
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith(comment):
            yield lineno, line


def _reference_graph(n, edges, text, comment, header_lines):
    """reference_graph(n, edges) for a parsed edge list or DIMACS text, whose
    only fault left is an edge listed twice. In such a text, edge k is on
    content line header_lines + k, so only a refused file is read again to
    name the line."""
    try:
        return reference_graph(n, edges)
    except ValueError as exc:
        seen = set()
        for k, e in enumerate(map(frozenset, edges)):
            if e in seen:
                lineno, _ = list(_reference_content_lines(text, comment))[header_lines + k]
                raise ParseError("line %d: duplicate edge" % lineno) from None
            seen.add(e)
        raise ParseError(str(exc)) from None


def _reference_parse_edge_list(text, max_vertices, max_edges):
    """Plain 'u v' lines with 1-based vertex ids; n is the largest id seen."""
    edges = []
    max_id = 0
    for lineno, line in _reference_content_lines(text, "#"):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("line %d: expected 'u v'" % lineno)
        # int() alone also reads '1_0' as 10, signs and non-ASCII digits
        u, v = parts
        if not (line.isascii() and u.isdigit() and v.isdigit()):
            raise ParseError("line %d: non-integer vertex id" % lineno)
        u, v = int(u), int(v)
        if u < 1 or v < 1:
            raise ParseError("line %d: vertex ids are 1-based" % lineno)
        if u == v:
            raise ParseError("line %d: self-loop" % lineno)
        max_id = max(max_id, u, v)
        edges.append((u - 1, v - 1))
        # reading stops at the first line past a cap
        if max_id > max_vertices or len(edges) > max_edges:
            _check_size(max_id, len(edges), max_vertices, max_edges)
    return _reference_graph(max_id, edges, text, "#", 0)


def _reference_parse_dimacs(text, max_vertices, max_edges):
    """DIMACS 'p edge n m' with 'e u v' lines, 1-based ids."""
    n = None
    declared_m = None
    edges = []
    for lineno, line in _reference_content_lines(text, "c"):
        parts = line.split()
        if parts[0] == "p":
            if (n is not None or len(parts) != 4 or parts[1] not in ("edge", "col")
                    or not (line.isascii() and (parts[2] + parts[3]).isdigit())):
                raise ParseError("line %d: bad problem line" % lineno)
            n, declared_m = int(parts[2]), int(parts[3])
            _check_size(n, declared_m, max_vertices, max_edges)
        elif parts[0] == "e":
            if n is None:
                raise ParseError("line %d: edge before problem line" % lineno)
            if len(parts) != 3:
                raise ParseError("line %d: expected 'e u v'" % lineno)
            if len(edges) == declared_m:
                raise ParseError("line %d: more edges than the %d the header declares"
                                 % (lineno, declared_m))
            u, v = parts[1:]
            if not (line.isascii() and u.isdigit() and v.isdigit()):
                raise ParseError("line %d: non-integer vertex id" % lineno)
            u, v = int(u), int(v)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError("line %d: vertex id out of range" % lineno)
            if u == v:
                raise ParseError("line %d: self-loop" % lineno)
            edges.append((u - 1, v - 1))
        else:
            raise ParseError("line %d: unknown record %r" % (lineno, parts[0]))
    if n is None:
        raise ParseError("missing problem line")
    if declared_m is not None and declared_m != len(edges):
        raise ParseError("header declares %d edges, found %d"
                         % (declared_m, len(edges)))
    # the one problem line comes before every edge line
    return _reference_graph(n, edges, text, "c", 1)


def _reference_load_graph(text, fmt="auto", max_vertices=MAX_VERTICES,
                          max_edges=MAX_EDGES):
    if min(max_vertices, max_edges) < 0:
        raise ValueError("max_vertices and max_edges must be non-negative")
    if fmt == "auto":
        _, first = next(_reference_content_lines(text, "#"), (0, ""))
        if first == "c" or first[:2] in ("c ", "p ", "e "):
            fmt = "dimacs"
        elif len(first.split()) == 2:
            fmt = "edgelist"
        else:
            fmt = "graph6"
    parsers = {"graph6": _reference_parse_graph6, "edgelist": _reference_parse_edge_list,
               "dimacs": _reference_parse_dimacs}
    if fmt not in parsers:
        raise ParseError("unknown format %r" % fmt)
    return parsers[fmt](text, max_vertices, max_edges)


def _outcome(parse, text, caps):
    try:
        return parse(text, *caps)
    except Exception as exc:  # any exception, so that a new kind shows as a difference
        return type(exc), str(exc)


def _same(parse, reference, text, caps, chunk):
    """parse and reference agree on text under caps, with the bulk reader's
    chunks about chunk characters long."""
    want = _outcome(reference, text, caps)
    saved = formats._CHUNK
    formats._CHUNK = chunk
    try:
        got = _outcome(parse, text, caps)
    finally:
        formats._CHUNK = saved
    if isinstance(want, Graph):
        assert isinstance(got, Graph), (text, got)
        assert got == want and got.n == want.n and got.adj == want.adj
        assert hash(got) == hash(want) and got.m == want.m
        assert got.edges == want.edges and got.sorted_edges() == sorted(want.edges)
    else:
        assert got == want, text


CAPS = st.tuples(st.one_of(st.just(MAX_VERTICES), st.integers(0, 12)),
                 st.one_of(st.just(MAX_EDGES), st.integers(0, 12)))
CHUNKS = st.sampled_from([1 << 16, 1, 5, 12])


class Style:
    """The characters a drawn text is made of. PLAIN texts mostly take the
    bulk reader's path, so their faults are ids, counts, repeats and caps;
    ANY texts also use every line break of str.splitlines and other
    whitespace, which the bulk reader takes only in some places."""

    def __init__(self, breaks, pads, seps, ids, comment):
        self.brk = st.sampled_from(breaks)
        self.pad = st.sampled_from(pads)
        self.sep = st.sampled_from(seps)
        self.id = ids
        self.comment = st.text(st.sampled_from(comment), max_size=6)

    def lines(self, line):
        return st.lists(st.tuples(line, self.brk), max_size=12)


PLAIN = Style(["\n", "\r\n"], ["", "", " ", "\t"], [" ", " ", "\t", "  "],
              st.one_of(st.integers(1, 9).map(str), st.sampled_from(["0", "01", "10"])),
              "ab \t12#ce")
ANY = Style(["\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
             "\u2028", "\u2029"],
            ["", "", " ", "\t", "\x1f", "\xa0", "\u3000"],
            [" ", " ", "\t", "  ", "\x1f", "\xa0", "\u3000"],
            st.one_of(st.integers(0, 9).map(str), st.sampled_from(
                ["01", "007", "12", "1_0", "+1", "-1", "\u0661", "\uff12", "x", "1.0"])),
            "ab \t12#ce\xe9\u4e2d\x0b\r\u2028")
STYLES = st.sampled_from([PLAIN, ANY])


def _line(*parts):
    return st.tuples(*parts).map("".join)


def _join(pairs, final=True):
    """Each drawn line followed by its drawn line break, but the last line
    only when final."""
    text = "".join(line + brk for line, brk in pairs)
    return text if final or not pairs else text[:-len(pairs[-1][1])]


@st.composite
def edge_list_texts(draw):
    """Edge lines, comments, blank lines and a few malformed lines."""
    t = draw(STYLES)
    edge = _line(t.pad, t.id, t.sep, t.id, t.pad)
    lines = draw(t.lines(st.one_of(
        edge, edge, edge, edge, _line(t.pad, st.just("#"), t.comment),
        st.sampled_from(["", " ", "1", "1 2 3", "e 1 2", "p edge 3 1", "#"]))))
    return _join(lines, draw(st.booleans()))


@st.composite
def dimacs_texts(draw):
    """Comments, a problem line that most often counts the edge lines, then
    the lines after it."""
    t = draw(STYLES)
    edge = _line(t.pad, st.just("e"), t.sep, t.id, t.sep, t.id, t.pad)
    before = draw(t.lines(st.one_of(_line(t.pad, st.just("c"), t.comment), st.just(""))))
    after = draw(t.lines(st.one_of(
        edge, edge, edge, edge, _line(t.pad, st.just("c"), t.comment),
        st.sampled_from(["", "e 1", "e 1 2 3", "x 1 2", "p edge 3 1", "E 1 2", "1 2"]))))
    count = sum(line.split()[:1] == ["e"] for line, _ in after)
    problem = draw(_line(t.pad, st.sampled_from(["p", "p", "p", "p", "P"]), t.sep,
                         st.sampled_from(["edge", "edge", "col", "edges"]), t.sep,
                         st.integers(1, 9).map(str), t.sep,
                         st.sampled_from([count, count, count - 1, count + 1]).map(str),
                         t.pad))
    return _join(before) + problem + draw(t.brk) + _join(after, draw(st.booleans()))


def _mutate(text, data):
    """text with a few characters replaced, inserted or deleted, or with one
    of its lines repeated at another place."""
    pool = "0123456789 \t\n\r#ce?@~_\x0b\x1c\x85\u2028\xe9"
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(text)))
        ch = data.draw(st.sampled_from(pool))
        how = data.draw(st.sampled_from(["replace", "insert", "delete", "repeat"]))
        if how == "repeat":
            lines = text.splitlines(keepends=True)
            if lines:
                line = lines[data.draw(st.integers(0, len(lines) - 1))]
                lines.insert(data.draw(st.integers(0, len(lines))), line)
            text = "".join(lines)
        elif how == "insert":
            text = text[:i] + ch + text[i:]
        else:
            text = text[:i] + (ch if how == "replace" else "") + text[i + 1:]
    return text


def _edge_list_of(g, brk):
    return "".join("%d %d%s" % (u + 1, v + 1, brk) for u, v in g.sorted_edges())


@SETTINGS
@given(edge_list_texts(), CAPS, CHUNKS)
def test_edge_list_matches_the_line_parser(text, caps, chunk):
    _same(parse_edge_list, _reference_parse_edge_list, text, caps, chunk)
    _same(load_graph, _reference_load_graph, text, ("auto",) + caps, chunk)


@SETTINGS
@given(dimacs_texts(), CAPS, CHUNKS)
def test_dimacs_matches_the_line_parser(text, caps, chunk):
    _same(parse_dimacs, _reference_parse_dimacs, text, caps, chunk)
    _same(load_graph, _reference_load_graph, text, ("auto",) + caps, chunk)


def test_dimacs_without_a_problem_line():
    # blank and comment lines alone hold no problem line
    caps = (MAX_VERTICES, MAX_EDGES)
    for text in ["", "\n", " \t\n\r\n", "c\n", "c only a comment\n", "c a\n\nc b",
                 "c a\r\nc b\r\n", "c a c b\n", "\xa0c a\n"]:
        assert _outcome(_reference_parse_dimacs, text, caps) == (
            ParseError, "missing problem line")
        for chunk in (1 << 16, 1, 5):
            _same(parse_dimacs, _reference_parse_dimacs, text, caps, chunk)
            _same(load_graph, _reference_load_graph, text, ("dimacs",) + caps, chunk)


# caps near the graph's own size: on it, one below, one above
NEAR = st.one_of(st.none(), st.integers(-2, 2))


def _near(caps, n, m):
    return tuple(default if d is None else max(0, size + d)
                 for d, size, default in zip(caps, (n, m), (MAX_VERTICES, MAX_EDGES)))


@SETTINGS
@given(st.integers(0, 12), st.integers(0, 99), st.sampled_from(["\n", "\r\n", "\x0b"]),
       st.tuples(NEAR, NEAR), CHUNKS, st.data())
def test_mutated_edge_lists_and_dimacs_match_the_line_parsers(n, seed, brk, near, chunk,
                                                              data):
    g = gnp(n, 0.4, seed)
    caps = _near(near, max((v + 1 for a in g.adj for v in a), default=0), g.m)
    dimacs = "c x%sp edge %d %d%s" % (brk, n, g.m, brk) + "".join(
        "e %d %d%s" % (u + 1, v + 1, brk) for u, v in g.sorted_edges())
    for parse, reference, text in (
            (parse_edge_list, _reference_parse_edge_list, _edge_list_of(g, brk)),
            (parse_dimacs, _reference_parse_dimacs, dimacs)):
        _same(parse, reference, text, caps, chunk)
        text = _mutate(text, data)
        _same(parse, reference, text, caps, chunk)
        _same(load_graph, _reference_load_graph, text, ("auto",) + caps, chunk)


@SETTINGS
@given(st.integers(0, 70), st.integers(0, 99), st.sampled_from(["", ">>graph6<<"]),
       st.sampled_from(["", "\n", " \r\n", "\t"]), st.tuples(NEAR, NEAR), st.data())
def test_graph6_matches_the_group_by_group_decoder(n, seed, prefix, end, near, data):
    g = gnp(n, data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])), seed)
    caps = _near(near, n, g.m)
    text = prefix + serialize_graph6(g) + end
    _same(parse_graph6, _reference_parse_graph6, text, caps, formats._CHUNK)
    text = _mutate(text, data)
    _same(parse_graph6, _reference_parse_graph6, text, caps, formats._CHUNK)
    _same(load_graph, _reference_load_graph, text, ("auto",) + caps, formats._CHUNK)


def test_large_texts_match_in_every_format():
    # path(3000) and k_tree(3, 3000, 1) are sparse: most graph6 columns that
    # hold an edge hold one or three of their thousands of bits
    for g in (k_tree(3, 300, 1), path(3000), k_tree(3, 3000, 1)):
        dimacs = "p edge %d %d\n" % (g.n, g.m) + "".join(
            "e %d %d\n" % (u + 1, v + 1) for u, v in g.edges)
        for parse, reference, text in (
                (parse_graph6, _reference_parse_graph6, serialize_graph6(g)),
                (parse_edge_list, _reference_parse_edge_list, _edge_list_of(g, "\r\n")),
                (parse_dimacs, _reference_parse_dimacs, dimacs)):
            for chunk in (1 << 16, 100):
                _same(parse, reference, text, (MAX_VERTICES, MAX_EDGES), chunk)
                assert parse(text) == g


@contextlib.contextmanager
def _no_fault_naming():
    """The code that names a parse fault fails while this is open, so a
    text that reaches it fails the test."""
    def name(*args):
        raise AssertionError("a valid text reached the fault-naming code")
    with mock.patch.multiple(formats, _refuse=name, _name=name):
        yield


def _valid_texts_reach_no_fault_naming(parse, reference, text):
    want = _outcome(reference, text, (MAX_VERTICES, MAX_EDGES))
    if isinstance(want, Graph):
        with _no_fault_naming():
            got = parse(text)
        assert got == want and got.adj == want.adj, text


@SETTINGS
@given(edge_list_texts(), dimacs_texts())
def test_drawn_valid_texts_reach_no_fault_naming(edge_list, dimacs):
    _valid_texts_reach_no_fault_naming(parse_edge_list, _reference_parse_edge_list,
                                       edge_list)
    _valid_texts_reach_no_fault_naming(parse_dimacs, _reference_parse_dimacs, dimacs)


_SPACES = [c for c in map(chr, range(0x3001)) if c.isspace()]
_BREAKS = [c for c in _SPACES if len(("a%sb" % c).splitlines()) == 2]


def test_every_line_break_and_space_reaches_no_fault_naming():
    assert _BREAKS == list("\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029")
    pads = [c for c in _SPACES if c not in _BREAKS]
    seps = [c for c in pads if c.isascii()]
    assert seps == list("\t\x1f ")
    texts = []
    for brk in _BREAKS + ["\r\n"]:
        texts.append(("1 2{0}# c{0}{0}2 3{0}", "c x{0}p edge 3 2{0}e 1 2{0}c{0}e 2 3{0}", brk))
    for pad in pads:
        texts.append(("{0}1 2{0}\n{0}#{0}\n{0}\n2 3{0}",
                      "{0}c{0}\n{0}p edge 3 2{0}\n{0}e 1 2{0}\n{0}\ne 2 3{0}", pad))
    for sep in seps:
        texts.append(("1{0}2\n2{0}{0}3", "p{0}col{0}3{0}2\ne{0}1{0}2\ne{0}2{0}3", sep))
    for edge_list, dimacs, ch in texts:
        _valid_texts_reach_no_fault_naming(parse_edge_list, _reference_parse_edge_list,
                                           edge_list.format(ch))
        _valid_texts_reach_no_fault_naming(parse_dimacs, _reference_parse_dimacs,
                                           dimacs.format(ch))
        assert parse_edge_list(edge_list.format(ch)) == path(3), repr(ch)
        assert parse_dimacs(dimacs.format(ch)) == path(3), repr(ch)


def _counted_reads(monkeypatch):
    """[characters of the chunks read, the record each fault-naming call was
    given], kept up to date while the test runs."""
    reads = [0, []]
    chunks, name = formats._chunks, formats._name

    def counted_chunks(*args):
        for chunk in chunks(*args):
            reads[0] += len(chunk)
            yield chunk

    def counted_name(text, marks, k, *args, **kwargs):
        reads[1].append(k)
        return name(text, marks, k, *args, **kwargs)
    monkeypatch.setattr(formats, "_chunks", counted_chunks)
    monkeypatch.setattr(formats, "_name", counted_name)
    return reads


def _named_from_its_chunk(monkeypatch, parse, reference, text, caps, want=None, begin=0):
    """parse names the fault on text's last line as reference does, reading
    each chunk (the first starts at begin) once and the last chunk, which
    holds the fault, once more, with one call of the fault namer."""
    monkeypatch.setattr(formats, "_CHUNK", 64)
    last = list(formats._chunks(text, begin))[-1]
    got = _outcome(reference, text, caps)
    assert isinstance(got, tuple) and want in (None, got)
    reads = _counted_reads(monkeypatch)
    assert _outcome(parse, text, caps) == got
    assert reads[0] == len(text) - begin + len(last)
    assert len(reads[1]) == 1


@pytest.mark.parametrize("last, caps", [
    ("2000 2001", (2000, MAX_EDGES)),
    ("2000 2001", (MAX_VERTICES, 1999)),
    ("2000 x", (MAX_VERTICES, MAX_EDGES)),
    ("0 2000", (MAX_VERTICES, MAX_EDGES)),
], ids=["vertex-cap", "edge-cap", "bad-line", "id-0"])
def test_an_edge_list_fault_is_named_from_its_chunk(monkeypatch, last, caps):
    # 2,000 lines of a path, whose only fault is on the last
    text = "".join("%d %d\n" % (i, i + 1) for i in range(1, 2000)) + last + "\n"
    _named_from_its_chunk(monkeypatch, parse_edge_list, _reference_parse_edge_list, text,
                          caps)


def test_a_dimacs_fault_is_named_from_its_chunk(monkeypatch):
    text = "p edge 2001 1999\n" + "".join("e %d %d\n" % (i, i + 1) for i in range(1, 2001))
    _named_from_its_chunk(monkeypatch, parse_dimacs, _reference_parse_dimacs, text,
                          (MAX_VERTICES, MAX_EDGES),
                          (ParseError, "line 2001: more edges than the 1999 the header declares"),
                          text.index("\n") + 1)


def _both_formats(lines, m=None):
    """An edge list of lines (records, '#' comments, blanks) and the DIMACS
    text with the same lines: 'e ' before each record, 'c' for '#', after a
    problem line that declares m edges, or as many as there are two-id
    records."""
    edge_list = "".join(line + "\n" for line in lines)
    if m is None:
        m = sum(len(line.split()) == 2 for line in lines if line[:1] not in ("", "#"))
    dimacs = "p edge 100 %d\n" % m + "".join(
        ("c" + line[1:] if line[:1] == "#" else "e " + line if line else "") + "\n"
        for line in lines)
    return edge_list, dimacs


def _path_lines(first, last):
    return ["%d %d" % (i, i + 1) for i in range(first, last)]


_NAMER_CHUNKS = [1, 5, 12, 64, 1 << 16]


def _starts_a_fault_chunk(text, begin, fault, chunk):
    """Whether the chunk, chunk characters long, that holds offset fault of
    text is not the first and begins with a blank or comment line."""
    saved, formats._CHUNK = formats._CHUNK, chunk
    try:
        pieces = list(formats._chunks(text, begin))
    finally:
        formats._CHUNK = saved
    start = begin
    for k, piece in enumerate(pieces):
        if start <= fault < start + len(piece):
            return k > 0 and piece[:1] in ("\n", "#", "c")
        start += len(piece)


@pytest.mark.parametrize("fault", [
    "x 9", "41 42 43", "0 9", "7 7", "41 1001"], ids=["bad-line", "three-ids", "id-0",
                                                   "self-loop", "out-of-range"])
def test_a_fault_after_blank_and_comment_lines_is_named_from_its_chunk(fault):
    # the fault's chunk begins with blank and comment lines at every chunk
    # size but the largest, for one of the paths before it
    caps = (1000, MAX_EDGES)
    begun = set()
    for before in range(20, 36):
        lines = (_path_lines(1, before) + ["# a comment", "", "#", "  # indented", ""]
                 + [fault] + _path_lines(before + 1, before + 20))
        for (parse, reference), text in zip(
                [(parse_edge_list, _reference_parse_edge_list),
                 (parse_dimacs, _reference_parse_dimacs)], _both_formats(lines)):
            assert isinstance(_outcome(reference, text, caps), tuple)
            begin = 0 if parse is parse_edge_list else text.index("\n") + 1
            at = text.index("\n%s%s\n" % ("e " * (parse is parse_dimacs), fault)) + 1
            for chunk in _NAMER_CHUNKS:
                _same(parse, reference, text, caps, chunk)
                if _starts_a_fault_chunk(text, begin, at, chunk):
                    begun.add((parse, chunk))
    assert len(begun) == 2 * (len(_NAMER_CHUNKS) - 1)


@pytest.mark.parametrize("repeat", ["3 4", "4 3", "1 2"])
def test_a_repeat_chunks_after_its_first_occurrence_is_named(repeat):
    lines = _path_lines(1, 60) + ["# c", ""] + _path_lines(70, 80) + [repeat, "90 91"]
    for (parse, reference), text in zip(
            [(parse_edge_list, _reference_parse_edge_list),
             (parse_dimacs, _reference_parse_dimacs)], _both_formats(lines)):
        want = _outcome(reference, text, (MAX_VERTICES, MAX_EDGES))
        assert want[1] == "line %d: duplicate edge" % (
            len(lines) - 1 + (parse is parse_dimacs))
        for chunk in _NAMER_CHUNKS:
            _same(parse, reference, text, (MAX_VERTICES, MAX_EDGES), chunk)


@pytest.mark.parametrize("refused", ["x y", "1 2 3", "0 5", "7 7", "50 51"])
def test_a_self_loop_chunks_before_a_refused_line_is_named_first(refused):
    # 50 51 is a repeat; with a cap of 59 edges (or a DIMACS header of 59),
    # the refused line is also one record too many
    lines = (_path_lines(1, 10) + ["7 7", "", "# c"] + _path_lines(11, 60) + [refused]
             + _path_lines(60, 65))
    for caps, m in (((MAX_VERTICES, MAX_EDGES), None), ((MAX_VERTICES, 59), 59)):
        for (parse, reference), text in zip(
                [(parse_edge_list, _reference_parse_edge_list),
                 (parse_dimacs, _reference_parse_dimacs)], _both_formats(lines, m)):
            assert _outcome(reference, text, caps) == (
                ParseError, "line %d: self-loop" % (10 + (parse is parse_dimacs)))
            for chunk in _NAMER_CHUNKS:
                _same(parse, reference, text, caps, chunk)


_LAST_LINES = [("repeat", "1 2", None), ("self-loop", "7 7", None), ("bad-line", "x y", None),
               ("id-0", "0 5", None), ("vertex-cap", "2000 2001", (2000, MAX_EDGES)),
               ("edge-cap", "1 3", (MAX_VERTICES, 1999))]


@pytest.mark.parametrize("fmt, last, m, caps", [
    pytest.param(fmt, last, 2000, caps, id="%s-%s" % (fmt, name))
    for fmt in ("edgelist", "dimacs") for name, last, caps in _LAST_LINES] + [
    pytest.param("dimacs", "1 3", 1999, None, id="dimacs-more-edges"),
    pytest.param("dimacs", "x y", 1999, None, id="dimacs-bad-line-past-m"),
    pytest.param("dimacs", "1 2001", 2000, None, id="dimacs-out-of-range"),
])
def test_a_last_line_fault_matches_the_line_parsers(fmt, last, m, caps):
    # a 2,000-line path text whose last line is the fault; the DIMACS text
    # declares n 2000 and m edges, and a line past m is named so before a
    # non-integer id
    lines = ["%d %d" % (i, i + 1) for i in range(1, 2000)] + [last]
    if fmt == "edgelist":
        parse, reference = parse_edge_list, _reference_parse_edge_list
    else:
        parse, reference = parse_dimacs, _reference_parse_dimacs
        lines = ["p edge 2000 %d" % m] + ["e " + line for line in lines]
    text = "\n".join(lines) + "\n"
    caps = caps or (MAX_VERTICES, MAX_EDGES)
    assert isinstance(_outcome(reference, text, caps), tuple)
    for chunk in (1 << 16, 1, 5, 12):
        _same(parse, reference, text, caps, chunk)


@pytest.mark.parametrize("g, digest", [
    (interval(37, 0), "bdffa521c5df992f13b180b8c4e2ea2b9c9f80c7aa2ad6c83829675f01a5cc7f"),
    (interval(59, 3), "9bf6c3887344f61bbee247761436e2f167cb574d5a1060d7110cd4af6a9d4320"),
], ids=["interval-37-0", "interval-59-3"])
def test_constructed_edges_keep_their_iteration_order(g, digest):
    # benchmarks/jobs.py draws the interval-wide weights in g.edges order.
    # interval lists its pairs in ascending order, so the frozenset built
    # from sorted_edges() on first use iterates them in the order the
    # frozenset of those pairs always had, which these digests pin
    assert hashlib.sha256(repr(list(g.edges)).encode()).hexdigest() == digest


@pytest.mark.parametrize("g", [
    k_tree(3, 300, 1),
    random_chordal(200, 4),
    parse_edge_list("".join("%d %d\n" % (v + 1, u + 1)
                            for u, v in reversed(k_tree(4, 120, 2).sorted_edges()))),
], ids=["k-tree-3-300-1", "random-chordal-200-4", "parsed"])
def test_edges_iterate_as_a_set_filled_in_ascending_order(g):
    # whatever order a builder (k_tree lists its pairs by column) or a text
    # gives the pairs in, g.edges is frozen from a set filled from
    # sorted_edges()
    assert list(g.edges) == list(frozenset(set(g.sorted_edges())))
