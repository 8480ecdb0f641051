"""Graph serialization: graph6, plain edge lists, and DIMACS.

Each parser reads a text's vertex ids in bulk and builds the graph's
adjacency with _sorted_adjacency; a parsed graph keeps no edge set. The edge
list and DIMACS formats also have a line walker, which reads a text line by
line: it runs only on a text the bulk reading does not take, to name its
first fault by line, or to read a valid text in a form the bulk reading
leaves to it."""

import re
from itertools import chain, compress, repeat

from .graphs import Graph, LimitsExceededError, _check_size, _norm_edge

# Default caps on the size of a parsed graph, checked while its ids are read,
# before its adjacency is built.
MAX_VERTICES = 10 ** 6
MAX_EDGES = 10 ** 7
# serialize_graph6 refuses a body over 2^28 bytes (n > 56756) before it
# allocates one.
MAX_GRAPH6_BYTES = 1 << 28


# a graph6 byte is 63..126 ('?'..'~'); '?' is a group of six zero bits
_G6_BAD_BYTE = re.compile(r"[^?-~]")
_G6_NONZERO_GROUP = re.compile(r"[@-~]")
# body bytes hold 0..63 before the offset: _G6_ADD_63 adds it and
# _G6_SUB_63 takes it off
_G6_ADD_63 = bytes(range(63, 127)) + bytes(192)
_G6_SUB_63 = bytes(63) + bytes(range(64)) + bytes(129)
# the edge count is read from the body this many bytes at a time, so
# counting does not hold a second copy of a large body
_G6_COUNT_CHUNK = 1 << 20
# _G6_BITS spells a byte as its six bits, most significant first, each the
# character chr(0) or chr(1)
_G6_BITS = {63 + x: format(x, "06b").replace("1", "\x01").replace("0", "\x00")
            for x in range(64)}

# The line breaks of str.splitlines, and the lines a text may hold when it is
# read in bulk: blank, a comment (which must hold no other line break), or
# one record, with spaces and tabs around its fields and '\n' or '\r\n' at its
# end. Each _BAD pattern finds the first line of a chunk that is none of
# these; such a text goes to the line walker. The patterns are kept as
# strings: re compiles each on its first use and caches it, so importing the
# module compiles none of them.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_EDGE_LIST_BAD = r"(?m)^(?![ \t]*(?:#[^%s]*|[0-9]+[ \t]+[0-9]+[ \t]*)?\r?$)" % _BREAKS
_DIMACS_BAD = r"(?m)^(?![ \t]*(?:c[^%s]*|e[ \t]+[0-9]+[ \t]+[0-9]+[ \t]*)?\r?$)" % _BREAKS
# blank and comment lines, then a problem line
_DIMACS_HEADER = (r"(?:[ \t]*(?:c[^%s]*)?\r?\n)*[ \t]*p[ \t]+(?:edge|col)[ \t]+([0-9]+)"
                  r"[ \t]+([0-9]+)[ \t]*\r?(?:\n|\Z)" % _BREAKS)
# in a chunk that passed its pattern, a comment is all that holds '#' or 'c'
_EDGE_LIST_COMMENT = "#[^\n]*"
_DIMACS_COMMENT = "c[^\n]*"
# a text is read in chunks of about this many characters, so a text past a
# cap is refused before the rest of it is read
_CHUNK = 1 << 16


class ParseError(ValueError):
    pass


def _g6_encode_n(n):
    # MAX_GRAPH6_BYTES keeps n far below 2^36, past which graph6 has no form
    if n <= 62:
        return [n + 63]
    if n <= 258047:
        return [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    return [126, 126] + [((n >> (6 * k)) & 63) + 63 for k in range(5, -1, -1)]


def check_graph6_size(n):
    """Bytes of the graph6 body of an n-vertex graph, which has one bit per
    vertex pair whatever the edges; LimitsExceededError when that is over
    MAX_GRAPH6_BYTES."""
    size = (n * (n - 1) // 2 + 5) // 6
    if size > MAX_GRAPH6_BYTES:
        raise LimitsExceededError("graph6 body of %d bytes exceeds limit %d"
                                  % (size, MAX_GRAPH6_BYTES))
    return size


def serialize_graph6(g):
    """Encode in time linear in the output: edge (i, j), i < j, sets bit
    j(j-1)/2 + i of the body, six bits a byte, most significant first."""
    body = bytearray(check_graph6_size(g.n))
    for i, j in g.edges:
        k = j * (j - 1) // 2 + i
        body[k // 6] |= 32 >> k % 6
    return (bytes(_g6_encode_n(g.n)) + body.translate(_G6_ADD_63)).decode("ascii")


def parse_graph6(text, max_vertices=MAX_VERTICES, max_edges=MAX_EDGES):
    """Decode in time linear in the text: one C-speed scan checks every
    byte, the edges are counted against the cap, then each column j, the
    bits of the pairs (i, j), i < j, is read once when it holds an edge."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty graph6 string")
    bad = _G6_BAD_BYTE.search(s)
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
    m = sum(int.from_bytes(s[k:k + _G6_COUNT_CHUNK].encode().translate(_G6_SUB_63),
                           "big").bit_count()
            for k in range(pos, len(s), _G6_COUNT_CHUNK))
    _check_size(n, m, max_vertices, max_edges)

    def columns():
        # bit j(j-1)/2 + i of the body stands for the edge (i, j), i < j
        for j in range(1, n):
            first = j * (j - 1) // 2
            lo, hi = pos + first // 6, pos + (first + j + 5) // 6
            if _G6_NONZERO_GROUP.search(s, lo, hi):
                bits = s[lo:hi].translate(_G6_BITS).encode()
                yield zip(compress(range(j), bits[first % 6:]), repeat(j))

    return Graph._from_adjacency(_sorted_adjacency(n, chain.from_iterable(columns())))


def _sorted_adjacency(n, edges):
    """The ascending adjacency tuples of the graph on 0..n-1 with the given
    edges (pairs of ids in range), over one shared int per vertex; None when
    an edge is a self-loop or repeats, so that some vertex lists a neighbour
    twice."""
    ids = list(range(n))
    adj = [[] for _ in ids]
    for u, v in edges:
        adj[u].append(ids[v])
        adj[v].append(ids[u])
    adj = list(map(tuple, map(sorted, adj)))
    if sum(map(len, map(set, adj))) < sum(map(len, adj)):
        return None
    return adj


def _chunks(text, start):
    """text from start on, in pieces that end at a '\\n' once they hold
    _CHUNK characters, or at the end of the text."""
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        yield text[start:end]
        start = end


def _ids(tokens):
    """The 1-based ids in tokens, strings of ASCII digits, as 0-based ints;
    each distinct token is converted once."""
    value = {t: int(t) - 1 for t in set(tokens)}
    return list(map(value.__getitem__, tokens))


def _content_lines(text, comment):
    """(line number, stripped line) for each line neither blank nor a comment."""
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith(comment):
            yield lineno, line


def _read_edge_list(text, max_vertices, max_edges):
    """The sorted adjacency of an edge list read in bulk, a chunk at a time;
    None as soon as a chunk has a line _EDGE_LIST_BAD finds, an id of 0 or
    an id or edge past a cap, or when an edge repeats."""
    ends = []
    n = 0
    for chunk in _chunks(text, 0):
        if re.search(_EDGE_LIST_BAD, chunk):
            return None
        ids = _ids(re.sub(_EDGE_LIST_COMMENT, "", chunk).split())
        if ids:
            n = max(n, max(ids) + 1)
            if min(ids) < 0:
                return None
        ends += ids
        if n > max_vertices or len(ends) > 2 * max_edges:
            return None
    it = iter(ends)
    return _sorted_adjacency(n, zip(it, it))


def _walk_edge_list(text, max_vertices, max_edges):
    """The line walker of edge lists: raises at the first faulty line, or at
    the first line past a cap, as the parser always has; an edge that
    repeats is named once every line has passed. For a text with no fault,
    (n, [(u, v), ...]) with 0-based ids, u < v."""
    edges = []
    seen = set()
    repeat_line = None
    max_id = 0
    for lineno, line in _content_lines(text, "#"):
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
        e = _norm_edge(u - 1, v - 1)
        if repeat_line is None and e in seen:
            repeat_line = lineno
        seen.add(e)
        edges.append(e)
        # reading stops at the first line past a cap
        if max_id > max_vertices or len(edges) > max_edges:
            _check_size(max_id, len(edges), max_vertices, max_edges)
    if repeat_line is not None:
        raise ParseError("line %d: duplicate edge" % repeat_line)
    return max_id, edges


def parse_edge_list(text, max_vertices=MAX_VERTICES, max_edges=MAX_EDGES):
    """Plain 'u v' lines with 1-based vertex ids; n is the largest id seen.

    A text the bulk reading does not take goes to the line walker, which
    raises at its first fault or, finding none (in a text with line breaks
    other than '\\n' and '\\r\\n', say), reads it."""
    adj = _read_edge_list(text, max_vertices, max_edges)
    if adj is None:
        adj = _sorted_adjacency(*_walk_edge_list(text, max_vertices, max_edges))
    return Graph._from_adjacency(adj)


def _read_dimacs(text, max_vertices, max_edges):
    """The sorted adjacency of a DIMACS text read in bulk: the problem line
    that _DIMACS_HEADER finds, whose counts are checked against the caps
    before any edge line is read, then the edge lines a chunk at a time;
    None when there is no such problem line, or as soon as a chunk has a
    line _DIMACS_BAD finds, an id out of range or more edges than declared,
    or when the count differs at the end or an edge repeats."""
    head = re.match(_DIMACS_HEADER, text)
    if head is None:
        return None
    n, m = int(head[1]), int(head[2])
    _check_size(n, m, max_vertices, max_edges)
    ends = []
    for chunk in _chunks(text, head.end()):
        if re.search(_DIMACS_BAD, chunk):
            return None
        tokens = re.sub(_DIMACS_COMMENT, "", chunk).split()
        del tokens[::3]  # the 'e' of each edge line
        ids = _ids(tokens)
        ends += ids
        if len(ends) > 2 * m or ids and not 0 <= min(ids) <= max(ids) < n:
            return None
    if len(ends) != 2 * m:
        return None
    it = iter(ends)
    return _sorted_adjacency(n, zip(it, it))


def _walk_dimacs(text, max_vertices, max_edges):
    """The line walker of DIMACS texts, as _walk_edge_list is for edge
    lists."""
    n = None
    declared_m = None
    edges = []
    seen = set()
    repeat_line = None
    for lineno, line in _content_lines(text, "c"):
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
            e = _norm_edge(u - 1, v - 1)
            if repeat_line is None and e in seen:
                repeat_line = lineno
            seen.add(e)
            edges.append(e)
        else:
            raise ParseError("line %d: unknown record %r" % (lineno, parts[0]))
    if n is None:
        raise ParseError("missing problem line")
    if declared_m != len(edges):
        raise ParseError("header declares %d edges, found %d"
                         % (declared_m, len(edges)))
    if repeat_line is not None:
        raise ParseError("line %d: duplicate edge" % repeat_line)
    return n, edges


def parse_dimacs(text, max_vertices=MAX_VERTICES, max_edges=MAX_EDGES):
    """DIMACS 'p edge n m' with 'e u v' lines, 1-based ids; a text the bulk
    reading does not take goes to the line walker, as in parse_edge_list."""
    adj = _read_dimacs(text, max_vertices, max_edges)
    if adj is None:
        adj = _sorted_adjacency(*_walk_dimacs(text, max_vertices, max_edges))
    return Graph._from_adjacency(adj)


def load_graph(text, fmt="auto", max_vertices=MAX_VERTICES, max_edges=MAX_EDGES):
    """Parse text in the given format, or the one its first line suggests.

    Raises ParseError on malformed text, LimitsExceededError when the
    graph has more than max_vertices vertices or max_edges edges, and
    ValueError for a negative cap."""
    if min(max_vertices, max_edges) < 0:
        raise ValueError("max_vertices and max_edges must be non-negative")
    if fmt == "auto":
        # chunks end at a '\n', so no line is cut, and a large text is not
        # split into lines past its first chunk that holds one
        first = next((line for chunk in _chunks(text, 0)
                      for _, line in _content_lines(chunk, "#")), "")
        if first == "c" or first[:2] in ("c ", "p ", "e "):
            fmt = "dimacs"
        elif len(first.split()) == 2:
            fmt = "edgelist"
        else:
            fmt = "graph6"
    parsers = {"graph6": parse_graph6, "edgelist": parse_edge_list,
               "dimacs": parse_dimacs}
    if fmt not in parsers:
        raise ParseError("unknown format %r" % fmt)
    return parsers[fmt](text, max_vertices, max_edges)
