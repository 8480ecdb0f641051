"""Graph serialization: graph6, plain edge lists, and DIMACS."""

import math
import re

from .graphs import Graph, LimitsExceededError, _check_size

# Default caps on the size of a parsed graph, checked before Graph allocates
# its adjacency lists.
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
    byte, then only the groups other than '?' (no edge) are read."""
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
    # bit idx = j(j-1)/2 + i stands for the edge (i, j), i < j
    edges = []
    for group in _G6_NONZERO_GROUP.finditer(s, pos):
        value = ord(group.group()) - 63
        base = 6 * (group.start() - pos)
        for k in range(6):
            if value & (32 >> k):
                idx = base + k
                j = (1 + math.isqrt(8 * idx + 1)) // 2
                edges.append((idx - j * (j - 1) // 2, j))
    return Graph(n, edges)


def _content_lines(text, comment):
    """(line number, stripped line) for each line neither blank nor a comment."""
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith(comment):
            yield lineno, line


def _graph(n, edges, text, comment, header_lines):
    """Graph(n, edges) for a parsed edge list or DIMACS text, whose only fault
    left is an edge listed twice. In such a text, edge k is on content line
    header_lines + k, so only a refused file is read again to name the line."""
    try:
        return Graph(n, edges)
    except ValueError as exc:
        seen = set()
        for k, e in enumerate(map(frozenset, edges)):
            if e in seen:
                lineno, _ = list(_content_lines(text, comment))[header_lines + k]
                raise ParseError("line %d: duplicate edge" % lineno) from None
            seen.add(e)
        raise ParseError(str(exc)) from None


def parse_edge_list(text, max_vertices=MAX_VERTICES, max_edges=MAX_EDGES):
    """Plain 'u v' lines with 1-based vertex ids; n is the largest id seen."""
    edges = []
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
        edges.append((u - 1, v - 1))
        # reading stops at the first line past a cap
        if max_id > max_vertices or len(edges) > max_edges:
            _check_size(max_id, len(edges), max_vertices, max_edges)
    return _graph(max_id, edges, text, "#", 0)


def parse_dimacs(text, max_vertices=MAX_VERTICES, max_edges=MAX_EDGES):
    """DIMACS 'p edge n m' with 'e u v' lines, 1-based ids."""
    n = None
    declared_m = None
    edges = []
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
            edges.append((u - 1, v - 1))
        else:
            raise ParseError("line %d: unknown record %r" % (lineno, parts[0]))
    if n is None:
        raise ParseError("missing problem line")
    if declared_m is not None and declared_m != len(edges):
        raise ParseError("header declares %d edges, found %d"
                         % (declared_m, len(edges)))
    # the one problem line comes before every edge line
    return _graph(n, edges, text, "c", 1)


def load_graph(text, fmt="auto", max_vertices=MAX_VERTICES, max_edges=MAX_EDGES):
    """Parse text in the given format, or the one its first line suggests.

    Raises ParseError on malformed text, LimitsExceededError when the
    graph has more than max_vertices vertices or max_edges edges, and
    ValueError for a negative cap."""
    if min(max_vertices, max_edges) < 0:
        raise ValueError("max_vertices and max_edges must be non-negative")
    if fmt == "auto":
        # the line list is dropped before the parser makes its own
        _, first = next(_content_lines(text, "#"), (0, ""))
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
