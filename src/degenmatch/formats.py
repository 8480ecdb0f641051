"""Graph serialization: graph6, plain edge lists, and DIMACS."""

import math
import re

from .graphs import Graph, LimitsExceededError

# Default caps on the size of a parsed graph, checked before Graph allocates
# its adjacency lists.
MAX_VERTICES = 10 ** 6
MAX_EDGES = 10 ** 7


# a graph6 byte is 63..126 ('?'..'~'); '?' is a group of six zero bits
_G6_BAD_BYTE = re.compile(r"[^?-~]")
_G6_NONZERO_GROUP = re.compile(r"[@-~]")
# body bytes hold 0..63 before the offset
_G6_ADD_63 = bytes(range(63, 127)) + bytes(192)


class ParseError(ValueError):
    pass


def _check_size(n, m, max_vertices, max_edges):
    if n > max_vertices:
        raise LimitsExceededError(
            "%d vertices exceeds limit %d" % (n, max_vertices))
    if m > max_edges:
        raise LimitsExceededError("%d edges exceeds limit %d" % (m, max_edges))


def _g6_encode_n(n):
    if n < 0:
        raise ValueError("negative vertex count")
    if n <= 62:
        return [n + 63]
    if n <= 258047:
        return [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    if n <= 68719476735:
        return [126, 126] + [((n >> (6 * k)) & 63) + 63 for k in range(5, -1, -1)]
    raise ValueError("vertex count too large for graph6")


def serialize_graph6(g):
    """Encode in time linear in the output: edge (i, j), i < j, sets bit
    j(j-1)/2 + i of the body, six bits a byte, most significant first."""
    nbits = g.n * (g.n - 1) // 2
    body = bytearray((nbits + 5) // 6)
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
    _check_size(n, len(edges), max_vertices, max_edges)
    return Graph(n, edges)


def parse_edge_list(text, max_vertices=MAX_VERTICES, max_edges=MAX_EDGES):
    """Plain 'u v' lines with 1-based vertex ids; n is the largest id seen."""
    edges = []
    max_id = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("line %d: expected 'u v'" % lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("line %d: non-integer vertex id" % lineno) from None
        if u < 1 or v < 1:
            raise ParseError("line %d: vertex ids are 1-based" % lineno)
        if u == v:
            raise ParseError("line %d: self-loop" % lineno)
        max_id = max(max_id, u, v)
        edges.append((u - 1, v - 1))
    _check_size(max_id, len(edges), max_vertices, max_edges)
    try:
        return Graph(max_id, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_dimacs(text, max_vertices=MAX_VERTICES, max_edges=MAX_EDGES):
    """DIMACS 'p edge n m' with 'e u v' lines, 1-based ids."""
    n = None
    declared_m = None
    edges = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None or len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise ParseError("line %d: bad problem line" % lineno)
            n, declared_m = int(parts[2]), int(parts[3])
            _check_size(n, declared_m, max_vertices, max_edges)
        elif parts[0] == "e":
            if n is None:
                raise ParseError("line %d: edge before problem line" % lineno)
            if len(parts) != 3:
                raise ParseError("line %d: expected 'e u v'" % lineno)
            u, v = int(parts[1]), int(parts[2])
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
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def load_graph(text, fmt="auto", max_vertices=MAX_VERTICES, max_edges=MAX_EDGES):
    """Parse text in the given format, or the one its first line suggests.

    Raises ParseError on malformed text and LimitsExceededError when the
    graph has more than max_vertices vertices or max_edges edges."""
    if fmt == "auto":
        lines = (line.strip() for line in text.splitlines())
        first = next((line for line in lines if line and not line.startswith("#")), "")
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
