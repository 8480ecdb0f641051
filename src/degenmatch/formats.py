"""Graph serialization: graph6, plain edge lists, and DIMACS, each read in bulk
into adjacency only; an edge-list or DIMACS fault is named from the one chunk
that holds it, read line by line, and nothing is read again from line 1."""

import re
from bisect import bisect_left, bisect_right
from operator import itemgetter

from .graphs import (MAX_EDGES, MAX_VERTICES, Graph, LimitsExceededError,
                     _adjacency, _check_size, _first_self_loop)

# serialize_graph6 refuses a body over 2^28 bytes (n > 56756) before it
# allocates one.
MAX_GRAPH6_BYTES = 1 << 28


# a graph6 byte is 63..126 ('?'..'~'); '?' is a group of six zero bits
_G6_BAD_BYTE = re.compile(r"[^?-~]")
# runs of groups other than '?'; re scans for them far faster than '[@-~]+'
_G6_NONZERO_RUN = re.compile(r"[@-~][@-~]*")
# body bytes hold 0..63 before the offset: _G6_ADD_63 adds it and
# _G6_SUB_63 takes it off
_G6_ADD_63 = bytes(range(63, 127)) + bytes(192)
_G6_SUB_63 = bytes(63) + bytes(range(64)) + bytes(129)
# the edge count is read from the body this many bytes at a time, so
# counting does not hold a second copy of a large body
_G6_COUNT_CHUNK = 1 << 20
# the set bits of each body byte, most significant (0) first
_G6_SET_BITS = {chr(63 + x): [k for k in range(6) if x & 32 >> k] for x in range(64)}

# The line breaks of str.splitlines. A _BAD pattern finds the first line of a
# chunk that is not blank, a comment or one record, with _PAD (whitespace
# str.strip removes, but no line break) around it and _SEP between fields:
# a faulty line, or one with an _ODD_BREAK. The patterns are kept as strings:
# re compiles each on its first use and caches it, so importing the module
# compiles none of them.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_ODD_BREAK = r"\r(?!\n)|[%s]" % _BREAKS[2:]
_PAD = "[\t\x1f \xa0\u1680\u2000-\u200a\u202f\u205f\u3000]*"
_SEP = "[ \t\x1f]+"
_EDGE_LIST_BAD = (r"(?m)^(?!%s(?:#[^%s]*|[0-9]+%s[0-9]+%s)?\r?$)"
                  % (_PAD, _BREAKS, _SEP, _PAD))
_DIMACS_BAD = (r"(?m)^(?!%s(?:c[^%s]*|e%s[0-9]+%s[0-9]+%s)?\r?$)"
               % (_PAD, _BREAKS, _SEP, _SEP, _PAD))
# blank and comment lines, then a problem line
_DIMACS_HEADER = (r"(?:%s(?:c[^%s]*)?\r?\n)*%sp%s(?:edge|col)%s([0-9]+)%s([0-9]+)%s"
                  r"\r?(?:\n|\Z)" % (_PAD, _BREAKS, _PAD, _SEP, _SEP, _SEP, _PAD))
# the start of a line neither blank nor a '#' comment, as str.splitlines and
# str.strip see it
_CONTENT_LINE = r"(?:\A|(?<=[%s]))%s[^#\s]" % (_BREAKS, _PAD)
# a text is read in chunks of about this many characters, so a text past a
# cap is refused before the rest of it is read
_CHUNK = 1 << 16


class ParseError(ValueError):
    pass


def _g6_encode_n(n):
    # MAX_GRAPH6_BYTES keeps n at most 56756, below the 258048 from which
    # graph6 writes n in six bytes after '~~'
    if n <= 62:
        return [n + 63]
    return [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]


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
    j(j-1)/2 + i of the body, six bits a byte, most significant first. Column
    j is read from the neighbours of j below j, so g.edges is never built."""
    body = bytearray(check_graph6_size(g.n))
    for j, a in enumerate(g.adj):
        first = j * (j - 1) // 2
        for i in a[:bisect_left(a, j)]:
            k = first + i
            body[k // 6] |= 32 >> k % 6
    return (bytes(_g6_encode_n(g.n)) + body.translate(_G6_ADD_63)).decode("ascii")


def parse_graph6(text, max_vertices=MAX_VERTICES, max_edges=MAX_EDGES):
    """Decode in time linear in the text: one C-speed scan checks every
    byte, the edges are counted against the cap, then each set bit of the
    bytes other than '?' is read once."""
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
    ids = list(range(n))
    adj = [[] for _ in ids]
    add = [a.append for a in adj]
    # bit j(j-1)/2 + i is the edge (i, j), i < j: column j starts at bit first,
    # row is the i of a group's bit 0. Bits ascend, and so does each adj list.
    j = first = 0
    for run in _G6_NONZERO_RUN.finditer(s, pos):
        row = 6 * (run.start() - pos) - first
        for group in run.group():
            for k in _G6_SET_BITS[group]:
                i = row + k
                while i >= j:
                    i -= j
                    row -= j
                    first += j
                    j += 1
                    add_j, id_j = add[j], ids[j]
                add[i](id_j)
                add_j(ids[i])
            row += 6
    return Graph._from_adjacency(list(map(tuple, adj)))


def _chunks(text, start):
    """text from start on, in pieces that end at a '\\n' once they hold
    _CHUNK characters, or at the end of the text."""
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        yield text[start:end]
        start = end


def _read_ids(text, start, fmt, top, most):
    """The ids of the records of text from start on, read in bulk a chunk at
    a time, up to the first chunk with a line fmt's pattern refuses, an id
    outside 0..top-1 or more than most records: (ids, that chunk's start or
    len(text), marks), where marks holds each chunk's (start, records before
    it)."""
    bad, comment, labels = fmt[:3]
    ends, marks = [], []
    for chunk in _chunks(text, start):
        marks.append((start, len(ends) // 2))
        if re.search(bad, chunk):
            break
        tokens = re.sub(comment + "[^\n]*", "", chunk).split()
        del tokens[labels]
        # each distinct token is converted once
        value = {t: int(t) - 1 for t in set(tokens)}
        ids = list(map(value.__getitem__, tokens))
        del tokens, value  # freed before the next chunk's: 15 MB less RSS at 1M lines
        if ids and not (0 <= min(ids) and max(ids) < top
                        and len(ends) + len(ids) <= 2 * most):
            break
        ends += ids
        start += len(chunk)
    return ends, start, marks


def _name(text, marks, k, fmt, top, most, repeat=False):
    """Raise the first fault of the chunk that holds record k (0-based), read
    line by line with fmt's classifier; with repeat, record k is a repeat."""
    comment, fault = fmt[1], fmt[3]
    start, j = marks[bisect_right(marks, k, key=itemgetter(1)) - 1]
    lineno = text.count("\n", 0, start)
    for line in next(_chunks(text, start)).split("\n"):
        lineno += 1
        line = line.strip()
        if line and line[0] != comment:
            if repeat and j == k:
                raise ParseError("line %d: duplicate edge" % lineno)
            fault(lineno, line, j, top, most)
            j += 1
    raise AssertionError("no fault named in the chunk at %d" % start)


def _refuse(text, read, fmt, top, most):
    """Raise the first fault before where _read_ids stopped (read is what it
    returned): a self-loop in the ids it read, else the fault of the chunk it
    stopped at. Returns if it read every chunk and found no self-loop."""
    ends, stop, marks = read
    k = _first_self_loop(ends)
    if k is not None or stop < len(text):
        _name(text, marks, len(ends) // 2 if k is None else k, fmt, top, most)


def _graph(n, text, read, fmt, top, most):
    """The graph on 0..n-1 with the pairs of ids read from all of text as
    edges; the first self-loop, else the first repeat, is named."""
    adj, loop, again = _adjacency(n, read[0])
    if loop is not None:
        _name(text, read[2], loop, fmt, top, most)
    if again is not None:
        _name(text, read[2], again, fmt, top, most, repeat=True)
    return Graph._from_adjacency(adj)


def _edge_list_fault(lineno, line, k, max_vertices, max_edges):
    """Raise the fault of an edge list's stripped line after k records, if
    any, with a line parser's checks in their order."""
    parts = line.split()
    if len(parts) != 2:
        raise ParseError("line %d: expected 'u v'" % lineno)
    # int() alone also reads '1_0' as 10, signs and non-ASCII digits
    if not (line.isascii() and "".join(parts).isdigit()):
        raise ParseError("line %d: non-integer vertex id" % lineno)
    u, v = map(int, parts)
    if min(u, v) < 1:
        raise ParseError("line %d: vertex ids are 1-based" % lineno)
    if u == v:
        raise ParseError("line %d: self-loop" % lineno)
    # an earlier id past the vertex cap was refused on its own line
    _check_size(max(u, v), k + 1, max_vertices, max_edges)


def _dimacs_fault(lineno, line, k, n, m):
    """The same for a DIMACS line under the problem line's n and m (-1
    before it); a problem line that _DIMACS_HEADER takes never comes here."""
    parts = line.split()
    if parts[0] == "p":
        raise ParseError("line %d: bad problem line" % lineno)
    if parts[0] != "e":
        raise ParseError("line %d: unknown record %r" % (lineno, parts[0]))
    if n < 0:
        raise ParseError("line %d: edge before problem line" % lineno)
    if len(parts) != 3:
        raise ParseError("line %d: expected 'e u v'" % lineno)
    if k == m:
        raise ParseError("line %d: more edges than the %d the header declares"
                         % (lineno, m))
    if not (line.isascii() and "".join(parts[1:]).isdigit()):
        raise ParseError("line %d: non-integer vertex id" % lineno)
    u, v = map(int, parts[1:])
    if not (1 <= u <= n and 1 <= v <= n):
        raise ParseError("line %d: vertex id out of range" % lineno)
    if u == v:
        raise ParseError("line %d: self-loop" % lineno)


# A format's _BAD pattern; the character that starts its comments (in a
# chunk that passed that pattern, a comment is all that holds it); its record
# labels; its line classifier.
_EDGE_LIST = (_EDGE_LIST_BAD, "#", slice(0), _edge_list_fault)
_DIMACS = (_DIMACS_BAD, "c", slice(None, None, 3), _dimacs_fault)


def parse_edge_list(text, max_vertices=MAX_VERTICES, max_edges=MAX_EDGES):
    """Plain 'u v' lines with 1-based vertex ids; n is the largest id seen.
    A text with an _ODD_BREAK where bulk reading stopped is read again with
    '\\n' in its place."""
    read = _read_ids(text, 0, _EDGE_LIST, max_vertices, max_edges)
    ends, stop = read[:2]
    if stop == len(text):
        return _graph(max(ends, default=-1) + 1, text, read, _EDGE_LIST, max_vertices,
                      max_edges)
    if re.compile(_ODD_BREAK).search(text, stop):
        return parse_edge_list(re.sub(_ODD_BREAK, "\n", text), max_vertices, max_edges)
    _refuse(text, read, _EDGE_LIST, max_vertices, max_edges)


def parse_dimacs(text, max_vertices=MAX_VERTICES, max_edges=MAX_EDGES):
    """DIMACS 'p edge n m' with 'e u v' lines, 1-based ids; the counts of the
    problem line that _DIMACS_HEADER finds are checked against the caps, then
    the edge lines are read as in parse_edge_list."""
    head = re.match(_DIMACS_HEADER, text)
    # with no problem line, n and m are -1, so any record is refused: it
    # comes before one
    n, m = (int(head[1]), int(head[2])) if head else (-1, -1)
    _check_size(n, m, max_vertices, max_edges)
    read = _read_ids(text, head.end() if head else 0, _DIMACS, n, m)
    ends, stop = read[:2]
    if head and stop == len(text) and len(ends) == 2 * m:
        return _graph(n, text, read, _DIMACS, n, m)
    if re.compile(_ODD_BREAK).search(text, stop):
        return parse_dimacs(re.sub(_ODD_BREAK, "\n", text), max_vertices, max_edges)
    _refuse(text, read, _DIMACS, n, m)
    if head is None:
        raise ParseError("missing problem line")
    raise ParseError("header declares %d edges, found %d" % (m, len(ends) // 2))


def _sniff_format(text):
    """The format that text's first line neither blank nor a '#' comment
    suggests; that line (all of a one-line graph6 text) dies on return."""
    first = re.search(_CONTENT_LINE, text)
    first = next(_chunks(text, first.start())).splitlines()[0].strip() if first else ""
    if first == "c" or first[:2] in ("c ", "p ", "e "):
        return "dimacs"
    if len(first.split()) == 2:
        return "edgelist"
    return "graph6"


def load_graph(text, fmt="auto", max_vertices=MAX_VERTICES, max_edges=MAX_EDGES):
    """Parse text in the given format, or the one its first line suggests.

    Raises ParseError on malformed text, LimitsExceededError when the
    graph has more than max_vertices vertices or max_edges edges, and
    ValueError for a negative cap."""
    if min(max_vertices, max_edges) < 0:
        raise ValueError("max_vertices and max_edges must be non-negative")
    if fmt == "auto":
        fmt = _sniff_format(text)
    parsers = {"graph6": parse_graph6, "edgelist": parse_edge_list,
               "dimacs": parse_dimacs}
    if fmt not in parsers:
        raise ParseError("unknown format %r" % fmt)
    return parsers[fmt](text, max_vertices, max_edges)
