"""Graph serialization: graph6, plain edge lists, and DIMACS, each read in bulk
into adjacency only; a line walker reads on from the first edge-list or DIMACS
chunk with a fault, only to name the fault and its line."""

import re
from operator import eq

from .graphs import (Graph, LimitsExceededError, _check_size, _norm_edge,
                     _sorted_adjacency)

# Default caps on the size of a parsed graph, checked while its ids are read,
# before its adjacency is built.
MAX_VERTICES = 10 ** 6
MAX_EDGES = 10 ** 7
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
# chunk that the line walker would refuse or that holds an _ODD_BREAK (a text
# with one is read again with '\n' in its place): a line is blank, a comment
# or one record, with _PAD (whitespace str.strip removes, but no line break)
# around it and _SEP between its fields. The patterns are kept as strings: re
# compiles each on its first use and caches it, so importing the module
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
# in a chunk that passed its pattern, a comment is all that holds '#' or 'c'
_EDGE_LIST_COMMENT = "#[^\n]*"
_DIMACS_COMMENT = "c[^\n]*"
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
    j(j-1)/2 + i of the body, six bits a byte, most significant first."""
    body = bytearray(check_graph6_size(g.n))
    for i, j in g.edges:
        k = j * (j - 1) // 2 + i
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


def _read_ids(text, start, bad, comment, labels, top, most):
    """The 0-based ids of the records of text from start on, read in bulk a
    chunk at a time (labels slices the record labels out of its tokens), and
    where reading stopped: len(text), or the start of the first chunk with a
    line bad finds, an id outside 0..top-1 or more than most records."""
    ends = []
    for chunk in _chunks(text, start):
        if re.search(bad, chunk):
            break
        tokens = re.sub(comment, "", chunk).split()
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
    return ends, start


def _content_lines(text, comment, start=0):
    """(line number, stripped line) for each line neither blank nor a
    comment from start on, a chunk at a time; lines before start end in \\n."""
    lineno = text.count("\n", 0, start)
    for chunk in _chunks(text, start):
        lines = chunk.splitlines()
        for k, line in enumerate(lines, lineno + 1):
            line = line.strip()
            if line and not line.startswith(comment):
                yield k, line
        lineno += len(lines)


def _refuse(text, start, ends, parse, walk, caps, *state):
    """parse of text with '\\n' for each _ODD_BREAK past start, where bulk
    reading stopped with the ids ends; else walk names the fault from line 1
    if ends holds a self-loop (it outranks a later fault), else from start."""
    if re.compile(_ODD_BREAK).search(text, start):
        return parse(re.sub(_ODD_BREAK, "\n", text), *caps)
    it = iter(ends)
    if any(map(eq, it, it)):
        walk(text, 0, *caps)
    walk(text, start, *caps, *state)


def _graph(n, ends, text, walk, caps):
    """The graph on 0..n-1 with the pairs in ends as edges; when a vertex
    lists a neighbour twice, walk names the self-loop or repeat in text."""
    it = iter(ends)
    adj = _sorted_adjacency(n, zip(it, it))
    if sum(map(len, map(set, adj))) < len(ends):
        walk(text, 0, *caps)
    return Graph._from_adjacency(adj)


def parse_edge_list(text, max_vertices=MAX_VERTICES, max_edges=MAX_EDGES):
    """Plain 'u v' lines with 1-based vertex ids; n is the largest id seen.

    A chunk with a fault, an id of 0 or a cap passed stops the bulk reading;
    _walk_edge_list names that fault, or a repeat once every line is read."""
    caps = max_vertices, max_edges
    ends, start = _read_ids(text, 0, _EDGE_LIST_BAD, _EDGE_LIST_COMMENT, slice(0),
                            max_vertices, max_edges)
    n = max(ends, default=-1) + 1
    if start < len(text):
        return _refuse(text, start, ends, parse_edge_list, _walk_edge_list, caps,
                       n, len(ends) // 2)
    return _graph(n, ends, text, _walk_edge_list, caps)


def _walk_edge_list(text, start, max_vertices, max_edges, max_id=0, count=0):
    """Raise at the first faulty line of an edge list from start on, or the
    first line past a cap, after lines with count edges and largest id
    max_id; at a repeat once every line has passed; else AssertionError."""
    seen = set()
    repeat_line = None
    for lineno, line in _content_lines(text, "#", start):
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
        count += 1
        e = _norm_edge(u, v)
        if repeat_line is None and e in seen:
            repeat_line = lineno
        seen.add(e)
        # reading stops at the first line past a cap
        if max_id > max_vertices or count > max_edges:
            _check_size(max_id, count, max_vertices, max_edges)
    if repeat_line is not None:
        raise ParseError("line %d: duplicate edge" % repeat_line)
    raise AssertionError("the line walker found no fault in a refused edge list")


def parse_dimacs(text, max_vertices=MAX_VERTICES, max_edges=MAX_EDGES):
    """DIMACS 'p edge n m' with 'e u v' lines, 1-based ids; the counts of the
    problem line that _DIMACS_HEADER finds are checked against the caps, then
    the edge lines are read as in parse_edge_list."""
    caps = max_vertices, max_edges
    head = re.match(_DIMACS_HEADER, text)
    if head is None:
        return _refuse(text, 0, [], parse_dimacs, _walk_dimacs, caps)
    n, m = int(head[1]), int(head[2])
    _check_size(n, m, max_vertices, max_edges)
    ends, start = _read_ids(text, head.end(), _DIMACS_BAD, _DIMACS_COMMENT,
                            slice(None, None, 3), n, m)
    # a fault at start, or fewer edges than declared (named at the text's end)
    if start < len(text) or len(ends) < 2 * m:
        return _refuse(text, start, ends, parse_dimacs, _walk_dimacs, caps,
                       n, m, len(ends) // 2)
    return _graph(n, ends, text, _walk_dimacs, caps)


def _walk_dimacs(text, start, max_vertices, max_edges, n=None, declared_m=None, count=0):
    """The line walker of DIMACS texts, as _walk_edge_list is for edge
    lists; after the problem line, it is given that line's counts."""
    seen = set()
    repeat_line = None
    for lineno, line in _content_lines(text, "c", start):
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
            if count == declared_m:
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
            count += 1
            e = _norm_edge(u, v)
            if repeat_line is None and e in seen:
                repeat_line = lineno
            seen.add(e)
        else:
            raise ParseError("line %d: unknown record %r" % (lineno, parts[0]))
    if n is None:
        raise ParseError("missing problem line")
    if declared_m != count:
        raise ParseError("header declares %d edges, found %d" % (declared_m, count))
    if repeat_line is not None:
        raise ParseError("line %d: duplicate edge" % repeat_line)
    raise AssertionError("the line walker found no fault in a refused DIMACS text")


def _sniff_format(text):
    """The format that text's first line neither blank nor a '#' comment
    suggests. _content_lines splits only the first chunk that holds such a
    line, and the line (all of a one-line graph6 text) dies on return."""
    first = next((line for _, line in _content_lines(text, "#")), "")
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
