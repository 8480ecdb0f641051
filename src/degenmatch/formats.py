"""Graph serialization: graph6, plain edge lists, and DIMACS."""

from .graphs import Graph


class ParseError(ValueError):
    pass


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
    data = _g6_encode_n(g.n)
    bits = []
    for j in range(1, g.n):
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


def parse_graph6(text):
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty graph6 string")
    data = []
    for ch in s:
        c = ord(ch)
        if not 63 <= c <= 126:
            raise ParseError("invalid graph6 byte %r" % ch)
        data.append(c - 63)
    pos = 0
    if data[0] == 63:  # '~'
        if len(data) >= 2 and data[1] == 63:
            if len(data) < 8:
                raise ParseError("truncated graph6 header")
            n = 0
            for v in data[2:8]:
                n = (n << 6) | v
            pos = 8
        else:
            if len(data) < 4:
                raise ParseError("truncated graph6 header")
            n = (data[1] << 12) | (data[2] << 6) | data[3]
            pos = 4
    else:
        n = data[0]
        pos = 1
    nbits = n * (n - 1) // 2
    ngroups = (nbits + 5) // 6
    if len(data) - pos != ngroups:
        raise ParseError("graph6 body has %d groups, expected %d"
                         % (len(data) - pos, ngroups))
    bits = []
    for v in data[pos:]:
        for k in range(5, -1, -1):
            bits.append((v >> k) & 1)
    if any(bits[nbits:]):
        raise ParseError("nonzero trailing bits in graph6 string")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


def parse_edge_list(text):
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
    try:
        return Graph(max_id, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_dimacs(text):
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


def load_graph(text, fmt="auto"):
    if fmt == "graph6":
        return parse_graph6(text)
    if fmt == "edgelist":
        return parse_edge_list(text)
    if fmt == "dimacs":
        return parse_dimacs(text)
    if fmt != "auto":
        raise ParseError("unknown format %r" % fmt)
    lines = (line.strip() for line in text.splitlines())
    first = next((line for line in lines if line and not line.startswith("#")), "")
    if first == "c" or first[:2] in ("c ", "p ", "e "):
        return parse_dimacs(text)
    if len(first.split()) == 2:
        return parse_edge_list(text)
    return parse_graph6(text)
