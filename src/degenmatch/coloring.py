"""Greedy r-degenerate edge coloring within the 2(D-1)^2/(r+1) + 2(D-1) + 1 palette."""

from collections import namedtuple

from .graphs import Matching, _norm_edge, degeneracy, induced_subgraph


class ColoringInvariantError(RuntimeError):
    """No available color at a greedy step; signals an implementation bug."""


def palette_size(delta, r):
    """Palette bound floor(2(delta-1)^2/(r+1) + 2(delta-1) + 1)."""
    if type(delta) is not int or type(r) is not int or delta < 1 or r < 1:
        raise ValueError("delta and r must be positive")
    k = (2 * (delta - 1) ** 2) // (r + 1) + 2 * (delta - 1) + 1
    assert k >= 2 * (delta - 1) + 1
    return k


class EdgeColoring(namedtuple("EdgeColoring", "color k delta r")):
    """Assignment of edges to colors in 1..k, each class an r-degenerate
    matching: color maps each edge (u, v), u < v, to its color."""

    __slots__ = ()

    def classes(self):
        out = {}
        for e, c in self.color.items():
            out.setdefault(c, []).append(e)
        return {c: sorted(es) for c, es in out.items()}

    def colors_used(self):
        return len(set(self.color.values()))

    def max_color(self):
        return max(self.color.values(), default=0)


def _forbidden(g, colors_at, u, v, r):
    """Forbidden colors (F1, F2) for an uncolored edge uv, as int masks.

    colors_at holds one int per vertex whose bit a is set when color a is on
    an edge at that vertex; bit a of F1 or F2 is set when a is forbidden.
    F1: colors on edges incident to u or v. F2: colors a outside F1 whose
    nearby coverage d_u + 2*d_uv + d_v reaches r+1, where d_u counts vertices
    of N(u)-N[v] touched by an a-colored edge (similarly for the v-side and
    the common neighborhood)."""
    f1 = colors_at[u] | colors_at[v]
    adj_u = g.adj[u]
    adj_v = g.adj[v]
    # every vertex of N(u)-v and of N(v)-u adds 1 to each color on its edges;
    # a common neighbour is met from both sides, so the count is d_u + 2*d_uv + d_v.
    # No count exceeds the len(adj_u) + len(adj_v) - 2 masks read, so when
    # that is at most r, F2 is empty and no counter is built.
    if len(adj_u) + len(adj_v) - 2 <= r:
        return f1, 0
    # saturating bit-sliced counters: over[j] holds the colors met at least
    # j+1 times
    over = [0] * (r + 1)
    for x, other in ((adj_u, v), (adj_v, u)):
        for w in x:
            m = colors_at[w]
            if m and w != other:
                for j in range(r, 0, -1):
                    over[j] |= over[j - 1] & m
                over[0] |= m
    return f1, over[r] & ~f1


def greedy_color(g, r, order=None, delta=None):
    """Color every edge with the minimum color outside F1 and F2.

    Default order is lexicographic by endpoint ids. delta may be overridden
    upward (the palette bound holds for any delta >= max degree)."""
    if type(r) is not int or r < 1:
        raise ValueError("r must be a positive integer")
    actual = g.max_degree()
    if delta is None:
        delta = actual
    elif type(delta) is not int:
        raise ValueError("delta override must be an integer")
    elif delta < actual:
        raise ValueError("delta override %d below max degree %d" % (delta, actual))
    edges = g.sorted_edges()
    if order is not None:
        order = [_norm_edge(*e) for e in order]
        if sorted(order) != edges:
            raise ValueError("order is not a permutation of the edge set")
        edges = order
    if not edges:
        return EdgeColoring({}, 0, delta, r)
    k = palette_size(delta, r)
    f1_cap = 2 * (delta - 1)
    f2_cap = (2 * (delta - 1) ** 2) // (r + 1)
    color = {}
    colors_at = [0] * g.n
    for uv in edges:
        u, v = uv
        f1, f2 = _forbidden(g, colors_at, u, v, r)
        if f1.bit_count() > f1_cap or f2.bit_count() > f2_cap:
            raise ColoringInvariantError(
                "forbidden-set bound violated at edge %s" % (uv,))
        # the lowest zero bit above bit 0 is the least allowed color
        taken = f1 | f2 | 1
        chosen = (~taken & (taken + 1)).bit_length() - 1
        if chosen > k:
            raise ColoringInvariantError("no available color for edge %s" % (uv,))
        color[uv] = chosen
        colors_at[u] |= 1 << chosen
        colors_at[v] |= 1 << chosen
    return EdgeColoring(color, k, delta, r)


def _is_r_degenerate(g, vertices, r):
    """Whether the vertices induce an r-degenerate subgraph of g: the class
    check of verify_coloring, which also certifies the DP's witness."""
    return degeneracy(induced_subgraph(g, vertices)[0]) <= r


def verify_coloring(g, coloring, r):
    """Check that each edge of g has one color, no non-edge has one, and
    every class is an r-degenerate matching; (ok, report)."""
    color = coloring.color if isinstance(coloring, EdgeColoring) else coloring
    colored = set()
    classes = {}
    for e, a in color.items():
        e = _norm_edge(*e)
        if e in colored:
            return False, "edge %s colored twice" % (e,)
        colored.add(e)
        classes.setdefault(a, []).append(e)
    missing = [e for e in g.sorted_edges() if e not in colored]
    if missing:
        return False, "uncolored edge %s" % (missing[0],)
    # colored holds every edge, so it holds another pair when it has more
    if len(colored) > g.m:
        return False, "colored non-edge %s" % (min(e for e in colored
                                                  if not g.has_edge(*e)),)
    for a in sorted(classes):
        try:
            m = Matching(classes[a])
        except ValueError:
            return False, "matching violation in class %d" % a
        if not _is_r_degenerate(g, m.vertices, r):
            return False, "degeneracy violation in class %d" % a
    return True, None
