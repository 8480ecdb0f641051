"""Greedy r-degenerate edge coloring within the 2(D-1)^2/(r+1) + 2(D-1) + 1 palette."""

from .graphs import Matching, _norm_edge, degeneracy, induced_subgraph


class ColoringInvariantError(RuntimeError):
    """No available color at a greedy step; signals an implementation bug."""


def palette_size(delta, r):
    """Palette bound floor(2(delta-1)^2/(r+1) + 2(delta-1) + 1)."""
    if delta < 1 or r < 1:
        raise ValueError("delta and r must be positive")
    k = (2 * (delta - 1) ** 2) // (r + 1) + 2 * (delta - 1) + 1
    assert k >= 2 * (delta - 1) + 1
    return k


class EdgeColoring:
    """Assignment of edges to colors in 1..k, each class an r-degenerate matching."""

    def __init__(self, color, k, delta, r):
        self.color = dict(color)
        self.k = k
        self.delta = delta
        self.r = r

    def classes(self):
        out = {}
        for e, c in self.color.items():
            out.setdefault(c, []).append(e)
        return {c: sorted(es) for c, es in out.items()}

    def colors_used(self):
        return len(set(self.color.values()))

    def max_color(self):
        return max(self.color.values(), default=0)

    def to_payload(self, verified=None):
        payload = {
            "r": self.r,
            "delta": self.delta,
            "K": self.k,
            "colors_used": self.colors_used(),
            "classes": {str(c): [list(e) for e in es]
                        for c, es in sorted(self.classes().items())},
        }
        if verified is not None:
            payload["verified"] = verified
        return payload


def _forbidden(g, colors_at, u, v, r):
    """Forbidden color sets for an uncolored edge uv, given colors_at, which
    maps each vertex to the colors on its incident edges.

    F1: colors on edges incident to u or v. F2: colors a outside F1 whose
    nearby coverage d_u + 2*d_uv + d_v reaches r+1, where d_u counts vertices
    of N(u)-N[v] touched by an a-colored edge (similarly for the v-side and
    the common neighborhood)."""
    f1 = set()
    f1.update(colors_at.get(u, ()))
    f1.update(colors_at.get(v, ()))
    # every vertex of N(u)-v and of N(v)-u adds 1 to each color on its edges;
    # a common neighbour is met from both sides, so the count is d_u + 2*d_uv + d_v
    count = {}
    for x, other in ((u, v), (v, u)):
        for w in g.adj[x]:
            if w != other:
                for a in colors_at.get(w, ()):
                    count[a] = count.get(a, 0) + 1
    f2 = {a for a, c in count.items() if c >= r + 1} - f1
    return f1, f2


def greedy_color(g, r, order=None, delta=None):
    """Color every edge with the minimum color outside F1 and F2.

    Default order is lexicographic by endpoint ids. delta may be overridden
    upward (the palette bound holds for any delta >= max degree)."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    actual = g.max_degree()
    if delta is None:
        delta = actual
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
    f2_cap = (2 * (delta - 1) ** 2) // (r + 1)
    color = {}
    colors_at = {}
    for uv in edges:
        f1, f2 = _forbidden(g, colors_at, uv[0], uv[1], r)
        if len(f1) > 2 * (delta - 1) or len(f2) > f2_cap:
            raise ColoringInvariantError(
                "forbidden-set bound violated at edge %s" % (uv,))
        chosen = None
        for a in range(1, k + 1):
            if a not in f1 and a not in f2:
                chosen = a
                break
        if chosen is None:
            raise ColoringInvariantError("no available color for edge %s" % (uv,))
        color[uv] = chosen
        colors_at.setdefault(uv[0], set()).add(chosen)
        colors_at.setdefault(uv[1], set()).add(chosen)
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
    missing = g.edges - colored
    if missing:
        return False, "uncolored edge %s" % (min(missing),)
    extra = colored - g.edges
    if extra:
        return False, "colored non-edge %s" % (min(extra),)
    for a in sorted(classes):
        try:
            m = Matching(classes[a])
        except ValueError:
            return False, "matching violation in class %d" % a
        if not _is_r_degenerate(g, m.vertices, r):
            return False, "degeneracy violation in class %d" % a
    return True, None
