"""Greedy r-degenerate edge coloring within the 2(D-1)^2/(r+1) + 2(D-1) + 1 palette."""

from .graphs import _norm_edge, degeneracy, induced_subgraph


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


def forbidden_sets(g, color, uv, r):
    """Forbidden color sets for an uncolored edge uv.

    F1: colors on edges incident to u or v. F2: colors a outside F1 whose
    nearby coverage d_u + 2*d_uv + d_v reaches r+1, where d_u counts vertices
    of N(u)-N[v] touched by an a-colored edge (similarly for the v-side and
    the common neighborhood)."""
    u, v = _norm_edge(*uv)
    if (u, v) in color:
        raise ValueError("edge (%d, %d) already colored" % (u, v))
    colors_at = {}
    for e, a in color.items():
        _add_color(colors_at, e, a)
    return _forbidden(g, colors_at, u, v, r)


def _add_color(colors_at, e, a):
    # colors_at maps each vertex to the colors on its incident edges
    colors_at.setdefault(e[0], set()).add(a)
    colors_at.setdefault(e[1], set()).add(a)


def _forbidden(g, colors_at, u, v, r):
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
    edges = [_norm_edge(*e) for e in order] if order is not None else g.sorted_edges()
    if sorted(edges) != g.sorted_edges():
        raise ValueError("order is not a permutation of the edge set")
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
        _add_color(colors_at, uv, chosen)
    return EdgeColoring(color, k, delta, r)


def _class_violation(g, cls, r):
    """Why the edges cls do not form an r-degenerate matching; None if they do."""
    used = set()
    for u, v in cls:
        if u in used or v in used:
            return "matching violation"
        used.add(u)
        used.add(v)
    sub, _ = induced_subgraph(g, used)
    if degeneracy(sub) > r:
        return "degeneracy violation"
    return None


def verify_coloring(g, coloring, r):
    """Check that every class is an r-degenerate matching; (ok, report)."""
    color = coloring.color if isinstance(coloring, EdgeColoring) else dict(coloring)
    for e in g.edges:
        if _norm_edge(*e) not in color:
            return False, "uncolored edge %s" % (e,)
    classes = {}
    for e, a in color.items():
        classes.setdefault(a, []).append(_norm_edge(*e))
    for a in sorted(classes):
        violation = _class_violation(g, classes[a], r)
        if violation:
            return False, "%s in class %d" % (violation, a)
    return True, None
