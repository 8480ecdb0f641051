"""Greedy r-degenerate edge coloring within the 2(D-1)^2/(r+1) + 2(D-1) + 1 palette."""

from collections import namedtuple
from itertools import compress, starmap
from operator import not_

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


class _Sparse(dict):
    """A level that only a few vertices reach, keyed by them; it reads 0,
    no color, at any other vertex."""

    __slots__ = ()

    def __missing__(self, x):
        return 0


def _levels(g, r):
    """The colorer's state before any edge is colored:
    (colors_at, near, pairs, watch, hint).

    colors_at[x] has bit a set when color a is on an edge at x.

    F2 reads the levels of x only for an edge xy with deg x + deg y - 2 > r,
    so only such vertices keep levels; watch[x] lists the neighbours of x
    that do. near[j][x] has bit a set when at least j neighbours of x have
    color a on an edge, each neighbour counted once per color, for
    j = 1 .. top = min(r+1, the largest degree kept). Only whether a count
    reaches r+1 is read, so the top level saturates. near[0][x] is -1,
    every color, and pairs holds (near[p], near[r+1-p]) for
    p = r+1-top .. top, the level pairs F2 reads.

    No vertex reaches a level above its degree, so a level that fewer than
    a quarter of the vertices reach holds only them, in a _Sparse dict: the
    levels take O(n + m) space whatever r is. hint[x] is the level that x
    last raised a color to."""
    deg = [len(nbrs) for nbrs in g.adj]
    # a vertex of degree above r+1 has such an edge whatever the other end
    keep = [d > r + 1 or d + max(map(deg.__getitem__, nbrs), default=0) - 2 > r
            for d, nbrs in zip(deg, g.adj)]
    watch = list(g.adj)
    for x in {x for y in compress(range(g.n), map(not_, keep)) for x in g.adj[y]}:
        watch[x] = [y for y in g.adj[x] if keep[y]]
    kept = sorted(compress(range(g.n), keep), key=deg.__getitem__, reverse=True)
    near = [[-1] * g.n]
    k = len(kept)
    for j in range(1, min(r + 1, deg[kept[0]]) + 1 if kept else 1):
        while deg[kept[k - 1]] < j:
            k -= 1
        near.append([0] * g.n if 4 * k >= g.n else _Sparse.fromkeys(kept[:k], 0))
    pairs = list(zip(near[r + 2 - len(near):], reversed(near)))
    return [0] * g.n, near, pairs, watch, [1] * g.n


def _forbidden(g, colors_at, pairs, u, v, r):
    """Forbidden colors (F1, F2) for an uncolored edge uv, as int masks
    over the state of _levels; bit a of F1 or F2 is set when a is forbidden.

    F1: colors on edges incident to u or v. F2: colors a outside F1 whose
    nearby coverage d_u + 2*d_uv + d_v reaches r+1, where d_u counts
    vertices of N(u)-N[v] touched by an a-colored edge (similarly for the
    v-side and the common neighborhood)."""
    f1 = colors_at[u] | colors_at[v]
    # No count exceeds len(adj_u) + len(adj_v) - 2, the neighbours other
    # than u and v, so when that is at most r, F2 is empty.
    if len(g.adj[u]) + len(g.adj[v]) - 2 <= r:
        return f1, 0
    # A color outside F1 is on neither u nor v, so N(u) meets it on c_u
    # vertices and N(v) on c_v, with c_u + c_v = d_u + 2*d_uv + d_v. That
    # reaches r+1 exactly when, for some p, level p of u and level r+1-p
    # of v both hold it.
    f2 = 0
    for a, b in pairs:
        f2 |= a[u] & b[v]
    return f1, f2 & ~f1


def _add_color(watch, colors_at, near, hint, u, v, c):
    """Color the edge uv with c over the state of _levels: set bit c at u
    and v, and raise c one level at every neighbour of u and of v that
    keeps levels (a common neighbour twice)."""
    bit = 1 << c
    colors_at[u] |= bit
    colors_at[v] |= bit
    top = len(near) - 1
    if not top:
        return
    # c is new at u and v, so a neighbour x has c on fewer than deg x
    # neighbours and holds every level up to one above that count. An edge
    # xy with deg x + deg y > r + 2 >= 3 has an end of degree 2 or more, so
    # top >= 2.
    one = near[1]
    for x in watch[u]:
        m = one[x]
        if m & bit:
            j = 2
            while j < top and near[j][x] & bit:
                j += 1
            near[j][x] |= bit
            hint[x] = j
        else:
            one[x] = m | bit
    # A common neighbour of u and v is raised twice. The second time, the
    # search starts above its hint whenever that level holds c: the levels
    # holding c are always 1 .. count.
    for x in watch[v]:
        m = one[x]
        if m & bit:
            h = hint[x]
            j = h + 1 if near[h][x] & bit else 2
            while j < top and near[j][x] & bit:
                j += 1
            if j <= top:
                near[j][x] |= bit
        else:
            one[x] = m | bit


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
    if order is None:
        edges = g.sorted_edges()
    else:
        # m distinct pairs, each an edge, are every edge once
        edges = [_norm_edge(*e) for e in order]
        if not (len(edges) == g.m == len(set(edges)) and all(starmap(g.has_edge, edges))):
            raise ValueError("order is not a permutation of the edge set")
    if not edges:
        return EdgeColoring({}, 0, delta, r)
    k = palette_size(delta, r)
    f1_cap = 2 * (delta - 1)
    f2_cap = (2 * (delta - 1) ** 2) // (r + 1)
    color = {}
    colors_at, near, pairs, watch, hint = _levels(g, r)
    for uv in edges:
        u, v = uv
        f1, f2 = _forbidden(g, colors_at, pairs, u, v, r)
        if f1.bit_count() > f1_cap or f2.bit_count() > f2_cap:
            raise ColoringInvariantError(
                "forbidden-set bound violated at edge %s" % (uv,))
        # the lowest zero bit above bit 0 is the least allowed color
        taken = f1 | f2 | 1
        chosen = (~taken & (taken + 1)).bit_length() - 1
        if chosen > k:
            raise ColoringInvariantError("no available color for edge %s" % (uv,))
        color[uv] = chosen
        _add_color(watch, colors_at, near, hint, u, v, chosen)
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
