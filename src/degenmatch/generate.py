"""Deterministic instance generators over a portable xorshift RNG."""

import math

from .graphs import MAX_EDGES, Graph, _adjacency, _check_edges

_MASK = (1 << 64) - 1


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


class Rng:
    """xorshift64* with splitmix64 seeding.

    Fixed 64-bit constants, so any seed reproduces bit-identically across
    platforms and runs."""

    def __init__(self, seed=0):
        self.state = _splitmix64(seed & _MASK)
        if self.state == 0:
            self.state = 0x9E3779B97F4A7C15

    def next_u64(self):
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK

    def randbelow(self, n):
        if n <= 0:
            raise ValueError("n must be positive")
        bound = ((1 << 64) // n) * n
        while True:
            x = self.next_u64()
            if x < bound:
                return x % n

    def chances(self, p, count):
        """Make count draws and return, in ascending order, the offsets of
        those that pass with probability p: draw x passes when its top 53
        bits, x >> 11, are below p * 2^53. That float is exact, so for the
        integer x the test is x < ceil(p * 2^53) << 11, one comparison."""
        _check_probability(p)
        threshold = math.ceil(p * (1 << 53)) << 11
        x = self.state
        hits = []
        # next_u64 written out: one loop makes every draw of the call
        for i in range(count):
            x ^= x >> 12
            x = (x ^ x << 25) & _MASK
            x ^= x >> 27
            if x * 0x2545F4914F6CDD1D & _MASK < threshold:
                hits.append(i)
        self.state = x
        return hits

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, seq, k):
        items = list(seq)
        self.shuffle(items)
        return items[:k]


# The range rules, one per family, each taking the family's parameters in
# call order. A builder runs its rule before it builds anything, and
# check_params runs the same rule, so bench refuses a suite before any
# instance runs.
def _check_probability(p):
    if not 0 <= p <= 1:  # also refuses NaN
        raise ValueError("p must be between 0 and 1, got %r" % (p,))


def _check_vertex_count(n):
    if n < 0:
        raise ValueError("vertex count must be non-negative")


def _check_cycle(n):
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")


def _check_complete_bipartite(a, b):
    if a < 0 or b < 0:
        raise ValueError("part sizes must be non-negative")


def _check_k_tree(k, n):
    if k < 1 or n < k + 1:
        raise ValueError("k-tree needs n >= k + 1 >= 2")


def _check_random_chordal(n):
    if n < 1:
        raise ValueError("need at least one vertex")


def _check_bounded_degree(n, p, max_degree):
    for name, value in (("n", n), ("max_degree", max_degree)):
        if value < 0:
            raise ValueError("%s must be non-negative, got %r" % (name, value))
    _check_probability(p)


def _check_max_edges(max_edges):
    # a bool or a float is refused, as r and max_states are in dp.solve
    if type(max_edges) is not int:
        raise ValueError("max_edges must be an integer")
    if max_edges < 0:
        raise ValueError("max_edges must be non-negative")


def _stop_past(ends, max_edges):
    """Refuse the graph once the flat id list ends holds more than max_edges
    pairs, at the first pair past the cap, as the readers do."""
    if len(ends) > 2 * max_edges:
        _check_edges(max_edges + 1, max_edges)


def _build(n, ends):
    # a builder lists every pair of a simple graph once: a fault is internal
    adj, *faults = _adjacency(n, ends)
    if faults != [None, None]:
        raise AssertionError("generated pairs: first self-loop, repeat %s" % faults)
    return Graph._from_adjacency(adj)


def path(n):
    _check_vertex_count(n)
    return _build(n, [x for u in range(n - 1) for x in (u, u + 1)])


def cycle(n):
    _check_cycle(n)
    return _build(n, [x for u in range(n) for x in (u, (u + 1) % n)])


def complete(n):
    _check_vertex_count(n)
    ids = list(range(n))
    return _build(n, [x for u in ids for v in ids[u + 1:] for x in (u, v)])


def complete_bipartite(a, b):
    _check_complete_bipartite(a, b)
    ids = list(range(a + b))
    return _build(a + b, [x for u in ids[:a] for v in ids[a:] for x in (u, v)])


def k_tree(k, n, seed=0):
    """Random k-tree: K_{k+1} plus vertices attached to random k-cliques."""
    _check_k_tree(k, n)
    rng = Rng(seed)
    ends = [x for u in range(k + 1) for v in range(u + 1, k + 1) for x in (u, v)]
    cliques = [tuple(range(k + 1))]
    for v in range(k + 1, n):
        base = cliques[rng.randbelow(len(cliques))]
        drop = rng.randbelow(k + 1)
        face = tuple(w for i, w in enumerate(base) if i != drop)
        ends += [x for w in face for x in (w, v)]
        cliques.append(tuple(sorted(face + (v,))))
    return _build(n, ends)


def random_chordal(n, seed=0, max_edges=MAX_EDGES):
    """Simplicial growth: each new vertex attaches to a random sub-clique of a
    random existing clique, so the reverse creation order is a perfect
    elimination order. Stops past max_edges edges, as _stop_past says."""
    _check_random_chordal(n)
    _check_max_edges(max_edges)
    rng = Rng(seed)
    ends = []
    cliques = [(0,)]
    for v in range(1, n):
        base = cliques[rng.randbelow(len(cliques))]
        size = 1 + rng.randbelow(len(base))
        face = rng.sample(base, size)
        ends += [x for w in face for x in (w, v)]
        _stop_past(ends, max_edges)
        cliques.append(tuple(sorted(face + [v])))
    return _build(n, ends)


def random_bounded_degree(n, p, max_degree, seed=0, max_edges=MAX_EDGES):
    """Bernoulli(p) over pairs in lexicographic order, one draw per pair,
    rejecting edges that would push either endpoint past the degree cap.
    Row u's n - u - 1 draws come from one Rng.chances call. Stops past
    max_edges edges, as _stop_past says."""
    _check_bounded_degree(n, p, max_degree)
    _check_max_edges(max_edges)
    rng = Rng(seed)
    deg = [0] * n
    ends = []
    for u in range(n):
        for i in rng.chances(p, n - u - 1):
            v = u + 1 + i
            if deg[u] < max_degree and deg[v] < max_degree:
                ends += u, v
                deg[u] += 1
                deg[v] += 1
        _stop_past(ends, max_edges)
    return _build(n, ends)


def interval(n, seed=0, max_edges=MAX_EDGES):
    """Intersection graph of n integer intervals with endpoints in [0, 2n].
    Stops past max_edges edges, as _stop_past says."""
    _check_vertex_count(n)
    _check_max_edges(max_edges)
    rng = Rng(seed)
    spans = []
    for _ in range(n):
        a = rng.randbelow(2 * n + 1)
        b = rng.randbelow(2 * n + 1)
        spans.append((min(a, b), max(a, b)))
    ids = list(range(n))
    ends = []
    for i, (a, b) in enumerate(spans):
        # [a, b] and [c, d] meet iff c <= b and a <= d
        ends += [x for j in ids[i + 1:] if spans[j][0] <= b and a <= spans[j][1]
                 for x in (i, j)]
        _stop_past(ends, max_edges)
    return _build(n, ends)


# family -> (builder, its parameters in call order, whether it takes a seed,
# its range rule, and its edge count where the parameters fix it; the
# builders without a count take a seed and max_edges, and stop past it)
FAMILIES = {
    "path": (path, ("n",), False, _check_vertex_count, lambda n: max(n - 1, 0)),
    "cycle": (cycle, ("n",), False, _check_cycle, lambda n: n),
    "complete": (complete, ("n",), False, _check_vertex_count,
                 lambda n: n * (n - 1) // 2),
    "complete-bipartite": (complete_bipartite, ("a", "b"), False,
                           _check_complete_bipartite, lambda a, b: a * b),
    "k-tree": (k_tree, ("k", "n"), True, _check_k_tree,
               lambda k, n: k * n - k * (k + 1) // 2),
    "random-chordal": (random_chordal, ("n",), True, _check_random_chordal, None),
    "random-bounded-degree": (random_bounded_degree, ("n", "p", "max_degree"), True,
                              _check_bounded_degree, None),
    "interval": (interval, ("n",), True, _check_vertex_count, None),
}
# parameter -> type; p may also be an int, and is 0.2 when left out
PARAMS = {"n": int, "k": int, "a": int, "b": int, "p": float, "max_degree": int}


def check_params(family, params, seed=0):
    """Raise ValueError unless family is known, params a dict of exactly the
    family's parameters (p may be left out), each value and the seed an int
    (p may also be a finite float; a bool is neither), and the values in the
    range the family's builder accepts."""
    if not isinstance(family, str) or family not in FAMILIES:
        raise ValueError("unknown family %r" % (family,))
    if not isinstance(params, dict):
        raise ValueError("params must be a dict")
    names = FAMILIES[family][1]
    for name in names:
        if name not in params and name != "p":
            raise ValueError("family %r needs parameter %r" % (family, name))
    for name, value in params.items():
        if name not in names:
            raise ValueError("family %r takes no parameter %r" % (family, name))
        if not (type(value) is int
                or type(value) is PARAMS[name] and math.isfinite(value)):
            raise ValueError("parameter %r must be %s" % (
                name, "an integer" if PARAMS[name] is int else "a finite number"))
    if type(seed) is not int:
        raise ValueError("seed must be an integer")
    FAMILIES[family][3](*_arguments(family, params))


def _arguments(family, params):
    # only p can be absent
    return [params.get(name, 0.2) for name in FAMILIES[family][1]]


def generate(family, params, seed=0, max_edges=MAX_EDGES):
    """Graph of family, once check_params has passed it and max_edges is an
    int of at least 0 (else ValueError). A graph of more than max_edges edges
    raises LimitsExceededError: before it is built where the parameters fix
    the count, else at the first edge past the cap."""
    check_params(family, params, seed)
    _check_max_edges(max_edges)
    builder, _, takes_seed, _, edge_count = FAMILIES[family]
    args = _arguments(family, params)
    if edge_count is None:
        return builder(*args, seed, max_edges=max_edges)
    _check_edges(edge_count(*args), max_edges)
    return builder(*args, seed) if takes_seed else builder(*args)
