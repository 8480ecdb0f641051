"""Deterministic instance generators over a portable xorshift RNG."""

from dataclasses import dataclass, field

from .graphs import Graph

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

    def chance(self, p):
        # true with probability p, via a 53-bit threshold
        return self.next_u64() >> 11 < p * (1 << 53)

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, seq, k):
        items = list(seq)
        self.shuffle(items)
        return items[:k]


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a, b):
    if a < 0 or b < 0:
        raise ValueError("part sizes must be non-negative")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def k_tree(k, n, seed=0):
    """Random k-tree: K_{k+1} plus vertices attached to random k-cliques."""
    if k < 1 or n < k + 1:
        raise ValueError("k-tree needs n >= k + 1 >= 2")
    rng = Rng(seed)
    edges = [(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)]
    cliques = [tuple(range(k + 1))]
    for v in range(k + 1, n):
        base = cliques[rng.randbelow(len(cliques))]
        drop = rng.randbelow(k + 1)
        face = tuple(w for i, w in enumerate(base) if i != drop)
        edges.extend((w, v) for w in face)
        cliques.append(tuple(sorted(face + (v,))))
    return Graph(n, edges)


def random_chordal(n, seed=0):
    """Simplicial growth: each new vertex attaches to a random sub-clique of a
    random existing clique, so the reverse creation order is a perfect
    elimination order."""
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = Rng(seed)
    edges = []
    cliques = [(0,)]
    for v in range(1, n):
        base = cliques[rng.randbelow(len(cliques))]
        size = 1 + rng.randbelow(len(base))
        face = rng.sample(base, size)
        edges.extend((w, v) for w in face)
        cliques.append(tuple(sorted(face + [v])))
    return Graph(n, edges)


def random_bounded_degree(n, p, max_degree, seed=0):
    """Bernoulli(p) over pairs in lexicographic order, rejecting edges that
    would push either endpoint past the degree cap."""
    if n < 0 or not 0 <= p <= 1 or max_degree < 0:
        raise ValueError("bad parameters")
    rng = Rng(seed)
    deg = [0] * n
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.chance(p) and deg[u] < max_degree and deg[v] < max_degree:
                edges.append((u, v))
                deg[u] += 1
                deg[v] += 1
    return Graph(n, edges)


def interval(n, seed=0):
    """Intersection graph of n integer intervals with endpoints in [0, 2n]."""
    if n < 0:
        raise ValueError("need a non-negative vertex count")
    rng = Rng(seed)
    spans = []
    for _ in range(n):
        a = rng.randbelow(2 * n + 1)
        b = rng.randbelow(2 * n + 1)
        spans.append((min(a, b), max(a, b)))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if max(spans[i][0], spans[j][0]) <= min(spans[i][1], spans[j][1])]
    return Graph(n, edges)


FAMILIES = ("path", "cycle", "complete", "complete-bipartite", "k-tree",
            "random-chordal", "random-bounded-degree", "interval")


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0


def generate(spec):
    """Graph of spec.family; raises ValueError for a missing parameter."""

    def param(name):
        if name not in spec.params:
            raise ValueError("family %r needs parameter %r" % (spec.family, name))
        return spec.params[name]

    if spec.family == "path":
        return path(param("n"))
    if spec.family == "cycle":
        return cycle(param("n"))
    if spec.family == "complete":
        return complete(param("n"))
    if spec.family == "complete-bipartite":
        return complete_bipartite(param("a"), param("b"))
    if spec.family == "k-tree":
        return k_tree(param("k"), param("n"), spec.seed)
    if spec.family == "random-chordal":
        return random_chordal(param("n"), spec.seed)
    if spec.family == "random-bounded-degree":
        return random_bounded_degree(param("n"), spec.params.get("p", 0.2),
                                     param("max_degree"), spec.seed)
    if spec.family == "interval":
        return interval(param("n"), spec.seed)
    raise ValueError("unknown family %r" % spec.family)
