"""The graph type, exact density arithmetic, instance generators, edge-list I/O.

All densities and thresholds are `fractions.Fraction`; no floats appear on
any correctness path. Graphs are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

__all__ = [
    "Graph",
    "Orientation",
    "EdgeListError",
    "density",
    "parse_ratio",
    "format_ratio",
    "frac_ceil",
    "ceil_log2",
    "ceil_ln",
    "is_neg_pow2",
    "generate",
    "cycle",
    "path",
    "complete",
    "erdos_renyi",
    "planted_dense",
    "barbell",
    "lowerbound_pair",
    "read_edge_list",
    "write_edge_list",
]


def parse_ratio(text: str) -> Fraction:
    """Parse an exact rational from a "p/q" or "p" string."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_ratio(q: Fraction | int) -> str:
    """Format a rational as "p/q", always including the denominator."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def frac_ceil(q: Fraction | int) -> int:
    q = Fraction(q)
    return -((-q.numerator) // q.denominator)


def ceil_log2(q: Fraction | int) -> int:
    """Smallest k >= 0 with 2**k >= q, for q > 0. Exact integer arithmetic."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("ceil_log2 requires a positive argument")
    # 2**k is an integer, so 2**k >= q exactly when 2**k > ceil(q) - 1
    return (frac_ceil(q) - 1).bit_length()


@functools.lru_cache(maxsize=64)
def _atanh_bounds(a: int, b: int, prec: int) -> tuple[int, int]:
    """lo <= 2**prec * atanh(a/b) <= hi, for 0 <= a/b <= 1/3.

    Sums the series y^(2j+1)/(2j+1) in fixed point. Each power is floored
    from the last, so it lags its true value by less than 9/8 (y^2 <= 1/9);
    a term then loses less than 2.2 units, and once the power reaches 0 the
    tail is below 1.3 units.
    """
    total = terms = 0
    power = (a << prec) // b
    while power:
        total += power // (2 * terms + 1)
        power = power * a * a // (b * b)
        terms += 1
    return total, total + 3 * terms + 2


def ceil_ln(c: Fraction | int, n: int) -> int:
    """ceil(c * ln n) for c >= 0 and n >= 1, exactly.

    With n = 2^k * r, 1 <= r < 2, ln n = 2k*atanh(1/3) + 2*atanh((r-1)/(r+1));
    fixed-point bounds on both are refined until they agree on the
    ceiling. For n >= 2, ln n is irrational, so they eventually do.
    """
    c = Fraction(c)
    if c < 0 or n < 1:
        raise ValueError("ceil_ln requires c >= 0 and n >= 1")
    if n == 1:
        return 0
    k = n.bit_length() - 1
    prec = 32
    while True:
        lo2, hi2 = _atanh_bounds(1, 3, prec)
        lor, hir = _atanh_bounds(n - (1 << k), n + (1 << k), prec)
        # c * ln n = 2*c*(k*atanh(1/3) + atanh(y)), the atanh values in
        # units of 2^-prec
        scale = c.denominator << prec
        lo = -(-2 * c.numerator * (k * lo2 + lor) // scale)
        hi = -(-2 * c.numerator * (k * hi2 + hir) // scale)
        if lo == hi:
            return lo
        prec *= 2


def is_neg_pow2(q: Fraction) -> bool:
    """True iff q = 2**(-k) for some integer k >= 1."""
    q = Fraction(q)
    den = q.denominator
    return q.numerator == 1 and den > 1 and (den & (den - 1)) == 0


class Graph:
    """Immutable simple undirected graph with dense vertex/edge ids.

    Vertices are 0..n-1. Edges are stored canonically as (min, max) pairs in
    lexicographic order; the edge id of a pair is its index in that order.
    Degree-0 vertices are allowed. Raises ValueError on a negative n, a
    self-loop, an endpoint out of range or a repeated edge.
    """

    __slots__ = ("n", "edges", "adj", "_nbrs", "_ports", "_densest")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        canon = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            canon.append((v, u) if v < u else (u, v))
        canon.sort()
        for i in range(1, len(canon)):
            if canon[i] == canon[i - 1]:
                raise ValueError(f"duplicate edge {canon[i]}")
        self._fill(n, canon)

    @classmethod
    def _canonical(cls, n: int, edges) -> "Graph":
        """A graph on edges that are already (min, max) pairs, sorted, in
        range and free of repeats, such as a filtered or monotonically
        relabelled copy of another graph's edges. Nothing is checked."""
        g = cls.__new__(cls)
        g._fill(n, edges)
        return g

    def _fill(self, n: int, canon) -> None:
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(canon)
        adj: list[list[int]] = [[] for _ in range(n)]
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(self.edges):
            adj[u].append(eid)
            adj[v].append(eid)
            nbrs[u].append(v)
            nbrs[v].append(u)
        # adjacency lists are sorted by edge id (construction order is sorted)
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(a) for a in adj)
        self._nbrs: tuple[tuple[int, ...], ...] = tuple(tuple(a) for a in nbrs)
        self._ports: tuple[tuple[int, ...], ...] | None = None
        self._densest = None  # oracle.exact_densest's result, on first use

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._nbrs[v]

    def ports(self) -> tuple[tuple[int, ...], ...]:
        """Port i of v, its edge adj[v][i], is port ports()[v][i] of its
        neighbour neighbors(v)[i]. Built on first use: adjacency is sorted
        by edge id, so an edge's port counts its endpoint's earlier edges."""
        if self._ports is None:
            back: list[list[int]] = [[] for _ in range(self.n)]
            for u, v in self.edges:
                back[u].append(len(back[v]))
                back[v].append(len(back[u]) - 1)
            self._ports = tuple(map(tuple, back))
        return self._ports

    def bfs(self, src: int, radius: int | None = None) -> tuple:
        """Breadth-first search from src, out to `radius` hops.

        Returns (order, dist): the vertices within the radius (the whole
        component when radius is None) in visit order, and the distance of
        every vertex, -1 if not reached.
        """
        nbrs, dist = self._nbrs, [-1] * self.n
        dist[src] = 0
        order = [src]
        for v in order:  # the visit order is the queue
            if dist[v] == radius:
                break
            for u in nbrs[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    order.append(u)
        return order, dist

    def distances_from(self, src: int) -> list[int]:
        """BFS distances from src; -1 for unreachable vertices."""
        return self.bfs(src)[1]

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by min vertex."""
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            seen[s] = True
            comp = [s]
            for v in comp:  # the component list is the queue
                for u in self._nbrs[v]:
                    if not seen[u]:
                        seen[u] = True
                        comp.append(u)
            comps.append(sorted(comp))
        return comps

    def induced(self, members: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph on `members`, relabeled to 0..k-1.

        Returns (subgraph, old_ids) where old_ids[i] is the original id of
        the subgraph's vertex i.
        """
        old_ids = sorted(set(members))
        pos = {v: i for i, v in enumerate(old_ids)}
        sub_edges = [
            (pos[u], pos[v]) for (u, v) in self.edges if u in pos and v in pos
        ]
        return Graph._canonical(len(old_ids), sub_edges), old_ids

    def induced_edge_count(self, members) -> int:
        mem = members if isinstance(members, (set, frozenset)) else set(members)
        return sum(1 for u, v in self.edges if u in mem and v in mem)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Orientation:
    """One direction per edge of an edge list.

    The list is a Graph's canonical edges or a splitter's multigraph list,
    whose pairs may repeat or be stored larger-first. dir_bits[e] = 1 points
    edge e at edges[e][1], 0 at edges[e][0].
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    dir_bits: tuple[int, ...]

    def outdegs(self) -> list[int]:
        out = [0] * self.n
        for (u, v), bit in zip(self.edges, self.dir_bits):
            out[u if bit else v] += 1
        return out

    def indegs(self) -> list[int]:
        ind = [0] * self.n
        for (u, v), bit in zip(self.edges, self.dir_bits):
            ind[v if bit else u] += 1
        return ind

    def max_outdeg(self) -> int:
        return max(self.outdegs(), default=0)

    def to_text(self) -> str:
        lines = []
        for (u, v), bit in zip(self.edges, self.dir_bits):
            lines.append(f"{u} {v} {'->' if bit else '<-'}")
        return "\n".join(lines) + ("\n" if lines else "")


def density(g: Graph, vertices: Iterable[int]) -> Fraction:
    """Exact density |E(G[s])| / |s| of the subgraph induced by the ids s."""
    s = set(vertices)
    if not s:
        raise ValueError("density is undefined for the empty subset")
    lo, hi = min(s), max(s)
    if lo < 0 or hi >= g.n:
        raise ValueError(f"vertex {lo if lo < 0 else hi} out of range for n={g.n}")
    return Fraction(g.induced_edge_count(s), len(s))


# ---------------------------------------------------------------------------
# Instance generators


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def erdos_renyi(n: int, p: float | Fraction, seed: int) -> Graph:
    if n < 1:
        raise ValueError("erdos_renyi needs at least 1 vertex")
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def planted_dense(n_outer: int, clique_size: int, seed: int) -> Graph:
    """Sparse G(n, 0.05) background with a clique planted on a random subset."""
    if clique_size < 1 or n_outer < clique_size:
        raise ValueError("need 1 <= clique_size <= n_outer")
    rng = random.Random(seed)
    edge_set = set()
    for i in range(n_outer):
        for j in range(i + 1, n_outer):
            if rng.random() < 0.05:
                edge_set.add((i, j))
    core = rng.sample(range(n_outer), clique_size)
    for a in range(clique_size):
        for b in range(a + 1, clique_size):
            u, v = core[a], core[b]
            edge_set.add((u, v) if u < v else (v, u))
    return Graph(n_outer, sorted(edge_set))


def barbell(clique_size: int, path_len: int) -> Graph:
    """Two cliques of `clique_size` joined by a path with `path_len` edges."""
    if clique_size < 1 or path_len < 1:
        raise ValueError("need clique_size >= 1 and path_len >= 1")
    k = clique_size
    inner = path_len - 1
    n = 2 * k + inner
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            edges.append((i, j))
            edges.append((k + inner + i, k + inner + j))
    chain = [k - 1] + list(range(k, k + inner)) + [k + inner]
    edges.extend((chain[i], chain[i + 1]) for i in range(len(chain) - 1))
    return Graph(n, edges)


def lowerbound_pair(eps: Fraction) -> tuple[Graph, Graph]:
    """The cycle/path pair on l = 4/(10*eps) + 1 vertices.

    Requires 1/(10*eps) to be a positive integer. Vertex floor(l/2) is the
    middle vertex whose small-radius view is identical in both graphs.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    k = Fraction(1, 10) / eps
    if k.denominator != 1 or k < 1:
        raise ValueError("1/(10*eps) must be a positive integer")
    ell = 4 * int(k) + 1
    return cycle(ell), path(ell)


# kind -> (its required parameter names, maker(params, seed))
_GENERATORS = {
    "cycle": ("n", lambda params, seed: cycle(int(params["n"]))),
    "path": ("n", lambda params, seed: path(int(params["n"]))),
    "complete": ("n", lambda params, seed: complete(int(params["n"]))),
    "erdos_renyi": ("n p", lambda params, seed: erdos_renyi(
        int(params["n"]), parse_ratio(str(params["p"])), seed
    )),
    "planted_dense": ("n_outer clique_size", lambda params, seed: planted_dense(
        int(params["n_outer"]), int(params["clique_size"]), seed
    )),
    "barbell": ("clique_size path_len", lambda params, seed: barbell(
        int(params["clique_size"]), int(params["path_len"])
    )),
    "lowerbound_pair": ("eps", lambda params, seed: lowerbound_pair(
        parse_ratio(str(params["eps"]))
    )),
}


def generate(kind: str, params: dict, seed: int = 0):
    """Generate a named instance; deterministic for a fixed seed.

    Returns a Graph, except kind="lowerbound_pair" which returns the
    (cycle, path) pair.
    """
    if kind not in _GENERATORS:
        raise ValueError(
            f"unknown kind {kind!r}; options: {sorted(_GENERATORS)}"
        )
    keys, make = _GENERATORS[kind]
    missing = [k for k in keys.split() if k not in params]
    if missing:
        raise ValueError(f"{kind} needs the parameter(s) {', '.join(missing)}")
    return make(params, seed)


# ---------------------------------------------------------------------------
# Edge-list text format


class EdgeListError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"{message} at line {line}")
        self.line = line


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format: header "n m", then one "u v" pair per
    line."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise EdgeListError("missing header", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListError("header must be 'n m'", 1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise EdgeListError("header must contain integers", 1) from None
    if n < 0:
        raise EdgeListError("vertex count must be non-negative", 1)
    pairs = []
    seen = set()
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise EdgeListError("expected 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError("ids must be integers", lineno) from None
        if u == v:
            raise EdgeListError("self-loop", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError("vertex id out of range", lineno)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise EdgeListError("duplicate edge", lineno)
        seen.add(key)
        pairs.append(key)
    if len(pairs) != m:
        raise EdgeListError(
            f"header promised {m} edges but found {len(pairs)}", lineno
        )
    pairs.sort()
    return Graph._canonical(n, pairs)


def write_edge_list(g: Graph) -> str:
    """Serialize in canonical sorted order; LF endings, UTF-8 content."""
    body = [f"{u} {v}" for u, v in g.edges]
    return "\n".join([f"{g.n} {g.m}"] + body) + "\n"
