import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densub import oracle
from densub.graphs import (
    Graph,
    Orientation,
    complete,
    cycle,
    density,
    erdos_renyi,
    path,
    planted_dense,
)
from densub.oracle import (
    brute_densest,
    exact_densest,
    min_max_outdegree,
    witness_orientation,
)


def certificate_spy(monkeypatch) -> list[tuple]:
    """Record every (g, witness, value, den, give) the oracle certifies."""
    seen = []
    check = oracle._check_certificate

    def spy(*args):
        check(*args)
        seen.append(args)

    monkeypatch.setattr(oracle, "_check_certificate", spy)
    return seen


def path_square(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(n - 2)])


def grid(rows: int, cols: int) -> Graph:
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, right + down)


@st.composite
def cyclic_graphs(draw):
    """A graph on up to 40 vertices with a triangle, so never a forest."""
    n = draw(st.integers(3, 40))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    a, b, c = sorted(draw(st.sets(st.integers(0, n - 1), min_size=3, max_size=3)))
    edges = set(draw(st.lists(st.sampled_from(pairs), max_size=150)))
    return Graph(n, edges | {(a, b), (a, c), (b, c)})


def plain_core(g: Graph, lo: Fraction) -> set[int]:
    """What is left after repeatedly deleting every vertex of degree <= lo."""
    alive = set(range(g.n))
    while True:
        low = {v for v in alive if sum(u in alive for u in g.neighbors(v)) <= lo}
        if not low:
            return alive
        alive -= low


def plain_flow_reach(g: Graph, guess: Fraction) -> set[int] | None:
    """Goldberg's full network at guess (source n, sink n + 1), solved by
    Edmonds-Karp from zero flow: None if the flow saturates every source
    arc, else the residual reach of the source."""
    n, m, a, b = g.n, g.m, guess.numerator, guess.denominator
    res = [[0] * (n + 2) for _ in range(n + 2)]  # residual capacities
    for v in range(n):
        res[n][v] = m * b
        res[v][n + 1] = m * b + 2 * a - g.degree(v) * b
    for u, v in g.edges:
        res[u][v] = res[v][u] = b
    flow = 0
    while True:
        parent = {n: None}
        queue = [n]
        for u in queue:  # BFS for a shortest augmenting path
            for v in range(n + 2):
                if res[u][v] > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if n + 1 not in parent:
            break
        arcs, v = [], n + 1
        while parent[v] is not None:
            arcs.append((parent[v], v))
            v = parent[v]
        push = min(res[u][v] for u, v in arcs)
        for u, v in arcs:
            res[u][v] -= push
            res[v][u] += push
        flow += push
    if flow >= m * n * b:
        return None
    return {v for v in parent if v < n}


@given(cyclic_graphs())
@settings(max_examples=100, deadline=None)
def test_preflow_and_peel_match_their_references(g):
    bound, witness, order, _ = oracle._peel_lower_bound(g)
    # the best suffix of the peel order, the earliest of equals winning
    suffixes = [
        Fraction(g.induced_edge_count(order[i:]), g.n - i) for i in range(g.n)
    ]
    assert bound == max(suffixes)
    assert witness == set(order[suffixes.index(bound):])
    d = exact_densest(g).value
    for guess in (bound, d, d - Fraction(1, g.n**2)):
        assert oracle._denser_than(g, guess)[0] == plain_flow_reach(g, guess)


@st.composite
def flow_networks(draw):
    """Up to 12 nodes and 40 arc pairs (u, v, capacity, reverse capacity),
    zero and anti-parallel capacities included."""
    n = draw(st.integers(2, 12))
    node, c = st.integers(0, n - 1), st.integers(0, 9)
    pairs = st.tuples(node, node, c, c).filter(lambda p: p[0] != p[1])
    return n, draw(st.lists(pairs, max_size=40))


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


@given(net=flow_networks())
# random networks this small rarely need a unit undone; here the first
# shortest path 0-1-3-6 must be cancelled on 1-3 to reach flow 2
@example(net=(7, [(0, 1, 1, 0), (0, 2, 1, 0), (1, 3, 1, 0), (3, 6, 1, 0),
                  (1, 4, 1, 0), (4, 5, 1, 0), (5, 6, 1, 0), (2, 3, 1, 0)]))
# saturating 0->1 strands 4 units at node 1, which 1->2 cannot pass on:
# node 1 is on the source side though no residual arc reaches it from 0
@example(net=(3, [(0, 1, 5, 0), (1, 2, 1, 0)]))
@settings(max_examples=300, deadline=None)
def test_max_flow_matches_networkx(nx, net):
    n, pairs = net
    to = [w for u, v, _, _ in pairs for w in (v, u)]
    cap = [x for _, _, c, r in pairs for x in (c, r)]
    caps: dict[tuple[int, int], int] = {}
    for i, c in enumerate(cap):  # arc i runs from to[i ^ 1] to to[i]
        caps[to[i ^ 1], to[i]] = caps.get((to[i ^ 1], to[i]), 0) + c
    h = nx.DiGraph()
    h.add_nodes_from(range(n))
    h.add_edges_from((a, b, {"capacity": c}) for (a, b), c in caps.items())
    value, f = nx.maximum_flow(h, 0, n - 1)
    flow, mark = oracle._max_flow(n, 0, n - 1, to, list(cap))
    assert flow == value
    # the marked set is the residual reach of 0 under networkx's flow: the
    # minimal min cut's source side, the same for every maximum flow
    reach, todo = {0}, [0]
    while todo:
        a = todo.pop()
        for b in range(n):
            left = caps.get((a, b), 0) - f[a].get(b, 0) + f[b].get(a, 0)
            if left > 0 and b not in reach:
                reach.add(b)
                todo.append(b)
    assert {v for v in range(n) if mark[v] >= 0} == reach
    assert flow == sum(
        c for i, c in enumerate(cap) if mark[to[i ^ 1]] >= 0 > mark[to[i]]
    )


class TestBruteDensest:
    def test_single_edge(self):
        r = brute_densest(Graph(2, [(0, 1)]))
        assert r.value == Fraction(1, 2)

    def test_c5_whole_cycle(self):
        r = brute_densest(cycle(5))
        assert r.value == 1
        assert r.best_subset == (0, 1, 2, 3, 4)

    def test_p4(self):
        r = brute_densest(path(4))
        assert r.value == Fraction(3, 4)

    def test_tie_lexicographic(self):
        # two disjoint edges: both have density 1/2; {0,1} is lex-smallest
        r = brute_densest(Graph(4, [(0, 1), (2, 3)]))
        assert r.best_subset == (0, 1)

    def test_refuses_large(self):
        with pytest.raises(ValueError):
            brute_densest(erdos_renyi(21, 0.5, seed=1))


class TestExactDensest:
    @given(cyclic_graphs())
    @settings(max_examples=200, deadline=None)
    def test_first_flow_runs_on_the_core_above_the_peel_bound(self, g):
        seen = []
        denser_than = oracle._denser_than

        def spy(sub, guess):
            seen.append((sub, guess))
            return denser_than(sub, guess)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_denser_than", spy)
            exact_densest(g)
        sub, lo = seen[0]
        assert sub == g.induced(plain_core(g, lo))[0]

    def test_k5(self):
        r = exact_densest(complete(5))
        assert r.value == 2
        assert r.best_subset == (0, 1, 2, 3, 4)

    def test_edgeless(self):
        r = exact_densest(Graph(3, []))
        assert r.value == 0
        assert len(r.best_subset) == 1

    def test_witness_density_matches(self):
        for seed in range(10):
            g = erdos_renyi(40, 0.2, seed)
            r = exact_densest(g)
            if g.m:
                assert density(g, r.best_subset) == r.value

    def test_planted_k6(self):
        g = planted_dense(50, 6, seed=7)
        assert exact_densest(g).value >= Fraction(5, 2)

    def test_agreement_with_brute_200_graphs(self, monkeypatch):
        seen = certificate_spy(monkeypatch)
        rng = random.Random(0)
        for trial in range(200):
            n = rng.randint(2, 12)
            g = erdos_renyi(n, rng.choice([0.2, 0.4, 0.6]), seed=trial)
            r = exact_densest(g)
            assert r.value == brute_densest(g).value
            assert seen[-1][0] == g and seen[-1][2] == r.value
        assert len(seen) == 200

    def test_a_set_no_denser_than_lo_fails_the_loop(self, monkeypatch):
        # a faulty min-cut test that keeps answering with all of K5, at
        # density 2 = lo, would keep the Dinkelbach loop going forever
        monkeypatch.setattr(
            oracle, "_denser_than", lambda sub, guess: (set(range(sub.n)), [])
        )
        with pytest.raises(
            AssertionError, match="oracle: a min-cut set is not denser than lo"
        ):
            exact_densest(complete(5))

    def test_certificate_rejects_tampering(self, monkeypatch):
        # K4 plus a pendant vertex: D = 3/2 on the K4, the whole graph 7/5
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
        seen = certificate_spy(monkeypatch)
        assert exact_densest(g).value == Fraction(3, 2)
        _, witness, value, den, give = seen[-1]
        monkeypatch.undo()
        check = oracle._check_certificate
        check(g, witness, value, den, give)
        with pytest.raises(AssertionError, match="share"):
            check(g, witness, value, den, [den + 1] + give[1:])
        with pytest.raises(AssertionError, match="witness"):
            check(g, set(witness) - {min(witness)}, value, den, give)
        with pytest.raises(AssertionError, match="load"):
            check(g, set(range(5)), Fraction(7, 5), den, give)

    @pytest.mark.parametrize(
        "g, d",
        [
            (path_square(3000), Fraction(1999, 1000)),
            (cycle(3000), Fraction(1)),
            (grid(40, 40), Fraction(39, 20)),
            (grid(3, 1500), Fraction(833, 500)),
        ],
        ids=["path_square_3000", "cycle_3000", "grid_40x40", "grid_3x1500"],
    )
    def test_scale_few_flows(self, monkeypatch, g, d):
        flows = []
        denser_than = oracle._denser_than

        def counted(sub, guess):
            flows.append(guess)
            return denser_than(sub, guess)

        monkeypatch.setattr(oracle, "_denser_than", counted)
        seen = certificate_spy(monkeypatch)
        r = exact_densest(g)
        assert r.value == d
        assert density(g, r.best_subset) == d
        assert len(flows) == 1  # the peel bound is already D
        assert len(seen) == 1


class TestMinMaxOutdegree:
    def test_tree(self):
        g = path(7)
        alpha, head = min_max_outdegree(g)
        assert alpha == 1

    def test_k5(self):
        alpha, head = min_max_outdegree(complete(5))
        assert alpha == 2

    def test_c6(self):
        alpha, _ = min_max_outdegree(cycle(6))
        assert alpha == 1

    def test_edgeless(self):
        assert min_max_outdegree(Graph(4, []))[0] == 0

    def test_missing_witness_fails_the_invariant(self, monkeypatch):
        monkeypatch.setattr(oracle, "witness_orientation", lambda g, a: None)
        with pytest.raises(
            AssertionError, match=r"an orientation at ceil\(D\) must exist"
        ):
            min_max_outdegree(complete(5))

    def test_overstated_flow_fails_the_witness_check(self, monkeypatch):
        # no arc flipped: vertex 0 keeps all 4 of its edges
        monkeypatch.setattr(
            oracle, "_max_flow", lambda n, s, t, to, cap: (10**9, [-1] * n)
        )
        with pytest.raises(AssertionError, match="an outdegree exceeds alpha"):
            witness_orientation(complete(5), 2)

    def test_witness_achieves_value(self):
        rng = random.Random(11)
        for trial in range(20):
            g = erdos_renyi(rng.randint(2, 25), 0.3, seed=trial)
            alpha, o = min_max_outdegree(g)
            assert o.max_outdeg() <= alpha
            if g.m:
                # decreasing by one must be infeasible: alpha = ceil(D)
                d = exact_densest(g).value
                assert alpha - 1 < d
                assert witness_orientation(g, alpha - 1) is None or alpha - 1 >= d

    def test_scale_witness_from_one_flow(self, monkeypatch):
        # three graphs of 1,600 to 3,000 vertices in a 2 s budget (0.7 s
        # measured on a 2-core VM), the exact oracle's two calls included;
        # each witness orientation is read off exactly one max flow
        flows, per_witness = [], []
        max_flow, witness = oracle._max_flow, oracle.witness_orientation

        def counted_flow(*args):
            flows.append(1)
            return max_flow(*args)

        def counted_witness(g, alpha):
            before = len(flows)
            o = witness(g, alpha)
            per_witness.append(len(flows) - before)
            return o

        monkeypatch.setattr(oracle, "_max_flow", counted_flow)
        monkeypatch.setattr(oracle, "witness_orientation", counted_witness)
        t0 = time.perf_counter()
        for g in (cycle(3000), grid(40, 40), erdos_renyi(2000, 0.005, seed=1)):
            alpha, o = min_max_outdegree(g)
            assert isinstance(o, Orientation)
            assert o.edges == g.edges and len(o.dir_bits) == g.m
            d = exact_densest(g).value
            assert o.max_outdeg() == alpha == -((-d.numerator) // d.denominator)
            assert oracle.witness_orientation(g, alpha - 1) is None
        elapsed = time.perf_counter() - t0
        assert per_witness == [1] * 6
        assert elapsed <= 2, f"scale witnesses took {elapsed:.2f}s > 2s"


def test_oracles_agree_on_every_atlas_graph():
    # exhaustive over all 1,252 graphs on 1 to 7 vertices (networkx's atlas,
    # from Read & Wilson's "An Atlas of Graphs"), not a sample
    nx = pytest.importorskip("networkx")
    atlas = [h for h in nx.graph_atlas_g() if h.number_of_nodes()]
    assert len(atlas) == 1252
    for h in atlas:
        g = Graph(h.number_of_nodes(), h.edges())
        r = exact_densest(g)
        assert r.value == brute_densest(g).value
        assert density(g, r.best_subset) == r.value
        if g.m:
            alpha, o = min_max_outdegree(g)
            assert alpha == -((-r.value.numerator) // r.value.denominator)
            assert o.edges == g.edges and o.max_outdeg() == alpha
            assert witness_orientation(g, alpha - 1) is None
