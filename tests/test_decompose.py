from collections import deque
from fractions import Fraction

import pytest

from densub.decompose import Clustering, ldd_traced, shift_budget
from densub.graphs import Graph, cycle, erdos_renyi, path


def check_clusters_connected_and_bounded(g, clustering):
    """Every cluster is connected within itself with radius <= budget."""
    for center, members in clustering.clusters().items():
        assert center in members
        mem = set(members)
        # BFS from the center inside the cluster
        dist = {center: 0}
        q = deque([center])
        while q:
            v = q.popleft()
            for u in g.neighbors(v):
                if u in mem and u not in dist:
                    dist[u] = dist[v] + 1
                    q.append(u)
        assert set(dist) == mem, f"cluster of {center} is disconnected"
        assert max(dist.values()) <= clustering.budget


def check_argmin_rule(g, clustering, shifts_by_wake):
    """cluster_of(v) minimizes dist(c, v) + (budget - shift floor), ties to
    the smaller center id. Wake times encode the floored shifted values."""
    centers = clustering.centers
    dists = {c: g.distances_from(c) for c in centers}
    for v in range(g.n):
        best = None
        for c in centers:
            d = dists[c][v]
            if d < 0:
                continue
            key = (d + shifts_by_wake[c], c)
            if best is None or key < best:
                best = key
        assert best is not None
        assert clustering.cluster_of[v] == best[1]


class TestLdd:
    def test_single_vertex(self):
        g = Graph(1, [])
        c = ldd_traced(g, Fraction(1, 2), seed=0)[0]
        assert c.cluster_of == (0,)
        assert c.cut_edges == 0

    def test_deterministic(self):
        g = erdos_renyi(48, 0.1, seed=2)
        a = ldd_traced(g, Fraction(1, 4), seed=77)[0]
        b = ldd_traced(g, Fraction(1, 4), seed=77)[0]
        assert a == b

    def test_seed_changes_outcome(self):
        g = path(64)
        outcomes = {ldd_traced(g, Fraction(1, 2), seed=s)[0].cluster_of for s in range(20)}
        assert len(outcomes) > 1

    def test_rounds_within_budget(self):
        g = erdos_renyi(32, 0.2, seed=1)
        c, trace = ldd_traced(g, Fraction(1, 4), seed=5)
        assert trace.rounds_executed <= c.budget + 1

    def test_connectivity_and_radius_100_graphs(self):
        for seed in range(100):
            g = erdos_renyi(128, 0.03, seed=seed)
            c = ldd_traced(g, Fraction(1, 4), seed=seed * 13 + 1)[0]
            check_clusters_connected_and_bounded(g, c)

    def test_argmin_assignment_rule(self):
        # re-derive each vertex's wake round from the per-vertex PRNG and
        # check the shifted-distance argmin with min-id tie-breaking
        import math

        from densub.engine import VertexContext

        g = erdos_renyi(40, 0.1, seed=8)
        eps = Fraction(1, 4)
        seed = 21
        c = ldd_traced(g, eps, seed)[0]
        budget = c.budget
        wake = {}
        for v in range(g.n):
            ctx = VertexContext(v, g.degree(v), seed)
            u = (ctx.rand(0).getrandbits(64) + 1) * 2.0**-64
            shift = min(-math.log(u) / float(eps), float(budget))
            wake[v] = int(math.floor(budget - shift)) + 1
        check_argmin_rule(g, c, wake)

    def test_cut_fraction_path64(self):
        # per-edge cut probability is at most eps; empirical mean over
        # 1000 seeds stays below eps itself (Markov slack 1.0)
        g = path(64)
        eps = Fraction(1, 2)
        total = 0
        runs = 1000
        for s in range(runs):
            total += ldd_traced(g, eps, seed=s)[0].cut_edges
        assert Fraction(total, runs * g.m) <= eps

    def test_cut_fraction_under_1_1_eps(self):
        for g, eps in [
            (cycle(32), Fraction(1, 4)),
            (erdos_renyi(40, 0.15, seed=3), Fraction(1, 4)),
        ]:
            total = 0
            runs = 500
            for s in range(runs):
                total += ldd_traced(g, eps, seed=s)[0].cut_edges
            assert Fraction(total, runs * g.m) <= Fraction(11, 10) * eps

    def test_budget_formula(self):
        assert shift_budget(1, Fraction(1, 2)) == 1
        import math

        assert shift_budget(64, Fraction(1, 2)) == math.ceil(6 * math.log(64))

    def test_budget_is_exact_and_matches_the_float_formula(self):
        # the integer bounds on ln n give the float formula's value wherever
        # that value is right; sampled up to 2^40 beyond the full range
        import math
        import random

        epss = [Fraction(1, 2**k) for k in range(1, 7)]
        epss += [Fraction(1, 5), Fraction(1, 10)]
        rng = random.Random(40)
        ns = list(range(1, 2**16 + 1))
        ns += [rng.randrange(2**16, 2**40) for _ in range(2000)]
        ns += [2**40 - 1, 2**40]
        for n in ns:
            for eps in epss:
                want = max(1, math.ceil(3 / float(eps) * math.log(n)))
                assert shift_budget(n, eps) == want, (n, eps)

    def test_budget_refines_close_to_an_integer(self):
        # eps within 1e-13 of 3*ln(2)/21 puts (3/eps)*ln 2 within about
        # 1e-11 of 21, closer than the first fixed-point bounds resolve
        from decimal import Decimal, getcontext

        getcontext().prec = 60
        ln2 = Decimal(2).ln()
        for shift in (-1, 0, 1):
            eps = Fraction(int(3 * ln2 / 21 * 10**13) + shift, 10**13)
            x = 3 * ln2 * eps.denominator / eps.numerator
            assert abs(x - 21) < Decimal("1e-10")
            assert shift_budget(2, eps) == int(x.to_integral_value("ROUND_CEILING"))
