import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densub import detect_local, engine
from densub.detect_local import _ball_optimum, detection_radius, local_detect
from densub.engine import RoundTrace, msg_bits
from densub.graphs import (
    Graph,
    barbell,
    cycle,
    density,
    erdos_renyi,
    path,
    planted_dense,
)
from densub.oracle import exact_densest


def spaced_clique_pair():
    """Two K5s whose active regions (radius r around each) sit more than
    2r apart, forcing one black vertex per clique."""
    eps = Fraction(1, 2)
    n = 600
    for _ in range(50):
        r = detection_radius(n, eps)
        cand = 10 + (4 * r + 2) - 1  # barbell size with path length 4r+2
        if cand == n:
            break
        n = cand
    return barbell(5, 4 * detection_radius(n, eps) + 2), eps


class TestLocalDetect:
    def test_c20_all_marked(self):
        g = cycle(20)
        marked, black, _ = local_detect(g, Fraction(1), Fraction(1, 5))
        assert marked == tuple(range(20))
        assert density(g, marked) == 1
        assert len(black) == 1

    def test_c20_overshoot_empty(self):
        g = cycle(20)
        marked, black, _ = local_detect(g, Fraction(2), Fraction(1, 8))
        assert marked == ()
        assert black == ()

    def test_far_clique_pair_two_blacks(self):
        g, eps = spaced_clique_pair()
        marked, black, _ = local_detect(g, Fraction(2), eps)
        assert len(black) == 2
        assert density(g, marked) >= (1 - eps) * 2
        # both cliques marked, none of the connecting path
        assert set(range(5)) <= set(marked)
        assert set(range(g.n - 5, g.n)) <= set(marked)
        assert density(g, marked) == 2

    def test_round_bound(self):
        for g, eps in [
            (cycle(20), Fraction(1, 5)),
            (erdos_renyi(40, 0.2, seed=2), Fraction(1, 4)),
        ]:
            r = detection_radius(g.n, eps)
            trace = local_detect(g, Fraction(1), eps)[2]
            assert trace.rounds_executed <= 4 * r + 8

    def test_soundness_any_dtilde(self):
        rng = random.Random(5)
        for trial in range(8):
            g = erdos_renyi(rng.randint(10, 40), 0.25, seed=trial)
            if g.m == 0:
                continue
            dtilde = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            eps = Fraction(1, 4)
            marked = local_detect(g, dtilde, eps)[0]
            if marked:
                assert density(g, marked) >= (1 - eps) * dtilde

    def test_completeness_at_oracle_density(self):
        rng = random.Random(6)
        for trial in range(6):
            g = planted_dense(30, 5, seed=trial)
            d = exact_densest(g).value
            marked = local_detect(g, d, Fraction(1, 4))[0]
            assert marked
            assert density(g, marked) >= (1 - Fraction(1, 4)) * d

    def test_black_vertices_disjoint_marks(self):
        g, eps = spaced_clique_pair()
        _, black, _ = local_detect(g, Fraction(2), eps)
        # stamped subgraphs of distinct black vertices never share vertices:
        # blacks are > 2r apart while stamps live in radius-r balls
        r = detection_radius(g.n, eps)
        dists = {b: g.distances_from(b) for b in black}
        for a in black:
            for b in black:
                if a < b:
                    assert dists[a][b] < 0 or dists[a][b] > 2 * r


# (graph, dtilde, eps, marked, black, (rounds, max_message_bits, total_bits))
PINNED = {
    "cycle20": (
        cycle(20), Fraction(1), Fraction(1, 5),
        tuple(range(20)), (0,), (722, 332, 6_147_040),
    ),
    "planted30": (
        planted_dense(30, 5, seed=1), Fraction(2), Fraction(1, 4),
        (2, 3, 8, 20, 25), (0,), (658, 652, 15_047_146),
    ),
    "barbell5_3": (
        barbell(5, 3), Fraction(2), Fraction(1, 2),
        (0, 1, 2, 3, 4, 7, 8, 9, 10, 11), (0,), (242, 380, 1_867_868),
    ),
    "triangle_isolated": (
        Graph(6, [(0, 1), (1, 2), (0, 2)]), Fraction(1), Fraction(1, 2),
        (0, 1, 2), (0,), (178, 60, 39_924),
    ),
}


def counting_sweeps(monkeypatch):
    """Make per-source BFS raise and record every all-sources sweep.

    Returns the list the sweeps append to: (levels, whether the starting
    rows carry edge bits), the latter None for a component with no edge.
    """
    def no_bfs(self, src, radius=None):
        raise AssertionError("per-source BFS called")

    monkeypatch.setattr(Graph, "distances_from", no_bfs)
    monkeypatch.setattr(Graph, "bfs", no_bfs)
    calls, sweep = [], engine._sweep

    def recorded(nbrs, rows, levels):
        edges = max(rows).bit_length() > len(nbrs) if any(nbrs) else None
        calls.append((levels, edges))
        return sweep(nbrs, rows, levels)

    monkeypatch.setattr(engine, "_sweep", recorded)
    monkeypatch.setattr(detect_local, "_sweep", recorded)
    return calls


class TestPinnedTraces:
    """Outputs and charged costs are fixed; a refactor must keep them."""

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_local_detect(self, name):
        g, dtilde, eps, marked, black, cost = PINNED[name]
        *got, trace = local_detect(g, dtilde, eps)
        assert got == [marked, black]
        assert (
            trace.rounds_executed, trace.max_message_bits, trace.total_bits
        ) == cost
        assert trace.violations == []

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_at_most_two_bfs_per_vertex(self, monkeypatch, name):
        # no per-source BFS at all: one all-sources sweep per component to
        # r gathers the balls, one to 2r feeds the gossip charge and the
        # election; the winner broadcast reuses the balls
        g, dtilde, eps, marked, black, _ = PINNED[name]
        calls = counting_sweeps(monkeypatch)
        assert local_detect(g, dtilde, eps)[:2] == (marked, black)
        r = detection_radius(g.n, eps)
        assert len(calls) == 2 * len(g.components()) <= 2 * g.n
        assert {levels for levels, _ in calls} <= {r + 1, 2 * r}

    def test_only_the_ball_bfs_counts_edges(self, monkeypatch):
        # only the ball sweep's rows carry edge bits; the 2r sweep feeds
        # the gossip charge and the election, which read vertices only
        g, dtilde, eps = PINNED["planted30"][:3]
        calls = counting_sweeps(monkeypatch)
        local_detect(g, dtilde, eps)
        r = detection_radius(g.n, eps)
        assert {c for c in calls if c[1] is not None} == {
            (r + 1, True), (2 * r, False)
        }


class TestRadius:
    def test_formula(self):
        import math

        assert detection_radius(20, Fraction(1, 5)) == 2 * math.ceil(
            30 * math.log(20)
        )


def _within(g, src, radius):
    """{u: dist(src, u)} for every u within `radius`, by a plain BFS."""
    dist, frontier = {src: 0}, [src]
    for d in range(1, radius + 1):
        nxt = []
        for v in frontier:
            for u in g.neighbors(v):
                if u not in dist:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


def reference_local_detect(g, dtilde, eps, r):
    """The LOCAL protocol at radius r with two plain BFS per vertex.

    A BFS to r gives the ball and its gossip charge: round k sends v's id
    and every edge with an endpoint within k-1. A BFS to 2r gives the
    (id, flag) gossip charge, a vertex at distance d < 2r riding in 2r-d
    messages, and the election: black is active with no smaller active id
    within 2r. Returns (marked ids, black, trace json).
    """
    w = msg_bits(g.n - 1)
    trace = RoundTrace(rounds_executed=r + 1)
    balls, best = [], []
    for v in range(g.n):
        dist = _within(g, v, r)
        ball = tuple(e for e in g.edges if set(e) <= set(dist))
        balls.append(ball)
        best.append(_ball_optimum(g, tuple(sorted(dist)), ball))
        near = [min(dist.get(a, r + 1), dist.get(b, r + 1)) for a, b in g.edges]
        if g.degree(v):
            for k in range(1, r + 2):
                bits = 4 + w + 2 * w * sum(1 for d in near if d <= k - 1)
                trace.charge(bits, g.degree(v))
    active = [value >= (1 - eps) * dtilde for _, value in best]
    reach, black = 2 * r, []
    for v in range(g.n):
        dist = _within(g, v, reach)
        heard = [reach - d for d in dist.values() if d < reach]
        if g.degree(v):
            trace.total_bits += g.degree(v) * (4 * reach + (w + 1) * sum(heard))
            trace.charge(4 + len(heard) * (w + 1), 0)
        if active[v] and not any(active[u] and u < v for u in dist):
            black.append(v)
    trace.rounds_executed += reach
    for v in black:
        trace.charge(4 + len(best[v][0]) * w, 2 * len(balls[v]) * (r + 1))
    trace.rounds_executed += r + 1
    marked = sorted(set().union(*(best[v][0] for v in black)))
    return tuple(marked), tuple(black), trace.to_json()


@st.composite
def components_and_radius(draw):
    """Disjoint paths, cycles, small random graphs and isolated vertices,
    with a radius from 1 to n+1, mostly below the longest diameter."""
    parts = draw(st.lists(st.one_of(
        st.integers(1, 9).map(path),
        st.integers(3, 9).map(cycle),
        st.integers(2, 6).flatmap(lambda k: st.lists(
            st.sampled_from([(a, b) for a in range(k) for b in range(a + 1, k)]),
            unique=True,
        ).map(lambda edges, k=k: Graph(k, edges))),
    ), min_size=1, max_size=4))
    edges, n = [], 0
    for part in parts:
        edges += [(a + n, b + n) for a, b in part.edges]
        n += part.n
    g = Graph(n, edges)
    return g, draw(st.integers(1, n + 1))


class TestBelowDiameter:
    @given(
        components_and_radius(),
        st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(5, 4), Fraction(2)]),
        st.sampled_from([Fraction(1, 5), Fraction(1, 2)]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_two_bfs_reference(self, case, scale, eps):
        g, r = case
        dtilde = scale * exact_densest(g).value
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detect_local, "detection_radius", lambda n, e: r)
            marked, black, trace = local_detect(g, dtilde, eps)
        got = (marked, black, trace.to_json())
        assert got == reference_local_detect(g, dtilde, eps, r)
