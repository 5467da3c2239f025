import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densub.orient as orient_module
from densub.engine import RoundTrace
from densub.graphs import Graph, complete, cycle, erdos_renyi, path
from densub.mwu import alpha_bit_width, fractional_dual
from densub.orient import (
    Orientation,
    _split_edge_list,
    _weak_orient_edges,
    directed_split,
    orient_low_outdegree_detailed,
    path_decompose,
    split_levels,
    weak_orientation,
)


def endpoint_counts(n, paths):
    """Path ends at each vertex; a closed path (first == last) has none."""
    cnt = [0] * n
    for p in paths:
        if p[0] != p[-1]:
            cnt[p[0]] += 1
            cnt[p[-1]] += 1
    return cnt


def max_length(paths):
    return max((len(p) - 1 for p in paths), default=0)


def edge_multiset(paths):
    return [(min(a, b), max(a, b)) for p in paths for a, b in zip(p, p[1:])]


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_regular_ish(n, d, seed):
    """d-regular-ish graph via random perfect matchings of the stubs."""
    rng = random.Random(seed)
    edges = set()
    for _ in range(d * 2):
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(0, n - 1, 2):
            u, v = perm[i], perm[i + 1]
            if u != v:
                edges.add((min(u, v), max(u, v)))
        if all(
            sum(1 for e in edges if x in e) >= d for x in range(n)
        ):
            break
    return Graph(n, sorted(edges))


class TestWeakOrientation:
    def test_triangle_trivial(self):
        g = complete(3)
        res = weak_orientation(g)
        # floor(2/3) = 0: any orientation qualifies, and no degree-2 copy
        # can ever be a sink, so no phases are needed
        assert res.phases == 0
        assert all(res.orientation.outdegs()[v] >= 0 for v in range(3))

    def test_k4_every_vertex_out(self):
        g = complete(4)
        o = weak_orientation(g).orientation
        assert all(d >= 1 for d in o.outdegs())  # floor(3/3) = 1

    def test_guarantee_on_random_graphs(self):
        rng = random.Random(1)
        for trial in range(25):
            g = erdos_renyi(rng.randint(4, 60), 0.3, seed=trial)
            res = weak_orientation(g)
            outs = res.orientation.outdegs()
            for v in range(g.n):
                assert outs[v] >= g.degree(v) // 3
            assert res.phases <= 8 * max(g.n - 1, 1).bit_length()

    def test_three_regular(self):
        for seed in range(10):
            g = random_regular_ish(64, 3, seed)
            res = weak_orientation(g)
            outs = res.orientation.outdegs()
            for v in range(g.n):
                assert outs[v] >= g.degree(v) // 3
            assert res.phases <= 8 * 6

    def test_sink_history_strictly_decreasing(self):
        for seed in range(10):
            g = erdos_renyi(40, 0.5, seed=100 + seed)
            res = weak_orientation(g)
            hist = res.sink_history
            for a, b in zip(hist, hist[1:]):
                assert b < a
            # at least a third retired per phase
            for a, b in zip(hist, hist[1:]):
                assert a - b >= -(-a // 3)

    def test_orientation_text(self):
        g = path(3)
        o = weak_orientation(g).orientation
        text = o.to_text()
        assert len(text.strip().splitlines()) == 2
        assert "->" in text or "<-" in text


@st.composite
def multigraph_edge_lists(draw):
    """(n, edges) with parallel pairs, larger-first pairs and isolated
    vertices, as the decomposition hands its virtual multigraphs on."""
    n = draw(st.integers(1, 24))
    edges = []
    if n >= 2:
        for _ in range(draw(st.integers(0, 5 * n))):
            u = draw(st.integers(0, n - 1))
            v = (u + draw(st.integers(1, n - 1))) % n
            for _ in range(draw(st.integers(1, 3))):
                edges.append((v, u) if draw(st.booleans()) else (u, v))
    return n + draw(st.integers(0, 3)), edges


def _degrees(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _outdegs(n, edges, dir_bits):
    out = [0] * n
    for (u, v), bit in zip(edges, dir_bits):
        out[u if bit else v] += 1
    return out


class TestSplitterProperties:
    @given(multigraph_edge_lists())
    @settings(max_examples=200, deadline=None)
    def test_weak_orientation_guarantees(self, case):
        n, edges = case
        res = _weak_orient_edges(n, [x for e in edges for x in e])
        assert res.orientation.edges == tuple(edges)
        deg = _degrees(n, edges)
        outs = _outdegs(n, edges, res.orientation.dir_bits)
        assert all(o >= d // 3 for o, d in zip(outs, deg))
        # the split starts with every edge pointing at its larger endpoint;
        # a sink is a block of three consecutive slots, all incoming
        into = [[] for _ in range(n)]
        for u, v in edges:
            into[u].append(u > v)
            into[v].append(v > u)
        first = sum(
            all(a[i : i + 3]) for a in into for i in range(0, len(a) - 2, 3)
        )
        hist = res.sink_history
        assert len(hist) == res.phases
        assert hist[:1] == ([first] if first else [])
        for a, b in zip(hist, hist[1:] + [0]):
            assert a - b >= -(-a // 3)
        assert res.phases <= 8 * max(max(n, 2) - 1, 1).bit_length()

    @given(
        multigraph_edge_lists(),
        st.sampled_from([Fraction(1, 2), Fraction(1, 5), Fraction(1, 8)]),
    )
    @settings(max_examples=100, deadline=None)
    def test_split_imbalance(self, case, eps):
        n, edges = case
        o, _ = _split_edge_list(n, edges, eps)
        assert o.edges == tuple(edges)
        deg = _degrees(n, edges)
        outs = _outdegs(n, edges, o.dir_bits)
        for v in range(n):
            assert abs(2 * outs[v] - deg[v]) <= eps * deg[v] + 12


class TestPathDecompose:
    def test_level_zero_single_edges(self):
        g = complete(4)
        paths, _ = path_decompose(g, 0)
        assert all(len(p) == 2 for p in paths)
        assert endpoint_counts(g.n, paths) == [3, 3, 3, 3]

    def test_k7_level_one(self):
        g = complete(7)
        paths, _ = path_decompose(g, 1)
        assert max_length(paths) <= 2
        assert sorted(edge_multiset(paths)) == sorted(g.edges)
        for v in range(7):
            assert endpoint_counts(g.n, paths)[v] <= Fraction(2, 3) * 6 + 12

    def test_level_four_partition_and_bounds(self):
        g = erdos_renyi(128, 0.25, seed=3)
        paths, _ = path_decompose(g, 4)
        assert sorted(edge_multiset(paths)) == sorted(g.edges)
        assert max_length(paths) <= 16
        counts = endpoint_counts(g.n, paths)
        for v in range(g.n):
            assert counts[v] <= Fraction(16, 81) * g.degree(v) + 12

    def test_deterministic(self):
        g = erdos_renyi(40, 0.4, seed=5)
        assert path_decompose(g, 3) == path_decompose(g, 3)

    def test_trace_pinned(self):
        # the decomposition's relay charge; directed_split adds one round
        # to announce directions
        g = erdos_renyi(40, 0.4, seed=5)
        _, trace = path_decompose(g, 3)
        assert trace.to_json() == {
            "rounds": 474,
            "max_message_bits": 9,
            "total_bits": 21_785,
            "violations": [],
        }
        _, trace = path_decompose(g, split_levels(Fraction(1, 4)))
        _, split_trace = directed_split(g, Fraction(1, 4))
        assert trace.rounds_executed + 1 == split_trace.rounds_executed == 808
        assert trace.total_bits == split_trace.total_bits == 25_745


class TestDirectedSplit:
    def test_even_cycle(self):
        g = cycle(8)
        o, _ = directed_split(g, Fraction(1, 4))
        outs, ins = o.outdegs(), o.indegs()
        for v in range(8):
            assert abs(outs[v] - ins[v]) <= Fraction(1, 4) * 2 + 12

    def test_k33(self):
        g = complete(33)
        o, _ = directed_split(g, Fraction(1, 4))
        outs, ins = o.outdegs(), o.indegs()
        for v in range(33):
            assert abs(outs[v] - ins[v]) <= 8 + 12

    def test_star_96(self):
        g = star(96)
        o, _ = directed_split(g, Fraction(1, 8))
        outs, ins = o.outdegs(), o.indegs()
        assert abs(outs[0] - ins[0]) <= 96 // 8 + 12

    def test_random_graphs_both_eps(self):
        rng = random.Random(7)
        for trial in range(10):
            g = erdos_renyi(rng.randint(10, 48), 0.5, seed=trial)
            for eps in (Fraction(1, 4), Fraction(1, 8)):
                o, _ = directed_split(g, eps)
                outs, ins = o.outdegs(), o.indegs()
                for v in range(g.n):
                    assert abs(outs[v] - ins[v]) <= eps * g.degree(v) + 12

    def test_multigraph_edge_list(self):
        # K51 with every pair listed twice, the second copy larger-first, as
        # the decomposition hands its virtual multigraphs to the splitters
        edges = [e for u, v in complete(51).edges for e in ((u, v), (v, u))]
        eps = Fraction(1, 4)
        weak = _weak_orient_edges(51, [x for e in edges for x in e]).orientation
        split, _ = _split_edge_list(51, edges, eps)
        for o in (weak, split):
            assert isinstance(o, Orientation) and o.edges == tuple(edges)
        assert all(d >= 100 // 3 for d in weak.outdegs())
        outs, ins = split.outdegs(), split.indegs()
        assert all(abs(a - b) <= eps * 100 + 12 for a, b in zip(outs, ins))

    def test_split_levels(self):
        assert split_levels(Fraction(1, 4)) == 4  # (2/3)^4 = 16/81 <= 1/4
        assert split_levels(Fraction(2, 3)) == 1
        assert split_levels(Fraction(1)) == 0


class TestOrientPipeline:
    def test_preconditions(self):
        g = complete(20)
        with pytest.raises(ValueError):
            orient_low_outdegree_detailed(g, 128, Fraction(1, 3))  # not a power of 2
        with pytest.raises(ValueError):
            orient_low_outdegree_detailed(g, 64, Fraction(1, 4))  # 32/64 > 1/4

    def test_non_power_of_two_T_fails_before_the_dual(self, monkeypatch):
        # once rejected only by alpha_bit_width, after all T dual rounds
        def no_dual(*args, **kwargs):
            raise AssertionError("fractional_dual ran")

        monkeypatch.setattr(orient_module, "fractional_dual", no_dual)
        with pytest.raises(ValueError, match="power-of-two T, got 100"):
            orient_low_outdegree_detailed(
                complete(20), 128, Fraction(1, 4), T_override=100
            )

    def test_infeasible_dual_is_reported(self):
        # in T = 4 iterations a vertex grants to at most 4 * 64 = 256 of its
        # 261 edges, so the edges both endpoints skip stay uncovered
        with pytest.raises(RuntimeError, match="fractional solution infeasible"):
            orient_low_outdegree_detailed(
                complete(262), 128, Fraction(1, 4), T_override=4
            )

    def test_split_fault_breaks_the_recurrence(self, monkeypatch):
        # every split edge keeps its tail side: vertex 0 gains each bit
        def all_tails(n, edges, eps):
            bits = (1,) * len(edges)
            return Orientation(n, tuple(edges), bits), RoundTrace()

        monkeypatch.setattr(orient_module, "_split_edge_list", all_tails)
        with pytest.raises(
            AssertionError, match="per-vertex sum exceeded its recurrence"
        ):
            orient_low_outdegree_detailed(
                complete(257), 128, Fraction(1, 4), T_override=4
            )

    @staticmethod
    def _patch_dual(monkeypatch, edit):
        """Run `edit` on the dual's shares before the rounding sees them."""
        real = orient_module.fractional_dual

        def patched(*args, **kwargs):
            sol, trace = real(*args, **kwargs)
            edit(sol)
            return sol, trace

        monkeypatch.setattr(orient_module, "fractional_dual", patched)

    def test_uncovered_edge_breaks_the_cover(self, monkeypatch):
        def zero_edge_0(sol):
            sol.shares[0] = sol.shares[1] = 0

        self._patch_dual(monkeypatch, zero_edge_0)
        with pytest.raises(AssertionError, match="edge cover broke during rounding"):
            orient_low_outdegree_detailed(
                complete(5), 128, Fraction(1, 4), T_override=4
            )

    def test_uncovered_edge_without_bits_loses_its_cover(self, monkeypatch):
        # integral shares give t = 0: no bit pass runs, only the last one
        def integral_but_edge_0(sol):
            sol.shares[:] = [sol.den] * len(sol.shares)
            sol.shares[0] = sol.shares[1] = 0

        self._patch_dual(monkeypatch, integral_but_edge_0)
        with pytest.raises(AssertionError, match="an edge lost its cover"):
            orient_low_outdegree_detailed(
                complete(5), 128, Fraction(1, 4), T_override=4
            )

    def test_overwide_dual_fails_the_width_guarantee(self):
        # T = 4 and eps = 1/128 give 2 + 7 + 4 = 13 bits
        sol, _ = fractional_dual(complete(5), 128, Fraction(1, 128), T_override=4)
        sol.bit_width = 100
        with pytest.raises(
            AssertionError, match="alpha width 100 exceeds the 13-bit guarantee"
        ):
            alpha_bit_width(sol)

    def test_edgeless_graph(self):
        rep = orient_low_outdegree_detailed(Graph(3, []), 128, Fraction(1, 4))
        assert rep.orientation == Orientation(3, (), ())
        assert rep.trace == RoundTrace()
        assert rep.iterations == []

    def test_tree_with_large_dtilde(self):
        # contract only promises (1+eps)*dtilde even though trees are
        # 1-orientable
        g = path(40)
        o = orient_low_outdegree_detailed(
            g, 129, Fraction(1, 4), T_override=32
        ).orientation
        assert o.max_outdeg() <= (1 + Fraction(1, 4)) * 129

    def test_k129_complete(self):
        # K_129: D = 64, dtilde = 128 admits eps = 1/4
        g = complete(129)
        rep = orient_low_outdegree_detailed(
            g, 128, Fraction(1, 4), T_override=64
        )
        assert rep.orientation.max_outdeg() <= 160
        assert rep.orientation.max_outdeg() >= -(-g.m // g.n)
        for rec in rep.iterations:
            assert rec.min_edge_cover >= 1
            assert rec.max_vertex_sum <= rec.bound

    def test_orientation_covers_every_edge_once(self):
        g = complete(129)
        rep = orient_low_outdegree_detailed(g, 128, Fraction(1, 4), T_override=64)
        o = rep.orientation
        assert len(o.dir_bits) == g.m
        outs = o.outdegs()
        ins = o.indegs()
        assert sum(outs) == g.m and sum(ins) == g.m
        for v in range(g.n):
            assert outs[v] + ins[v] == g.degree(v)

    def test_determinism(self):
        g = complete(129)
        a = orient_low_outdegree_detailed(g, 128, Fraction(1, 4), T_override=64)
        b = orient_low_outdegree_detailed(g, 128, Fraction(1, 4), T_override=64)
        assert a.orientation == b.orientation
        assert a.trace.to_json() == b.trace.to_json()

    def test_congest_compliance(self):
        g = complete(129)
        rep = orient_low_outdegree_detailed(g, 128, Fraction(1, 4), T_override=64)
        trace = rep.trace
        assert trace.violations == []
        assert trace.max_message_bits <= 2 * 8
