import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densub.decompose import ldd_traced
from densub.detect_congest import approx_densest, congest_detect
from densub.detect_local import local_detect
from densub.engine import (
    VertexProgram,
    collect_ball,
    component_aggregate,
    run,
)
from densub.graphs import (
    EdgeListError,
    Graph,
    Orientation,
    barbell,
    ceil_ln,
    ceil_log2,
    complete,
    cycle,
    density,
    erdos_renyi,
    format_ratio,
    generate,
    is_neg_pow2,
    lowerbound_pair,
    parse_ratio,
    path,
    planted_dense,
    read_edge_list,
    write_edge_list,
)
from densub.mwu import fractional_dual, integral_primal
from densub.oracle import brute_densest, exact_densest
from densub.orient import orient_low_outdegree_detailed, split_levels
from test_engine import knowledge_states
from test_orient import path_decompose


def full(g):
    return range(g.n)


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_canonical_order(self):
        g = Graph(4, [(3, 2), (1, 0), (0, 2)])
        assert g.edges == ((0, 1), (0, 2), (2, 3))

    def test_adjacency_consistent(self):
        g = erdos_renyi(30, 0.2, seed=5)
        appearances = [0] * g.m
        for v in range(g.n):
            for eid in g.adj[v]:
                assert v in g.edges[eid]
                appearances[eid] += 1
        assert all(c == 2 for c in appearances)

    def test_degree_zero_vertices_allowed(self):
        g = Graph(5, [(0, 1)])
        assert g.degree(4) == 0
        assert g.neighbors(4) == ()


@st.composite
def small_graphs(draw):
    """A graph on up to 12 vertices, often with isolated vertices."""
    n = draw(st.integers(1, 12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


class TestPortsAndBfs:
    @given(small_graphs())
    @settings(max_examples=200, deadline=None)
    def test_port_table_inverts_itself(self, g):
        assert g._ports is None  # built on first use only
        ports = g.ports()
        assert [len(p) for p in ports] == [g.degree(v) for v in range(g.n)]
        for v in range(g.n):
            for i, (u, j) in enumerate(zip(g.neighbors(v), ports[v])):
                assert g.adj[u][j] == g.adj[v][i]
                assert g.neighbors(u)[j] == v
        assert g.ports() is ports

    def test_induced_subgraph_builds_no_port_table(self):
        sub, _ = complete(6).induced([0, 2, 4])
        assert sub._ports is None

    @given(small_graphs(), st.integers(0, 13), st.integers(0, 11))
    @settings(max_examples=300, deadline=None)
    def test_bfs_without_counts_matches(self, g, radius, src):
        # order and dist against a plain level-by-level search
        src %= g.n
        for r in (radius, None):
            dist = [-1] * g.n
            dist[src] = 0
            order, level = [src], [src]
            while level and (r is None or dist[level[0]] < r):
                nxt = []
                for v in level:
                    for u in g.neighbors(v):
                        if dist[u] < 0:
                            dist[u] = dist[v] + 1
                            nxt.append(u)
                order += nxt
                level = nxt
            assert g.bfs(src, r) == (order, dist)


class TestDensity:
    def test_path5_full(self):
        assert density(path(5), full(path(5))) == Fraction(4, 5)

    def test_cycle20_full(self):
        assert density(cycle(20), full(cycle(20))) == 1

    def test_k4_full(self):
        assert density(complete(4), full(complete(4))) == Fraction(3, 2)

    def test_empty_subset_error(self):
        with pytest.raises(ValueError):
            density(path(3), [])

    def test_chain_density_closed_form(self):
        for t in range(2, 12):
            assert density(path(t), full(path(t))) == 1 - Fraction(1, t)

    @given(st.integers(0, 2**31 - 1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_disjoint_union_density_at_least_min(self, seed, data):
        g = erdos_renyi(14, 0.35, seed)
        ids = list(range(g.n))
        a = data.draw(st.sets(st.sampled_from(ids), min_size=1, max_size=7))
        rest = [v for v in ids if v not in a]
        b = data.draw(st.sets(st.sampled_from(rest), min_size=1, max_size=6))
        da = density(g, a)
        db = density(g, b)
        dab = density(g, a | b)
        assert dab >= min(da, db)

    def test_union_preserves_threshold(self):
        # two vertex-disjoint dense parts both above a bound stay above it
        g = barbell(5, 10)
        a = range(5)
        b = range(g.n - 5, g.n)
        thr = Fraction(9, 5)
        assert density(g, a) >= thr and density(g, b) >= thr
        assert density(g, [*a, *b]) >= thr


def assert_id_tuple(ids, n):
    """ids is a strictly increasing tuple of ints in range(n)."""
    assert type(ids) is tuple and all(type(v) is int for v in ids), ids
    assert all(a < b for a, b in zip((-1, *ids), (*ids, n))), ids


class TestVertexSetResults:
    @given(
        st.integers(1, 14),
        st.sampled_from([0.2, 0.4, 0.7]),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_vertex_set_is_a_sorted_id_tuple(self, n, p, seed):
        g = erdos_renyi(n, p, seed)
        d = exact_densest(g).value
        eps = Fraction(1, 8)
        found, _ = integral_primal(g, max(d, 1), eps, T_override=64)
        sets = [
            exact_densest(g).best_subset,
            brute_densest(g).best_subset,
            *local_detect(g, d, Fraction(1, 4))[:2],
            congest_detect(g, d, eps, seed)[0],
            approx_densest(g, eps, seed)[0],
            *([] if found is None else [found]),
        ]
        for ids in sets:
            assert_id_tuple(ids, g.n)


class TestOrientation:
    def test_multigraph_edge_list(self):
        # a parallel pair (0, 1) twice, and (2, 1) stored larger-first: bit 1
        # points an edge at its second listed endpoint, whatever the order
        edges = ((0, 1), (0, 1), (2, 1), (0, 2))
        o = Orientation(3, edges, (1, 0, 1, 0))
        assert o.outdegs() == [1, 1, 2]
        assert o.indegs() == [2, 2, 0]
        assert o.max_outdeg() == 2
        assert o.to_text() == "0 1 ->\n0 1 <-\n2 1 ->\n0 2 <-\n"


class TestGenerators:
    def test_closed_form_edge_counts(self):
        for n in (3, 8, 17):
            assert cycle(n).m == n
            assert path(n).m == n - 1
            assert complete(n).m == n * (n - 1) // 2

    def test_lowerbound_pair_eps_tenth(self):
        g1, g2 = lowerbound_pair(Fraction(1, 10))
        assert g1.n == 5 and g1.m == 5  # cycle
        assert g2.n == 5 and g2.m == 4  # chain
        assert g1.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))

    def test_lowerbound_pair_requires_integer(self):
        with pytest.raises(ValueError):
            lowerbound_pair(Fraction(1, 15))

    def test_generate_dispatch(self):
        assert generate("complete", {"n": 5}).m == 10
        pair = generate("lowerbound_pair", {"eps": "1/10"})
        assert isinstance(pair, tuple) and len(pair) == 2

    def test_generate_deterministic(self):
        a = generate("erdos_renyi", {"n": 40, "p": "1/4"}, seed=9)
        b = generate("erdos_renyi", {"n": 40, "p": "1/4"}, seed=9)
        assert a == b

    def test_erdos_renyi_invalid_p(self):
        with pytest.raises(ValueError):
            erdos_renyi(5, 1.5, seed=0)

    def test_planted_dense_contains_clique(self):
        g = planted_dense(50, 6, seed=7)
        # some 6 vertices form a K6: check via degrees inside the best core
        from densub.oracle import exact_densest

        assert exact_densest(g).value >= Fraction(5, 2)

    def test_barbell_shape(self):
        g = barbell(5, 60)
        assert g.n == 69
        assert g.m == 2 * 10 + 60


class TestEdgeListIO:
    def test_read_path3(self):
        g = read_edge_list("3 2\n0 1\n1 2\n")
        assert g == path(3)

    def test_write_k3(self):
        assert write_edge_list(complete(3)) == "3 3\n0 1\n0 2\n1 2\n"

    def test_self_loop_reports_line(self):
        with pytest.raises(EdgeListError) as exc:
            read_edge_list("2 1\n0 0\n")
        assert "self-loop" in str(exc.value) and "line 2" in str(exc.value)

    def test_duplicate_reports_line(self):
        with pytest.raises(EdgeListError) as exc:
            read_edge_list("3 3\n0 1\n1 2\n1 0\n")
        assert "line 4" in str(exc.value)

    def test_out_of_range_reports_line(self):
        with pytest.raises(EdgeListError) as exc:
            read_edge_list("3 1\n0 3\n")
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("", "missing header", 1),
            ("\n0 1\n", "missing header", 1),
            ("3 2 x y", "header must be 'n m'", 1),
            ("3 2 undirected", "header must be 'n m'", 1),
            ("three 2", "header must contain integers", 1),
            ("-1 0", "vertex count must be non-negative", 1),
            ("3 1\n0 1 2", "expected 'u v'", 2),
            ("3 1\n0 a", "ids must be integers", 2),
            ("3 2\n0 1", "header promised 2 edges but found 1", 2),
            ("3 1\n0 1\n1 2\n\n", "header promised 1 edges but found 2", 4),
        ],
    )
    def test_structural_errors(self, text, message, line):
        with pytest.raises(EdgeListError) as exc:
            read_edge_list(text)
        assert str(exc.value) == f"{message} at line {line}"
        assert exc.value.line == line

    def test_blank_lines_are_skipped(self):
        assert read_edge_list("3 2\n0 1\n\n1 2\n") == path(3)

    def test_round_trip_100_random_graphs(self):
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(1, 30)
            g = erdos_renyi(n, rng.random(), seed)
            assert read_edge_list(write_edge_list(g)) == g

    @given(st.integers(2, 25), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, n, seed):
        g = erdos_renyi(n, 0.3, seed)
        assert read_edge_list(write_edge_list(g)) == g


class TestRationalHelpers:
    def test_parse_format(self):
        assert parse_ratio("3/4") == Fraction(3, 4)
        assert format_ratio(Fraction(2)) == "2/1"
        assert format_ratio(parse_ratio("6/8")) == "3/4"

    def test_ceil_log2(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(2) == 1
        assert ceil_log2(Fraction(9, 2)) == 3
        assert ceil_log2(Fraction(1, 3)) == 0
        # the definition: smallest k >= 0 with 2**k >= q
        rng = random.Random(62)
        qs = [Fraction(p, r) for p in range(1, 300) for r in range(1, 60)]
        qs += [
            Fraction(rng.randrange(1, 2**80), rng.randrange(1, 2**40))
            for _ in range(2000)
        ]
        for q in qs:
            k = ceil_log2(q)
            assert 2**k >= q and (k == 0 or q > 2 ** (k - 1))

    def test_ceil_ln_edges(self):
        assert ceil_ln(5, 1) == 0  # ln 1 = 0
        assert ceil_ln(0, 10**9) == 0
        assert ceil_ln(1, 2) == 1 and ceil_ln(Fraction(1, 2), 4) == 1
        assert ceil_ln(Fraction(10**6), 3) == 1_098_613  # 10^6 ln 3 = 1098612.28...
        with pytest.raises(ValueError):
            ceil_ln(1, 0)
        with pytest.raises(ValueError):
            ceil_ln(-1, 3)

    def test_is_neg_pow2(self):
        assert is_neg_pow2(Fraction(1, 8))
        assert not is_neg_pow2(Fraction(1, 6))
        assert not is_neg_pow2(Fraction(2))
        assert not is_neg_pow2(Fraction(1))


EPS01 = "eps must lie in (0, 1)"
KINDS = ["barbell", "complete", "cycle", "erdos_renyi", "lowerbound_pair",
         "path", "planted_dense"]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Graph(-1, []), "vertex count must be non-negative"),
        (lambda: Graph(3, [(1, 1)]), "self-loop at vertex 1"),
        (lambda: Graph(3, [(0, 3)]), "edge (0, 3) out of range for n=3"),
        (lambda: Graph(3, [(1, 0), (0, 1)]), "duplicate edge (0, 1)"),
        (lambda: density(path(3), [3]), "vertex 3 out of range for n=3"),
        (lambda: cycle(2), "cycle needs at least 3 vertices"),
        (lambda: path(0), "path needs at least 1 vertex"),
        (lambda: complete(0), "complete graph needs at least 1 vertex"),
        (lambda: erdos_renyi(0, 0.5, 1), "erdos_renyi needs at least 1 vertex"),
        (lambda: planted_dense(3, 4, 0), "need 1 <= clique_size <= n_outer"),
        (lambda: barbell(0, 1), "need clique_size >= 1 and path_len >= 1"),
        (lambda: generate("star", {}), f"unknown kind 'star'; options: {KINDS}"),
        (lambda: ceil_log2(0), "ceil_log2 requires a positive argument"),
        (lambda: exact_densest(Graph(0, [])), "graph has no vertices"),
        (lambda: brute_densest(Graph(0, [])), "graph has no vertices"),
        (lambda: ldd_traced(path(3), 1, 0), EPS01),
        (lambda: approx_densest(path(3), Fraction(1, 4), 0),
         "eps must lie in (0, 1/4)"),
        (lambda: local_detect(path(3), 1, 1), EPS01),
        (lambda: congest_detect(path(3), -1, Fraction(1, 8), 0),
         "dtilde must be non-negative"),
        (lambda: local_detect(path(3), -1, Fraction(1, 5)),
         "dtilde must be non-negative"),
        (lambda: fractional_dual(path(3), 0, Fraction(1, 8)), "z must be positive"),
        (lambda: path_decompose(path(3), -1), "levels must be >= 0"),
        (lambda: split_levels(0), "eps must be positive"),
        (lambda: orient_low_outdegree_detailed(
            path(3), Fraction(1, 2), Fraction(1, 4)),
         "dtilde must be a positive integer"),
        (lambda: knowledge_states(path(3), -1), "rounds must be >= 0"),
        (lambda: collect_ball(path(3), -1), "radius must be >= 0"),
        (lambda: component_aggregate(path(3), [1]), "need one value per vertex"),
        (lambda: run(path(3), VertexProgram(), max_rounds=0),
         "max_rounds must be >= 1"),
    ],
    ids=[
        "graph-n", "digraph-loop", "digraph-range", "digraph-dup",
        "subset-range", "cycle", "path", "complete",
        "erdos_renyi", "planted_dense", "barbell", "generate", "ceil_log2",
        "exact", "brute", "ldd-eps", "approx-eps",
        "local-eps", "congest-dtilde", "local-dtilde", "dual-z",
        "path_decompose", "split_levels", "orient-dtilde", "knowledge_states",
        "collect_ball", "component_aggregate", "run-max_rounds",
    ],
)
def test_invalid_input_raises_its_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
