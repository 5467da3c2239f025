import random
from fractions import Fraction
from itertools import chain
from math import floor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densub.engine import congest_cap, run
from densub.graphs import (
    Graph,
    ceil_ln,
    complete,
    cycle,
    density,
    erdos_renyi,
    frac_ceil,
)
from densub.mwu import (
    DualSolution,
    alpha_bit_width,
    alpha_fraction_bits,
    default_iterations,
    fractional_dual,
    integral_primal,
    load_range_bound,
    _LoadProgram,
)
from densub.oracle import exact_densest


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# fractional_dual(complete(5), 2, 1/8, T=64).to_json()["alpha"], and the
# dual at z = 2, eps = 1/8, T = 8 of a triangle and a 4-cycle sharing the
# edge (1, 2), as the tuple-keyed encoding printed them
K5_ALPHA = [
    [0, 0, "5/8"], [0, 1, "5/8"], [1, 0, "5/8"], [1, 2, "5/8"],
    [2, 0, "5/8"], [2, 3, "5/8"], [3, 0, "5/8"], [3, 4, "5/8"],
    [4, 1, "5/8"], [4, 2, "5/8"], [5, 1, "5/8"], [5, 3, "5/8"],
    [6, 1, "5/8"], [6, 4, "5/8"], [7, 2, "5/8"], [7, 3, "5/8"],
    [8, 2, "5/8"], [8, 4, "5/8"], [9, 3, "5/8"], [9, 4, "5/8"],
]
LOPSIDED_EDGES = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4)]
LOPSIDED_ALPHA = [
    [0, 0, "5/4"], [0, 1, "15/16"], [1, 0, "5/4"], [1, 2, "15/16"],
    [2, 1, "15/16"], [2, 2, "15/16"], [3, 1, "5/8"], [3, 4, "25/16"],
    [4, 2, "5/8"], [4, 3, "25/16"], [5, 3, "15/16"], [5, 4, "15/16"],
]


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, [e for e in pairs if draw(st.booleans())])


def disjoint_union(a, b):
    shifted = ((u + a.n, v + a.n) for u, v in b.edges)
    return Graph(a.n + b.n, [*a.edges, *shifted])


def reference_dynamics(g, z, T):
    """The grant dynamics run centrally on Fraction loads: every iteration
    each vertex grants 2 to its lightest ceil(z/2)-1 edges, ordered by
    (load, edge id), and rho to the next; all grants apply together.
    Returns (load per edge, own grants per vertex and port)."""
    cz = frac_ceil(z / 2)
    rho = z - 2 * (cz - 1)
    load = [Fraction(0)] * g.m
    amounts = [2] * (cz - 1) + [rho]
    grants = [[Fraction(0)] * g.degree(v) for v in range(g.n)]
    for _ in range(T):
        added = [Fraction(0)] * g.m
        for v in range(g.n):
            order = sorted(g.adj[v], key=lambda e: (load[e], e))
            for eid, amount in zip(order, amounts):
                added[eid] += amount
                grants[v][g.adj[v].index(eid)] += amount
        load = [x + y for x, y in zip(load, added)]
    return load, grants


def eccentricity(g, s):
    """Largest BFS distance from s within its component."""
    dist = {s: 0}
    queue = [s]
    for v in queue:
        for u in g.neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist[queue[-1]]


def reference_primal(g, z, eps, T):
    """integral_primal from the definitions, on reference_dynamics' loads.

    The scan at round k+1 sees the loads after k iterations. Per component
    with edges, V'_l holds every vertex with at least ceil(z/2) incident
    edges of ceil(load) <= l, for l from the least floor(load) l_min up to
    l_max = l_min + load_range_bound(m_c, eps); the first nonempty V'_l
    with |E(V'_l)| >= (1-3*eps)*z*|V'_l| wins, and the run stops after the
    first round with a winner. A scan charges, per component, 2*diam+2
    convergecast rounds, diam+1+2*span pair-stream rounds and diam+1 more
    on success; span runs from l_min to the winning level or, with no
    winner, to the highest ceil(load) <= l_max. Scans cost the maximum
    over components. Returns (sorted ids or None, rounds executed)."""
    cz = frac_ceil(z / 2)
    thr = (1 - 3 * eps) * z
    comps = []
    for comp in g.components():
        eids = sorted({e for v in comp for e in g.adj[v]})
        if eids:
            diam = max(eccentricity(g, v) for v in comp)
            comps.append((comp, [g.edges[e] for e in eids], eids, diam))
    rounds = 0
    for k in range(T):
        load, _ = reference_dynamics(g, z, k)
        level = [frac_ceil(x) for x in load]
        won, cost = set(), 0
        for comp, edges, eids, diam in comps:
            l_min = min(floor(load[e]) for e in eids)
            l_max = l_min + load_range_bound(len(eids), eps)
            extra = 0
            top = max(level[e] for e in eids if level[e] <= l_max)
            for l in range(l_min, l_max + 1):
                vs = {
                    v for v in comp
                    if sum(level[e] <= l for e in g.adj[v]) >= cz
                }
                inside = sum(u in vs and v in vs for u, v in edges)
                if vs and inside * thr.denominator >= thr.numerator * len(vs):
                    won |= vs
                    top, extra = l, diam + 1
                    break
            span = top - l_min + 1
            cost = max(cost, (2 * diam + 2) + (diam + 1 + 2 * span) + extra)
        rounds += cost
        if won:
            return tuple(sorted(won)), k + 1 + rounds
    return None, T + 1 + rounds


def alpha_of(sol):
    """{(edge, vertex): alpha} in plain Fractions, from the slot shares."""
    ends = chain.from_iterable(sol.edges)
    return {(x // 2, v): Fraction(s, sol.den) for x, (v, s) in enumerate(zip(ends, sol.shares))}


def dual_feasible_for(sol, g, z):
    """Independent exact feasibility check at cost (1+2*eps)*z."""
    alpha = alpha_of(sol)
    cap = (1 + 2 * sol.eps) * z
    for eid, (u, v) in enumerate(g.edges):
        if alpha[(eid, u)] + alpha[(eid, v)] < 1:
            return False
    for u in range(g.n):
        if sum(alpha[(eid, u)] for eid in g.adj[u]) > cap:
            return False
    return True


def check_widths_against_fractions(sol, alpha):
    """bit_width, alpha_bit_width and alpha_fraction_bits against their
    definitions over the plain-Fraction values."""
    values = list(alpha.values())
    width = max((max(a.numerator.bit_length(), 1) for a in values), default=1)
    assert sol.bit_width == width
    dens = [a.denominator for a in values]
    if all(d & (d - 1) == 0 for d in dens):
        frac_bits = max((d.bit_length() - 1 for d in dens), default=0)
        assert alpha_fraction_bits(sol) == frac_bits
    else:
        with pytest.raises(ValueError, match="not all powers of 2"):
            alpha_fraction_bits(sol)
    T, eps_den = sol.iterations, sol.eps.denominator
    dyadic = sol.eps.numerator == 1 and eps_den & (eps_den - 1) == 0
    if sol.z.denominator == 1 and dyadic and T & (T - 1) == 0:
        bound = T.bit_length() - 1 + eps_den.bit_length() - 1 + 4
        if width <= bound:
            assert alpha_bit_width(sol) == width
        else:
            with pytest.raises(AssertionError):
                alpha_bit_width(sol)
    else:
        with pytest.raises(ValueError):
            alpha_bit_width(sol)


class TestFractionalDual:
    def test_single_edge_hand_trace(self):
        # z=1: rho=1, each endpoint grants one unit to its only edge every
        # iteration, so alpha = 1 * (1 + 2*(1/4)) = 3/2 on both sides
        g = Graph(2, [(0, 1)])
        sol, _ = fractional_dual(g, Fraction(1), Fraction(1, 5), T_override=16)
        alpha = alpha_of(sol)
        assert alpha[(0, 0)] == alpha[(0, 1)] == 1 + 2 * Fraction(1, 5)
        assert sol.feasible

    def test_single_edge_alpha_three_halves(self):
        g = Graph(2, [(0, 1)])
        sol, _ = fractional_dual(
            g, Fraction(1), Fraction(1, 4) - Fraction(1, 64), T_override=8
        )
        alpha = alpha_of(sol)
        assert alpha[(0, 0)] == 1 + 2 * (Fraction(1, 4) - Fraction(1, 64))

    def test_triangle_feasible(self):
        g = complete(3)
        sol, _ = fractional_dual(g, Fraction(2), Fraction(1, 8), T_override=64)
        assert sol.feasible
        assert dual_feasible_for(sol, g, Fraction(2))

    def test_star_leaf_side_is_enough(self):
        g = star(3)
        sol, _ = fractional_dual(g, Fraction(1), Fraction(1, 8), T_override=32)
        alpha = alpha_of(sol)
        for eid, (u, v) in enumerate(g.edges):
            leaf = v if u == 0 else u
            assert alpha[(eid, leaf)] == 1 + 2 * Fraction(1, 8)
        assert sol.feasible

    def test_feasible_whenever_z_at_least_density(self):
        rng = random.Random(4)
        for trial in range(10):
            g = erdos_renyi(rng.randint(8, 24), 0.4, seed=trial)
            if g.m == 0:
                continue
            d = exact_densest(g).value
            z = Fraction(-((-d.numerator) // d.denominator))  # ceil(D)
            sol, _ = fractional_dual(g, z, Fraction(1, 8), T_override=512)
            assert sol.feasible

    def test_budget_conservation(self):
        # per-vertex grant total is exactly z per iteration when the degree
        # is at least ceil(z/2), hence (1+2e)*z after averaging and scaling
        g = complete(6)
        z, eps = Fraction(3), Fraction(1, 8)
        sol, _ = fractional_dual(g, z, eps, T_override=40)
        alpha = alpha_of(sol)
        for u in range(g.n):
            total = sum(alpha[(eid, u)] for eid in g.adj[u])
            assert total == (1 + 2 * eps) * z

    def test_budget_conservation_low_degree(self):
        g = star(2)  # leaves have degree 1 < ceil(z/2) for z = 4
        z, eps = Fraction(4), Fraction(1, 8)
        sol, _ = fractional_dual(g, z, eps, T_override=16)
        alpha = alpha_of(sol)
        for leaf in (1, 2):
            total = sum(alpha[(eid, leaf)] for eid in g.adj[leaf])
            assert total == (1 + 2 * eps) * 2  # one edge, grant 2 always

    def test_load_symmetry(self):
        g = erdos_renyi(20, 0.3, seed=6)
        outs, _ = run(
            g,
            _LoadProgram(Fraction(2), 32),
            max_rounds=34,
            cap=congest_cap(g.n),
        )
        for eid, (u, v) in enumerate(g.edges):
            iu = g.adj[u].index(eid)
            iv = g.adj[v].index(eid)
            load_u = outs[u]["key"][iu] // g.degree(u)
            assert load_u == outs[v]["key"][iv] // g.degree(v)

    @settings(max_examples=60, deadline=None)
    @given(
        graph=small_graphs(),
        z=st.sampled_from(
            [1, Fraction(3, 2), 2, Fraction(5, 2), Fraction(7, 3), 4]
        ),
        T=st.integers(min_value=1, max_value=6),
    )
    def test_load_program_matches_fraction_reference(self, graph, z, T):
        z = Fraction(z)
        load, grants = reference_dynamics(graph, z, T)
        loads = _LoadProgram(z, T)
        q = loads.q
        outs, _ = run(
            graph,
            loads,
            max_rounds=T + 2,
            cap=congest_cap(graph.n),
        )
        for v in range(graph.n):
            deg = graph.degree(v)
            for i, eid in enumerate(graph.adj[v]):
                assert outs[v]["key"][i] // deg == q * load[eid]
                assert outs[v]["tot"][i] == q * grants[v][i]

    @settings(max_examples=60, deadline=None)
    @given(
        graph=small_graphs(),
        z=st.sampled_from([1, Fraction(3, 2), 2, Fraction(7, 3), 4]),
        T=st.integers(min_value=1, max_value=8),
    )
    def test_grant_order_is_the_ports_sorted_by_key(self, graph, z, T):
        # each round re-sorts last round's order in place; the grants and
        # the primal scan read it as the ports sorted by their keys
        rounds = []

        def hook(rnd, states):
            if rnd <= T:
                rounds.append(rnd)
                for state in states:
                    key = state["key"]
                    expected = sorted(range(len(key)), key=key.__getitem__)
                    assert state["order"] == expected
            return False

        run(
            graph,
            _LoadProgram(Fraction(z), T),
            max_rounds=T + 2,
            cap=congest_cap(graph.n),
            round_hook=hook,
        )
        assert rounds == list(range(1, T + 1))

    def test_congest_clean_on_n256(self):
        g = erdos_renyi(256, 0.03, seed=1)
        sol, trace = fractional_dual(
            g, Fraction(3), Fraction(1, 8), T_override=16
        )
        assert trace.violations == []
        assert trace.max_message_bits <= 2 * 8

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            fractional_dual(complete(3), Fraction(1), Fraction(1, 2))

    @pytest.mark.parametrize("solve", [fractional_dual, integral_primal])
    @pytest.mark.parametrize("T", [0, -3])
    def test_rejects_non_positive_T(self, solve, T):
        # 0 once fell through to the theory default, -3 to the engine
        with pytest.raises(ValueError, match="T_override must be positive"):
            solve(complete(3), Fraction(1), Fraction(1, 8), T_override=T)

    def test_feasible_flag_matches_fraction_recomputation(self):
        # the flag is decided on integer grant totals; recompute it from
        # the reported alpha in plain Fractions, on sweeps that reach the
        # boundary cases alpha_u + alpha_v == 1 and sum == (1+2*eps)*z
        cases = []
        zs = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1, Fraction(3, 2)]
        zs += [2, Fraction(5, 2), 3, 4]
        for g in (Graph(2, [(0, 1)]), cycle(5), complete(4), complete(5)):
            for z in zs:
                for T in (1, 2, 4, 8):
                    cases.append((g, Fraction(z), T))
        for n in range(14, 26):
            g = erdos_renyi(n, 0.45, seed=n)
            d = exact_densest(g).value
            above = Fraction(d.numerator // d.denominator + 1)
            for z in (d / 2, d, d * Fraction(9, 8), above):
                for T in (2, 4, 16, 64):
                    cases.append((g, z, T))
        tight_edges = feasible_tight_edges = tight_vertices = 0
        for g, z, T in cases:
            for eps in (Fraction(1, 4), Fraction(1, 8)):
                sol, _ = fractional_dual(g, z, eps, T_override=T)
                assert sol.feasible == dual_feasible_for(sol, g, z)
                alpha = alpha_of(sol)
                check_widths_against_fractions(sol, alpha)
                tight = any(
                    alpha[(eid, u)] + alpha[(eid, v)] == 1
                    for eid, (u, v) in enumerate(g.edges)
                )
                tight_edges += tight
                feasible_tight_edges += sol.feasible and tight
                cap = (1 + 2 * eps) * z
                tight_vertices += sol.feasible and any(
                    sum(alpha[(eid, u)] for eid in g.adj[u]) == cap
                    for u in range(g.n)
                )
        assert tight_edges >= 1
        assert feasible_tight_edges >= 1  # path(2) at z = 1/3, eps = 1/4
        assert tight_vertices >= 1

    def test_alpha_lists_pinned(self):
        sol, _ = fractional_dual(complete(5), Fraction(2), Fraction(1, 8), T_override=64)
        assert sol.to_json()["alpha"] == K5_ALPHA
        g = Graph(5, LOPSIDED_EDGES)
        sol, _ = fractional_dual(g, Fraction(2), Fraction(1, 8), T_override=8)
        assert sol.to_json()["alpha"] == LOPSIDED_ALPHA

    def test_json_round_shape(self):
        g = Graph(2, [(0, 1)])
        sol, _ = fractional_dual(g, Fraction(1), Fraction(1, 8), T_override=8)
        js = sol.to_json()
        assert js["T"] == 8 and js["feasible"] is True
        assert js["alpha"][0][2].count("/") == 1


class TestIntegralPrimal:
    @settings(max_examples=80, deadline=None)
    # random draws almost always win at round 1, where every load is 0, or
    # never; these win at rounds 2 to 4, 2 to 4 levels above l_min
    @example(erdos_renyi(9, 0.5, seed=342), Fraction(5, 2), Fraction(1, 8), 8)
    @example(erdos_renyi(11, 0.3, seed=1410), Fraction(7, 3), Fraction(1, 8), 8)
    @example(
        disjoint_union(
            erdos_renyi(10, 0.3, seed=192), erdos_renyi(6, 0.3, seed=555)
        ),
        Fraction(3, 2), Fraction(1, 16), 8,
    )
    @given(
        graph=st.one_of(
            small_graphs(), st.builds(disjoint_union, small_graphs(), small_graphs())
        ),
        z=st.sampled_from([1, Fraction(3, 2), Fraction(5, 2), Fraction(7, 3), 4]),
        eps=st.sampled_from([Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]),
        T=st.integers(min_value=1, max_value=8),
    )
    def test_scan_matches_level_set_reference(self, graph, z, eps, T):
        z = Fraction(z)
        want, rounds = reference_primal(graph, z, eps, T)
        sub, trace = integral_primal(graph, z, eps, T_override=T)
        assert sub == want
        assert trace.rounds_executed == rounds

    def test_k4_below_density(self):
        # z=1 < D=3/2: the dual cannot be feasible, so the primal finds a
        # subgraph of density >= (1-3/8)*1 = 5/8
        g = complete(4)
        z, eps = Fraction(1), Fraction(1, 8)
        sub, _ = integral_primal(g, z, eps, T_override=64)
        assert sub is not None
        assert density(g, sub) >= (1 - 3 * eps) * z

    def test_single_edge_above_density(self):
        g = Graph(2, [(0, 1)])
        sub, _ = integral_primal(g, Fraction(1), Fraction(1, 8), T_override=64)
        sol, _ = fractional_dual(g, Fraction(1), Fraction(1, 8), T_override=64)
        assert sub is None
        assert sol.feasible  # the other side of the disjunction

    def test_k6_with_pendants(self):
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        n = 56
        edges += [(i % 6, i) for i in range(6, n)]
        g = Graph(n, edges)
        z, eps = Fraction(2), Fraction(1, 8)
        sub, _ = integral_primal(g, z, eps, T_override=128)
        assert sub is not None
        assert density(g, sub) >= (1 - 3 * eps) * z
        # the dense region found must come from the clique core
        assert len(set(range(6)) & set(sub)) >= 2

    def test_disjunction_over_z_range(self):
        rng = random.Random(9)
        checked = 0
        for trial in range(12):
            g = erdos_renyi(rng.randint(6, 18), 0.45, seed=100 + trial)
            if g.m == 0:
                continue
            d = exact_densest(g).value
            zs = {
                max(Fraction(1), d / 2),
                Fraction(-((-d.numerator) // d.denominator)),
                2 * d + 1,
            }
            for z in zs:
                eps = Fraction(1, 8)
                sol, _ = fractional_dual(g, z, eps, T_override=256)
                sub, _ = integral_primal(g, z, eps, T_override=256)
                ok_dual = sol.feasible
                ok_primal = sub is not None and density(g, sub) >= (
                    1 - 3 * eps
                ) * z
                assert ok_dual or ok_primal
                if z >= d:
                    assert ok_dual
                checked += 1
        assert checked >= 20


class TestBitWidth:
    def test_width_bound_T1024(self):
        g = Graph(2, [(0, 1)])
        sol, _ = fractional_dual(
            g, Fraction(2), Fraction(1, 8), T_override=1024
        )
        w = alpha_bit_width(sol)
        assert w <= 10 + 3 + 4

    def test_width_bound_T64_triangle(self):
        sol, _ = fractional_dual(
            complete(3), Fraction(2), Fraction(1, 4) - Fraction(1, 8), T_override=64
        )
        # eps = 1/8 here keeps the hypotheses satisfied
        w = alpha_bit_width(sol)
        assert w <= 6 + 3 + 4 - 1 or w <= 12

    def test_zero_alpha_counts_one_bit(self):
        sol, _ = fractional_dual(Graph(4, []), Fraction(1), Fraction(1, 8), T_override=8)
        assert sol.shares == [] and sol.bit_width == 1

    def test_hypotheses_enforced(self):
        g = Graph(2, [(0, 1)])
        sol, _ = fractional_dual(g, Fraction(1), Fraction(1, 8), T_override=24)
        with pytest.raises(ValueError):
            alpha_bit_width(sol)  # T not a power of two
        sol2, _ = fractional_dual(g, Fraction(1), Fraction(1, 6), T_override=32)
        with pytest.raises(ValueError):
            alpha_bit_width(sol2)  # eps not a negative power of two

    def test_fraction_bits(self):
        g = complete(3)
        sol, _ = fractional_dual(g, Fraction(2), Fraction(1, 8), T_override=32)
        assert alpha_fraction_bits(sol) <= 5 + 3


class TestHelpers:
    def test_default_iterations_power_of_two(self):
        t = default_iterations(64, Fraction(1, 8))
        assert t & (t - 1) == 0
        assert t >= 8 / (1 / 8) ** 2 * 4  # at least (8/eps^2) ln 64

    def test_default_iterations_is_exact_and_matches_the_float_formula(self):
        # the integer bounds on ln n give the float formula's value wherever
        # that value is right; sampled up to 2^40 beyond the full range
        import math

        epss = [Fraction(1, 2**k) for k in range(6, 11)] + [Fraction(1, 5)]
        rng = random.Random(41)
        ns = list(range(1, 2**16 + 1))
        ns += [rng.randrange(2**16, 2**40) for _ in range(2000)]
        ns += [2**40 - 1, 2**40]
        for eps in epss:
            c = 8 / eps**2
            for n in ns:
                raw = math.ceil(8 / float(eps) ** 2 * math.log(max(n, 2)))
                assert ceil_ln(c, max(n, 2)) == raw, (n, eps)
            for n in ns[:300] + ns[-2002:]:
                raw = math.ceil(8 / float(eps) ** 2 * math.log(max(n, 2)))
                want = 1 << max(raw - 1, 1).bit_length()
                assert default_iterations(n, eps) == want, (n, eps)

    def test_load_range_bound_dominates(self):
        import math

        for m, eps in [(10, Fraction(1, 8)), (500, Fraction(1, 4))]:
            exact = (1 / float(eps)) * math.log(2 * m / float(eps))
            assert load_range_bound(m, eps) >= exact
