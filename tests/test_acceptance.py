"""Acceptance gate: one test per criterion, exact tolerances, printed verdicts.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Every comparison on a correctness path is exact rational
arithmetic; runtime ceilings are asserted where stated.
"""

import random
import time
from fractions import Fraction

from densub import oracle
from densub.decompose import ldd_traced
from densub.detect_congest import approx_densest, congest_detect
from densub.detect_local import detection_radius, local_detect
from densub.engine import congest_cap, knowledge_states, run
from densub.graphs import (
    Graph,
    barbell,
    complete,
    cycle,
    density,
    erdos_renyi,
    frac_ceil,
    lowerbound_pair,
    planted_dense,
)
from densub.mwu import (
    alpha_bit_width,
    fractional_dual,
    integral_primal,
    _LoadProgram,
)
from densub.oracle import (
    brute_densest,
    exact_densest,
    min_max_outdegree,
)
from densub.orient import (
    directed_split,
    orient_low_outdegree_detailed,
    path_decompose,
    split_levels,
    weak_orientation,
)
from test_engine import reference_run, step_orders
from test_orient import edge_multiset, endpoint_counts, max_length


def announce(num, text):
    print(f"\nACCEPTANCE {num:2d}: PASS - {text}")


def two_cliques(k, gap):
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(gap + i, gap + j) for i in range(k) for j in range(i + 1, k)]
    return Graph(gap + k, edges)


def test_criterion_01_local_detection_sound_and_complete():
    """50 instances, dtilde = oracle D: nonempty, dense enough, few rounds."""
    t0 = time.time()
    instances = []
    for s in range(20):
        instances.append(planted_dense(30 + 4 * (s % 6), 5 + (s % 3), seed=s))
    for s in range(15):
        instances.append(cycle(10 + 9 * s))
    for s in range(15):
        instances.append(barbell(4 + (s % 4), 3 + 2 * s))
    assert len(instances) == 50
    assert all(g.n <= 256 for g in instances)
    hits = 0
    for idx, g in enumerate(instances):
        eps = Fraction(1, 4) if idx % 2 == 0 else Fraction(1, 8)
        d = exact_densest(g).value
        marked, _, trace = local_detect(g, d, eps)
        r = detection_radius(g.n, eps)
        assert trace.rounds_executed <= 4 * r + 8
        assert marked
        assert density(g, marked) >= (1 - eps) * d
        hits += 1
    elapsed = time.time() - t0
    assert hits == 50
    assert elapsed <= 120, f"criterion 1 took {elapsed:.0f}s > 2 min"
    announce(1, f"50/50 instances detected at oracle density ({elapsed:.0f}s)")


def test_criterion_02_lower_bound_indistinguishability():
    """Middle-vertex state after 1/(10*eps) = 1 round is bit-identical."""
    g_cycle, g_path = lowerbound_pair(Fraction(1, 10))
    mid = 2  # floor(5/2), 0-indexed middle of both instances
    rounds = 1  # 1/(10 * 1/10)
    s_cycle = knowledge_states(g_cycle, rounds)[mid]
    s_path = knowledge_states(g_path, rounds)[mid]
    assert repr(s_cycle) == repr(s_path)
    assert s_cycle == s_path
    announce(2, "cycle vs chain views identical after 1 round, exactly")


def test_criterion_03_mwu_disjunction():
    """30 (graph, z, eps) triples: dual feasible or primal dense, exactly."""
    rng = random.Random(33)
    eps = Fraction(1, 8)
    total = 0
    dual_held = 0
    dual_needed = 0
    trial = 0
    while total < 30:
        g = erdos_renyi(
            rng.randint(8, 24), rng.choice([0.4, 0.5, 0.6]), seed=200 + trial
        )
        trial += 1
        if g.m == 0:
            continue
        d = exact_densest(g).value
        for z in (max(Fraction(1), d / 2), Fraction(frac_ceil(d)), 2 * d + 1):
            sol, _ = fractional_dual(g, z, eps, T_override=512)
            sub, _ = integral_primal(g, z, eps, T_override=512)
            ok_dual = sol.feasible
            ok_primal = sub is not None and density(g, sub) >= (1 - 3 * eps) * z
            assert ok_dual or ok_primal
            if z >= d:
                dual_needed += 1
                dual_held += ok_dual
            total += 1
    assert total == 30
    assert dual_held == dual_needed
    announce(3, f"30/30 disjunction, dual held {dual_held}/{dual_needed} at z >= D")


def test_criterion_04_congest_compliance():
    """Zero strict-mode violations at cap 2*ceil(log2 n) for n >= 16."""
    graphs = [
        complete(16),
        erdos_renyi(24, 0.4, seed=1),
        planted_dense(32, 6, seed=2),
        erdos_renyi(48, 0.15, seed=3),
    ]
    checked = []
    for g in graphs:
        assert g.n >= 16
        cap = 2 * (g.n - 1).bit_length()
        d = exact_densest(g).value
        z = Fraction(frac_ceil(d)) if d > 0 else Fraction(1)
        sol, tr1 = fractional_dual(g, z, Fraction(1, 8), T_override=128)
        _, tr2 = integral_primal(g, max(d / 2, Fraction(1)), Fraction(1, 8), T_override=128)
        _, tr3 = congest_detect(g, d, Fraction(1, 8), seed=4)
        _, _, tr4 = approx_densest(g, Fraction(1, 8), seed=5)
        traces = [tr1, tr2, tr3, tr4]
        if g.m and frac_ceil(d) >= 128:
            rep = orient_low_outdegree_detailed(g, frac_ceil(d), Fraction(1, 4))
            traces.append(rep.trace)
        for tr in traces:
            assert tr.violations == []
            assert tr.max_message_bits <= cap
        checked.append(g.n)
    # the orientation pipeline at its own scale
    g = complete(129)
    tr = orient_low_outdegree_detailed(g, 128, Fraction(1, 4), T_override=64).trace
    assert tr.violations == []
    assert tr.max_message_bits <= 2 * (g.n - 1).bit_length()
    announce(4, f"no CONGEST violations on n = {checked} + K129 pipeline")


def test_criterion_05_congest_detection_statistics():
    """20 instances x 5 seeds: >= 99/100 nonempty and dense, 100/100 sound."""
    instances = []
    for k in (6, 7, 8, 9, 10):
        instances.append(complete(k))
    for s in range(8):
        instances.append(planted_dense(24 + 2 * s, 5 + (s % 3), seed=s))
    for s in range(4):
        instances.append(erdos_renyi(20 + 4 * s, 0.5, seed=50 + s))
    instances.append(two_cliques(6, 40))
    instances.append(two_cliques(7, 64))
    instances.append(barbell(6, 10))
    assert len(instances) == 20
    eps = Fraction(1, 8)
    nonempty_dense = 0
    sound = 0
    total = 0
    for gi, g in enumerate(instances):
        d = exact_densest(g).value
        for seed in range(5):
            total += 1
            out, _ = congest_detect(g, d, eps, seed=1000 * gi + seed)
            if len(out):
                dens = density(g, out)
                assert dens >= (1 - eps) * d  # soundness, every run
                sound += 1
                if dens >= Fraction(7, 8) * d:
                    nonempty_dense += 1
            else:
                sound += 1  # empty output is vacuously sound
    assert total == 100
    assert sound == 100
    assert nonempty_dense >= 99
    announce(5, f"{nonempty_dense}/100 trials nonempty at (7/8)D, 100/100 sound")


def test_criterion_06_approximation_guarantee():
    """approx_densest at eps = 1/8: dhat >= (1-eps)D/(1+eps), all runs."""
    eps = Fraction(1, 8)
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(5 + i, 5 + j) for i in range(9) for j in range(i + 1, 9)]
    graphs = [Graph(14, edges)]
    rng = random.Random(8)
    while len(graphs) < 11:
        g = erdos_renyi(rng.randint(14, 20), 0.5, seed=600 + len(graphs))
        if g.m:
            graphs.append(g)
    for g in graphs:
        d = exact_densest(g).value
        out, dhat, _ = approx_densest(g, eps, seed=g.n)
        assert dhat >= (1 - eps) * d / (1 + eps)
        if len(out):
            assert dhat == density(g, out)
    announce(6, "K5+K9 and 10 random graphs within (1-eps)/(1+eps) of D")


def test_criterion_07_weak_orientation():
    """100 random graphs, n <= 512: degree guarantee and phase accounting."""
    rng = random.Random(77)
    for trial in range(100):
        n = rng.choice([8, 16, 32, 64, 128, 256, 512])
        g = erdos_renyi(n, min(1.0, 4.0 / n + rng.random() * 0.2), seed=trial)
        res = weak_orientation(g)
        outdeg = res.orientation.outdegs()
        for v in range(g.n):
            assert outdeg[v] >= g.degree(v) // 3
        hist = res.sink_history
        for a, b in zip(hist, hist[1:]):
            assert b < a
        assert res.phases <= 8 * max(g.n - 1, 1).bit_length()
    announce(7, "100/100 graphs reach floor(deg/3) outdegrees in budget")


def test_criterion_08_directed_splitting():
    """Discrepancy and decomposition bounds, checked exhaustively."""
    rng = random.Random(88)
    graphs = [complete(33), Graph(97, [(0, i) for i in range(1, 97)])]
    for t in range(20):
        graphs.append(erdos_renyi(rng.randint(10, 60), 0.4, seed=700 + t))
    for g in graphs:
        for eps in (Fraction(1, 4), Fraction(1, 8)):
            o, _ = directed_split(g, eps)
            outs, ins = o.outdegs(), o.indegs()
            for v in range(g.n):
                assert abs(outs[v] - ins[v]) <= eps * g.degree(v) + 12
            levels = split_levels(eps)
            paths, _ = path_decompose(g, levels)
            assert sorted(edge_multiset(paths)) == sorted(g.edges)
            assert max_length(paths) <= 2**levels
            counts = endpoint_counts(g.n, paths)
            for v in range(g.n):
                assert (
                    counts[v]
                    <= Fraction(2, 3) ** levels * g.degree(v) + 12
                )
    announce(8, "22 graphs x 2 eps: splits and decompositions within bounds")


def test_criterion_09_orientation_end_to_end():
    """K257 and G(400, 0.75): outdegree caps plus per-bit invariants."""
    t0 = time.time()
    eps = Fraction(1, 4)
    g = complete(257)
    rep = orient_low_outdegree_detailed(g, 128, eps, T_override=64)
    assert rep.orientation.max_outdeg() <= (1 + eps) * 128
    assert rep.orientation.max_outdeg() >= -(-g.m // g.n)  # = 128
    for rec in rep.iterations:
        assert rec.min_edge_cover >= 1
        assert rec.max_vertex_sum <= rec.bound
    g2 = erdos_renyi(400, 0.75, seed=400)
    d = exact_densest(g2).value
    dt = frac_ceil(d)
    rep2 = orient_low_outdegree_detailed(g2, dt, eps, T_override=128)
    assert rep2.orientation.max_outdeg() <= (1 + eps) * dt
    for rec in rep2.iterations:
        assert rec.min_edge_cover >= 1
        assert rec.max_vertex_sum <= rec.bound
    elapsed = time.time() - t0
    assert elapsed <= 600, f"criterion 9 took {elapsed:.0f}s > 10 min"
    announce(
        9,
        f"K257 -> {rep.orientation.max_outdeg()} <= 160, "
        f"G(400) -> {rep2.orientation.max_outdeg()} <= {(1+eps)*dt} "
        f"({elapsed:.0f}s)",
    )


def test_criterion_10_oracle_self_consistency(monkeypatch):
    """exact == brute on 200 certified graphs; witness orientation is optimal."""
    certified = []
    check = oracle._check_certificate

    def spy(g, witness, value, den, give):
        check(g, witness, value, den, give)
        certified.append((g, value))

    monkeypatch.setattr(oracle, "_check_certificate", spy)
    rng = random.Random(10)
    for trial in range(200):
        n = rng.randint(2, 12)
        g = erdos_renyi(n, rng.choice([0.2, 0.4, 0.6, 0.8]), seed=trial)
        d = exact_densest(g).value
        assert d == brute_densest(g).value
        assert certified[-1] == (g, d)
    assert len(certified) == 200
    rng = random.Random(11)
    for trial in range(25):
        g = erdos_renyi(rng.randint(2, 20), 0.35, seed=300 + trial)
        alpha, o = min_max_outdegree(g)
        assert o.max_outdeg() <= alpha
        if g.m:
            d = exact_densest(g).value
            assert alpha == frac_ceil(d)
    announce(10, "200/200 certified density agreements; 25 witness orientations optimal")


def test_criterion_11_alpha_bit_width():
    """Measured width <= log2 T + log2(1/eps) + 4 on every edge."""
    graphs = [
        Graph(2, [(0, 1)]),
        complete(3),
        Graph(4, [(0, 1), (0, 2), (0, 3)]),
        cycle(12),
        erdos_renyi(20, 0.3, seed=5),
    ]
    for eps in (Fraction(1, 4), Fraction(1, 8)):
        for T in (64, 1024):
            bound = (T.bit_length() - 1) + (eps.denominator.bit_length() - 1) + 4
            for g in graphs:
                sol, _ = fractional_dual(g, Fraction(2), eps, T_override=T)
                width = alpha_bit_width(sol)  # asserts the bound internally
                assert width <= bound
    announce(11, "alpha widths within log2(T) + log2(1/eps) + 4 for all combos")


def test_criterion_12_determinism():
    """Bit-identical reports under a fixed seed, in any step order."""
    g = erdos_renyi(24, 0.4, seed=12)
    # engine-level: the engine run equals a per-message reference stepped
    # in forward, reverse and shuffled order, on full states and trace
    cap = congest_cap(g.n)
    states, trace = run(g, _LoadProgram(Fraction(2), 32), cap=cap, seed=9)
    for order in step_orders(g.n, 9):
        want = reference_run(g, _LoadProgram(Fraction(2), 32), cap, 9, order)
        assert (states, trace.to_json()) == want
    # pipeline-level: exact reproduction run to run
    c1, t1 = ldd_traced(g, Fraction(1, 4), seed=77)
    c2, t2 = ldd_traced(g, Fraction(1, 4), seed=77)
    assert c1 == c2 and t1.to_json() == t2.to_json()
    a1 = congest_detect(g, Fraction(2), Fraction(1, 8), seed=5)
    a2 = congest_detect(g, Fraction(2), Fraction(1, 8), seed=5)
    assert a1[0] == a2[0] and a1[1].to_json() == a2[1].to_json()
    x1 = approx_densest(g, Fraction(1, 8), seed=3)
    x2 = approx_densest(g, Fraction(1, 8), seed=3)
    assert x1[0] == x2[0] and x1[1] == x2[1] and x1[2].to_json() == x2[2].to_json()
    gk = complete(129)
    o1 = orient_low_outdegree_detailed(gk, 128, Fraction(1, 4), T_override=64)
    o2 = orient_low_outdegree_detailed(gk, 128, Fraction(1, 4), T_override=64)
    assert o1.orientation == o2.orientation
    assert o1.trace.to_json() == o2.trace.to_json()
    announce(12, "step orders and repeat runs reproduce bit-identical reports")
