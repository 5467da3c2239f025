import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densub import engine
from densub.engine import (
    CongestViolation,
    MaxRoundsExceeded,
    RoundTrace,
    VertexContext,
    VertexProgram,
    collect_ball,
    component_aggregate,
    congest_cap,
    msg_bits,
    run,
)
from densub.graphs import Graph, complete, cycle, lowerbound_pair, path
from fractions import Fraction


class HaltImmediately(VertexProgram):
    def init(self, ctx):
        return ctx.vertex

    def step(self, ctx, state, rnd, inbox):
        return state, (), True


class Flood(VertexProgram):
    """Vertex 0 floods a token; everyone halts on receipt."""

    def __init__(self, token):
        self.token = token

    def init(self, ctx):
        return None

    def step(self, ctx, state, rnd, inbox):
        if ctx.vertex == 0 and rnd == 1:
            return self.token, [(self.token, range(ctx.degree))], True
        if inbox:
            tok = min(inbox.values())
            return tok, [(tok, range(ctx.degree))], True
        return state, (), False


class TestMsgBits:
    def test_small_ints_cost_a_byte(self):
        assert msg_bits(0) == 8
        assert msg_bits(1) == 8
        assert msg_bits(127) == 8
        assert msg_bits(-1) == 8

    def test_wider_ints(self):
        assert msg_bits(128) == 9  # two's complement needs a sign bit
        assert msg_bits(2**30) == 32
        assert msg_bits(-129) == 9

    def test_tuple_tag(self):
        assert msg_bits((1, 2)) == 4 + 8 + 8

    def test_rejects_unknown(self):
        for m in (1.5, "x"):
            with pytest.raises(TypeError):
                msg_bits(m)


class TestRun:
    def test_halt_immediately(self):
        outs, trace = run(path(6), HaltImmediately())
        assert outs == list(range(6))
        assert trace.rounds_executed == 1
        assert trace.total_bits == 0

    def test_flood_path10(self):
        outs, trace = run(path(10), Flood(2**30))
        assert all(o == 2**30 for o in outs)
        assert trace.rounds_executed == 10
        assert trace.max_message_bits == 32

    def test_determinism_across_schedules(self):
        g = cycle(12)
        states, trace = run(g, Flood(7), seed=3)
        for order in step_orders(g.n, 3):
            want = reference_run(g, Flood(7), None, 3, order)
            assert (states, trace.to_json()) == want

    def test_congest_strict_abort(self):
        with pytest.raises(CongestViolation):
            # 42-bit token vs 8-bit cap
            run(complete(16), Flood(2**40), cap=congest_cap(16))

    def test_congest_permissive_records(self):
        _, trace = run(path(4), Flood(2**40), cap=congest_cap(4))
        assert trace.violations
        rnd, edge, bits = trace.violations[0]
        assert bits > congest_cap(4)

    def test_cap_is_strict_from_16_vertices(self):
        word = SendOnce(2**46)  # 48 bits against an 8-bit cap
        _, trace = run(Graph(15, [(0, 1)]), word, cap=8)
        assert trace.violations == [(1, 0, 48)]
        with pytest.raises(CongestViolation):
            run(Graph(16, [(0, 1)]), word, cap=8)
        _, trace = run(Graph(16, [(0, 1)]), word)
        assert trace.violations == []

    def test_max_rounds_exhausted(self):
        class Never(VertexProgram):
            def init(self, ctx):
                return 0

            def step(self, ctx, state, rnd, inbox):
                return state, (), False

        with pytest.raises(MaxRoundsExceeded):
            run(path(3), Never(), max_rounds=10)

    def test_last_vertex_halting_in_the_last_allowed_round(self):
        # vertex 9 halts in round 10 with its echo to vertex 8 still queued
        _, trace = run(path(10), Flood(2**30), max_rounds=10)
        assert trace.rounds_executed == 10

    def test_one_round_short_still_raises(self):
        with pytest.raises(MaxRoundsExceeded):
            run(path(10), Flood(2**30), max_rounds=9)

    def test_empty_graph_runs_no_rounds(self):
        outs, trace = run(Graph(0, []), HaltImmediately())
        assert outs == []
        assert trace.rounds_executed == 0

    def test_total_bits_sums_each_message_once(self):
        # round 1: 0 sends the token; round 2: 1 echoes it back while
        # halting. Two 8-bit messages, each charged exactly once.
        outs, trace = run(path(2), Flood(1))
        assert trace.total_bits == 16
        assert trace.max_message_bits == 8


class SendOnce(VertexProgram):
    """Vertex 0 sends one message over its first edge; everyone halts."""

    def __init__(self, message):
        self.message = message

    def init(self, ctx):
        return None

    def step(self, ctx, state, rnd, inbox):
        if ctx.vertex == 0:
            return state, [(self.message, (0,))], True
        return state, (), True


# the engine sizes top-level ints itself, so they are drawn often, with
# the width boundaries -2^k-1, -2^k, 2^k-1, 2^k and the 8-bit floor on purpose
INTS = (
    st.integers(-(2**200), 2**200)
    | st.integers(-300, 300)
    | st.builds(
        lambda k, d: (1 << k) * (1 if d < 2 else -1) - d % 2,
        st.integers(0, 199),
        st.integers(0, 3),
    )
)
MESSAGES = INTS | st.recursive(
    INTS | st.booleans() | st.binary(min_size=1),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=8,
)


class TestRunBitAccounting:
    @given(MESSAGES)
    @settings(max_examples=200, deadline=None)
    def test_one_message_costs_msg_bits(self, m):
        _, trace = run(path(2), SendOnce(m))
        assert trace.total_bits == trace.max_message_bits == msg_bits(m)

    @given(MESSAGES)
    @settings(max_examples=200, deadline=None)
    def test_strict_violation_reports_msg_bits(self, m):
        # strict: the run has 16 vertices
        g = Graph(16, [(0, 1)])
        with pytest.raises(CongestViolation) as exc:
            run(g, SendOnce(m), cap=msg_bits(m) - 1)
        assert exc.value.bits == msg_bits(m)


class Talk(VertexProgram):
    """Random traffic: each round a vertex sends random words (ints, wide
    ints, tuples, and True and 1, which hash equal) either as broadcasts
    or as unicast pairs over random port groups, some of them empty. It
    records every (round, port, word) it hears and halts at a random
    round."""

    def __init__(self, broadcast, life):
        self.broadcast = broadcast
        self.life = life

    @staticmethod
    def word(rng):
        kind = rng.randrange(5)
        if kind == 0:
            return rng.choice([True, 1, False, 0])
        if kind == 1:
            return rng.randint(-300, 300)
        if kind == 2:
            return rng.randint(-(2**40), 2**40)
        return tuple(rng.randint(0, 9) for _ in range(rng.randrange(3)))

    def init(self, ctx):
        return ctx.rand(0).randint(1, self.life), ()

    def step(self, ctx, state, rnd, inbox):
        stop, heard = state
        heard += tuple(
            (rnd, p, type(m).__name__, m) for p, m in sorted(inbox.items())
        )
        rng = ctx.rand(rnd)
        ports = [i for i in range(ctx.degree) if rng.random() < 0.6]
        if self.broadcast:
            out = [(self.word(rng), ports)] if rng.random() < 0.8 else []
        else:
            rng.shuffle(ports)
            cuts = sorted(rng.randint(0, len(ports)) for _ in range(3))
            out = [
                (self.word(rng), tuple(ports[a:b]))
                for a, b in zip([0] + cuts, cuts + [len(ports)])
            ]
        return (stop, heard), out, rnd >= stop


def step_orders(n, seed):
    """Forward, reverse and seeded-shuffled orders of range(n)."""
    shuffled = list(range(n))
    random.Random(seed).shuffle(shuffled)
    return [list(range(n)), list(reversed(range(n))), shuffled]


def reference_run(g, program, cap, seed, order):
    """engine.run restated one message at a time, for runs on fewer than
    16 vertices or within their cap (None: LOCAL): every live vertex steps
    every round, in the given order, each word is sized per copy, and the
    receiving port is looked up by edge id. Returns (final states, trace
    JSON)."""
    n = g.n
    ctxs = [VertexContext(v, g.degree(v), seed) for v in range(n)]
    states = [program.init(c) for c in ctxs]
    halted = [False] * n
    inboxes = [{} for _ in range(n)]
    rnd = total = widest = 0
    violations = []
    while not all(halted):
        rnd += 1
        nxt = [{} for _ in range(n)]
        for v in order:
            if halted[v]:
                continue
            states[v], outbox, halted[v] = program.step(
                ctxs[v], states[v], rnd, inboxes[v]
            )
            for m, ports in outbox:
                for i in ports:
                    eid = g.adj[v][i]
                    u = sum(g.edges[eid]) - v
                    bits = msg_bits(m)
                    if cap is not None and bits > cap:
                        violations.append([rnd, eid, bits])
                    total += bits
                    widest = max(widest, bits)
                    nxt[u][g.adj[u].index(eid)] = m
        inboxes = nxt
    trace = {
        "rounds": rnd,
        "max_message_bits": widest,
        "total_bits": total,
        "violations": sorted(violations),
    }
    return states, trace


@st.composite
def small_graphs(draw):
    """A graph on up to 12 vertices, often with isolated vertices."""
    n = draw(st.integers(1, 12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


class SendTo(VertexProgram):
    """Vertex 0 sends `message` on `ports` in round 1; everyone halts."""

    def __init__(self, message, ports):
        self.message = message
        self.ports = ports

    def init(self, ctx):
        return None

    def step(self, ctx, state, rnd, inbox):
        out = [(self.message, self.ports)] if ctx.vertex == 0 else ()
        return state, out, True


class TestPortContract:
    @given(
        small_graphs(),
        st.booleans(),
        st.integers(1, 6),
        st.integers(0, 2**32),
        st.sampled_from([8, 12, 48]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_message_reference(
        self, g, broadcast, life, seed, cap
    ):
        # under 16 vertices a CONGEST run is permissive, so oversized words
        # are recorded with their edge ids rather than raised
        states, trace = run(g, Talk(broadcast, life), cap=cap, seed=seed)
        for order in step_orders(g.n, seed):
            want = reference_run(g, Talk(broadcast, life), cap, seed, order)
            assert (states, trace.to_json()) == want

    def test_a_port_used_twice_in_one_step_raises(self):
        class Twice(VertexProgram):
            def __init__(self, outbox):
                self.outbox = outbox

            def init(self, ctx):
                return None

            def step(self, ctx, state, rnd, inbox):
                return state, self.outbox if ctx.vertex == 1 else (), True

        run(path(3), Twice([(5, (0, 1))]))  # distinct ports
        for outbox in ([(5, (0, 0))], [(5, (1,)), (6, (1,))]):
            with pytest.raises(ValueError, match="port"):
                run(path(3), Twice(outbox))

    def test_empty_port_list_sends_nothing(self):
        # not even a word the cap would reject
        _, trace = run(path(4), SendTo(2**40, ()), cap=8)
        assert trace.to_json() == {
            "rounds": 1,
            "max_message_bits": 0,
            "total_bits": 0,
            "violations": [],
        }


class Pulse(VertexProgram):
    """Each vertex sleeps until its wake round, then floods the smallest id
    it has heard of and sleeps two more rounds; it halts after three
    pulses. Mail updates the minimum and pulls the wake round in to two
    rounds later; a step without mail before the wake round is a no-op, as
    idle_until requires."""

    def init(self, ctx):
        return (1 + (ctx.vertex * 7) % 11, ctx.vertex, 0)

    def idle_until(self, state):
        return state[0]

    def step(self, ctx, state, rnd, inbox):
        wake, best, pulses = state
        if self.idle_until is not None:
            assert inbox or rnd >= wake, "stepped asleep without mail"
        if inbox:
            best = min(best, *inbox.values())
            wake = min(wake, rnd + 2)
        if rnd < wake:
            return (wake, best, pulses), (), False
        out = [(best, range(ctx.degree))]
        return (rnd + 3, best, pulses + 1), out, pulses == 2


class PulseStepped(Pulse):
    """Pulse without idle_until: the engine steps every vertex every round."""

    idle_until = None


class Sleeper(VertexProgram):
    """One vertex that sleeps until round `wake` and halts there."""

    def __init__(self, wake):
        self.wake = wake

    def init(self, ctx):
        return 0

    def idle_until(self, state):
        return self.wake

    def step(self, ctx, state, rnd, inbox):
        return rnd, (), rnd >= self.wake


class Snooze(VertexProgram):
    """Vertex 0 sends once in round 1 and halts. Vertex 1 sleeps until
    round 5; mail postpones its wake round to 8, where it halts."""

    def __init__(self):
        self.steps = []

    def init(self, ctx):
        return 1 if ctx.vertex == 0 else 5

    def idle_until(self, state):
        return state

    def step(self, ctx, state, rnd, inbox):
        self.steps.append((ctx.vertex, rnd))
        if ctx.vertex == 0:
            return state, [(1, range(ctx.degree))], True
        if inbox:
            return 8, (), False
        return state, (), True


class TestIdleUntil:
    GRAPHS = [path(9), cycle(12), complete(6), Graph(7, [(0, 1), (2, 3)])]

    def test_skipping_matches_stepping_every_vertex(self):
        def observe(program, g, hooked):
            log = []

            def hook(rnd, states):
                log.append((rnd, list(states)))
                return False

            outs, trace = run(
                g, program, seed=4, round_hook=hook if hooked else None
            )
            return outs, trace.to_json(), log

        for g in self.GRAPHS:
            for hooked in (False, True):
                skipped = observe(Pulse(), g, hooked)
                assert skipped == observe(PulseStepped(), g, hooked)
            # the hook still sees every round, with every state
            outs, trace, log = skipped
            assert [r for r, _ in log] == list(range(1, trace["rounds"] + 1))

    def test_ldd_race_steps_each_vertex_once(self, monkeypatch):
        from densub import decompose

        calls = []
        step = decompose._ClusterRace.step

        def counted(self, ctx, state, rnd, inbox):
            calls.append(ctx.vertex)
            return step(self, ctx, state, rnd, inbox)

        monkeypatch.setattr(decompose._ClusterRace, "step", counted)
        for g in [path(40), cycle(33), complete(9), Graph(5, [])]:
            for seed in range(3):
                calls.clear()
                decompose.ldd_traced(g, Fraction(1, 4), seed)
                assert sorted(calls) == list(range(g.n))

    def test_ldd_race_stepped_every_round_matches(self, monkeypatch):
        # without idle_until every live vertex is stepped every round, and
        # unclaimed vertices take the race's no-mail branch before waking
        from densub import decompose
        from densub.graphs import erdos_renyi

        class SteppedRace(decompose._ClusterRace):
            idle_until = None

        g = erdos_renyi(40, 0.08, seed=3)
        for eps in (Fraction(1, 2), Fraction(1, 8)):
            for seed in range(20):
                skipped, trace = decompose.ldd_traced(g, eps, seed)
                with monkeypatch.context() as m:
                    m.setattr(decompose, "_ClusterRace", SteppedRace)
                    stepped, stepped_trace = decompose.ldd_traced(g, eps, seed)
                assert stepped == skipped  # centers and every cluster
                assert stepped_trace.to_json() == trace.to_json()

    def test_postponed_wake_round_is_kept(self):
        program = Snooze()
        _, trace = run(path(2), program)
        assert program.steps == [(0, 1), (1, 2), (1, 8)]
        assert trace.rounds_executed == 8

    def test_sleeper_returns_in_its_wake_round(self):
        _, trace = run(path(1), Sleeper(50), max_rounds=50)
        assert trace.rounds_executed == 50

    def test_sleeper_past_max_rounds_raises(self):
        with pytest.raises(MaxRoundsExceeded):
            run(path(1), Sleeper(51), max_rounds=50)
        with pytest.raises(MaxRoundsExceeded):
            run(path(3), Sleeper(10**12), max_rounds=10)


def _plain_distances(g, s):
    """{u: dist(s, u)} over the component of s, by a plain full BFS."""
    dist = {s: 0}
    frontier = [s]
    while frontier:
        nxt = []
        for v in frontier:
            for u in g.neighbors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def _bfs_diameter(g, comp):
    """Largest BFS distance between two vertices of `comp`, by plain BFS."""
    return max(max(_plain_distances(g, s).values()) for s in comp)


def _grid(a, b):
    edges = []
    for i in range(a):
        for j in range(b):
            v = i * b + j
            if j + 1 < b:
                edges.append((v, v + 1))
            if i + 1 < a:
                edges.append((v, v + b))
    return Graph(a * b, edges)


class TestComponentDiameter:
    def test_equals_all_pairs_bfs_without_bfs_calls(self, monkeypatch):
        from densub.engine import _component_diameter, _local_nbrs
        from densub.graphs import erdos_renyi

        rng = random.Random(11)
        graphs = [
            erdos_renyi(rng.randint(1, 40), rng.choice([0.05, 0.1, 0.2, 0.5]), s)
            for s in range(300)
        ]
        graphs += [cycle(k) for k in (3, 4, 5, 17, 64)]
        graphs += [path(k) for k in (1, 2, 3, 30)]
        graphs += [_grid(a, b) for a, b in ((1, 1), (2, 3), (5, 5), (3, 12))]
        want = [[_bfs_diameter(g, c) for c in g.components()] for g in graphs]

        def no_bfs(self, src, radius=None):
            raise AssertionError("per-source BFS called")

        monkeypatch.setattr(Graph, "distances_from", no_bfs)
        monkeypatch.setattr(Graph, "bfs", no_bfs)
        got = [
            [_component_diameter(_local_nbrs(g, c)) for c in g.components()]
            for g in graphs
        ]
        assert got == want


@st.composite
def graph_and_radius(draw):
    """A random graph, often with isolated vertices, and a radius from 0
    to past its diameter."""
    g = draw(small_graphs())
    return g, draw(st.integers(0, g.n + 1))


class TestCollectBall:
    @given(graph_and_radius())
    @settings(max_examples=300, deadline=None)
    def test_matches_definition(self, case):
        g, r = case
        w = max(8, max(g.n - 1, 1).bit_length() + 1)
        balls, trace = collect_ball(g, r)
        total = widest = 0
        for v in range(g.n):
            dist = _plain_distances(g, v)
            inside = {u for u, d in dist.items() if d <= r}
            edges = tuple(e for e in g.edges if set(e) <= inside)
            assert balls[v] == (tuple(sorted(inside)), edges)
            # round k sends v's id and every edge whose nearer endpoint
            # lies within k-1, two ids each, to each neighbour
            nearer = [min(dist[a], dist[b]) for a, b in g.edges if a in dist]
            for k in range(1, r + 2):
                bits = 4 + w + 2 * w * sum(1 for d in nearer if d <= k - 1)
                total += g.degree(v) * bits
                if g.degree(v):
                    widest = max(widest, bits)
        assert trace.to_json() == {
            "rounds": r + 1,
            "max_message_bits": widest,
            "total_bits": total,
            "violations": [],
        }
        for ball in balls:
            # equal balls are one shared object
            assert all(b is ball for b in balls if b == ball)

    def test_small_radius_on_long_cycle_is_fast(self, monkeypatch):
        # the sweep stops after r+1 = 11 levels, not the cycle's 1,500
        levels, sweep = [], engine._sweep

        def counted(nbrs, rows, n_levels):
            for rows, times in sweep(nbrs, rows, n_levels):
                levels.append(times)
                yield rows, times

        monkeypatch.setattr(engine, "_sweep", counted)
        start = time.perf_counter()
        balls, _ = collect_ball(cycle(3000), 10)
        elapsed = time.perf_counter() - start
        assert balls[0][0] == tuple(range(11)) + tuple(range(2990, 3000))
        assert len(balls[0][1]) == 20
        assert len(levels) <= 11
        assert elapsed < 1.0, f"collect_ball took {elapsed:.2f}s"

    def test_radius_zero(self):
        balls, trace = collect_ball(path(4), 0)
        assert all(b == ((v,), ()) for v, b in enumerate(balls))
        assert trace.rounds_executed == 1

    def test_c6_radius2_vertex0(self):
        balls, trace = collect_ball(cycle(6), 2)
        verts, edges = balls[0]
        assert verts == (0, 1, 2, 4, 5)
        assert set(edges) == {(0, 1), (1, 2), (0, 5), (4, 5)}
        assert trace.rounds_executed == 3

    def test_middle_vertex_balls_match_across_pair(self):
        g1, g2 = lowerbound_pair(Fraction(1, 10))
        b1, _ = collect_ball(g1, 1)
        b2, _ = collect_ball(g2, 1)
        assert b1[2] == b2[2]


def knowledge_states(g: Graph, rounds: int):
    """Per-vertex knowledge after `rounds` rounds of neighborhood gossip.

    Vertices start knowing only their own id (plus ports); in each round
    every vertex forwards everything it knows over every incident edge.
    After k rounds a vertex knows exactly the edges with an endpoint at
    distance <= k-1 and the vertices they mention, those within distance
    k. Returned as a canonical (sorted vertex tuple, sorted edge tuple)
    pair per vertex.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    # the rounds-ball's edges with an endpoint in the (rounds-1)-ball
    outer, _ = collect_ball(g, rounds)
    inner, _ = collect_ball(g, max(rounds - 1, 0))
    return [
        (verts, tuple(e for e in edges if not near.isdisjoint(e)))
        for (verts, edges), near in zip(outer, (set(b[0]) for b in inner))
    ]


class TestKnowledgeStates:
    @given(graph_and_radius())
    @settings(max_examples=300, deadline=None)
    def test_matches_definition(self, case):
        g, k = case
        states = knowledge_states(g, k)
        for v in range(g.n):
            dist = _plain_distances(g, v)
            verts = tuple(sorted(u for u, d in dist.items() if d <= k))
            edges = tuple(
                e for e in g.edges if any(u in dist and dist[u] < k for u in e)
            )
            assert states[v] == (verts, edges)

    def test_round1_views_identical_on_lowerbound_pair(self):
        # the 1/(10*eps)-round state of the middle vertex is bit-identical
        g1, g2 = lowerbound_pair(Fraction(1, 10))
        s1 = knowledge_states(g1, 1)
        s2 = knowledge_states(g2, 1)
        assert s1[2] == s2[2]

    def test_round3_views_differ(self):
        # the far edge of the cycle first enters the middle vertex's view
        # at round dist+1 = 3: one round to learn it exists, two to relay
        g1, g2 = lowerbound_pair(Fraction(1, 10))
        assert knowledge_states(g1, 2)[2] == knowledge_states(g2, 2)[2]
        assert knowledge_states(g1, 3)[2] != knowledge_states(g2, 3)[2]

    def test_locality_radius(self):
        # knowledge after k rounds never mentions edges farther than k-1
        g = path(9)
        states = knowledge_states(g, 3)
        verts, edges = states[0]
        assert max(v for v in verts) <= 3
        assert all(min(a, b) <= 2 for a, b in edges)


class TestComponentAggregates:
    def test_constant_values(self):
        g = cycle(8)
        res, _ = component_aggregate(g, [5] * 8)
        assert res == [5] * 8

    def test_p4_min_rounds(self):
        g = path(4)
        res, trace = component_aggregate(g, [3, 1, 4, 1])
        assert res == [1, 1, 1, 1]
        assert trace.rounds_executed <= 8

    def test_two_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        res, _ = component_aggregate(g, [9, 2, 7, 5, 4])
        assert res == [2, 2, 5, 5, 4]


class TestRoundTrace:
    def test_charge_zero_copies_raises_max_only(self):
        t = RoundTrace(2, 8, 40, [])
        t.charge(12, 0)
        assert (t.max_message_bits, t.total_bits) == (12, 40)
        t.charge(9, 3)
        assert (t.max_message_bits, t.total_bits) == (12, 67)

    def test_then_offsets_violations(self):
        t = RoundTrace(4, 10, 100, [(3, 0, 12)])
        t.then(RoundTrace(2, 6, 30, [(1, 5, 16), (2, -1, 9)]))
        assert t.rounds_executed == 6
        assert t.max_message_bits == 10
        assert t.total_bits == 130
        assert t.violations == [(3, 0, 12), (5, 5, 16), (6, -1, 9)]

    def test_then_relay_scales_rounds_and_bits_not_max(self):
        t = RoundTrace(1, 8, 10, [])
        t.then(RoundTrace(3, 9, 20, []), relay=4)
        assert t.rounds_executed == 13
        assert t.max_message_bits == 9
        assert t.total_bits == 90

    def test_json_shape(self):
        t = RoundTrace(1, 2, 3, [])
        assert t.to_json() == {
            "rounds": 1,
            "max_message_bits": 2,
            "total_bits": 3,
            "violations": [],
        }
