"""Round-synchronous execution of per-vertex programs in LOCAL or CONGEST.

The generic `run` loop delivers each message on the ports it names, sized
once, with exact bit accounting and deterministic results regardless of
the order vertices are stepped in. LOCAL-model neighborhood gossip and
spanning-tree aggregates are provided as engine primitives: their
per-vertex results are computed directly from the graph while rounds and
bits are charged according to the fixed protocol they stand for (see the
respective docstrings).
"""

from __future__ import annotations

import heapq
import random as _random
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Sequence

from .graphs import Graph

__all__ = [
    "congest_cap",
    "RoundTrace",
    "VertexContext",
    "VertexProgram",
    "CongestViolation",
    "MaxRoundsExceeded",
    "msg_bits",
    "run",
    "collect_ball",
    "component_aggregate",
]

_MIX1 = 0x9E3779B97F4A7C15
_MIX2 = 0xBF58476D1CE4E5B9
_MIX3 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # binary digits as 0/1 bytes


def congest_cap(n: int) -> int:
    """The CONGEST word on n vertices: 2 * ceil(log2 n) bits."""
    return 2 * (n - 1).bit_length() if n > 1 else 0


@dataclass
class RoundTrace:
    rounds_executed: int = 0
    max_message_bits: int = 0
    total_bits: int = 0
    violations: list[tuple[int, int, int]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "rounds": self.rounds_executed,
            "max_message_bits": self.max_message_bits,
            "total_bits": self.total_bits,
            "violations": [list(v) for v in self.violations],
        }

    def charge(self, bits: int, copies: int = 1) -> None:
        """Account `copies` messages of `bits` bits each.

        The max is raised even when no copy is sent, so an idle charged
        phase still reports the width its words would have.
        """
        self.total_bits += bits * copies
        if bits > self.max_message_bits:
            self.max_message_bits = bits

    def then(self, later: "RoundTrace", relay: int = 1) -> None:
        """Append `later` to this trace in place (sequential composition).

        `later`'s violations are re-based after this trace's rounds; its
        rounds and bits count `relay` times, once per real round of a
        virtual round relayed along paths.
        """
        self.violations += [
            (r + self.rounds_executed, e, b) for (r, e, b) in later.violations
        ]
        self.rounds_executed += later.rounds_executed * relay
        self.total_bits += later.total_bits * relay
        if later.max_message_bits > self.max_message_bits:
            self.max_message_bits = later.max_message_bits


def merge_parallel(traces: Sequence[RoundTrace]) -> RoundTrace:
    """Combine traces of runs that execute side by side on disjoint parts."""
    out = RoundTrace()
    for t in traces:
        out.rounds_executed = max(out.rounds_executed, t.rounds_executed)
        out.charge(t.max_message_bits, 0)
        out.total_bits += t.total_bits
        out.violations += t.violations
    out.violations.sort()
    return out


class CongestViolation(RuntimeError):
    def __init__(self, rnd: int, edge: int, bits: int, cap: int):
        super().__init__(
            f"message of {bits} bits on edge {edge} in round {rnd} "
            f"exceeds the {cap}-bit CONGEST cap"
        )
        self.round = rnd
        self.edge = edge
        self.bits = bits


class MaxRoundsExceeded(RuntimeError):
    pass


def msg_bits(m) -> int:
    """Serialized size of a message in bits.

    Integers, bools included, cost their minimal two's-complement width,
    at least 8 bits. Tuples cost the sum of their parts plus a 4-bit tag.
    Bytes cost 8 bits per byte. The convention is fixed so traces are
    reproducible.
    """
    if isinstance(m, int):
        width = (m.bit_length() + 1) if m >= 0 else ((-m - 1).bit_length() + 1)
        return max(8, width)
    if isinstance(m, tuple):
        return 4 + sum(msg_bits(x) for x in m)
    if isinstance(m, (bytes, bytearray)):
        return 8 * len(m)
    raise TypeError(f"unsupported message type {type(m).__name__}")


class VertexContext:
    """Local view handed to a vertex program: its id, its port count and
    a PRNG."""

    __slots__ = ("vertex", "degree", "_seed")

    def __init__(self, vertex, degree, seed):
        self.vertex = vertex
        self.degree = degree
        self._seed = seed

    def rand(self, rnd: int):
        """Counter-based PRNG keyed by (global seed, vertex, round)."""
        key = (
            self._seed * _MIX1 + self.vertex * _MIX2 + rnd * _MIX3
        ) & _MASK64
        return _random.Random(key)


class VertexProgram:
    """Behavior contract: init/step, and optionally idle_until.

    Messages are addressed by port: port i of v, for i in
    range(ctx.degree), is its i-th incident edge. step gets the inbox as a
    dict from the receiver's ports to the messages that arrived on them,
    and returns (state, outbox, halted), the outbox a sequence of (message,
    ports) pairs: the message is sized once and sent on each listed port,
    each port at most once per step. A halted vertex is never stepped
    again; its last outbox is sent.

    A program may also define `idle_until(state) -> int`, the first round
    in which the vertex must be stepped even with an empty inbox. Stepping
    it earlier without mail must leave the state unchanged, send nothing
    and not halt; `run` then skips those steps.
    """

    def init(self, ctx: VertexContext):
        raise NotImplementedError

    def step(self, ctx: VertexContext, state, rnd: int, inbox: dict):
        raise NotImplementedError


def run(
    g: Graph,
    program: VertexProgram,
    max_rounds: int = 1_000_000,
    cap: int | None = None,
    seed: int = 0,
    round_hook: Callable[[int, list], bool] | None = None,
):
    """Execute synchronized rounds until every vertex halts.

    The run ends in the round the last vertex halts; mail still addressed
    to halted vertices is dropped. Returns (final states, RoundTrace).
    `cap=None` runs the LOCAL model: messages are unbounded. An int `cap`
    is the CONGEST word in bits per edge per direction per round. It is
    enforced (a longer message raises `CongestViolation`) from 16 vertices
    on; below that, where it can be narrower than the 8-bit minimum word,
    oversized messages are only recorded as violations.
    Live vertices are stepped in id order; results do not depend on the
    order because all inboxes of a round are materialized before any step
    runs.
    `round_hook(rnd, states)`, if given, runs after each round and may
    return True to stop the simulation (used by globally-coordinated
    algorithms whose aggregation rounds are charged separately).
    If the program defines `idle_until`, a round steps only the vertices
    with mail and those whose wake round has come; with no mail in
    flight and no hook, the run skips ahead to the earliest wake round.
    Rounds, bits and final states are those of stepping every vertex in
    every round.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    n = g.n
    strict = n >= 16
    adj = g.adj
    ctxs = [VertexContext(v, len(adj[v]), seed) for v in range(n)]
    states = [program.init(ctxs[v]) for v in range(n)]
    halted = [False] * n
    inboxes: list[dict | None] = [None] * n
    trace = RoundTrace()

    idle = getattr(program, "idle_until", None)
    if idle is not None:
        # every live vertex is filed in `wakes` under sleep[v], the round
        # it is next stepped in without mail; entries whose round no
        # longer matches sleep[v] are stale
        sleep = [max(idle(st), 1) for st in states]
        wakes = [(w, v) for v, w in enumerate(sleep)]
        heapq.heapify(wakes)
    mailed: list[int] = []  # vertices with mail for the coming round

    nbrs, back = g.neighbors, g.ports()
    violations = trace.violations
    total = widest = 0
    live = n
    rnd = 0
    while live:
        if idle is not None and not (mailed or round_hook):
            rnd = min(wakes[0][0] - 1, max_rounds)
        if rnd == max_rounds:
            raise MaxRoundsExceeded(f"no global halt within {max_rounds} rounds")
        rnd += 1
        if idle is None:
            todo = range(n)
        else:
            due = set(mailed)
            while wakes and wakes[0][0] <= rnd:
                w, v = heapq.heappop(wakes)
                if sleep[v] == w:
                    due.add(v)
            todo = sorted(due)
        mailed = []
        next_inboxes: list[dict | None] = [None] * n
        for v in todo:
            if halted[v]:
                continue
            states[v], outbox, is_halted = program.step(
                ctxs[v], states[v], rnd, inboxes[v] or {}
            )
            if is_halted:
                halted[v] = True
                live -= 1
            elif idle is not None:
                sleep[v] = max(idle(states[v]), rnd + 1)
                heapq.heappush(wakes, (sleep[v], v))
            if not outbox:
                continue
            to, at = nbrs(v), back[v]
            for m, ports in outbox:
                if not ports:
                    continue
                # ints (not bools) are sized inline by msg_bits' own rule
                if type(m) is int:
                    bits = (m if m >= 0 else ~m).bit_length() + 1
                    if bits < 8:
                        bits = 8
                else:
                    bits = msg_bits(m)
                if cap is not None and bits > cap:
                    if strict:
                        raise CongestViolation(rnd, adj[v][ports[0]], bits, cap)
                    violations += [(rnd, adj[v][i], bits) for i in ports]
                total += bits * len(ports)
                if bits > widest:
                    widest = bits
                for i in ports:
                    dest, j = to[i], at[i]
                    box = next_inboxes[dest]
                    if box is None:
                        next_inboxes[dest] = {j: m}
                        mailed.append(dest)
                    elif j in box:
                        raise ValueError(
                            f"vertex {v} used port {i} twice in round {rnd}"
                        )
                    else:
                        box[j] = m
        inboxes = next_inboxes
        if round_hook is not None and round_hook(rnd, states):
            break
    trace.rounds_executed = rnd
    trace.total_bits = total
    trace.max_message_bits = widest
    trace.violations.sort()
    return states, trace


# ---------------------------------------------------------------------------
# LOCAL-model knowledge primitives


def collect_ball(g: Graph, r: int):
    """Exact induced subgraph on every r-ball, via r+1 gossip rounds.

    A LOCAL primitive: its messages are unbounded. Rounds charged: r+1.
    Bits charged: every vertex forwards its current knowledge to each
    neighbor each round, every id costing msg_bits(n-1).

    Returns (balls, trace) where balls[v] = (vertex tuple, edge tuple) of
    the subgraph induced by {u : dist(v, u) <= r}. Vertices whose balls
    hold the same vertices share one ball object.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    w = msg_bits(g.n - 1)
    trace = RoundTrace(rounds_executed=r + 1)
    balls: list = [None] * g.n
    for comp in g.components():
        nc, nbrs = len(comp), _local_nbrs(g, comp)
        # bit i is local vertex i and bit nc+e local edge e, so after k
        # levels row i holds B_k and E_k, the edges with an end within k
        rows = [1 << i for i in range(nc)]
        ends = [(i, j) for i, ns in enumerate(nbrs) for j in ns if i < j]
        for e, (i, j) in enumerate(ends, nc):
            rows[i] |= 1 << e
            rows[j] |= 1 << e
        # round k sends own id + E_{k-1}; the last payload, E_r, is largest
        known_sum = [0] * nc
        for rows, times in _sweep(nbrs, rows, r + 1):
            known_sum = [
                s + times * (x >> nc).bit_count() for s, x in zip(known_sum, rows)
            ]
        built: dict = {}
        for i, row in enumerate(rows):  # level r
            key = row & ((1 << nc) - 1)
            if key not in built:
                # local order is id order, so the bits decode sorted
                bits = bin(key)[:1:-1].encode().translate(_BIT_BYTES)
                verts = tuple(compress(comp, bits))
                inside = set(verts)
                # each edge once, at its smaller endpoint: canonical order
                built[key] = verts, tuple(
                    (u, x) for u in verts for x in g.neighbors(u)
                    if x > u and x in inside
                )
            v = comp[i]
            balls[v] = built[key]
            if g.degree(v):
                sent = (r + 1) * (4 + w) + 2 * w * known_sum[i]
                trace.total_bits += g.degree(v) * sent
                trace.charge(4 + w + 2 * w * (row >> nc).bit_count(), 0)
    return balls, trace


def component_aggregate(g: Graph, values: Sequence):
    """Every vertex learns the minimum of `values` over its component.

    Stands for a convergecast plus broadcast on a BFS tree rooted at each
    component's minimum-id vertex: rounds charged are 2*diameter+2 (max
    over components); each tree edge carries one value-sized word up and
    one down. Returns (per-vertex result, trace).
    """
    if len(values) != g.n:
        raise ValueError("need one value per vertex")
    result = [None] * g.n
    trace = RoundTrace()
    for comp in g.components():
        agg = min(values[v] for v in comp)
        for v in comp:
            result[v] = agg
        diam = _component_diameter(_local_nbrs(g, comp))
        trace.rounds_executed = max(trace.rounds_executed, 2 * diam + 2)
        trace.charge(msg_bits(agg), 2 * (len(comp) - 1))
    return result, trace


def _local_nbrs(g: Graph, comp: list[int]) -> list[list[int]]:
    """Adjacency of the sorted component `comp`, vertex comp[i] as i."""
    local = {v: i for i, v in enumerate(comp)}
    return [[local[u] for u in g.neighbors(v)] for v in comp]


def _sweep(nbrs: list[list[int]], rows: list[int], levels: int):
    """All-sources BFS on bitsets over one connected component.

    rows[i] is local vertex i's starting set as an int; each level ORs
    every row with its neighbours' rows of the level before, so after k
    levels row i is the union of the starting sets within distance k of
    i. Yields (rows, times) for levels 0 .. levels-1, `times` counting the
    levels the rows stand for: once every row holds every starting set,
    after at most the diameter in levels, no row changes again and the
    remaining levels come as one. Two levels of rows are alive at a time.
    """
    full = 0
    for row in rows:
        full |= row
    while levels > 1 and rows.count(full) < len(rows):
        yield rows, 1
        levels -= 1
        nxt = []
        for row, ns in zip(rows, nbrs):
            for u in ns:
                row |= rows[u]
            nxt.append(row)
        rows = nxt
    yield rows, levels


def _component_diameter(nbrs: list[list[int]]) -> int:
    """Exact diameter of a connected component given by its local adjacency
    `nbrs`: the levels an all-sources sweep of single-vertex rows takes to
    fill every row."""
    rows = [1 << i for i in range(len(nbrs))]
    return sum(1 for _ in _sweep(nbrs, rows, len(nbrs))) - 1
