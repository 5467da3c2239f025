"""Deterministic low-outdegree orientation and its splitting subroutines.

The ladder, bottom to top:

* weak orientation: split every vertex into degree-3 copies; a copy with
  three incoming edges is a sink. Sinks launch waves backwards along
  incoming edges through out-degree-1 copies until a copy with spare
  capacity is found; flipping the discovered paths retires at least a
  third of the sinks per phase and never creates new ones. The result
  orients at least floor(deg/3) edges out of every vertex.
* path decomposition: repeatedly orient the virtual graph whose edges are
  the current paths, then at every vertex pair up outgoing paths and
  splice each pair into one (reversing the first); one round of this cuts
  the per-vertex path-end count to 2/3 of itself plus a constant while
  doubling the length cap. Splices that close a cycle are set aside, done.
* directed split: run the decomposition until the per-vertex end count is
  at most eps*deg + 12 and orient every path consistently; interior visits
  cancel, so each vertex's out/in imbalance is at most its end count.
* dual rounding: start from the fractional orientation produced by the
  multiplicative-weights dual solver, snap it to t fractional bits, then
  clear one bit position per iteration: edges where either endpoint shows
  a zero bit round both sides down; the remaining edges get a directed
  split, the tail rounds up and the head rounds down. Edge covers survive
  every step exactly, per-vertex sums grow by at most the split
  imbalance at that bit's weight, and after the last iteration the values
  are integers in {0, 1} that dictate the orientation.

The splitting subroutines run their combinatorics centrally while rounds
and message bits are charged per the relay protocol they stand for: a
virtual-graph round costs (path length + 1) real rounds, wave/designate
words carry one copy id each, and sub-phases are padded to the worst wave
depth of the phase.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import add, gt

from .engine import RoundTrace, msg_bits
from .graphs import Graph, Orientation, ceil_log2, is_neg_pow2
from .mwu import alpha_bit_width, alpha_fraction_bits, fractional_dual

__all__ = [
    "Orientation",
    "WeakOrientationResult",
    "weak_orientation",
    "directed_split",
    "split_levels",
    "orient_low_outdegree_detailed",
    "OrientReport",
]


@dataclass
class WeakOrientationResult:
    """head[2e + s] = 1 when edge e points at its side-s end ends[2e + s]."""

    n: int
    ends: list[int]
    head: bytearray
    phases: int
    sink_history: list[int]  # sink count entering each phase
    charge: RoundTrace

    @property
    def orientation(self) -> Orientation:
        pairs = tuple(zip(self.ends[::2], self.ends[1::2]))
        return Orientation(self.n, pairs, tuple(self.head[1::2]))


def _weak_orient_edges(n: int, ends: list[int]) -> WeakOrientationResult:
    """Sinkless orientation of the degree-3 split multigraph.

    Works on an arbitrary multigraph without self-loops: edge e joins
    ends[2e] and ends[2e + 1].
    """
    m2 = len(ends)
    # slot x = 2e + s is side s of edge e; each vertex's slots, in edge
    # order and padded with -1 to a multiple of three, make its copies:
    # copy c owns flat[3c : 3c + 3], and ec[x] is slot x's copy
    slots: list[list[int]] = [[] for _ in range(n)]
    for x, v in enumerate(ends):
        slots[v].append(x)
    flat: list[int] = []
    for sv in slots:
        flat += sv
        flat += (-1, -1)[: -len(sv) % 3]
    del slots
    num_copies = len(flat) // 3
    ec = [0] * (m2 + 1)
    it = iter(flat)
    for c, (x, y, z) in enumerate(zip(it, it, it)):
        ec[x] = ec[y] = ec[z] = c
    # every edge starts pointing at its larger endpoint; head[-1] = 0 is
    # what padding reads
    mate = chain.from_iterable(zip(ends[1::2], ends[::2]))
    head = bytearray(map(gt, ends, mate)) + b"\0"
    # a copy with fewer than three edges counts its in-degree from -3, so
    # it never reads as a sink (3) or a relay (2)
    it = iter(flat)
    indeg = [head[a] + head[b] + head[c] - 3 * (c < 0) for a, b, c in zip(it, it, it)]

    phase_budget = 8 * max(max(n, 2) - 1, 1).bit_length()
    trace = RoundTrace()
    sink_history: list[int] = []
    sinks = [c for c, d in enumerate(indeg) if d == 3]
    origin = [0] * num_copies  # the sink whose wave reached a copy
    # a wave hit (layer, endpoint copy w, slot x of the edge into w) as one
    # int, ordered as the triple is; slot order is edge-id order
    per_layer = num_copies * m2
    never = (num_copies + 1) * per_layer
    phases = 0
    while sinks:
        phases += 1
        if phases > phase_budget:
            raise RuntimeError(
                f"sink elimination exceeded its {phase_budget}-phase budget"
            )
        sink_history.append(len(sinks))
        # wave sub-phase: every sink explores backwards along incoming
        # edges through out-degree-1 (full, in-degree 2) copies; each copy
        # is reached at most once because its single out-edge pins it to
        # one sink's chain. via[w] is the slot whose edge reached w.
        via = [-1] * num_copies
        hits = [never] * num_copies  # per sink, its best hit
        for s in sinks:
            origin[s] = s
        frontier, layer = sinks, 0
        # a copy sends one wave word per incoming edge: 3 from a sink, 2
        # from a relay
        wave_messages = 3 * len(sinks)
        while frontier:
            layer += 1
            at_layer = layer * per_layer
            nxt = []
            for c in frontier:
                o = origin[c]
                for x in flat[3 * c : 3 * c + 3]:
                    if not head[x]:
                        continue  # c is the tail, or x = -1 is padding
                    # w holds the tail slot x ^ 1, so it is no sink
                    w = ec[x ^ 1]
                    d = indeg[w]
                    if d == 2:
                        if via[w] < 0:
                            via[w] = x
                            origin[w] = o
                            nxt.append(w)
                        continue
                    hit = at_layer + w * m2 + x
                    if hit < hits[o]:
                        hits[o] = hit
            wave_messages += 2 * len(nxt)
            frontier = nxt
        if any(hits[s] == never for s in sinks):
            raise RuntimeError(
                "a sink found no augmenting path; split-graph invariant broken"
            )
        # designation already filtered to one path per sink (hits); each
        # endpoint accepts the smallest designating sink id, then the path
        # is flipped walking back from the endpoint to the sink. Accepted
        # paths share no copy, so the flips commute.
        accepted, was_sink = bytearray(num_copies), bytearray(num_copies)
        path_len_total = 0
        for s in sinks:
            was_sink[s] = 1
            x = hits[s] % per_layer
            w, x = divmod(x, m2)
            if accepted[w]:
                continue
            accepted[w] = 1
            while True:
                c = ec[x]
                head[x] = 0
                head[x ^ 1] = 1
                indeg[c] -= 1
                indeg[ec[x ^ 1]] += 1
                path_len_total += 1
                if c == s:
                    break
                x = via[c]
        new_sinks = [c for c, d in enumerate(indeg) if d == 3]
        if not all(map(was_sink.__getitem__, new_sinks)):
            raise RuntimeError("an augmenting-path flip created a new sink")
        if len(sinks) - len(new_sinks) < -(-len(sinks) // 3):
            raise RuntimeError(
                "fewer than a third of the sinks were retired in a phase"
            )
        # four relay sub-phases (wave, report, designate, accept+flip),
        # each padded to the deepest wave of this phase
        trace.rounds_executed += 4 * layer + 2
        copy_bits = msg_bits(num_copies - 1)
        trace.charge(copy_bits, wave_messages)  # copy-id wave words
        trace.charge(msg_bits(layer), path_len_total)  # report words
        trace.charge(copy_bits, 2 * path_len_total)  # designate+accept
        sinks = new_sinks
    return WeakOrientationResult(n, ends, head, phases, sink_history, trace)


def weak_orientation(g: Graph) -> WeakOrientationResult:
    """Orientation with outdeg(v) >= floor(deg(v)/3) for every vertex."""
    return _weak_orient_edges(g.n, list(chain.from_iterable(g.edges)))


def _decompose_edges(
    n: int, edges: list[tuple[int, int]], levels: int
) -> tuple[list[tuple[int, int]], list[int], RoundTrace]:
    """Boosted path decomposition of an edge list: paths covering every
    edge once, with per-vertex open-end count at most (2/3)^levels * deg
    + 12 and length at most 2^levels.

    Edges are numbered from 1, 0 meaning none. A path is a chain of edges,
    link[e] the XOR of e's neighbours on it, so two paths splice in O(1)
    whichever way each runs. Returns (starts, link, trace): path k leaves
    vertex starts[k][0] along edge starts[k][1], open paths first.
    """
    # open path k runs from end 2k to end 2k + 1: ends[x] is the vertex at
    # end x, tip[x] the edge there; the ends are the virtual edge's sides
    ends = list(chain.from_iterable(edges))
    # both ends of a path share its edge id object
    tip = [0] * len(ends)
    tip[::2] = tip[1::2] = list(range(1, len(edges) + 1))
    link = [0] * (len(edges) + 1)
    length = [1] * len(edges)
    cycles: list[tuple[int, int]] = []
    trace = RoundTrace()
    max_len = 1
    for _ in range(levels):
        if not ends:
            break
        res = _weak_orient_edges(n, ends)
        trace.then(res.charge, max_len + 1)
        # the end each virtual edge leaves from, by vertex in path order;
        # consecutive pairs at a vertex are spliced there, and only the
        # last end of an odd group is left over
        out_at: list[list[int]] = [[] for _ in range(n)]
        head = res.head
        for x in range(0, len(ends), 2):
            x += head[x]
            out_at[ends[x]].append(x)
        new_ends, new_tip, new_len = [], [], []
        for xs in out_at:
            for a, b in zip(xs[::2], xs[1::2]):
                ta, tb = tip[a], tip[b]
                link[ta] ^= tb
                link[tb] ^= ta
                # the joined path runs from a's far end into the shared
                # vertex, then on along b to its far end
                a ^= 1
                b ^= 1
                ea, eb = ends[a], ends[b]
                if ea == eb:
                    cycles.append((ea, tip[a]))
                else:
                    new_ends += ea, eb
                    new_tip += tip[a], tip[b]
                    new_len.append(length[a >> 1] + length[b >> 1])
        for x in sorted(xs[-1] & -2 for xs in out_at if len(xs) & 1):
            new_ends += ends[x], ends[x + 1]
            new_tip += tip[x], tip[x + 1]
            new_len.append(length[x >> 1])
        ends, tip, length = new_ends, new_tip, new_len
        # reversals and appends are coordinated along the paths themselves
        trace.rounds_executed += max_len + 1
        max_len = min(2 * max_len, max(length, default=1))
    return list(zip(ends[::2], tip[::2])) + cycles, link, trace


def split_levels(eps: Fraction) -> int:
    """Smallest i with (2/3)^i <= eps."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    i = 0
    val = Fraction(1)
    while val > eps:
        val = val * 2 / 3
        i += 1
    return i


def _split_edge_list(
    n: int, edges: list[tuple[int, int]], eps: Fraction
) -> tuple[Orientation, RoundTrace]:
    """Directions with per-vertex |out - in| <= eps*deg + 12.

    The orientation is over `edges` as given, a multigraph list. Paths are
    oriented along their traversal; a vertex's imbalance comes only from
    path ends.
    """
    levels = split_levels(eps)
    starts, link, trace = _decompose_edges(n, edges, levels)
    dir_bits = [0] * len(edges)
    for v, e in starts:
        prev = 0
        while e:
            a, b = edges[e - 1]
            if v == a:
                dir_bits[e - 1] = 1
                v = b
            else:
                v = a
            prev, e = e, link[e] ^ prev
    trace.rounds_executed += 1  # announcing the final direction of each edge
    return Orientation(n, tuple(edges), tuple(dir_bits)), trace


def directed_split(g: Graph, eps: Fraction) -> tuple[Orientation, RoundTrace]:
    """Orientation with |outdeg(v) - indeg(v)| <= eps*deg(v) + 12."""
    return _split_edge_list(g.n, list(g.edges), Fraction(eps))


@dataclass
class IterationRecord:
    k: int
    split_edges: int
    min_edge_cover: Fraction
    max_vertex_sum: Fraction
    bound: Fraction  # the per-vertex recurrence value D_k


@dataclass
class OrientReport:
    orientation: Orientation
    trace: RoundTrace
    iterations: list[IterationRecord] = field(default_factory=list)


def orient_low_outdegree_detailed(
    g: Graph,
    dtilde: int,
    eps: Fraction,
    T_override: int | None = None,
) -> OrientReport:
    """Full pipeline: dual solve, bit snap, per-bit split rounding.

    Requires an integer dtilde >= D, eps a negative power of two with
    32/dtilde <= eps <= 1/4, and a power-of-two T_override if one is
    given. The resulting orientation has max outdegree at most
    (1+eps)*dtilde (the exact recurrence value is reported).
    """
    eps = Fraction(eps)
    if dtilde < 1 or Fraction(dtilde).denominator != 1:
        raise ValueError("dtilde must be a positive integer")
    if not is_neg_pow2(eps):
        raise ValueError("eps must be a negative power of 2")
    if not (Fraction(32, dtilde) <= eps <= Fraction(1, 4)):
        raise ValueError("need 32/dtilde <= eps <= 1/4")
    if T_override is not None and T_override & (T_override - 1):
        raise ValueError(
            f"bit-width accounting requires a power-of-two T, got {T_override}"
        )
    if g.m == 0:
        o = Orientation(g.n, g.edges, ())
        return OrientReport(o, RoundTrace())
    eps1 = eps / 8
    eps2 = eps / 8
    sol, trace = fractional_dual(
        g, Fraction(dtilde), eps1 / 2, T_override=T_override
    )
    if not sol.feasible:
        raise RuntimeError(
            "fractional solution infeasible; raise the iteration count "
            "or check that dtilde is at least the maximum density"
        )
    alpha_bit_width(sol)  # asserts the serialized-width guarantee
    delta = g.max_degree()
    t = min(alpha_fraction_bits(sol), ceil_log2(Fraction(delta) / eps2))
    scale = 1 << t
    # ceil(alpha * 2^t) in the dual's slots: a[2e + s] is side s of edge e,
    # side 0 the smaller endpoint. The slots hold a few dozen distinct
    # values, so every step maps each distinct value once and the slots
    # share those few int objects instead of holding one per slot.
    snap = {x: -(-x * scale // sol.den) for x in set(sol.shares)}
    a = list(map(snap.__getitem__, sol.shares))
    del sol  # only the snapped slots are read from here on
    records: list[IterationRecord] = []
    bound = (1 + eps1) * (1 + eps2) * dtilde
    if t > 0:
        eps3 = eps / (4 * t)
        for k in range(1, t + 1):
            bit = 1 << (k - 1)
            # an edge with the bit on both sides is split; every other
            # side rounds down, and so does a split edge's head, while its
            # tail rounds up: clear the bit everywhere, carry 2*bit to tails
            in_split = array(
                "l", [x for x in range(0, len(a), 2) if a[x] & a[x + 1] & bit]
            )
            cleared = {y: y & ~bit for y in set(a)}
            a = list(map(cleared.__getitem__, a))
            # one bit-exchange round precedes the split every iteration
            trace.rounds_executed += 1
            trace.charge(8, 2 * g.m)
            if in_split:
                sub_edges = [g.edges[x >> 1] for x in in_split]
                split, split_trace = _split_edge_list(g.n, sub_edges, eps3)
                trace.then(split_trace)
                # dir_bits 1 puts the tail at side 0
                up = {y: y + (bit << 1) for y in cleared.values()}
                for x, d in zip(in_split, split.dir_bits):
                    x += 1 - d
                    a[x] = up[a[x]]
            bound = (1 + eps3) * bound + Fraction(12, 1 << (t - k + 1))
            min_cover = Fraction(min(map(add, a[::2], a[1::2])), scale)
            sums = [0] * g.n
            for v, y in zip(chain.from_iterable(g.edges), a):
                sums[v] += y
            max_sum = Fraction(max(sums), scale)
            records.append(
                IterationRecord(k, len(in_split), min_cover, max_sum, bound)
            )
            if min_cover < 1:
                raise AssertionError("edge cover broke during rounding")
            if max_sum > bound:
                raise AssertionError("per-vertex sum exceeded its recurrence")
    if any(y % scale for y in a):
        raise AssertionError("fractional bits remain after the last pass")
    a = [min(y // scale, 1) for y in a]
    if 0 in map(add, a[::2], a[1::2]):
        raise AssertionError("an edge lost its cover")
    trace.rounds_executed += 1
    trace.charge(8, g.m)
    # the tail is side 0 when it keeps its unit; both at 1 points at side 1
    orientation = Orientation(g.n, g.edges, tuple(a[::2]))
    return OrientReport(orientation, trace, records)
