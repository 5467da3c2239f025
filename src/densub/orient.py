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

from dataclasses import dataclass, field
from fractions import Fraction

from .engine import RoundTrace, msg_bits
from .graphs import Graph, Orientation, ceil_log2, is_neg_pow2
from .mwu import alpha_bit_width, alpha_fraction_bits, fractional_dual

__all__ = [
    "Orientation",
    "PathDecomposition",
    "WeakOrientationResult",
    "weak_orientation",
    "path_decompose",
    "directed_split",
    "split_levels",
    "orient_low_outdegree",
    "orient_low_outdegree_detailed",
    "OrientReport",
]


@dataclass(frozen=True)
class PathDecomposition:
    """Edge partition into vertex sequences; closed ones have
    first == last and no endpoint slots."""

    n: int
    paths: tuple[tuple[int, ...], ...]

    def endpoint_counts(self) -> list[int]:
        cnt = [0] * self.n
        for p in self.paths:
            if p[0] != p[-1]:
                cnt[p[0]] += 1
                cnt[p[-1]] += 1
        return cnt

    def max_length(self) -> int:
        return max((len(p) - 1 for p in self.paths), default=0)

    def edge_multiset(self) -> list[tuple[int, int]]:
        out = []
        for p in self.paths:
            for a, b in zip(p, p[1:]):
                out.append((a, b) if a < b else (b, a))
        return out


@dataclass
class WeakOrientationResult:
    orientation: Orientation
    phases: int
    sink_history: list[int]  # sink count entering each phase
    charge: RoundTrace


def _weak_orient_edges(
    n: int, edges: list[tuple[int, int]]
) -> WeakOrientationResult:
    """Sinkless orientation of the degree-3 split multigraph.

    Works on an arbitrary multigraph without self-loops; the orientation
    is over `edges` as given.
    """
    m = len(edges)
    # slot 2*eid + s is side s of edge eid (side 0 at edges[eid][0]); each
    # vertex's slots, in edge order and padded with -1 to a multiple of
    # three, make its copies. ec[slot] is the slot's copy, hp[eid] the
    # slot at the edge's head and hp[eid] ^ 1 the one at its tail.
    slots: list[list[int]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        slots[u].append(2 * eid)
        slots[v].append(2 * eid + 1)
    flat: list[int] = []
    for sv in slots:
        flat += sv
        flat += (-1, -1)[: -len(sv) % 3]
    copy_slots = list(zip(*[iter(flat)] * 3))
    num_copies = len(copy_slots)
    ec = [0] * (2 * m + 1)  # the extra last entry takes the padding
    for p, x in enumerate(flat):
        ec[x] = p // 3
    ec.pop()
    full = bytearray(last >= 0 for _a, _b, last in copy_slots)
    full_copies = [c for c in range(num_copies) if full[c]]
    hp = [2 * eid + (v > u) for eid, (u, v) in enumerate(edges)]
    indeg = [0] * num_copies
    for h in hp:
        indeg[ec[h]] += 1

    phase_budget = 8 * max(max(n, 2) - 1, 1).bit_length()
    trace = RoundTrace()
    sink_history: list[int] = []
    # a sink is a full copy with three incoming edges
    sinks = [c for c in full_copies if indeg[c] == 3]
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
        # one sink's chain
        waved: dict[int, int] = {}  # copy -> the edge that reached it
        hits: dict[int, tuple[int, int, int]] = {}  # sink -> (layer, w, e)
        frontier = [(c, c) for c in sinks]
        layer = 0
        wave_messages = 0
        while frontier:
            layer += 1
            nxt = []
            for c, origin in frontier:
                for x in copy_slots[c]:
                    eid = x >> 1
                    if hp[eid] != x:
                        continue  # c is the tail, or x = -1 is padding
                    w = ec[x ^ 1]
                    wave_messages += 1
                    if full[w]:
                        d = indeg[w]
                        if d == 3:
                            continue
                        if d == 2:
                            if w not in waved:
                                waved[w] = eid
                                nxt.append((w, origin))
                            continue
                    best = hits.get(origin)
                    cand = (layer, w, eid)
                    if best is None or cand < best:
                        hits[origin] = cand
            frontier = nxt
        for s in sinks:
            if s not in hits:
                raise RuntimeError(
                    "a sink found no augmenting path; split-graph invariant broken"
                )
        # designation already filtered to one path per sink (hits);
        # endpoints accept the smallest designating sink id
        accept: dict[int, int] = {}
        for s in sorted(hits):
            _layer, w, _e = hits[s]
            if w not in accept or s < accept[w]:
                accept[w] = s
        path_len_total = 0
        for w, s in sorted(accept.items()):
            _layer, _w, eid = hits[s]
            # walk from the endpoint back to the sink, flipping
            path = [eid]
            c = ec[hp[eid]]
            while c != s:
                via = waved[c]
                path.append(via)
                c = ec[hp[via]]
            for e in path:
                h = hp[e]
                indeg[ec[h]] -= 1
                indeg[ec[h ^ 1]] += 1
                hp[e] = h ^ 1
            path_len_total += len(path)
        new_sinks = [c for c in full_copies if indeg[c] == 3]
        if not set(new_sinks) <= set(sinks):
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
    head = tuple(h & 1 for h in hp)
    orientation = Orientation(n, tuple(edges), head)
    return WeakOrientationResult(orientation, phases, sink_history, trace)


def weak_orientation(g: Graph) -> WeakOrientationResult:
    """Orientation with outdeg(v) >= floor(deg(v)/3) for every vertex."""
    return _weak_orient_edges(g.n, list(g.edges))


def _decompose_edges(
    n: int, edges: list[tuple[int, int]], levels: int
) -> tuple[list[list[int]], RoundTrace]:
    """Boosted path decomposition of an edge list.

    Returns vertex sequences covering every input edge exactly once, with
    per-vertex open-end count at most (2/3)^levels * deg + 12 and length
    at most 2^levels.
    """
    paths: list[list[int]] = [[u, v] for (u, v) in edges]
    cycles: list[list[int]] = []
    trace = RoundTrace()
    max_len = 1
    for level in range(levels):
        open_idx = [i for i, p in enumerate(paths) if p[0] != p[-1]]
        virt_edges = [(paths[i][0], paths[i][-1]) for i in open_idx]
        if not virt_edges:
            break
        res = _weak_orient_edges(n, virt_edges)
        trace.then(res.charge, max_len + 1)
        out_at: dict[int, list[int]] = {}
        for k in range(len(virt_edges)):
            out_at.setdefault(res.orientation.tail_of(k), []).append(k)
        merged: set[int] = set()
        new_paths: list[list[int]] = []
        for u in sorted(out_at):
            ks = out_at[u]
            for first, second in zip(ks[::2], ks[1::2]):
                pa = paths[open_idx[first]]
                pb = paths[open_idx[second]]
                seq_a = pa if pa[0] == u else pa[::-1]
                seq_b = pb if pb[0] == u else pb[::-1]
                joined = seq_a[::-1] + seq_b[1:]
                merged.add(open_idx[first])
                merged.add(open_idx[second])
                if joined[0] == joined[-1]:
                    cycles.append(joined)
                else:
                    new_paths.append(joined)
        for i, p in enumerate(paths):
            if i not in merged and p[0] != p[-1]:
                new_paths.append(p)
        # reversals and appends are coordinated along the paths themselves
        trace.rounds_executed += max_len + 1
        paths = new_paths
        max_len = min(2 * max_len, max((len(p) - 1 for p in paths), default=1))
    return paths + cycles, trace


def path_decompose(g: Graph, levels: int) -> PathDecomposition:
    """(2/3)^levels damping of path-end counts, lengths up to 2^levels."""
    if levels < 0:
        raise ValueError("levels must be >= 0")
    paths, _ = _decompose_edges(g.n, list(g.edges), levels)
    return PathDecomposition(g.n, tuple(tuple(p) for p in paths))


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
    paths, trace = _decompose_edges(n, edges, levels)
    remaining: dict[tuple[int, int], list[int]] = {}
    for eid, (u, v) in enumerate(edges):
        remaining.setdefault((u, v) if u < v else (v, u), []).append(eid)
    dir_bits = [0] * len(edges)
    for p in paths:
        for a, b in zip(p, p[1:]):
            key = (a, b) if a < b else (b, a)
            eid = remaining[key].pop()
            dir_bits[eid] = 1 if (edges[eid][0], edges[eid][1]) == (a, b) else 0
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
    32/dtilde <= eps <= 1/4. The resulting orientation has max outdegree
    at most (1+eps)*dtilde (the exact recurrence value is reported).
    """
    eps = Fraction(eps)
    if dtilde < 1 or Fraction(dtilde).denominator != 1:
        raise ValueError("dtilde must be a positive integer")
    if not is_neg_pow2(eps):
        raise ValueError("eps must be a negative power of 2")
    if not (Fraction(32, dtilde) <= eps <= Fraction(1, 4)):
        raise ValueError("need 32/dtilde <= eps <= 1/4")
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
    nu = [0] * g.m
    nv = [0] * g.m
    for eid, (u, v) in enumerate(g.edges):
        au, av = sol.alpha[(eid, u)], sol.alpha[(eid, v)]
        nu[eid] = -(-au.numerator * scale // au.denominator)
        nv[eid] = -(-av.numerator * scale // av.denominator)
    records: list[IterationRecord] = []
    bound = (1 + eps1) * (1 + eps2) * dtilde
    if t > 0:
        eps3 = eps / (4 * t)
        for k in range(1, t + 1):
            bit = 1 << (k - 1)
            in_split = []
            for eid in range(g.m):
                bu = nu[eid] & bit
                bv = nv[eid] & bit
                if bu and bv:
                    in_split.append(eid)
                else:
                    if bu:
                        nu[eid] -= bit
                    if bv:
                        nv[eid] -= bit
            # one bit-exchange round precedes the split every iteration
            trace.rounds_executed += 1
            trace.charge(8, 2 * g.m)
            if in_split:
                sub_edges = [g.edges[eid] for eid in in_split]
                split, split_trace = _split_edge_list(g.n, sub_edges, eps3)
                trace.then(split_trace)
                for pos, eid in enumerate(in_split):
                    if split.dir_bits[pos]:
                        # tail = stored first endpoint = min id = u side
                        nu[eid] += bit
                        nv[eid] -= bit
                    else:
                        nv[eid] += bit
                        nu[eid] -= bit
            bound = (1 + eps3) * bound + Fraction(12, 1 << (t - k + 1))
            min_cover = Fraction(min(a + b for a, b in zip(nu, nv)), scale)
            sums = [0] * g.n
            for eid, (u, v) in enumerate(g.edges):
                sums[u] += nu[eid]
                sums[v] += nv[eid]
            max_sum = Fraction(max(sums), scale)
            records.append(
                IterationRecord(k, len(in_split), min_cover, max_sum, bound)
            )
            if min_cover < 1:
                raise AssertionError("edge cover broke during rounding")
            if max_sum > bound:
                raise AssertionError("per-vertex sum exceeded its recurrence")
    dir_bits = []
    for eid in range(g.m):
        if nu[eid] % scale or nv[eid] % scale:
            raise AssertionError("fractional bits remain after the last pass")
        au = min(nu[eid] // scale, 1)
        av = min(nv[eid] // scale, 1)
        if au + av < 1:
            raise AssertionError("an edge lost its cover")
        if au == 1 and av == 0:
            dir_bits.append(1)  # tail u, head v
        elif av == 1 and au == 0:
            dir_bits.append(0)
        else:
            dir_bits.append(1)  # both at 1: orient toward the larger id
    trace.rounds_executed += 1
    trace.charge(8, g.m)
    orientation = Orientation(g.n, g.edges, tuple(dir_bits))
    return OrientReport(orientation, trace, records)


def orient_low_outdegree(
    g: Graph,
    dtilde: int,
    eps: Fraction,
    T_override: int | None = None,
) -> tuple[Orientation, RoundTrace]:
    rep = orient_low_outdegree_detailed(g, dtilde, eps, T_override)
    return rep.orientation, rep.trace
