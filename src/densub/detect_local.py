"""Deterministic dense-subgraph detection in the LOCAL model.

Every vertex gathers its radius-r ball, solves the densest subgraph there
exactly (local computation is unbounded), and declares itself active when
that local optimum reaches (1-eps) * dtilde. Active vertices whose id is
smallest among the active vertices within distance 2r become black and
stamp their local optimum onto the output; distinct black vertices are more
than 2r apart, so their stamped subgraphs are disjoint and the union keeps
the density bound. The radius 2 * ceil((6/eps) ln n) is exactly twice the
clustering budget of the eps/2 decomposition, which is what guarantees a
dense subgraph of that diameter exists whenever dtilde <= D.

The directed variant tags each vertex with the black vertex whose local
(S, T) pair it belongs to; tags are the black vertex id plus one, so 0
always means untagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .decompose import shift_budget
from .engine import RoundTrace, collect_ball
from .graphs import DirectedGraph, Graph, Subset, density, format_ratio
from . import oracle

__all__ = [
    "DetectionOutput",
    "DirectedDetectionOutput",
    "detection_radius",
    "local_detect",
    "local_detect_directed",
]

DIRECTED_BALL_CAP = 12


@dataclass(frozen=True)
class DetectionOutput:
    marked: Subset
    black: tuple[int, ...]
    radius: int

    @property
    def h(self) -> tuple[int, ...]:
        return self.marked.indicator()

    def to_json(self, g: Graph, rounds: int) -> dict:
        dens = (
            format_ratio(density(g, self.marked)) if len(self.marked) else None
        )
        return {
            "marked": list(self.marked.ids()),
            "density": dens,
            "rounds": rounds,
            "black": list(self.black),
        }


@dataclass(frozen=True)
class DirectedDetectionOutput:
    s_tag: tuple[int, ...]  # black id + 1, 0 = untagged
    t_tag: tuple[int, ...]
    black: tuple[int, ...]
    radius: int

    def pair_of(self, black_vertex: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        tag = black_vertex + 1
        s = tuple(i for i, x in enumerate(self.s_tag) if x == tag)
        t = tuple(i for i, x in enumerate(self.t_tag) if x == tag)
        return s, t


def detection_radius(n: int, eps: Fraction) -> int:
    """Twice the eps/2 clustering budget: r = 2 * ceil((6/eps) * ln n)."""
    return 2 * shift_budget(n, Fraction(eps) / 2)


def _id_width(n: int) -> int:
    return max(8, max(n - 1, 1).bit_length() + 1)


def _charge_flag_gossip(g: Graph, rounds: int, trace: RoundTrace) -> None:
    """Bit charge for spreading (id, flag) pairs for `rounds` rounds.

    After k rounds a vertex has heard of everything within distance k;
    each gossip message carries that many (id, flag) entries.
    """
    w = _id_width(g.n) + 1
    for v in range(g.n):
        deg = g.degree(v)
        if deg == 0:
            continue
        dist = g.distances_from(v)
        hist: dict[int, int] = {}
        for d in dist:
            if d >= 0:
                hist[d] = hist.get(d, 0) + 1
        known = 0
        for k in range(1, rounds + 1):
            known += hist.get(k - 1, 0)
            payload = 4 + known * w
            trace.total_bits += deg * payload
            if payload > trace.max_message_bits:
                trace.max_message_bits = payload
    trace.rounds_executed += rounds


def _charge_subset_broadcast(
    g: Graph, sources: dict[int, int], radius: int, trace: RoundTrace
) -> None:
    """Charge a black vertex's subgraph announcement flooding r hops.

    sources maps each announcing vertex to its payload entry count; every
    edge within the flooded ball relays the payload once per round.
    """
    w = _id_width(g.n)
    for v, entries in sources.items():
        payload = 4 + entries * w
        dist = g.distances_from(v)
        ball = {u for u, d in enumerate(dist) if 0 <= d <= radius}
        arcs = sum(
            2 for a, b in g.edges if a in ball and b in ball
        )
        trace.total_bits += arcs * payload * (radius + 1)
        if payload > trace.max_message_bits:
            trace.max_message_bits = payload
    trace.rounds_executed += radius + 1


def _ball_optimum(g: Graph, verts, edges, cache) -> tuple[frozenset[int], Fraction]:
    """Exact densest subgraph inside one ball, in original vertex ids.

    Every ball goes through the certified min-cut oracle. Its witness is a
    deterministic function of the ball (with ties, the minimal min-cut side
    of the last improving test), so equal balls stamp equal sets.
    """
    key = frozenset(verts)
    hit = cache.get(key)
    if hit is not None:
        return hit
    pos = {v: i for i, v in enumerate(verts)}
    sub = Graph(len(verts), [(pos[a], pos[b]) for a, b in edges])
    res = oracle.exact_densest(sub)
    members = frozenset(verts[i] for i in res.best_subset.ids())
    out = (members, res.value)
    cache[key] = out
    return out


def local_detect(
    g: Graph, dtilde: Fraction, eps: Fraction
) -> tuple[DetectionOutput, RoundTrace]:
    """Mark a vertex set of density at least (1-eps)*dtilde, LOCAL model.

    The marked set is empty only when no radius-r ball holds a subgraph
    that dense, which cannot happen for dtilde <= D. Rounds charged:
    (r+1) ball gathering + 2r active-flag gossip + (r+1) winner broadcast.
    """
    dtilde, eps = Fraction(dtilde), Fraction(eps)
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    if dtilde < 0:
        raise ValueError("dtilde must be non-negative")
    r = detection_radius(g.n, eps)
    balls, trace = collect_ball(g, r)
    threshold = (1 - eps) * dtilde
    cache: dict = {}
    best: list[tuple[frozenset[int], Fraction] | None] = [None] * g.n
    active = [False] * g.n
    for v in range(g.n):
        verts, edges = balls[v]
        members, value = _ball_optimum(g, verts, edges, cache)
        best[v] = (members, value)
        active[v] = value >= threshold
    # active flags travel 2r hops so actives can compare ids
    _charge_flag_gossip(g, 2 * r, trace)
    black = []
    for v in range(g.n):
        if not active[v]:
            continue
        dist = g.distances_from(v)
        if all(
            not (active[u] and u < v)
            for u in range(g.n)
            if 0 <= dist[u] <= 2 * r
        ):
            black.append(v)
    marked: set[int] = set()
    sources = {}
    for v in black:
        members, _ = best[v]
        marked |= members
        sources[v] = len(members)
    _charge_subset_broadcast(g, sources, r, trace)
    out = DetectionOutput(Subset(g.n, sorted(marked)), tuple(black), r)
    return out, trace


def _directed_ball_optimum(dg: DirectedGraph, verts, cache):
    key = frozenset(verts)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if len(verts) > DIRECTED_BALL_CAP:
        raise ValueError(
            f"ball of {len(verts)} vertices is too large for the exact "
            f"directed oracle (cap {DIRECTED_BALL_CAP})"
        )
    pos = {v: i for i, v in enumerate(verts)}
    inside = set(verts)
    arcs = [
        (pos[a], pos[b]) for a, b in dg.arcs if a in inside and b in inside
    ]
    res = oracle.brute_directed_densest(DirectedGraph(len(verts), arcs))
    s_loc, t_loc = res.best_subset
    out = (
        frozenset(verts[i] for i in s_loc.ids()),
        frozenset(verts[i] for i in t_loc.ids()),
        res.value,  # squared density
    )
    cache[key] = out
    return out


def local_detect_directed(
    dg: DirectedGraph, dtilde: Fraction, eps: Fraction
) -> tuple[DirectedDetectionOutput, RoundTrace]:
    """Directed variant: per-vertex (s, t) tags naming local dense pairs.

    Balls are collected over the underlying undirected graph; each black
    vertex tags the members of its locally optimal (S, T) pair. Pairs of
    distinct black vertices never merge: far-apart dense pairs would lose
    density if unioned, so the output stays local by design.
    """
    dtilde, eps = Fraction(dtilde), Fraction(eps)
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    if dtilde < 0:
        raise ValueError("dtilde must be non-negative")
    und = dg.underlying()
    r = detection_radius(dg.n, eps)
    balls, trace = collect_ball(und, r)
    thr = (1 - eps) * dtilde
    thr_sq = thr * thr
    cache: dict = {}
    best = [None] * dg.n
    active = [False] * dg.n
    for v in range(dg.n):
        verts, _ = balls[v]
        s_set, t_set, sq = _directed_ball_optimum(dg, verts, cache)
        best[v] = (s_set, t_set)
        active[v] = sq >= thr_sq and len(s_set) > 0
    _charge_flag_gossip(und, 2 * r, trace)
    black = []
    for v in range(dg.n):
        if not active[v]:
            continue
        dist = und.distances_from(v)
        if all(
            not (active[u] and u < v)
            for u in range(dg.n)
            if 0 <= dist[u] <= 2 * r
        ):
            black.append(v)
    s_tag = [0] * dg.n
    t_tag = [0] * dg.n
    sources = {}
    for v in black:
        s_set, t_set = best[v]
        for u in s_set:
            s_tag[u] = v + 1
        for u in t_set:
            t_tag[u] = v + 1
        sources[v] = len(s_set) + len(t_set)
    _charge_subset_broadcast(und, sources, r, trace)
    out = DirectedDetectionOutput(
        tuple(s_tag), tuple(t_tag), tuple(black), r
    )
    return out, trace
