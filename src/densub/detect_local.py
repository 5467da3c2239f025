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
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import or_

from .decompose import shift_budget
from .engine import RoundTrace, _local_nbrs, _sweep, collect_ball, msg_bits
from .graphs import Graph
from . import oracle

__all__ = ["detection_radius", "local_detect"]


def detection_radius(n: int, eps: Fraction) -> int:
    """Twice the eps/2 clustering budget: r = 2 * ceil((6/eps) * ln n)."""
    return 2 * shift_budget(n, Fraction(eps) / 2)


def _ball_optimum(g: Graph, verts, edges):
    """Exact densest subgraph inside one ball of g, in original vertex ids.

    Every ball goes through the certified min-cut oracle. Its witness is a
    deterministic function of the ball (with ties, the minimal min-cut side
    of the last improving test), so equal balls stamp equal sets. A ball
    holding every vertex is g itself, and g keeps its solved result for
    later callers; any other ball's sorted ids relabel its canonical edges
    monotonically, so they stay canonical.
    """
    if len(verts) == g.n:
        sub = g
    else:
        pos = {v: i for i, v in enumerate(verts)}
        sub = Graph._canonical(len(verts), [(pos[a], pos[b]) for a, b in edges])
    res = oracle.exact_densest(sub)
    return tuple(verts[i] for i in res.best_subset), res.value


def local_detect(
    g: Graph, dtilde: Fraction, eps: Fraction
) -> tuple[tuple[int, ...], tuple[int, ...], RoundTrace]:
    """Mark a vertex set of density at least (1-eps)*dtilde, LOCAL model.

    Returns (marked, black, trace), marked and black each a sorted tuple
    of ids. The marked set is empty only when no radius-r ball holds a
    subgraph that dense, which cannot happen for dtilde <= D. Charged phases:
    (r+1)-round ball gathering, 2r rounds of (id, flag) gossip (after k
    rounds a vertex has heard of everything within distance k, one entry
    each), and the winners' stamps flooding r hops, every arc of a black
    vertex's ball relaying the stamp once per round for r+1 rounds.
    """
    dtilde, eps = Fraction(dtilde), Fraction(eps)
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    if dtilde < 0:
        raise ValueError("dtilde must be non-negative")
    r = detection_radius(g.n, eps)
    balls, trace = collect_ball(g, r)
    threshold = (1 - eps) * dtilde
    # equal balls are solved once
    solved = {vs: _ball_optimum(g, vs, es) for vs, es in dict(balls).items()}
    best = [solved[verts] for verts, _ in balls]
    active = [value >= threshold for _, value in best]
    # one all-sources sweep to 2r per component feeds the gossip charge and
    # the election: black means active with no smaller active id within 2r
    reach, w, black = 2 * r, msg_bits(g.n - 1) + 1, []
    for comp in g.components():
        nbrs = _local_nbrs(g, comp)
        # after k rounds v has heard of B_k(v), so round k+1 carries |B_k|
        # entries, B_{2r-1} in the last
        heard = [0] * len(comp)
        rows = [1 << i for i in range(len(comp))]
        for rows, times in _sweep(nbrs, rows, reach):
            heard = [h + times * x.bit_count() for h, x in zip(heard, rows)]
        act = sum(1 << i for i, v in enumerate(comp) if active[v])
        for i, v in enumerate(comp):
            if g.degree(v):
                trace.total_bits += g.degree(v) * (4 * reach + w * heard[i])
                trace.charge(4 + rows[i].bit_count() * w, 0)
            if active[v]:
                # B_2r(v) is the union of B_{2r-1} over v and its neighbours
                seen = reduce(or_, map(rows.__getitem__, nbrs[i]), rows[i])
                seen &= act
                if seen & -seen == 1 << i:
                    black.append(v)
    black.sort()
    trace.rounds_executed += reach
    w = msg_bits(g.n - 1)
    for v in black:
        trace.charge(4 + len(best[v][0]) * w, 2 * len(balls[v][1]) * (r + 1))
    trace.rounds_executed += r + 1
    marked = set().union(*(best[v][0] for v in black))
    return tuple(sorted(marked)), tuple(black), trace
