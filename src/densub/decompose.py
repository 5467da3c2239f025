"""Randomized low-diameter clustering via exponential start-time shifts.

Every vertex draws a shift from Exp(eps) truncated at the budget
delta = ceil((3/eps) * ln n), wakes at round floor(delta - shift) + 1, and
claims unclaimed territory by a breadth-first race; a vertex joins the
center whose shifted distance reaches it first, ties to the smaller center
id. Truncation makes the radius bound delta hold on every run, not just
with high probability, and each edge is cut with probability about eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .engine import RoundTrace, VertexProgram, congest_cap, run
from .graphs import Graph, ceil_ln

__all__ = ["Clustering", "ldd_traced", "shift_budget"]


@dataclass(frozen=True)
class Clustering:
    """Partition into connected clusters keyed by their center vertex."""

    cluster_of: tuple[int, ...]
    centers: tuple[int, ...]
    cut_edges: int
    budget: int  # the start-time budget delta; cluster radius <= budget

    def clusters(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for v, c in enumerate(self.cluster_of):
            out.setdefault(c, []).append(v)
        return out


def shift_budget(n: int, eps: Fraction) -> int:
    """Start-time budget delta = ceil((3/eps) * ln n), exactly (at least 1)."""
    if n <= 1:
        return 1
    return max(1, ceil_ln(3 / Fraction(eps), n))


class _ClusterRace(VertexProgram):
    """Claim wave: each vertex announces its center once, when claimed.

    A vertex is stepped once: when the first claim reaches it or at its
    wake round, whichever comes first; then it halts. Its state is its
    wake round until then and its center afterwards.
    """

    def __init__(self, budget: int, eps_float: float):
        self.budget = budget
        self.eps = eps_float

    def init(self, ctx):
        u = (ctx.rand(0).getrandbits(64) + 1) * 2.0**-64
        shift = min(-math.log(u) / self.eps, float(self.budget))
        return int(math.floor(self.budget - shift)) + 1

    def idle_until(self, wake):
        return wake

    def step(self, ctx, wake, rnd, inbox):
        center = min(inbox.values(), default=None)
        if rnd >= wake and (center is None or ctx.vertex < center):
            center = ctx.vertex
        if center is None:
            return wake, (), False
        return center, [(center, range(ctx.degree))], True


def ldd_traced(
    g: Graph, eps: Fraction, seed: int
) -> tuple[Clustering, RoundTrace]:
    """Clustering plus the round/bit trace of the claim race."""
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    budget = shift_budget(g.n, eps)
    race = _ClusterRace(budget, float(eps))
    centers_of, trace = run(g, race, budget + 2, congest_cap(g.n), seed)
    cut = sum(1 for u, v in g.edges if centers_of[u] != centers_of[v])
    centers = tuple(sorted(set(centers_of)))
    return (
        Clustering(tuple(centers_of), centers, cut, budget),
        trace,
    )
