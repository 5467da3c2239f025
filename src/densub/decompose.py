"""Randomized low-diameter clustering via exponential start-time shifts.

Every vertex draws a shift from Exp(eps) truncated at the budget
delta = ceil((3/eps) * ln n), wakes at round floor(delta - shift) + 1, and
claims unclaimed territory by a breadth-first race; a vertex joins the
center whose shifted distance reaches it first, ties to the smaller center
id. Truncation makes the radius bound delta hold on every run, not just
with high probability, and each edge is cut with probability about eps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .engine import CONGEST, RoundTrace, SimConfig, VertexProgram, run
from .graphs import Graph

__all__ = ["Clustering", "ldd", "ldd_traced", "shift_budget"]


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


@functools.lru_cache(maxsize=64)
def _atanh_bounds(a: int, b: int, prec: int) -> tuple[int, int]:
    """lo <= 2**prec * atanh(a/b) <= hi, for 0 <= a/b <= 1/3.

    Sums the series y^(2j+1)/(2j+1) in fixed point. Each power is floored
    from the last, so it lags its true value by less than 9/8 (y^2 <= 1/9);
    a term then loses less than 2.2 units, and once the power reaches 0 the
    tail is below 1.3 units.
    """
    total = terms = 0
    power = (a << prec) // b
    while power:
        total += power // (2 * terms + 1)
        power = power * a * a // (b * b)
        terms += 1
    return total, total + 3 * terms + 2


def shift_budget(n: int, eps: Fraction) -> int:
    """Start-time budget delta = ceil((3/eps) * ln n), exactly.

    With n = 2^k * r, 1 <= r < 2, ln n = 2k*atanh(1/3) + 2*atanh((r-1)/(r+1));
    fixed-point bounds on both are refined until they agree on the
    ceiling. For n >= 2, ln n is irrational, so they eventually do.
    """
    if n <= 1:
        return 1
    eps = Fraction(eps)
    k = n.bit_length() - 1
    prec = 32
    while True:
        lo2, hi2 = _atanh_bounds(1, 3, prec)
        lor, hir = _atanh_bounds(n - (1 << k), n + (1 << k), prec)
        # (3/eps) * ln n = 6*den*(k*atanh(1/3) + atanh(y)) / num, the
        # atanh values in units of 2^-prec
        scale = eps.numerator << prec
        lo = -(-6 * eps.denominator * (k * lo2 + lor) // scale)
        hi = -(-6 * eps.denominator * (k * hi2 + hir) // scale)
        if lo == hi:
            return max(1, lo)
        prec *= 2


class _ClusterRace(VertexProgram):
    """Claim wave: each vertex announces its center once, when claimed.

    A vertex is stepped once: when the first claim reaches it or at its
    wake round, whichever comes first; then it halts.
    """

    def __init__(self, budget: int, eps_float: float):
        self.budget = budget
        self.eps = eps_float

    def init(self, ctx):
        u = (ctx.rand(0).getrandbits(64) + 1) * 2.0**-64
        shift = min(-math.log(u) / self.eps, float(self.budget))
        wake = int(math.floor(self.budget - shift)) + 1
        return {"wake": wake, "center": -1}

    def idle_until(self, state):
        return state["wake"]

    def step(self, ctx, state, rnd, inbox):
        center = min(inbox.values(), default=None)
        if rnd >= state["wake"] and (center is None or ctx.vertex < center):
            center = ctx.vertex
        if center is None:
            return state, {}, False
        state = {"wake": state["wake"], "center": center}
        return state, {e: center for e in ctx.incident}, True

    def output(self, ctx, state):
        return state["center"]


def ldd_traced(
    g: Graph, eps: Fraction, seed: int, cap_bits: int | None = None
) -> tuple[Clustering, RoundTrace]:
    """Clustering plus the round/bit trace of the claim race."""
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    budget = shift_budget(g.n, eps)
    cfg = SimConfig(
        model=CONGEST,
        enforcement="permissive" if g.n < 16 else "strict",
        max_rounds=budget + 2,
        seed=seed,
        cap_bits=cap_bits,
    )
    centers_of, trace = run(g, _ClusterRace(budget, float(eps)), cfg)
    cut = sum(1 for u, v in g.edges if centers_of[u] != centers_of[v])
    centers = tuple(sorted({c for c in centers_of}))
    return (
        Clustering(tuple(centers_of), centers, cut, budget),
        trace,
    )


def ldd(g: Graph, eps: Fraction, seed: int) -> Clustering:
    """Low-diameter decomposition; deterministic for a fixed seed."""
    return ldd_traced(g, eps, seed)[0]
