"""Integer-only multiplicative-weights solvers for the density LP pair.

Both solvers run the same load dynamics as a CONGEST vertex program: in
each iteration every vertex hands out z units of budget to its currently
lightest incident edges (two units each to the lightest ceil(z/2)-1, the
remainder rho = z - 2*(ceil(z/2)-1) to the next), and edge loads grow by
the two endpoints' grants. With rho = p/q in lowest terms, every load and
grant total is one integer per port counting units of 1/q, and a grant
travels as one small code per edge per round (2 or rho); the exponential
weights (1-eps)^load exist only in the analysis and are never
materialized.

The dual solver averages the grants into edge-endpoint values alpha that,
for z at least the maximum subgraph density, form a feasible fractional
orientation of cost (1+2*eps)*z. The primal solver watches the loads and
extracts a subgraph of density at least (1-3*eps)*z as soon as one shows
up among the low-load level sets. At least one of the two always delivers.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, groupby
from math import gcd
from operator import itemgetter

from .engine import (
    RoundTrace,
    VertexProgram,
    _component_diameter,
    _local_nbrs,
    congest_cap,
    msg_bits,
    run,
)
from .graphs import (
    Graph,
    ceil_ln,
    ceil_log2,
    format_ratio,
    frac_ceil,
    is_neg_pow2,
)

__all__ = [
    "DualSolution",
    "fractional_dual",
    "integral_primal",
    "alpha_bit_width",
    "alpha_fraction_bits",
    "default_iterations",
    "load_range_bound",
]


def default_iterations(n: int, eps: Fraction) -> int:
    """ceil((8/eps^2) * ln n), exactly, rounded up to a power of 2; n < 2
    counts as 2."""
    raw = ceil_ln(8 / Fraction(eps) ** 2, max(n, 2))
    return 1 << max(raw - 1, 1).bit_length()


def load_range_bound(m: int, eps: Fraction) -> int:
    """Integer upper bound on (1/eps) * ln(2m/eps) without floats.

    Uses ln x <= bits(x) * ln 2 < bits(x) * 7/10 where bits is the exact
    ceiling of log2; over-approximation only widens the scanned window.
    """
    if m < 1:
        return 0
    bits = ceil_log2(Fraction(2 * m) / eps)
    return frac_ceil(Fraction(1) / eps * bits * Fraction(7, 10))


class _LoadProgram(VertexProgram):
    """Shared load dynamics; grants travel as one small code per port.
    Grant shape: 2 to the lightest cz - 1 ports, rho = p/q to the next."""

    def __init__(self, z: Fraction, iterations: int):
        self.cz = frac_ceil(z / 2)
        rho = z - 2 * (self.cz - 1)
        self.p, self.q = rho.numerator, rho.denominator
        self.T = iterations

    def init(self, ctx):
        deg = ctx.degree
        return {
            # grant order: load (in units of 1/q) * deg + i per port i;
            # adjacency is sorted by edge id, so ties break by edge id
            "key": list(range(deg)),
            "tot": [0] * deg,  # own grants so far per port, units of 1/q
            "pend": None,  # (ports granted 2, port granted rho or -1)
            "order": list(range(deg)),  # ports in grant order
        }

    def step(self, ctx, state, rnd, inbox):
        key = state["key"]
        deg = len(key)
        two, rho = 2 * self.q, self.p  # grant sizes in units of 1/q
        up2, up1 = two * deg, rho * deg
        pend = state["pend"]
        if pend is not None:
            # apply iteration rnd-1: own grants plus partner codes
            twos, one = pend
            for i in twos:
                key[i] += up2
            if one >= 0:
                key[one] += up1
            for i, code in inbox.items():
                key[i] += up2 if code == 2 else up1
        if rnd > self.T:
            state["pend"] = None
            return state, (), True
        # codes for this iteration: 2 for the lightest cz-1, 1 for the next
        cz = self.cz
        # last round's order is nearly sorted, so re-sorting it is cheap
        order = state["order"]
        order.sort(key=key.__getitem__)
        tot = state["tot"]
        twos = order[: cz - 1]
        for i in twos:
            tot[i] += two
        outbox = [(2, twos)]
        one = -1
        if deg >= cz:
            one = order[cz - 1]
            tot[one] += rho
            outbox.append((1, (one,)))
        state["pend"] = (twos, one)
        return state, outbox, False


@dataclass
class DualSolution:
    """Endpoint values alpha = shares[2e + s] / den, with exact feasibility
    flags; side s = 0 of edge e is edges[e][0], the smaller endpoint."""

    shares: list[int]
    den: int
    edges: tuple[tuple[int, int], ...] = field(repr=False)
    z: Fraction
    eps: Fraction
    iterations: int
    feasible: bool
    bit_width: int

    def to_json(self) -> dict:
        text = {s: format_ratio(Fraction(s, self.den)) for s in set(self.shares)}
        ends = chain.from_iterable(self.edges)
        entries = [
            [x >> 1, v, text[s]]
            for x, (v, s) in enumerate(zip(ends, self.shares))
        ]
        return {
            "z": format_ratio(self.z),
            "eps": format_ratio(self.eps),
            "T": self.iterations,
            "alpha": entries,
            "feasible": self.feasible,
            "bit_width": self.bit_width,
        }


def _check_pre(
    n: int, z: Fraction, eps: Fraction, T_override: int | None
) -> tuple[Fraction, Fraction, int]:
    """Checked z and eps, and the iteration count (T_override or default)."""
    z, eps = Fraction(z), Fraction(eps)
    if z <= 0:
        raise ValueError("z must be positive")
    if not (0 < eps <= Fraction(1, 4)):
        raise ValueError("eps must lie in (0, 1/4]")
    T = default_iterations(n, eps) if T_override is None else T_override
    if T < 1:
        raise ValueError(f"T_override must be positive, got {T}")
    return z, eps, T


def _assemble_dual(
    g: Graph, outs, z: Fraction, eps: Fraction, T: int, q: int
) -> DualSolution:
    scale = 1 + 2 * eps
    # grant totals t count units of 1/q over T iterations,
    # so alpha = t * scale / (q*T) = t * num / den
    num, den = scale.numerator, q * T * scale.denominator
    shares = [0] * (2 * g.m)
    vertex_ok = True
    for v in range(g.n):
        tot = outs[v]["tot"]
        for eid, u, t in zip(g.adj[v], g.neighbors(v), tot):
            shares[2 * eid + (u < v)] = t * num
        # sum alpha <= scale * z  <=>  sum(tot) <= z * q * T
        if sum(tot) * z.denominator > z.numerator * q * T:
            vertex_ok = False
    # alpha_u + alpha_v >= 1  <=>  the edge's two shares sum to den or more
    it = iter(shares)
    feasible = vertex_ok and all(a + b >= den for a, b in zip(it, it))
    # the widest reduced numerator; zero counts one bit
    width = max([1, *((s // gcd(s, den)).bit_length() for s in set(shares))])
    return DualSolution(shares, den, g.edges, z, eps, T, feasible, width)


def fractional_dual(
    g: Graph,
    z: Fraction,
    eps: Fraction,
    T_override: int | None = None,
) -> tuple[DualSolution, RoundTrace]:
    """Averaged, (1+2*eps)-scaled grant shares per edge endpoint.

    With z at least the maximum subgraph density, the result is feasible
    for the orientation LP at cost (1+2*eps)*z (checked exactly and
    reported in the solution's `feasible` flag).
    """
    z, eps, T = _check_pre(g.n, z, eps, T_override)
    loads = _LoadProgram(z, T)
    outs, trace = run(g, loads, T + 2, congest_cap(g.n))
    return _assemble_dual(g, outs, z, eps, T, loads.q), trace


class _PrimalDetector:
    """Per-iteration level-set scan with charged aggregation rounds.

    The wire protocol this stands for: per component and iteration, a
    min-convergecast of floor(load) on a BFS tree (2*diam+2 rounds), then a
    pipelined stream of (|V'_l|, |E(V'_l)|) pairs, one word per tree edge
    per round (diam+1+2*span rounds), then one broadcast round on success.
    Load minima travel as offsets from the previous iteration's minimum
    (the band of loads is narrow, the global minimum only grows), so every
    word stays well inside a CONGEST word. Rounds and bits are charged
    accordingly; every word is also checked against the cap.

    Each vertex reads its loads off its grant order, the ports the load
    program sorted by key this round: floor(load) and ceil(load) are
    monotone in the key, and an edge's load is the same at both of its
    ends, so that one order gives the load band, the vertex's join level
    (the ceil of its cz-th lightest edge) and its highest edge level in the
    window. The keys do not yet hold this round's own grants.
    """

    def __init__(
        self, g: Graph, z: Fraction, eps: Fraction, loads: _LoadProgram,
        cap: int,
    ):
        self.cap = cap
        self.cz = loads.cz
        thr = (1 - 3 * eps) * z
        self.thr_num = thr.numerator
        self.thr_den = thr.denominator
        comps = g.components()
        q = loads.q
        self.parts = []
        for ci, comp in enumerate(comps):
            mc = sum(map(g.degree, comp)) // 2
            if not mc:
                continue
            # per vertex: its key divisor deg*q and ceiling offset (q-1)*deg
            ports = [(v, g.degree(v) * q, (q - 1) * g.degree(v)) for v in comp]
            nbrs = _local_nbrs(g, comp)
            self.parts.append((
                ci, ports, nbrs, _component_diameter(nbrs), mc,
                load_range_bound(mc, eps),
            ))
        self.prev_lmin = [0] * len(comps)
        self.trace = RoundTrace()

    def _charge_word(self, value: int, copies: int) -> None:
        bits = msg_bits(value)
        self.trace.charge(bits, copies)
        if bits > self.cap and copies > 0:
            self.trace.violations.append(
                (self.trace.rounds_executed + 1, -1, bits)
            )

    def scan(self, rnd: int, states) -> list[int]:
        """Scan the loads after iteration rnd-1, read off the load states.
        Returns the vertices of every component's winning level set."""
        cz, thr_num, thr_den = self.cz, self.thr_num, self.thr_den
        winners: list[int] = []
        round_cost = 0
        for ci, ports, nbrs, diam, mc, load_range in self.parts:
            tree_edges = len(ports) - 1
            # key // (deg*q) is floor(load): the port adds less than deg
            kos = [(states[v]["key"], states[v]["order"]) for v, _, _ in ports]
            l_min = min([k[o[0]] // dq for (k, o), (_, dq, _) in zip(kos, ports)])
            floor_max = max([
                k[o[-1]] // dq for (k, o), (_, dq, _) in zip(kos, ports)
            ])
            l_max = l_min + load_range
            # v joins V'_l once cz of its edges have ceil(load) <= l; the set
            # only changes at join levels, so only those are tested
            joins = sorted([
                ((k[o[cz - 1]] + up) // dq, x)
                for x, ((k, o), (_, dq, up)) in enumerate(zip(kos, ports))
                if len(o) >= cz
            ])
            inside = bytearray(len(ports))
            size = e_inside = 0
            win = None
            for level, group in groupby(joins, itemgetter(0)):
                if level > l_max:
                    break
                for _, x in group:
                    for y in nbrs[x]:
                        e_inside += inside[y]
                    inside[x] = 1
                    size += 1
                if e_inside * thr_den >= thr_num * size:
                    win = level
                    break
            top = win
            if win is None:
                # the pair stream runs to the highest edge level in the
                # window, joined by a vertex there or not
                top = max([
                    (k[o[i - 1]] + up) // dq
                    for (k, o), (_, dq, up) in zip(kos, ports)
                    if (i := bisect_left(
                        o, (l_max + 1) * dq - up, key=k.__getitem__
                    ))
                ])
            span = top - l_min + 1
            # minima travel as offsets within the load band: subtree minima
            # up the tree (at most floor_max - prev), the result back down
            prev = self.prev_lmin[ci]
            self._charge_word(max(floor_max - prev, 0), tree_edges)
            self._charge_word(max(l_min - prev, 0), tree_edges)
            self.prev_lmin[ci] = l_min
            self._charge_word(len(ports), tree_edges * span)
            self._charge_word(mc, tree_edges * span)
            rounds_ci = (2 * diam + 2) + (diam + 1 + 2 * span)
            if win is not None:
                winners += [v for (v, _, _), x in zip(ports, inside) if x]
                rounds_ci += diam + 1
                self._charge_word(win - l_min, tree_edges)
            round_cost = max(round_cost, rounds_ci)
        self.trace.rounds_executed += round_cost
        return winners


def integral_primal(
    g: Graph,
    z: Fraction,
    eps: Fraction,
    T_override: int | None = None,
    cap_bits: int | None = None,
) -> tuple[tuple[int, ...] | None, RoundTrace]:
    """Load-guided search for a subgraph of density at least (1-3*eps)*z.

    Runs the grant dynamics and, each iteration, scans the level sets
    V'_l = {v : at least ceil(z/2) incident edges have ceil(load) <= l}
    for l in a window above the minimum floor(load); the first level set
    passing the exact density test is returned and the run stops. No
    output within the iteration budget is a legal outcome.
    """
    z, eps, T = _check_pre(g.n, z, eps, T_override)
    loads = _LoadProgram(z, T)
    cap = congest_cap(g.n) if cap_bits is None else cap_bits
    detector = _PrimalDetector(g, z, eps, loads, cap)
    found: list[int] = []

    def hook(rnd: int, states) -> bool:
        if rnd <= T:
            found.extend(detector.scan(rnd, states))
        return bool(found)

    _, trace = run(g, loads, T + 2, cap, round_hook=hook)
    trace.then(detector.trace)
    return (tuple(sorted(found)) if found else None), trace


def alpha_bit_width(sol: DualSolution) -> int:
    """Exact serialized width of the averaged values, with its guarantee.

    Requires integer z, eps a negative power of two, and a power-of-two
    iteration count; then every alpha is a dyadic rational whose numerator
    fits in log2(T) + log2(1/eps) + 4 bits (asserted here).
    """
    if sol.z.denominator != 1:
        raise ValueError("bit-width accounting requires integer z")
    if not is_neg_pow2(sol.eps):
        raise ValueError("bit-width accounting requires eps a negative power of 2")
    T = sol.iterations
    if T & (T - 1):
        raise ValueError("bit-width accounting requires a power-of-two T")
    bound = (
        T.bit_length() - 1 + (sol.eps.denominator.bit_length() - 1) + 4
    )
    if sol.bit_width > bound:
        raise AssertionError(
            f"alpha width {sol.bit_width} exceeds the {bound}-bit guarantee"
        )
    return sol.bit_width


def alpha_fraction_bits(sol: DualSolution) -> int:
    """Max number of bits after the binary point across all alpha values."""
    bits = 0
    for s in set(sol.shares):
        den = sol.den // gcd(s, sol.den)
        if den & (den - 1):
            raise ValueError("alpha denominators are not all powers of 2")
        bits = max(bits, den.bit_length() - 1)
    return bits
