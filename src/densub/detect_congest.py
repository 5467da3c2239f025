"""Randomized dense-subgraph detection and approximation in CONGEST.

Each trial draws a fresh low-diameter clustering and runs the load-guided
primal search inside every cluster that holds no previously marked vertex;
subgraphs it finds are marked for good. Marks from different trials sit in
disjoint clusters, so the union keeps the per-piece density bound. The
clustering makes some cluster contain a nearly-densest subgraph with
constant probability per trial, and the trial count turns that into a
high-probability guarantee.

The approximation wrapper sweeps guesses 1, (1+eps), (1+eps)^2, ... and
keeps, per connected component, the marks of the highest guess that
succeeded anywhere in that component.
"""

from __future__ import annotations

from fractions import Fraction

from . import engine
from .decompose import ldd_traced
from .engine import (
    _MASK64,
    _MIX1,
    _MIX2,
    RoundTrace,
    congest_cap,
    merge_parallel,
)
from .graphs import Graph, density
from .mwu import integral_primal

__all__ = ["congest_detect", "approx_densest", "default_trials", "phase_count"]

PRIMAL_ITERATIONS = 64


def _mix(seed: int, salt: int) -> int:
    return (seed * _MIX1 + (salt + 1) * _MIX2) & _MASK64


def default_trials(n: int) -> int:
    return max(n - 1, 1).bit_length() + 5 if n > 1 else 6


def congest_detect(
    g: Graph,
    dtilde: Fraction,
    eps: Fraction,
    seed: int,
    trials_override: int | None = None,
) -> tuple[tuple[int, ...], RoundTrace]:
    """Mark a vertex set of density at least (1-eps)*dtilde, CONGEST model.

    Marking is monotone within a run: once marked, a vertex stays marked,
    and clusters that already contain marked vertices are skipped (checked
    by a cluster-local OR convergecast, charged at the 2*budget diameter
    bound). Per cluster the primal runs with z = (1-eps/2)*dtilde and
    accuracy eps/8; its acceptance threshold (1-3*eps/8)*z exceeds
    (1-eps)*dtilde, so soundness holds on every run regardless of seeds.
    The primal takes no seed: its run is a function of the cluster's
    members, so a cluster that already missed in this call is charged its
    first run's trace again instead of being run again.
    """
    dtilde, eps = Fraction(dtilde), Fraction(eps)
    if not (0 < eps < Fraction(1, 4)):
        raise ValueError("eps must lie in (0, 1/4)")
    if dtilde < 0:
        raise ValueError("dtilde must be non-negative")
    trials = default_trials(g.n) if trials_override is None else trials_override
    if trials < 1:
        raise ValueError(f"trials_override must be positive, got {trials}")
    if dtilde == 0:
        return tuple(range(g.n)), RoundTrace()
    cap = congest_cap(g.n)
    z = (1 - eps / 2) * dtilde
    eps_inner = eps / 8
    marked = [False] * g.n
    # members of each cluster that missed -> its primal trace (None: the
    # cluster has no edges); a cluster that found a subgraph is marked
    misses: dict[tuple[int, ...], RoundTrace | None] = {}
    trace = RoundTrace()
    for trial in range(trials):
        clustering, ldd_trace = ldd_traced(g, eps / 2, _mix(seed, trial))
        trace.then(ldd_trace)
        # cluster-local OR over marked bits: up+down a BFS tree whose depth
        # is bounded by the clustering budget, one 8-bit word each way
        cluster_map = clustering.clusters()
        trace.rounds_executed += 4 * clustering.budget + 2
        if g.m:
            trace.charge(8, 2 * (g.n - len(cluster_map)))
        cluster_traces = []
        for center in sorted(cluster_map):
            members = cluster_map[center]
            if any(marked[v] for v in members):
                continue
            key = tuple(members)
            if key in misses:
                ptrace = misses[key]
            else:
                sub, old_ids = g.induced(members)
                got = ptrace = None
                if sub.m:
                    got, ptrace = integral_primal(
                        sub, z, eps_inner, T_override=PRIMAL_ITERATIONS,
                        cap_bits=cap,
                    )
                if got is None:
                    misses[key] = ptrace
                else:
                    for i in got:
                        marked[old_ids[i]] = True
            if ptrace is not None:
                cluster_traces.append(ptrace)
        if cluster_traces:
            trace.then(merge_parallel(cluster_traces))
    return tuple(v for v in range(g.n) if marked[v]), trace


def phase_count(n: int, eps: Fraction) -> int:
    """Smallest k with (1+eps)^k >= n."""
    k = 0
    val = Fraction(1)
    while val < n:
        val *= 1 + eps
        k += 1
    return k


def approx_densest(
    g: Graph, eps: Fraction, seed: int
) -> tuple[tuple[int, ...], Fraction, RoundTrace]:
    """(1-eps)-approximate densest subgraph via geometric guessing.

    Runs the detector at guesses (1+eps)^i for i = 0..ceil(log_{1+eps} n);
    every vertex remembers its highest successful phase, each component
    settles on its component-wide best phase by an aggregate, and the
    marks of that phase form the output. Returns (marks, exact density of
    the marks, trace); the density is 0 for an empty output.
    """
    eps = Fraction(eps)
    if not (0 < eps < Fraction(1, 4)):
        raise ValueError("eps must lie in (0, 1/4)")
    phases = phase_count(g.n, eps) + 1
    psi = [-1] * g.n
    trace = RoundTrace()
    guess = Fraction(1)
    for i in range(phases):
        sub, tr = congest_detect(g, guess, eps, _mix(seed, 1000 + i))
        trace.then(tr)
        for v in sub:
            psi[v] = i
        guess *= 1 + eps
    # called through the module, so a wrapper installed there sees the call
    neg_best, agg_trace = engine.component_aggregate(g, [-p for p in psi])
    trace.then(agg_trace)
    # psi[v] is the last phase that marked v, so v is in that phase's marks
    final = tuple(
        v for v in range(g.n) if psi[v] >= 0 and psi[v] == -neg_best[v]
    )
    return final, density(g, final) if final else Fraction(0), trace
