"""Centralized exact ground truth for densities and orientations.

Two independent routes to the maximum subgraph density: an exhaustive search
over vertex subsets (small graphs) and Dinkelbach's iteration over
Goldberg's min-cut test, whose answer carries a checked certificate. The
minimum achievable max-outdegree, with a witness orientation read off one
integral max flow, rounds this out.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, Orientation, frac_ceil

__all__ = [
    "OracleResult",
    "exact_densest",
    "brute_densest",
    "min_max_outdegree",
    "witness_orientation",
]

BRUTE_VERTEX_CAP = 20


@dataclass(frozen=True)
class OracleResult:
    """Certified optimum: the witness (sorted ids) attains the maximum `value`."""

    best_subset: tuple[int, ...]
    value: Fraction


def _max_flow(
    n: int, s: int, t: int, to: list[int], cap: list[int]
) -> tuple[int, list[int]]:
    """Integer max flow from s to t, in place on cap, with its minimal min cut.

    FIFO push-relabel stopped after its first phase (Goldberg & Tarjan
    1988), with global relabeling and the gap heuristic at the constants of
    Cherkassky & Goldberg 1997. Arc i runs to node to[i] with residual
    capacity cap[i] and is reversed by arc i ^ 1. The source's arcs are
    saturated and each node is labeled with its residual distance to t, n
    if it has none; active nodes below n then push their excess down to
    lower labels until none is left, and t's excess is the flow f.

    Returns f and mark, >= 0 exactly on S: the residual reach of s and of
    every node left holding excess. S is the source side of the minimal min
    cut, which is the residual reach of s under every maximum flow:
    - No residual arc leaves S, and t is not in S: a node left with excess
      has label n, and a valid labeling with s at n puts such a node, and
      everything it reaches, out of t's reach.
    - No node outside S but t holds excess, so the net flow into V - S is
      f, which with no residual arc leaving S is the cut's capacity. Every
      cut's capacity is at least the excess on its sink side, so f is the
      max flow and S a min cut.
    - For every min cut (A, B), the net flow into B is at most the cut's
      capacity f and at least B's excess, so B holds no excess but t's and
      no residual arc leaves A: A contains S.
    When t's excess is all that s sent, no other node holds excess and the
    preflow is a flow.
    """
    head: list[list[int]] = [[] for _ in range(n)]
    for i in range(len(to)):
        head[to[i ^ 1]].append(i)
    excess = [0] * n
    for i in head[s]:
        excess[to[i]] += cap[i]
        cap[i ^ 1] += cap[i]
        cap[i] = 0
    active = deque(v for v in range(n) if excess[v] and v != t)
    # relabel globally before the first discharge, then whenever the work
    # since (arcs scanned by relabels, plus 12 each) reaches 12 per node
    # and 1 per arc
    work = every = 12 * n + len(to)
    while active:
        if work >= every:  # exact residual distances to t, n if none
            label, work = [n] * n, 0
            label[t] = 0
            q = [t]
            for v in q:  # BFS: the loop also visits the nodes it appends
                lv = label[v] + 1
                for i in head[v]:
                    u = to[i]
                    if cap[i ^ 1] and label[u] == n:
                        label[u] = lv
                        q.append(u)
            count = [0] * (n + 1)  # nodes per label; n is out of play
            for d in label:
                count[d] += 1
            cur = [0] * n  # each node's current arc
        v = active.popleft()
        d = label[v]
        arcs, j, ex = head[v], cur[v], excess[v]
        while d < n:
            while j < len(arcs):  # push down admissible arcs
                i = arcs[j]
                c = cap[i]
                if c and label[to[i]] == d - 1:
                    u = to[i]
                    if not excess[u] and u != t:
                        active.append(u)
                    if ex < c:  # the arc stays admissible: keep it current
                        cap[i] = c - ex
                        cap[i ^ 1] += ex
                        excess[u] += ex
                        ex = 0
                        break
                    cap[i] = 0
                    cap[i ^ 1] += c
                    excess[u] += c
                    ex -= c
                    if not ex:
                        break
                j += 1
            if not ex:
                break
            # relabel: one above the lowest residual neighbour
            work += len(arcs) + 12
            count[d] -= 1
            if count[d]:
                d = min(min((label[to[i]] for i in arcs if cap[i]), default=n) + 1, n)
            else:  # gap: nothing labeled above d can reach t any more
                for w in range(n):
                    if d < label[w] < n:
                        count[label[w]] -= 1
                        label[w] = n
                d = n
            count[d] += 1
            label[v], j = d, 0
        excess[v], cur[v] = ex, j
    # S: the residual reach of s and of every node left holding excess
    mark = [-1] * n
    q = [s] + [v for v in range(n) if excess[v] and v != t]
    for v in q:
        mark[v] = 0
    for v in q:  # BFS: the loop also visits the nodes it appends
        for i in head[v]:
            u = to[i]
            if cap[i] and mark[u] < 0:
                mark[u] = 0
                q.append(u)
    return excess[t], mark


def _transship(
    g: Graph, supply: list[int], fwd: int, back: int
) -> tuple[bool, list[int], set[int]]:
    """Route each vertex's surplus supply[v] > 0 to the deficits, along g.

    Edge e = (u, v) is arc 2e, carrying up to fwd from u to v and up to
    back from v to u; the source's arc to each surplus and each deficit's
    arc to the sink follow in vertex order. Returns whether all of it was
    routed, each edge's residual toward u (back plus its flow from u to v,
    a flow whenever all is routed) and the source side of the minimal min
    cut: the vertices the source reaches under every maximum flow.
    """
    to = [w for u, v in g.edges for w in (v, u)]
    cap = [fwd, back] * g.m
    for v, x in enumerate(supply):  # the source is node n, the sink n + 1
        if x:
            to += (v, g.n) if x > 0 else (g.n + 1, v)
            cap += (abs(x), 0)
    flow, mark = _max_flow(g.n + 2, g.n, g.n + 1, to, cap)
    reach = {v for v in range(g.n) if mark[v] >= 0}
    return flow >= sum(x for x in supply if x > 0), cap[1 : 2 * g.m : 2], reach


def _denser_than(g: Graph, guess: Fraction) -> tuple[set[int] | None, list[int]]:
    """A vertex set of density > guess, or a proof that none exists.

    Goldberg's construction: source->v with capacity m, v->sink with capacity
    m + 2*guess - deg(v), each edge with capacity 1 both ways; the min cut is
    m*n - 2*max_S (|E(S)| - guess*|S|). Capacities are scaled by the guess's
    denominator b to stay integral. The direct flow along every path s->v->t
    leaves v the surplus (deg(v) - 2*guess)*b, a deficit when negative, and
    no augmenting path or residual reach of s uses an arc into s or out of
    t, so what is left is that transshipment along the edges.

    Returns (S, []) when such an S exists, S the source side of the minimal
    min cut, the same for every maximum flow, which `_max_flow` reads off
    its preflow. Otherwise every surplus is routed, the preflow is a flow,
    and the result is (None, give): edge e = (u, v) hands v the share
    give[e] / (2b) of itself, that is b plus its flow toward v, and by flow
    conservation no vertex then carries more than guess. give depends on
    the flow found, and the certificate check reads it either way.
    """
    a, b = guess.numerator, guess.denominator
    supply = [g.degree(v) * b - 2 * a for v in range(g.n)]
    routed, give, reach = _transship(g, supply, b, b)
    return (None, give) if routed else (reach, [])


def _check_certificate(
    g: Graph, witness, value: Fraction, den: int, give: list[int]
) -> None:
    """Raise AssertionError unless (witness, give) proves that D(g) = value.

    The witness must attain `value`. Edge e = (u, v) hands give[e] / den of
    itself to v and the rest to u; every subgraph S has |E(S)| at most the
    total share of its vertices, so loads of at most `value` bound every
    density by `value`. Integers only, O(n + m).
    """
    if len(give) != g.m or not all(0 <= x <= den for x in give):
        raise AssertionError("oracle certificate: an edge share leaves [0, 1]")
    inside = g.induced_edge_count(witness)
    if not witness or inside * value.denominator != len(witness) * value.numerator:
        raise AssertionError("oracle certificate: the witness misses the value")
    load = [0] * g.n
    for (u, v), x in zip(g.edges, give):
        load[u] += den - x
        load[v] += x
    if max(load) * value.denominator > value.numerator * den:
        raise AssertionError("oracle certificate: a vertex load exceeds the value")


def _tree_shares(g: Graph, comps: list[list[int]], cap: int) -> list[int]:
    """Shares (over cap) loading no forest vertex above (cap - 1) / cap.

    Each tree is rooted at its smallest vertex; the edge above a vertex whose
    subtree has s vertices hands it 1 - s/cap, so a non-root carries exactly
    1 - 1/cap and a root of a k-vertex tree (k - 1)/cap, given cap >= k.
    """
    parent = list(range(g.n))  # roots are their own parent
    order = [c[0] for c in comps]
    for v in order:  # BFS: the loop also visits the children it appends
        for u in g.neighbors(v):
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    size = [1] * g.n
    for v in reversed(order):
        if parent[v] != v:
            size[parent[v]] += size[v]
    return [cap - size[v] if parent[v] == u else size[u] for u, v in g.edges]


def _peel_lower_bound(
    g: Graph,
) -> tuple[Fraction, set[int], list[int], list[int]]:
    """Best density among the suffixes of a min-degree peel order.

    Every suffix is a genuine subset, so the best one is an achievable
    lower bound on D with its witness in hand. Returns (bound, witness,
    peel order, each peeled vertex's degree at its removal).
    """
    deg = [g.degree(v) for v in range(g.n)]
    removed = [False] * g.n
    heap = [(deg[v], v) for v in range(g.n)]
    heapq.heapify(heap)
    remaining_n, remaining_m = g.n, g.m
    best_n, best_m = remaining_n, remaining_m
    best_step = 0
    order = []
    at = []
    while remaining_n > 0:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        order.append(v)
        at.append(d)
        remaining_n -= 1
        remaining_m -= deg[v]
        for u in g.neighbors(v):
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
        # a strictly denser suffix (never the empty one, 0 > 0 failing)
        if remaining_m * best_n > best_m * remaining_n:
            best_n, best_m = remaining_n, remaining_m
            best_step = len(order)
    witness = set(range(g.n)) - set(order[:best_step])
    return Fraction(best_m, best_n), witness, order, at


def exact_densest(g: Graph) -> OracleResult:
    """Maximum subgraph density: Dinkelbach's iteration on Goldberg's network.

    Forests are resolved directly (the largest tree component is optimal).
    Otherwise a min-degree peel supplies an attained lower bound lo with its
    witness, and vertices that no subgraph denser than lo can contain are
    stripped (k-core). On the remaining core, each min-cut test at lo either
    returns a denser set, whose density becomes lo and which becomes the
    witness, or proves that none exists (Dinkelbach 1967). lo rises strictly
    through finitely many densities, so the loop ends at D.

    Every answer is checked before it is returned (`_check_certificate`):
    the witness attains the value, and a fractional orientation of every
    edge loads no vertex above it. The orientation comes from the last
    max flow on the core, from the peel order off the core (a stripped
    vertex takes its edges to vertices stripped later or kept), and from
    subtree sizes on forests.

    The certified result is kept on `g` and returned by later calls: a
    Graph is immutable, so it cannot go stale.
    """
    if g._densest is not None:
        return g._densest
    if g.n == 0:
        raise ValueError("graph has no vertices")
    comps = g.components()
    if g.m == 0:
        witness, lo, den, give = {0}, Fraction(0), 1, []
    elif g.m == g.n - len(comps):
        # forest: within one tree the whole tree is densest, and a union of
        # trees is a mediant of their densities, never above the best
        lo, best = max((Fraction(len(c) - 1, len(c)), c) for c in comps)
        witness, den = best, len(best)
        give = _tree_shares(g, comps, den)
    else:
        lo, witness, order, at = _peel_lower_bound(g)
        # the peel's vertices before the first one removed at degree > lo
        # are V minus the (floor(lo)+1)-core, which holds every subgraph
        # denser than lo; gone[v] is v's peel rank, g.n for the core
        stripped = next((i for i, d in enumerate(at) if d > lo), g.n)
        gone = [g.n] * g.n
        for i, v in enumerate(order[:stripped]):
            gone[v] = i
        sub, old_ids = g.induced(v for v in range(g.n) if gone[v] == g.n)
        while True:
            better, flow_give = _denser_than(sub, lo)
            if better is None:
                break
            denser = Fraction(sub.induced_edge_count(better), len(better))
            if denser <= lo:  # else the loop could run forever
                raise AssertionError("oracle: a min-cut set is not denser than lo")
            witness, lo = {old_ids[i] for i in better}, denser
        den = 2 * lo.denominator
        # core edges keep the induced subgraph's (sorted) order
        core_shares = iter(flow_give)
        give = [
            next(core_shares) if gone[u] == gone[v]
            else den if gone[v] < gone[u]
            else 0
            for u, v in g.edges
        ]
    _check_certificate(g, witness, lo, den, give)
    g._densest = OracleResult(tuple(sorted(witness)), lo)
    return g._densest


def brute_densest(g: Graph) -> OracleResult:
    """Exhaustive maximum over all nonempty subsets (n <= 20).

    Ties are broken toward the lexicographically smallest sorted vertex
    tuple.
    """
    if g.n > BRUTE_VERTEX_CAP:
        raise ValueError(f"brute_densest refuses n > {BRUTE_VERTEX_CAP}")
    if g.n == 0:
        raise ValueError("graph has no vertices")
    adj_mask = [0] * g.n
    for u, v in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    total = 1 << g.n
    edge_count = [0] * total
    best_mask = 1
    best = Fraction(0)
    for mask in range(1, total):
        low = mask & (-mask)
        v = low.bit_length() - 1
        rest = mask ^ low
        cnt = edge_count[rest] + (adj_mask[v] & rest).bit_count()
        edge_count[mask] = cnt
        d = Fraction(cnt, mask.bit_count())
        if d > best or (
            d == best and _mask_ids(mask) < _mask_ids(best_mask)
        ):
            best = d
            best_mask = mask
    return OracleResult(_mask_ids(best_mask), best)


def _mask_ids(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def witness_orientation(g: Graph, alpha: int) -> Orientation | None:
    """An orientation with max outdegree <= alpha, or None if none exists.

    One transshipment: every edge starts pointing at its larger endpoint,
    vertex v has the surplus out(v) - alpha, and each edge (u, v) is a unit
    arc u->v whose flow moves one outdegree from u to v by flipping the
    edge. Some orientation fits under alpha iff every surplus is routed.
    """
    out = Orientation(g.n, g.edges, (1,) * g.m).outdegs()
    routed, flipped, _ = _transship(g, [x - alpha for x in out], 1, 0)
    if not routed:
        return None
    # an edge whose unit crossed it now points at u
    o = Orientation(g.n, g.edges, tuple(1 - x for x in flipped))
    if o.max_outdeg() > alpha:
        raise AssertionError("witness orientation: an outdegree exceeds alpha")
    return o


def min_max_outdegree(g: Graph) -> tuple[int, Orientation]:
    """ceil(D) together with an orientation achieving it."""
    if g.m == 0:
        return 0, Orientation(g.n, g.edges, ())
    d = exact_densest(g).value
    alpha = frac_ceil(d)
    o = witness_orientation(g, alpha)
    if o is None:
        raise AssertionError("an orientation at ceil(D) must exist")
    return alpha, o
