"""Command-line harness: generate instances, run algorithms, verify.

Every subcommand emits one JSON report (stdout or --out) shaped as
{command, graph, result, check, trace, wall_time_s}; exact quantities are
"p/q" strings, never JSON numbers. The exit code is 0 iff every guarantee
check in the run passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import detect_congest as dc
from . import detect_local as dl
from . import graphs as G
from . import mwu
from . import oracle
from . import orient as ort
from .decompose import ldd_traced
from .engine import RoundTrace
from .graphs import Graph, density, format_ratio, parse_ratio

ORACLE_EDGE_LIMIT = 20000


def _read_graph(path_arg: str):
    with open(path_arg, "r", encoding="utf-8") as f:
        return G.read_edge_list(f.read())


def _load_graph(path_arg: str) -> Graph:
    """An undirected graph; only `exact --brute` reads directed edge lists."""
    g = _read_graph(path_arg)
    if isinstance(g, G.DirectedGraph):
        raise ValueError(
            f"{path_arg}: this command needs an undirected graph, but the "
            "edge list has an 'n m directed' header"
        )
    return g


def _graph_stats(g, d: Fraction | None = None) -> dict:
    """n, m, max degree and D; pass D when the caller already computed it."""
    stats = {"n": g.n, "m": g.m}
    if isinstance(g, Graph):
        stats["max_degree"] = g.max_degree()
        if 1 <= g.m <= ORACLE_EDGE_LIMIT:
            if d is None:
                d = oracle.exact_densest(g).value
            stats["oracle_density"] = format_ratio(d)
        else:
            stats["oracle_density"] = None
    return stats


def _parse_params(text: str | None) -> dict:
    out = {}
    if text:
        for item in text.split(","):
            key, _, value = item.partition("=")
            if not _:
                raise UsageError(f"bad --params entry {item!r}; want key=value")
            out[key.strip()] = value.strip()
    return out


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _report(args, g, result: dict, check: dict | None, trace: RoundTrace | None,
            t0: float, d: Fraction | None = None):
    payload = {
        "command": " ".join(sys.argv[1:]) if sys.argv[1:] else args.cmd,
        "graph": _graph_stats(g, d) if g is not None else None,
        "result": result,
        "check": check,
        "trace": trace.to_json() if trace is not None else None,
        "wall_time_s": round(time.time() - t0, 3),
    }
    _emit(args, payload)
    if check is not None and not check.get("pass", True):
        return 1
    return 0


def _check(bound: Fraction, achieved: Fraction, ok: bool) -> dict:
    return {
        "bound": format_ratio(bound),
        "achieved": format_ratio(achieved),
        "pass": bool(ok),
    }


def cmd_gen(args) -> int:
    params = _parse_params(args.params)
    made = G.generate(args.kind, params, args.seed)
    if isinstance(made, tuple):
        if not args.out:
            raise UsageError("--out is required for lowerbound_pair")
        names = [args.out + ".cycle", args.out + ".path"]
        for g, name in zip(made, names):
            with open(name, "w", encoding="utf-8") as f:
                f.write(G.write_edge_list(g))
        sys.stdout.write(json.dumps({"written": names}) + "\n")
        return 0
    text = G.write_edge_list(made)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        sys.stdout.write(
            json.dumps({"written": [args.out], "n": made.n, "m": made.m}) + "\n"
        )
    else:
        sys.stdout.write(text)
    return 0


def cmd_exact(args) -> int:
    t0 = time.time()
    g = (_read_graph if args.brute else _load_graph)(args.infile)
    if args.brute:
        res = (
            oracle.brute_directed_densest(g)
            if isinstance(g, G.DirectedGraph)
            else oracle.brute_densest(g)
        )
    else:
        res = oracle.exact_densest(g)
    if isinstance(res.best_subset, tuple):
        s, t = res.best_subset
        result = {
            "D_squared": format_ratio(res.value),
            "S": list(s.ids()),
            "T": list(t.ids()),
        }
        return _report(args, g, result, None, None, t0)
    result = {
        "D": format_ratio(res.value),
        "witness": list(res.best_subset.ids()),
    }
    return _report(args, g, result, None, None, t0, res.value)


def cmd_detect_local(args) -> int:
    t0 = time.time()
    g = _load_graph(args.infile)
    dtilde, eps = parse_ratio(args.dtilde), parse_ratio(args.eps)
    out, trace = dl.local_detect(g, dtilde, eps)
    result = out.to_json(g, trace.rounds_executed)
    bound = (1 - eps) * dtilde
    if len(out.marked):
        achieved = density(g, out.marked)
        ok = achieved >= bound
    else:
        achieved = Fraction(0)
        ok = True  # empty output is sound for any dtilde
    return _report(args, g, result, _check(bound, achieved, ok), trace, t0)


def cmd_detect_congest(args) -> int:
    t0 = time.time()
    g = _load_graph(args.infile)
    dtilde, eps = parse_ratio(args.dtilde), parse_ratio(args.eps)
    sub, trace = dc.congest_detect(
        g, dtilde, eps, args.seed, trials_override=args.trials
    )
    bound = (1 - eps) * dtilde
    achieved = density(g, sub) if len(sub) else Fraction(0)
    ok = achieved >= bound if len(sub) else True
    result = {
        "marked": list(sub.ids()),
        "density": format_ratio(achieved) if len(sub) else None,
        "trials": args.trials or dc.default_trials(g.n),
        "rounds": trace.rounds_executed,
    }
    return _report(args, g, result, _check(bound, achieved, ok), trace, t0)


def cmd_approx(args) -> int:
    t0 = time.time()
    g = _load_graph(args.infile)
    eps = parse_ratio(args.eps)
    sub, dhat, trace = dc.approx_densest(g, eps, args.seed)
    result = {
        "marked": list(sub.ids()),
        "density": format_ratio(dhat),
        "phases": dc.phase_count(g.n, eps) + 1,
        "rounds": trace.rounds_executed,
    }
    check = d = None
    if 1 <= g.m <= ORACLE_EDGE_LIMIT:
        d = oracle.exact_densest(g).value
        bound = (1 - eps) * d / (1 + eps)
        check = _check(bound, dhat, dhat >= bound)
    return _report(args, g, result, check, trace, t0, d)


def cmd_dual(args) -> int:
    t0 = time.time()
    g = _load_graph(args.infile)
    z, eps = parse_ratio(args.z), parse_ratio(args.eps)
    sol, trace = mwu.fractional_dual(g, z, eps, T_override=args.T)
    result = sol.to_json()
    check = d = None
    if 1 <= g.m <= ORACLE_EDGE_LIMIT:
        d = oracle.exact_densest(g).value
        if z >= d:
            check = {
                "bound": "feasible for DUAL((1+2eps)z) since z >= D",
                "achieved": str(sol.feasible),
                "pass": sol.feasible,
            }
    return _report(args, g, result, check, trace, t0, d)


def cmd_primal(args) -> int:
    t0 = time.time()
    g = _load_graph(args.infile)
    z, eps = parse_ratio(args.z), parse_ratio(args.eps)
    sub, trace = mwu.integral_primal(g, z, eps, T_override=args.T)
    bound = (1 - 3 * eps) * z
    if sub is not None:
        achieved = density(g, sub)
        ok = achieved >= bound
        result = {
            "found": True,
            "members": list(sub.ids()),
            "density": format_ratio(achieved),
            "rounds": trace.rounds_executed,
        }
        check = _check(bound, achieved, ok)
    else:
        # the testable contract is the disjunction with the dual run
        sol, _ = mwu.fractional_dual(g, z, eps, T_override=args.T)
        result = {"found": False, "rounds": trace.rounds_executed}
        check = {
            "bound": "no output, so the dual at the same (z, eps) must be feasible",
            "achieved": str(sol.feasible),
            "pass": sol.feasible,
        }
    return _report(args, g, result, check, trace, t0)


def cmd_orient(args) -> int:
    t0 = time.time()
    g = _load_graph(args.infile)
    eps = parse_ratio(args.eps)
    rep = ort.orient_low_outdegree_detailed(
        g, args.dtilde, eps, T_override=args.T
    )
    achieved = Fraction(rep.orientation.max_outdeg())
    bound = (1 + eps) * args.dtilde
    if args.orient_out:
        with open(args.orient_out, "w", encoding="utf-8") as f:
            f.write(rep.orientation.to_text())
    result = {
        "max_outdeg": rep.orientation.max_outdeg(),
        "bound": f"(1+{args.eps})*{args.dtilde}",
        "rounds": rep.trace.rounds_executed,
    }
    return _report(
        args, g, result, _check(bound, achieved, achieved <= bound), rep.trace, t0
    )


def cmd_split(args) -> int:
    t0 = time.time()
    g = _load_graph(args.infile)
    eps = parse_ratio(args.eps)
    o, trace = ort.directed_split(g, eps)
    outs, ins = o.outdegs(), o.indegs()
    gap = [abs(outs[v] - ins[v]) for v in range(g.n)]
    worst = max(
        (gap[v] - eps * g.degree(v) for v in range(g.n)), default=Fraction(0)
    )
    if args.orient_out:
        with open(args.orient_out, "w", encoding="utf-8") as f:
            f.write(o.to_text())
    result = {"max_discrepancy": max(gap, default=0)}
    check = {
        "bound": f"eps*deg(v)+12 with eps={args.eps}",
        "achieved": format_ratio(worst),
        "pass": worst <= 12,
    }
    return _report(args, g, result, check, trace, t0)


def cmd_weak_orient(args) -> int:
    t0 = time.time()
    g = _load_graph(args.infile)
    res = ort.weak_orientation(g)
    outs = res.orientation.outdegs()
    ok = all(outs[v] >= g.degree(v) // 3 for v in range(g.n))
    if args.orient_out:
        with open(args.orient_out, "w", encoding="utf-8") as f:
            f.write(res.orientation.to_text())
    result = {"phases": res.phases, "min_slack": min(
        (outs[v] - g.degree(v) // 3 for v in range(g.n)), default=0
    )}
    check = {
        "bound": "outdeg(v) >= floor(deg(v)/3)",
        "achieved": str(ok),
        "pass": ok,
    }
    return _report(args, g, result, check, res.charge, t0)


def cmd_ldd(args) -> int:
    t0 = time.time()
    g = _load_graph(args.infile)
    eps = parse_ratio(args.eps)
    clustering, trace = ldd_traced(g, eps, args.seed)
    # every cluster is connected, with radius <= budget around its center
    ok = True
    for center, members in clustering.clusters().items():
        sub, old_ids = g.induced(members)
        dist = sub.distances_from(old_ids.index(center))
        if min(dist) < 0 or max(dist) > clustering.budget:
            ok = False
    result = {
        "centers": list(clustering.centers),
        "cut_edges": clustering.cut_edges,
        "budget": clustering.budget,
        "rounds": trace.rounds_executed,
    }
    check = {
        "bound": f"in-cluster radius <= {clustering.budget}, clusters connected",
        "achieved": str(ok),
        "pass": ok,
    }
    return _report(args, g, result, check, trace, t0)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


class UsageError(ValueError):
    """A command line that argparse rejects."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="densub",
        description="dense subgraph detection and low-outdegree orientation "
        "on a simulated LOCAL/CONGEST network",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def command(name, func, help, infile=True):
        sp = sub.add_parser(name, help=help)
        if infile:
            sp.add_argument("--in", dest="infile", required=True)
        sp.add_argument("--out", default=None)
        sp.set_defaults(func=func)
        return sp

    sp = command("gen", cmd_gen, "generate an instance", infile=False)
    sp.add_argument("--kind", required=True)
    sp.add_argument("--params", default=None, help="comma list key=value")
    sp.add_argument("--seed", type=int, default=0)

    sp = command("exact", cmd_exact, "exact densest subgraph oracle")
    sp.add_argument("--brute", action="store_true")

    sp = command("detect-local", cmd_detect_local, "LOCAL-model detection")
    sp.add_argument("--dtilde", required=True)
    sp.add_argument("--eps", required=True)

    sp = command("detect-congest", cmd_detect_congest, "CONGEST-model detection")
    sp.add_argument("--dtilde", required=True)
    sp.add_argument("--eps", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=_positive_int, default=None)

    sp = command("approx", cmd_approx, "(1-eps)-approximate densest subgraph")
    sp.add_argument("--eps", required=True)
    sp.add_argument("--seed", type=int, default=0)

    T_help = (
        "MWU iterations, one engine round each; default: the theory-grade "
        "ceil((8/eps^2) ln n) rounded up to a power of 2, at eps/16 for "
        "orient (2^20 rounds for n = 257 at eps 1/8: over 8 minutes)"
    )
    for name, func, help in [
        ("dual", cmd_dual, "fractional orientation LP solver"),
        ("primal", cmd_primal, "load-guided dense subgraph search"),
    ]:
        sp = command(name, func, help)
        sp.add_argument("--z", required=True)
        sp.add_argument("--eps", required=True)
        sp.add_argument("--T", type=_positive_int, default=None, help=T_help)

    sp = command("orient", cmd_orient, "(1+eps)*dtilde outdegree orientation")
    sp.add_argument("--dtilde", type=int, required=True)
    sp.add_argument("--eps", required=True)
    sp.add_argument("--T", type=_positive_int, default=None, help=T_help)
    sp.add_argument("--orient-out", default=None)

    sp = command("split", cmd_split, "balanced in/out orientation")
    sp.add_argument("--eps", required=True)
    sp.add_argument("--orient-out", default=None)

    sp = command("weak-orient", cmd_weak_orient, "floor(deg/3) weak orientation")
    sp.add_argument("--orient-out", default=None)

    sp = command("ldd", cmd_ldd, "low-diameter clustering")
    sp.add_argument("--eps", required=True)
    sp.add_argument("--seed", type=int, default=0)

    return p


def main(argv=None) -> int:
    """Run one subcommand. Input errors, argparse's included, are one JSON
    {"error", "message"} object on stdout with exit code 2."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stdout.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)})
            + "\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
