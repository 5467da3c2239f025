"""Command-line harness: generate instances, run algorithms, verify.

Every subcommand emits one JSON report (stdout or --out) shaped as
{command, graph, result, check, trace, wall_time_s}; exact quantities are
"p/q" strings, never JSON numbers. The exit code is 0 iff every guarantee
check in the run passed.
"""

from __future__ import annotations

import argparse
import functools
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
from .graphs import Graph, density, format_ratio, parse_ratio

ORACLE_EDGE_LIMIT = 20000


def _graph_stats(g: Graph) -> dict:
    d = oracle.exact_densest(g).value if 1 <= g.m <= ORACLE_EDGE_LIMIT else None
    return {"n": g.n, "m": g.m, "max_degree": g.max_degree(),
            "oracle_density": None if d is None else format_ratio(d)}


def _parse_params(text: str | None) -> dict:
    out = {}
    if text:
        for item in text.split(","):
            key, _, value = item.partition("=")
            if not _:
                raise UsageError(f"bad --params entry {item!r}; want key=value")
            out[key.strip()] = value.strip()
    return out


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _check(bound, achieved, ok: bool) -> dict:
    """A guarantee check; a Fraction or int prints as "p/q", a sentence or a
    bool as itself."""

    def show(x):
        return str(x) if isinstance(x, (str, bool)) else format_ratio(x)

    return {"bound": show(bound), "achieved": show(achieved), "pass": bool(ok)}


def _marked_check(g: Graph, marked, dtilde: Fraction, eps: Fraction) -> dict:
    """density(marked) >= (1-eps)*dtilde; an empty output is sound for any
    dtilde."""
    bound = (1 - eps) * dtilde
    if not marked:
        return _check(bound, 0, True)
    achieved = density(g, marked)
    return _check(bound, achieved, achieved >= bound)


def cmd_gen(args) -> int:
    params = _parse_params(args.params)
    made = G.generate(args.kind, params, args.seed)
    if isinstance(made, tuple):
        if not args.out:
            raise UsageError("--out is required for lowerbound_pair")
        names = [args.out + ".cycle", args.out + ".path"]
        for g, name in zip(made, names):
            _write(name, G.write_edge_list(g))
        sys.stdout.write(json.dumps({"written": names}) + "\n")
        return 0
    text = G.write_edge_list(made)
    if args.out:
        _write(args.out, text)
        sys.stdout.write(
            json.dumps({"written": [args.out], "n": made.n, "m": made.m}) + "\n"
        )
    else:
        sys.stdout.write(text)
    return 0


# Every graph command below is a handler (args, g) -> (result, check, trace);
# main reads g, times the call and writes the report. oracle.exact_densest
# keeps its result on g, so a report solves g at most once.


def cmd_exact(args, g):
    res = oracle.brute_densest(g) if args.brute else oracle.exact_densest(g)
    result = {"D": format_ratio(res.value),
              "witness": list(res.best_subset)}
    return result, None, None


def cmd_detect_local(args, g):
    dtilde, eps = parse_ratio(args.dtilde), parse_ratio(args.eps)
    marked, black, trace = dl.local_detect(g, dtilde, eps)
    check = _marked_check(g, marked, dtilde, eps)
    result = {
        "marked": list(marked),
        "density": check["achieved"] if marked else None,
        "rounds": trace.rounds_executed,
        "black": list(black),
    }
    return result, check, trace


def cmd_detect_congest(args, g):
    dtilde, eps = parse_ratio(args.dtilde), parse_ratio(args.eps)
    sub, trace = dc.congest_detect(
        g, dtilde, eps, args.seed, trials_override=args.trials
    )
    check = _marked_check(g, sub, dtilde, eps)
    result = {
        "marked": list(sub),
        "density": check["achieved"] if sub else None,
        "trials": args.trials or dc.default_trials(g.n),
        "rounds": trace.rounds_executed,
    }
    return result, check, trace


def cmd_approx(args, g):
    eps = parse_ratio(args.eps)
    sub, dhat, trace = dc.approx_densest(g, eps, args.seed)
    result = {
        "marked": list(sub),
        "density": format_ratio(dhat),
        "phases": dc.phase_count(g.n, eps) + 1,
        "rounds": trace.rounds_executed,
    }
    check = None
    if 1 <= g.m <= ORACLE_EDGE_LIMIT:
        bound = (1 - eps) * oracle.exact_densest(g).value / (1 + eps)
        check = _check(bound, dhat, dhat >= bound)
    return result, check, trace


def cmd_dual(args, g):
    z, eps = parse_ratio(args.z), parse_ratio(args.eps)
    sol, trace = mwu.fractional_dual(g, z, eps, T_override=args.T)
    check = None
    if 1 <= g.m <= ORACLE_EDGE_LIMIT and z >= oracle.exact_densest(g).value:
        check = _check(
            "feasible for DUAL((1+2eps)z) since z >= D", sol.feasible, sol.feasible
        )
    return sol.to_json(), check, trace


def cmd_primal(args, g):
    z, eps = parse_ratio(args.z), parse_ratio(args.eps)
    sub, trace = mwu.integral_primal(g, z, eps, T_override=args.T)
    if sub is None:
        # the testable contract is the disjunction with the dual run
        sol, _ = mwu.fractional_dual(g, z, eps, T_override=args.T)
        result = {"found": False, "rounds": trace.rounds_executed}
        bound = "no output, so the dual at the same (z, eps) must be feasible"
        return result, _check(bound, sol.feasible, sol.feasible), trace
    bound, achieved = (1 - 3 * eps) * z, density(g, sub)
    result = {
        "found": True,
        "members": list(sub),
        "density": format_ratio(achieved),
        "rounds": trace.rounds_executed,
    }
    return result, _check(bound, achieved, achieved >= bound), trace


def cmd_orient(args, g):
    eps = parse_ratio(args.eps)
    rep = ort.orient_low_outdegree_detailed(
        g, args.dtilde, eps, T_override=args.T
    )
    if args.orient_out:
        _write(args.orient_out, rep.orientation.to_text())
    achieved = rep.orientation.max_outdeg()
    bound = (1 + eps) * args.dtilde
    result = {
        "max_outdeg": achieved,
        "bound": f"(1+{args.eps})*{args.dtilde}",
        "rounds": rep.trace.rounds_executed,
    }
    return result, _check(bound, achieved, achieved <= bound), rep.trace


def cmd_split(args, g):
    eps = parse_ratio(args.eps)
    o, trace = ort.directed_split(g, eps)
    if args.orient_out:
        _write(args.orient_out, o.to_text())
    outs, ins = o.outdegs(), o.indegs()
    gap = [abs(outs[v] - ins[v]) for v in range(g.n)]
    worst = max(
        (gap[v] - eps * g.degree(v) for v in range(g.n)), default=Fraction(0)
    )
    check = _check(f"eps*deg(v)+12 with eps={args.eps}", worst, worst <= 12)
    return {"max_discrepancy": max(gap, default=0)}, check, trace


def cmd_weak_orient(args, g):
    res = ort.weak_orientation(g)
    if args.orient_out:
        _write(args.orient_out, res.orientation.to_text())
    outs = res.orientation.outdegs()
    min_slack = min((outs[v] - g.degree(v) // 3 for v in range(g.n)), default=0)
    ok = min_slack >= 0
    result = {"phases": res.phases, "min_slack": min_slack}
    return result, _check("outdeg(v) >= floor(deg(v)/3)", ok, ok), res.charge


def cmd_ldd(args, g):
    eps = parse_ratio(args.eps)
    clustering, trace = ldd_traced(g, eps, args.seed)
    # every cluster is connected, with radius <= budget around its center:
    # a BFS over in-cluster edges reaches all its members within budget
    of = clustering.cluster_of
    inner = Graph._canonical(g.n, [(u, v) for u, v in g.edges if of[u] == of[v]])
    ok = all(
        sorted(inner.bfs(c, clustering.budget)[0]) == members
        for c, members in clustering.clusters().items()
    )
    result = {
        "centers": list(clustering.centers),
        "cut_edges": clustering.cut_edges,
        "budget": clustering.budget,
        "rounds": trace.rounds_executed,
    }
    bound = f"in-cluster radius <= {clustering.budget}, clusters connected"
    return result, _check(bound, ok, ok), trace


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


@functools.cache  # built once per process: parsing leaves it unchanged
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
    sp.add_argument(
        "--T", type=_positive_int, default=None,
        help=T_help + "; must be a power of 2",
    )
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
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
        if args.cmd == "gen":
            return cmd_gen(args)
        t0 = time.perf_counter()
        with open(args.infile, "r", encoding="utf-8") as f:
            g = G.read_edge_list(f.read())
        result, check, trace = args.func(args, g)
        text = json.dumps({
            "command": " ".join(argv),
            "graph": _graph_stats(g),
            "result": result,
            "check": check,
            "trace": None if trace is None else trace.to_json(),
            "wall_time_s": round(time.perf_counter() - t0, 3),
        }, indent=2) + "\n"
        if args.out:
            _write(args.out, text)
        else:
            sys.stdout.write(text)
        return 0 if check is None or check["pass"] else 1
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stdout.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)})
            + "\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
