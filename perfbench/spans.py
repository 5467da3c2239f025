"""Spans recorded from outside the package, and the per-layer metrics
computed from them.

A traced pass replaces each layer's entry point with a wrapper, under the
name its caller looks it up by, and puts the originals back afterwards.
Every wrapper records one span (name, start, end, parent) plus whatever the
layer's result tells about the work done. A span's self time is its
duration minus the durations of its direct children; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from statistics import median

# (span name, module, attribute path): where each layer is entered. Names
# that start with "_" are private helpers with no public entry inside the
# pipeline; a later rename makes the metrics built on them absent, not an
# error.
POINTS = [
    ("cli.main", "densub.cli", "main"),
    ("graphs.read", "densub.graphs", "read_edge_list"),
    ("graphs.bfs", "densub.graphs", "Graph.distances_from"),
    ("graphs.induced", "densub.graphs", "Graph.induced"),
    ("engine.run", "densub.engine", "run"),
    ("engine.run", "densub.decompose", "run"),
    ("engine.run", "densub.mwu", "run"),
    ("engine.collect_ball", "densub.engine", "collect_ball"),
    ("engine.collect_ball", "densub.detect_local", "collect_ball"),
    ("engine.aggregate", "densub.engine", "component_aggregate"),
    ("decompose.ldd", "densub.decompose", "ldd_traced"),
    ("decompose.ldd", "densub.detect_congest", "ldd_traced"),
    ("decompose.ldd", "densub.cli", "ldd_traced"),
    ("mwu.dual", "densub.mwu", "fractional_dual"),
    ("mwu.dual", "densub.orient", "fractional_dual"),
    ("mwu.primal", "densub.mwu", "integral_primal"),
    ("mwu.primal", "densub.detect_congest", "integral_primal"),
    ("mwu.scan", "densub.mwu", "_PrimalDetector.scan"),
    ("detect_congest.detect", "densub.detect_congest", "congest_detect"),
    ("detect_congest.approx", "densub.detect_congest", "approx_densest"),
    ("detect_local.detect", "densub.detect_local", "local_detect"),
    ("orient.pipeline", "densub.orient", "orient_low_outdegree_detailed"),
    ("orient.split", "densub.orient", "_split_edge_list"),
    ("orient.decompose", "densub.orient", "_decompose_edges"),
    ("orient.weak", "densub.orient", "_weak_orient_edges"),
    ("oracle.exact", "densub.oracle", "exact_densest"),
    ("oracle.flow", "densub.oracle", "_denser_than"),
    ("oracle.peel", "densub.oracle", "_peel_lower_bound"),
    ("oracle.brute", "densub.oracle", "brute_densest"),
]

HOOK = "engine.round_hook"  # the round hook engine.run is handed, if any


def _info(name: str, args: tuple, out) -> object:
    """The part of a layer's inputs or result that a counter needs."""
    if name == "engine.run":
        return (out[1].rounds_executed, out[1].total_bits)
    if name == "decompose.ldd":
        return (len(out[0].centers), out[0].cut_edges, args[0].m)
    if name == "mwu.primal":
        return out[0] is not None
    if name == "detect_local.detect":
        return args[0].n
    if name == "orient.pipeline":
        return len(out.iterations)
    if name == "orient.split":
        return len(args[1])
    if name == "orient.weak":
        return out.phases
    return None


class Tracer:
    """Installs the wrappers, collects spans, and restores the originals."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, info]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: dict[str, str] = {}  # span name -> why it is absent

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "engine.run" and kwargs.get("round_hook") is not None:
                kwargs["round_hook"] = self._wrap(HOOK, kwargs["round_hook"])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            try:
                span[4] = _info(name, args, out)
            except (AttributeError, TypeError, IndexError) as exc:
                self.missing.setdefault(name, f"cannot read the result of {name} ({exc!r})")
            return out

        return traced

    def install(self) -> None:
        for name, module, path in POINTS:
            try:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.missing[name] = f"{module}.{path} not found ({exc})"
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def restore(self) -> list[str]:
        """Put every original back; return the names not restored by identity."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        bad = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._saved
            if getattr(owner, attr) is not original
        ]
        self._saved.clear()
        return bad


def self_times(spans: list[list]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


# Per-layer metric -> (unit, better, span names it is built from).
LAYER_METRICS = {
    "graphs.read_s": ("s", "lower", ["graphs.read"]),
    "graphs.bfs_calls": ("count", "lower", ["graphs.bfs"]),
    "graphs.bfs_s": ("s", "lower", ["graphs.bfs"]),
    "graphs.induced_calls": ("count", "lower", ["graphs.induced"]),
    "graphs.induced_s": ("s", "lower", ["graphs.induced"]),
    "engine.run_calls": ("count", "lower", ["engine.run"]),
    "engine.run_self_s": ("s", "lower", ["engine.run"]),
    "engine.executed_rounds": ("rounds", "lower", ["engine.run"]),
    "engine.executed_bits": ("bits", "lower", ["engine.run"]),
    "engine.charged_bits": ("bits", "lower", ["engine.run"]),
    "engine.collect_ball_s": ("s", "lower", ["engine.collect_ball"]),
    "engine.aggregate_s": ("s", "lower", ["engine.aggregate"]),
    "decompose.ldd_calls": ("count", "lower", ["decompose.ldd"]),
    "decompose.ldd_self_s": ("s", "lower", ["decompose.ldd"]),
    "decompose.cut_ratio": ("ratio", "lower", ["decompose.ldd"]),
    "mwu.dual_calls": ("count", "lower", ["mwu.dual"]),
    "mwu.dual_self_s": ("s", "lower", ["mwu.dual"]),
    "mwu.primal_calls": ("count", "lower", ["mwu.primal"]),
    "mwu.primal_self_s": ("s", "lower", ["mwu.primal"]),
    "mwu.primal_found_ratio": ("ratio", "higher", ["mwu.primal"]),
    "mwu.scan_calls": ("count", "lower", ["mwu.scan"]),
    "mwu.scan_s": ("s", "lower", ["mwu.scan"]),
    "detect_congest.detect_calls": ("count", "lower", ["detect_congest.detect"]),
    "detect_congest.self_s": ("s", "lower", ["detect_congest.detect", "detect_congest.approx"]),
    "detect_congest.clusters": ("count", "lower", ["detect_congest.detect", "decompose.ldd"]),
    "detect_congest.primal_per_cluster": ("ratio", "lower", ["detect_congest.detect", "decompose.ldd", "mwu.primal"]),
    "detect_local.self_s": ("s", "lower", ["detect_local.detect"]),
    "detect_local.ball_solves": ("count", "lower", ["detect_local.detect", "oracle.exact", "oracle.brute"]),
    "detect_local.ball_cache_hit_ratio": ("ratio", "higher", ["detect_local.detect", "oracle.exact", "oracle.brute"]),
    "orient.rounding_self_s": ("s", "lower", ["orient.pipeline", "mwu.dual", "orient.split"]),
    "orient.split_calls": ("count", "lower", ["orient.split"]),
    "orient.decompose_self_s": ("s", "lower", ["orient.decompose", "orient.weak"]),
    "orient.weak_calls": ("count", "lower", ["orient.weak"]),
    "orient.weak_s": ("s", "lower", ["orient.weak"]),
    "orient.weak_phases": ("count", "lower", ["orient.weak"]),
    "orient.bits_rounded": ("count", "lower", ["orient.pipeline"]),
    "orient.split_edges": ("count", "lower", ["orient.split"]),
    "oracle.exact_calls": ("count", "lower", ["oracle.exact"]),
    "oracle.exact_self_s": ("s", "lower", ["oracle.exact", "oracle.flow", "oracle.peel"]),
    "oracle.flow_calls": ("count", "lower", ["oracle.flow"]),
    "oracle.flow_s": ("s", "lower", ["oracle.flow"]),
    "oracle.peel_s": ("s", "lower", ["oracle.peel"]),
    "oracle.brute_calls": ("count", "lower", ["oracle.brute"]),
    "oracle.brute_s": ("s", "lower", ["oracle.brute"]),
    "cli.self_s": ("s", "lower", ["cli.main"]),
    "cli.oracle_calls": ("count", "lower", ["cli.main", "oracle.exact"]),
}

# Times are medians over traced passes; counts must repeat in every pass.
TIMED = {k for k in LAYER_METRICS if k.endswith("_s")}


def layer_values(spans: list[list], sim_bits: int) -> dict[str, float]:
    """Every per-layer metric for one traced pass."""
    own = self_times(spans)
    names = [s[0] for s in spans]

    def pick(name):
        return [i for i, n in enumerate(names) if n == name]

    def calls(name):
        return len(pick(name))

    def dur(name):
        return sum(spans[i][2] - spans[i][1] for i in pick(name))

    def selfs(*wanted):
        return sum(own[i] for i, n in enumerate(names) if n in wanted)

    def under(name, parent):
        return [i for i in pick(name) if spans[i][3] >= 0 and names[spans[i][3]] == parent]

    def infos(name, parent=None):
        found = pick(name) if parent is None else under(name, parent)
        return [spans[i][4] for i in found if spans[i][4] is not None]

    runs = infos("engine.run")
    executed_bits = sum(b for _r, b in runs)
    ldds = infos("decompose.ldd")
    primal = infos("mwu.primal")
    clusters = sum(c for c, _cut, _m in infos("decompose.ldd", "detect_congest.detect"))
    primal_in_detect = len(under("mwu.primal", "detect_congest.detect"))
    local_n = sum(infos("detect_local.detect"))
    solves = len(under("oracle.exact", "detect_local.detect")) + len(
        under("oracle.brute", "detect_local.detect")
    )
    cut_m = sum(m for _c, _cut, m in ldds)
    return {
        "graphs.read_s": dur("graphs.read"),
        "graphs.bfs_calls": calls("graphs.bfs"),
        "graphs.bfs_s": dur("graphs.bfs"),
        "graphs.induced_calls": calls("graphs.induced"),
        "graphs.induced_s": dur("graphs.induced"),
        "engine.run_calls": calls("engine.run"),
        "engine.run_self_s": selfs("engine.run"),
        "engine.executed_rounds": sum(r for r, _b in runs),
        "engine.executed_bits": executed_bits,
        "engine.charged_bits": sim_bits - executed_bits,
        "engine.collect_ball_s": dur("engine.collect_ball"),
        "engine.aggregate_s": dur("engine.aggregate"),
        "decompose.ldd_calls": calls("decompose.ldd"),
        "decompose.ldd_self_s": selfs("decompose.ldd"),
        "decompose.cut_ratio": sum(c for _n, c, _m in ldds) / cut_m if cut_m else 0.0,
        "mwu.dual_calls": calls("mwu.dual"),
        "mwu.dual_self_s": selfs("mwu.dual"),
        "mwu.primal_calls": calls("mwu.primal"),
        "mwu.primal_self_s": selfs("mwu.primal", HOOK),
        "mwu.primal_found_ratio": sum(primal) / len(primal) if primal else 0.0,
        "mwu.scan_calls": calls("mwu.scan"),
        "mwu.scan_s": dur("mwu.scan"),
        "detect_congest.detect_calls": calls("detect_congest.detect"),
        "detect_congest.self_s": selfs("detect_congest.detect", "detect_congest.approx"),
        "detect_congest.clusters": clusters,
        "detect_congest.primal_per_cluster": primal_in_detect / clusters if clusters else 0.0,
        "detect_local.self_s": selfs("detect_local.detect"),
        "detect_local.ball_solves": solves,
        "detect_local.ball_cache_hit_ratio": 1 - solves / local_n if local_n else 0.0,
        "orient.rounding_self_s": selfs("orient.pipeline"),
        "orient.split_calls": calls("orient.split"),
        "orient.decompose_self_s": selfs("orient.decompose"),
        "orient.weak_calls": calls("orient.weak"),
        "orient.weak_s": dur("orient.weak"),
        "orient.weak_phases": sum(infos("orient.weak")),
        "orient.bits_rounded": sum(infos("orient.pipeline")),
        "orient.split_edges": sum(infos("orient.split")),
        "oracle.exact_calls": calls("oracle.exact"),
        "oracle.exact_self_s": selfs("oracle.exact"),
        "oracle.flow_calls": calls("oracle.flow"),
        "oracle.flow_s": dur("oracle.flow"),
        "oracle.peel_s": dur("oracle.peel"),
        "oracle.brute_calls": calls("oracle.brute"),
        "oracle.brute_s": dur("oracle.brute"),
        "cli.self_s": selfs("cli.main"),
        "cli.oracle_calls": len(under("oracle.exact", "cli.main")),
    }


def combine(passes: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each time over the traced passes; counts must not differ."""
    out, unsteady = {}, []
    for key in LAYER_METRICS:
        values = [p[key] for p in passes]
        if key in TIMED:
            out[key] = median(values)
        else:
            out[key] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(key)
    return out, unsteady


def absent(missing: dict[str, str]) -> dict[str, str]:
    """Metric -> reason, for every metric built on a span that is missing."""
    return {
        key: "; ".join(missing[n] for n in deps if n in missing)
        for key, (_u, _b, deps) in LAYER_METRICS.items()
        if any(n in missing for n in deps)
    }
