"""Run one densub benchmark workload and print its metrics.

    python3 perfbench/run.py --workload congest --seed 1 --seconds 60 --trace 0

Run it from the root of a source checkout: the package is imported from
`src/` there, nothing is installed. Set-up imports the package, generates
the workload's instances from the seed and writes them as edge-list files.
Then, for the given number of seconds, a closed loop (one client, one
thread, each operation starting when the previous one ends) runs passes over
the workload's operations through `densub.cli.main`, the entry point users
run. The garbage collector runs before each pass, outside the timed path, so
that every pass starts from the same heap. Every operation is re-verified
from its output files.

With `--trace 0` the last line carries the end-to-end metrics, measured with
no tracing. With `--trace 1` untraced and traced passes alternate and the
last line carries the per-layer metrics from the traced ones (see
`spans.py`). The last line is always one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from statistics import median

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 7
PERCENTILES = (99, 95, 90, 75, 50)

SIM_UNITS = {"sim_rounds": "rounds", "sim_bits": "bits", "sim_max_msg_bits": "bits"}


def load_baseline() -> dict:
    with open(os.path.join(HERE, "baseline.json"), "r", encoding="utf-8") as f:
        return json.load(f)


def import_densub():
    """A fresh import of the package from the checkout's `src/`."""
    for key in [k for k in sys.modules if k == "densub" or k.startswith("densub.")]:
        del sys.modules[key]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    importlib.import_module("densub")
    cli = importlib.import_module("densub.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"densub was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(name: str, seed: int, scale: str, workdir: str, reps: int):
    """Set up `reps` times; return the operations and each set-up's seconds."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        import_densub()
        ops = workloads.build(name, seed, scale, workdir)
        times.append(time.perf_counter() - t0)
    return ops, times


@dataclass
class Pass:
    traced: bool
    op_seconds: list[float] = field(default_factory=list)
    outcomes: list[workloads.Outcome] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)  # traced passes only
    op_ends: list[int] = field(default_factory=list)  # span count after each op
    missing: dict[str, str] = field(default_factory=dict)  # traced passes only

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds)

    def op_sims(self) -> list[list[int]]:
        return [[o.rounds, o.bits, o.max_msg_bits] for o in self.outcomes]

    def sim(self) -> dict[str, int]:
        return {
            "sim_rounds": sum(o.rounds for o in self.outcomes),
            "sim_bits": sum(o.bits for o in self.outcomes),
            "sim_max_msg_bits": max((o.max_msg_bits for o in self.outcomes), default=0),
        }


def run_pass(ops: list[workloads.Op], tracer: spans.Tracer | None) -> Pass:
    p = Pass(traced=tracer is not None)
    for op in ops:
        op.clear_outputs()
        main = sys.modules["densub.cli"].main  # looked up now: maybe wrapped
        t0 = time.perf_counter()
        try:
            rc = main(op.argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            rc = None
        p.op_seconds.append(time.perf_counter() - t0)
        p.outcomes.append(op.outcome(rc))
        if tracer is not None:
            p.op_ends.append(len(tracer.spans))
    if tracer is not None:
        p.spans = tracer.spans
    return p


def measure(ops, seconds: float, traced: bool) -> tuple[list[Pass], list[str]]:
    """Alternate untraced (and, if asked, traced) passes for `seconds`."""
    kinds = [False, True] if traced else [False]
    passes: list[Pass] = []
    problems: list[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        kind = kinds[len(passes) % len(kinds)]
        if kind:
            gc.collect()
            tracer = spans.Tracer()
            tracer.install()
            try:
                p = run_pass(ops, tracer)
            finally:
                not_restored = tracer.restore()
            if not_restored:
                problems.append(f"wrappers not restored: {not_restored}")
            p.missing = tracer.missing
        else:
            gc.collect()
            p = run_pass(ops, None)
        passes.append(p)
        done = {q.traced for q in passes} == set(kinds)
        upcoming = kinds[len(passes) % len(kinds)]
        guess = median([q.seconds for q in passes if q.traced == upcoming] or [p.seconds])
        if done and time.perf_counter() + guess > deadline:
            return passes, problems


def check_passes(passes: list[Pass], ops) -> list[str]:
    """Outputs and sim counts must repeat exactly in every pass, traced or not;
    a traced operation's span self times must add up to its duration."""
    problems = []
    first = passes[0].outcomes
    for p in passes[1:]:
        for op, a, b in zip(ops, first, p.outcomes):
            if a.fingerprint != b.fingerprint:
                kind = "traced" if p.traced else "untraced"
                problems.append(f"{op.label}: a {kind} pass changed the output or its sim counts")
    for p in [q for q in passes if q.traced]:
        own = spans.self_times(p.spans)
        for op, dt, start, end in zip(ops, p.op_seconds, [0] + p.op_ends, p.op_ends):
            total = sum(own[start:end])
            if abs(dt - total) > 0.01 * dt + 0.002:
                problems.append(
                    f"{op.label}: span self times add to {total:.4f} s, "
                    f"the traced operation took {dt:.4f} s"
                )
    return problems


def check_pinned(name: str, seed: int, scale: str, sims: list[list[int]], baseline: dict) -> list[str]:
    """Sim counts recorded at the baseline commit for this exact input must
    hold. They are pinned per part; the workload's are its parts' in order."""
    key = f"{scale}@{seed}"
    pinned = [baseline["pinned"].get(part, {}).get(key) for part in workloads.PARTS[name]]
    if None in pinned:
        return []
    want = [sim for part_sims in pinned for sim in part_sims]
    if want == sims:
        return []
    return [f"{name} {scale}@{seed}: sim counts per op {sims}, recorded {want}"]


def canary(name: str, workdir: str, baseline: dict) -> list[str]:
    """Run the shrunk workload at the recorded seed; its counts are pinned."""
    seed = baseline["seeds"]["default"]
    ops = workloads.build(name, seed, "small", workdir)
    p = run_pass(ops, None)
    problems = [o.reason for o in p.outcomes if not o.ok]
    return problems + check_pinned(name, seed, "small", p.op_sims(), baseline)


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for pct in PERCENTILES:
        rank = -(-n * pct // 100)  # nearest rank, 1-based
        if n - rank >= 10:
            return {"percentile": pct, "value": sorted(samples)[rank - 1]}
    return None


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "small"), default="full",
                    help="small: the shrunk instances the self-test uses")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "densub", "cli.py")):
        print(f"no densub sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    baseline = load_baseline()
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        ops, setup_times = setup(args.workload, args.seed, args.scale,
                                 os.path.join(workdir, "run"), SETUP_REPS)
        passes, problems = measure(ops, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems += check_passes(passes, ops)
        first = passes[0]
        problems += check_pinned(args.workload, args.seed, args.scale, first.op_sims(), baseline)
        problems += canary(args.workload, os.path.join(workdir, "canary"), baseline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is still using it

    outcomes = [o for p in passes for o in p.outcomes]
    failures = [o.reason for o in outcomes if not o.ok]
    plain = [p.seconds for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "passes": len(plain),
        "traced_passes": len(traced),
        "wall_s_median": median(plain),
        "wall_s_tail": tail(plain),
        "pass_seconds": plain,
        "op_seconds": {op.label: median(p.op_seconds[i] for p in passes if not p.traced)
                       for i, op in enumerate(ops)},
        "setup_seconds": setup_times,
        **first.sim(),
        "op_sims": first.op_sims(),
        "failures": failures[:10],
    }
    if args.trace:
        layer_passes = [spans.layer_values(p.spans, p.sim()["sim_bits"]) for p in traced]
        layer, unsteady = spans.combine(layer_passes)
        problems += [f"count {k} differs between traced passes" for k in unsteady]
        missing = {}
        for p in traced:
            missing.update(p.missing)
        gone = spans.absent(missing)
        metrics = {k: metric(v, SIM_UNITS[k]) for k, v in first.sim().items()}
        metrics["fail_ratio"] = metric(len(failures) / len(outcomes), "ratio")
        metrics["trace_overhead"] = metric(
            median(p.seconds for p in traced) / median(plain), "ratio")
        for key, (unit, _better, _deps) in spans.LAYER_METRICS.items():
            metrics[key] = metric(layer[key], unit)
            if key in gone:
                metrics[key] = {"value": 0, "unit": unit, "absent": gone[key]}
        summary["absent"] = gone
    else:
        metrics = {
            "wall_s": metric(median(plain), "s"),
            "setup_s": metric(median(setup_times), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    summary["problems"] = problems[:10]
    print(json.dumps(summary))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
