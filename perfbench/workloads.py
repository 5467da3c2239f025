"""Seeded workload instances, the CLI operations run on them, and an
independent re-verification of every operation from its output files.

Instances are generated here, not by `densub.graphs`, so that a change to
the package's own generators cannot silently change the benchmark's inputs.
Every check below recomputes its quantity from the instance's edge list with
plain `Fraction` arithmetic; nothing from `densub` is trusted to verify
`densub`.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

# Each workload runs the operations of its parts, one part after the other.
# A part is a fixed recipe of instances and operations; parts keep their own
# names so that their inputs, pinned sim counts and bypass predictions stay
# separate (see README.md for why four parts make two workloads).
PARTS = {
    "congest": ("orient_dense", "approx_small"),
    "local_oracle": ("local_planted", "exact_sparse"),
}
NAMES = tuple(PARTS)
PART_NAMES = tuple(part for parts in PARTS.values() for part in parts)


@dataclass
class Instance:
    label: str
    n: int
    edges: list[tuple[int, int]]  # canonical (u < v), sorted

    @property
    def m(self) -> int:
        return len(self.edges)

    def max_degree(self) -> int:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return max(deg, default=0)

    def density(self, members) -> Fraction:
        inside = set(members)
        if not inside:
            return Fraction(0)
        m = sum(1 for u, v in self.edges if u in inside and v in inside)
        return Fraction(m, len(inside))

    def edge_list_text(self) -> str:
        body = [f"{u} {v}" for u, v in self.edges]
        return "\n".join([f"{self.n} {self.m}"] + body) + "\n"


def gnp(label: str, n: int, p: float, rng: random.Random) -> Instance:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Instance(label, n, edges)


def planted(label: str, n: int, clique: int, rng: random.Random) -> Instance:
    """G(n, 0.05) background with a clique on a random vertex subset."""
    edges = {
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.05
    }
    core = sorted(rng.sample(range(n), clique))
    edges.update((a, b) for i, a in enumerate(core) for b in core[i + 1 :])
    return Instance(label, n, sorted(edges))


def hub(label: str, n: int, p: float, rng: random.Random) -> Instance:
    """Sparse G(n, p) plus vertex 0 joined to everything (max degree n-1)."""
    edges = {(0, j) for j in range(1, n)}
    edges.update(
        (i, j) for i in range(1, n) for j in range(i + 1, n) if rng.random() < p
    )
    return Instance(label, n, sorted(edges))


def cycle(label: str, n: int) -> Instance:
    return Instance(label, n, sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)))


@dataclass
class Outcome:
    """What one operation produced, as read back from its output files."""

    ok: bool
    reason: str = ""
    rounds: int = 0
    bits: int = 0
    max_msg_bits: int = 0
    fingerprint: str = ""  # the report minus wall time, for exact comparisons


@dataclass
class Op:
    label: str
    argv: list[str]
    report_path: str
    verify: Callable[[dict], str | None]  # report -> failure reason or None
    extra_outputs: list[str] = field(default_factory=list)

    def outcome(self, rc) -> Outcome:
        """Read the report back and re-verify it; never raises."""
        try:
            with open(self.report_path, "r", encoding="utf-8") as f:
                report = json.load(f)
        except (OSError, ValueError) as exc:
            return Outcome(False, f"{self.label}: no report ({exc!r}), exit {rc}")
        trace = report.get("trace") or {}
        out = Outcome(
            True,
            rounds=trace.get("rounds", 0),
            bits=trace.get("total_bits", 0),
            max_msg_bits=trace.get("max_message_bits", 0),
            fingerprint=json.dumps(
                {k: v for k, v in report.items() if k not in ("wall_time_s", "command")},
                sort_keys=True,
            ),
        )
        check = report.get("check")
        if rc != 0:
            out.ok, out.reason = False, f"exit code {rc}"
        elif check is not None and not check.get("pass", False):
            out.ok, out.reason = False, "the CLI's own check failed"
        else:
            try:
                why = self.verify(report)
            except (KeyError, TypeError, ValueError, OSError) as exc:
                why = f"malformed output: {exc!r}"
            if why:
                out.ok, out.reason = False, why
        if not out.ok:
            out.reason = f"{self.label}: {out.reason}"
        return out

    def clear_outputs(self) -> None:
        for path in [self.report_path] + self.extra_outputs:
            if os.path.exists(path):
                os.remove(path)


def _orient_op(inst: Instance, path: str, eps: str, T: int) -> Op:
    dtilde = -(-inst.max_degree() // 2)  # ceil(maxdeg/2) >= D on every graph
    orient_path = path + ".orient"
    bound = (1 + Fraction(eps)) * dtilde

    def verify(report: dict) -> str | None:
        seen: dict[tuple[int, int], int] = {}
        outdeg = [0] * inst.n
        with open(orient_path, "r", encoding="utf-8") as f:
            for line in f:
                u_s, v_s, arrow = line.split()
                u, v = int(u_s), int(v_s)
                seen[(u, v)] = seen.get((u, v), 0) + 1
                if arrow == "->":
                    outdeg[u] += 1
                elif arrow == "<-":
                    outdeg[v] += 1
                else:
                    return f"bad arrow {arrow!r}"
        if len(seen) != inst.m or any(c != 1 for c in seen.values()):
            return "orientation does not list every edge exactly once"
        if set(seen) != set(inst.edges):
            return "orientation names edges that are not in the graph"
        if max(outdeg) > bound:
            return f"max outdegree {max(outdeg)} exceeds (1+eps)*dtilde = {bound}"
        return None

    argv = ["orient", "--in", path, "--dtilde", str(dtilde), "--eps", eps,
            "--T", str(T), "--orient-out", orient_path]
    return Op(f"orient {inst.label}", argv, path + ".json", verify, [orient_path])


def _local_op(inst: Instance, path: str, dtilde: Fraction, eps: str) -> Op:
    bound = (1 - Fraction(eps)) * dtilde

    def verify(report: dict) -> str | None:
        marked = report["result"]["marked"]
        if not marked:
            return "empty output although dtilde <= D"
        d = inst.density(marked)
        if Fraction(report["result"]["density"]) != d:
            return "reported density differs from the recomputed one"
        if d < bound:
            return f"density {d} below (1-eps)*dtilde = {bound}"
        return None

    argv = ["detect-local", "--in", path, "--dtilde",
            f"{dtilde.numerator}/{dtilde.denominator}", "--eps", eps]
    return Op(f"detect-local {inst.label}", argv, path + ".json", verify)


def _approx_op(inst: Instance, path: str, eps: str, seed: int) -> Op:
    e = Fraction(eps)

    def verify(report: dict) -> str | None:
        d = inst.density(report["result"]["marked"])
        if Fraction(report["result"]["density"]) != d:
            return "reported density differs from the recomputed one"
        D = Fraction(report["graph"]["oracle_density"])
        if d < (1 - e) * D / (1 + e):
            return f"density {d} below (1-eps)*D/(1+eps) with D = {D}"
        return None

    argv = ["approx", "--in", path, "--eps", eps, "--seed", str(seed)]
    return Op(f"approx {inst.label}", argv, path + ".json", verify)


def _exact_op(inst: Instance, path: str) -> Op:
    def verify(report: dict) -> str | None:
        D = Fraction(report["result"]["D"])
        if inst.density(report["result"]["witness"]) != D:
            return "witness density differs from D"
        if D < Fraction(inst.m, inst.n):
            return "D is below the whole graph's density m/n"
        return None

    return Op(f"exact {inst.label}", ["exact", "--in", path], path + ".json", verify)


def relabel(inst: Instance, rng: random.Random) -> Instance:
    """The same graph under a random permutation of its vertex ids."""
    perm = list(range(inst.n))
    rng.shuffle(perm)
    edges = sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in inst.edges
    )
    return Instance(inst.label, inst.n, edges)


# Per part and scale: the instance recipe. "full" is what the benchmark
# measures; "small" is the shrunk copy the self-test and the canary run.
SIZES = {
    "orient_dense": {"full": {"n": 270, "p": 0.95, "T": 64},
                     "small": {"hub_n": 300, "p": 0.01, "T": 64}},
    "approx_small": {"full": {"n": 12, "count": 3}, "small": {"n": 6, "count": 1}},
    "local_planted": {"full": {"n": 250, "clique": 12, "count": 2, "small_n": 18},
                      "small": {"n": 40, "clique": 6, "count": 1, "small_n": 10}},
    "exact_sparse": {"full": {"n": 2000, "p": 0.005, "count": 1, "cycle": 600},
                     "small": {"n": 200, "p": 0.03, "count": 1, "cycle": 60}},
}


def _shapes(name: str, size: dict):
    """The part's graphs before relabeling, each with the operation to
    run on it. Shapes come from fixed generator seeds: see README.md for why
    the run's seed permutes vertex ids instead of drawing new graphs."""
    def rng(k: int) -> random.Random:
        return random.Random(f"{name}:shape:{k}")

    if name == "orient_dense":
        if "hub_n" in size:
            g = hub(f"hub({size['hub_n']},{size['p']})", size["hub_n"], size["p"], rng(0))
        else:
            g = gnp(f"G({size['n']},{size['p']})", size["n"], size["p"], rng(0))
        yield g, lambda i, path, _s: _orient_op(i, path, "1/4", size["T"])
    elif name == "approx_small":
        for k in range(size["count"]):
            g = gnp(f"G({size['n']},0.5)#{k}", size["n"], 0.5, rng(k))
            yield g, lambda i, path, s: _approx_op(i, path, "1/8", s)
    elif name == "local_planted":
        c = size["clique"]
        for k in range(size["count"]):
            g = planted(f"planted({size['n']},{c})#{k}", size["n"], c, rng(k))
            yield g, lambda i, path, _s: _local_op(i, path, Fraction(c - 1, 2), "1/5")
        g = gnp(f"G({size['small_n']},0.35)", size["small_n"], 0.35, rng(size["count"]))
        yield g, lambda i, path, _s: _local_op(i, path, Fraction(i.m, i.n), "1/5")
    else:
        for k in range(size["count"]):
            g = gnp(f"G({size['n']},{size['p']})#{k}", size["n"], size["p"], rng(k))
            yield g, lambda i, path, _s: _exact_op(i, path)
        yield cycle(f"cycle({size['cycle']})", size["cycle"]), lambda i, path, _s: _exact_op(i, path)


def build_part(part: str, seed: int, scale: str, workdir: str) -> list[Op]:
    """Generate the part's instances from `seed`, write them as edge-list
    files under `workdir`, and return the operations to run on them."""
    if part not in SIZES:
        raise ValueError(f"unknown part {part!r}; choose from {', '.join(PART_NAMES)}")
    rng = random.Random(f"{part}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    ops = []
    for k, (shape, make) in enumerate(_shapes(part, SIZES[part][scale])):
        inst = relabel(shape, rng)
        path = os.path.join(workdir, f"{k}.el")
        with open(path, "w", encoding="utf-8") as f:
            f.write(inst.edge_list_text())
        op = make(inst, path, rng.randrange(1 << 30))
        op.argv += ["--out", op.report_path]
        ops.append(op)
    return ops


def build(name: str, seed: int, scale: str, workdir: str) -> list[Op]:
    """Every part of the workload, built from the same `seed`, in order."""
    if name not in PARTS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    ops = []
    for part in PARTS[name]:
        ops += build_part(part, seed, scale, os.path.join(workdir, part))
    return ops
