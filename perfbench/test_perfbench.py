"""Self-test of the benchmark: every part of every workload shrunk, on both
recorded seeds.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BASELINE = run.load_baseline()
SEEDS = [BASELINE["seeds"]["default"], BASELINE["seeds"]["held_out"]]


@pytest.fixture(scope="module", autouse=True)
def densub_cli():
    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    import densub.cli

    return densub.cli


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", workloads.PART_NAMES)
def test_part_shrunk(name, seed, tmp_path):
    ops = workloads.build_part(name, seed, "small", str(tmp_path))
    passes = [run.run_pass(ops, None), run.run_pass(ops, None)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        passes.append(run.run_pass(ops, tracer))
    finally:
        assert tracer.restore() == []
    assert tracer.missing == {}
    failures = [o.reason for p in passes for o in p.outcomes if not o.ok]
    assert failures == []  # fail_ratio == 0
    # outputs and sim counts repeat exactly, the traced pass included
    assert run.check_passes(passes, ops) == []
    assert BASELINE["pinned"][name][f"small@{seed}"] == passes[0].op_sims()

    traced = passes[-1]
    layer = spans.layer_values(traced.spans, traced.sim()["sim_bits"])
    assert set(layer) == set(spans.LAYER_METRICS)
    if name == "orient_dense":
        # the pipeline never asks the oracle; at full size (m above the
        # CLI's ORACLE_EDGE_LIMIT) the CLI does not either
        assert layer["oracle.exact_calls"] == layer["cli.oracle_calls"]
    else:
        assert [k for k in layer if k.startswith("orient.") and k.endswith("_calls") and layer[k]] == []
    if name in ("local_planted", "exact_sparse"):
        assert layer["engine.run_calls"] == 0
        assert layer["mwu.dual_calls"] == layer["mwu.primal_calls"] == 0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_runs_its_parts_in_order(name, tmp_path):
    seed = SEEDS[0]
    labels = [op.label for op in workloads.build(name, seed, "small", str(tmp_path / "all"))]
    want = [
        op.label
        for part in workloads.PARTS[name]
        for op in workloads.build_part(part, seed, "small", str(tmp_path / part))
    ]
    assert labels == want
    assert run.canary(name, str(tmp_path / "canary"), BASELINE) == []


def test_missing_wrap_point_makes_metrics_absent(monkeypatch):
    monkeypatch.setattr(
        spans, "POINTS", spans.POINTS + [("oracle.flow", "densub.oracle", "_renamed_helper")]
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert "oracle.flow" in tracer.missing
    finally:
        assert tracer.restore() == []
    gone = spans.absent(tracer.missing)
    assert {"oracle.flow_calls", "oracle.flow_s", "oracle.exact_self_s"} <= set(gone)
    assert "engine.run_calls" not in gone


def test_refuses_to_run_without_sources(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "local_oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
