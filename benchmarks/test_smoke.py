"""Tiny-size smoke test of the benchmark harness.

Run from the repository root:

    python3 -m pytest benchmarks/test_smoke.py -q

It checks the tracer's rebinding and restore, one op of each workload,
that sweep ops pass where the defect probe fails,
that a short run prints exactly the metrics BENCHMARK.json declares, and
that the benchmark refuses to run without the csck sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from csck import cli, geometry, quadrature  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tracer_rebinds_every_namespace_and_restores():
    original = quadrature.solve_g, cli.classify
    with Tracer() as tracer:
        assert geometry.solve_g is quadrature.solve_g is not original[0]
        assert cli.classify is workloads.branches.classify is not original[1]
        workloads.Sweep(0, None).run((2, 6.0, 0.0, 0.0, (0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9)))
    assert (geometry.solve_g, cli.classify) == original
    stats, child_counts = summarize(tracer.arrays(), tracer.names)
    assert stats["branches.classify"]["calls"] == 1
    assert stats["quadrature.solve_g"]["calls"] == 8
    evals, lonely = child_counts("quadrature.solve_g", "quadrature.eval_F")
    assert evals > 0 and lonely == 0
    assert all(s["self_ms"] >= 0.0 for s in stats.values())


def test_one_op_per_workload(tmp_path):
    sweep = workloads.Sweep(0, None)
    assert sweep.run((2, 6.0, 0.0, 0.0, (0.1, 0.9) * 4)) == []
    assert workloads.Profile(0, None).run(("1.2.1", None)) == []
    cli_wl = workloads.Cli(0, str(tmp_path), str(ROOT / "src"))
    assert cli_wl.run("classify") == []
    cli_wl.inprocess = True
    assert cli_wl.run("classify") == []


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_short_run_prints_declared_end_to_end_metrics():
    proc = _bench(ROOT, "--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_pass_prints_declared_per_layer_metrics(monkeypatch):
    monkeypatch.setattr(workloads.Sweep, "traced_ops", 20)
    wl = workloads.Sweep(0, None)
    out, metrics, plain_ok = run.traced(wl)
    assert plain_ok and out.attempted == 20
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["branches.classify.calls"][0] == 20


def test_sweep_stays_clear_of_the_defects_the_probe_counts(monkeypatch):
    monkeypatch.setattr(workloads.Sweep, "traced_ops", 100)
    sweep = workloads.Sweep(0, None)
    assert all(sweep.run(item) == [] for item in sweep.traced_items())
    assert run.defect_probe(sweep) > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    with pytest.raises((ValueError, IndexError)):
        _last_json(proc.stdout)
