"""Tests of the benchmark itself (not part of the package's test suite):

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import run

run.use_source()

import costlens  # noqa: E402
import costlens.cli  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _counters(ops) -> dict:
    """Every per-layer value that is a count, from one traced pass."""
    tracer = Tracer(run.TRACED, run.WORK)
    plain, traced = run.traced_run(ops, 0, tracer)
    assert plain.failed == traced.failed == 0, plain.failures + traced.failures
    metrics = run.layer_metrics(tracer, plain, traced)
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "bytes")}


def test_vit_b16_cli_baseline_counters():
    """Counts of the commit that defined the benchmark, for one CLI
    profile of the shipped vit_b16 spec with hardware."""
    spec = run.SRC / "costlens" / "data" / "specs" / "vit_b16.json"
    tracer = Tracer(run.TRACED, run.WORK)
    with tracer:
        result = workloads.run_cli(["profile", str(spec), "--hw", "tpu_like",
                                    "--format", "json"])
    assert result.code == 0
    totals = tracer.totals()
    assert totals["archspec.validate"].calls == 11
    assert [s.work for s in tracer.spans if s.name == "trace.execution_steps"] == [51] * 6
    assert totals["indicators.count_params"].calls == 3
    assert totals["cli.main"].calls == 1


def test_tracer_restores_every_binding():
    before = {name: dict(vars(m)) for name, m in sys.modules.items()
              if name.startswith("costlens")}
    with Tracer(run.TRACED, run.WORK):
        assert costlens.cli.validate is not before["costlens.cli"]["validate"]
    for name, namespace in before.items():
        assert dict(vars(sys.modules[name])) == namespace


def test_missing_target_reports_zero_calls():
    tracer = Tracer(run.TRACED + ["trace.no_such_function"], run.WORK)
    with tracer:
        costlens.count_params(costlens.build_vit(costlens.VitConfig(16, 2, 64, 1, 128)))
    totals = tracer.totals()
    assert totals["trace.no_such_function"].calls == 0
    assert totals["indicators.count_params"].calls == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counters_repeat_exactly(name, tmp_path):
    runs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        runs.append(_counters(workloads.WORKLOADS[name](7, tmp_path / sub)))
    assert runs[0] == runs[1]


@pytest.fixture
def perturbed_params(monkeypatch):
    original = costlens.compute_profile

    def off_by_one(*args, **kwargs):
        profile = original(*args, **kwargs)
        return dataclasses.replace(profile, params=profile.params + 1)

    monkeypatch.setattr(costlens, "compute_profile", off_by_one)
    monkeypatch.setattr(costlens.cli, "compute_profile", off_by_one)


@pytest.mark.parametrize("name", ["profile_sweep", "deep_stack"])
def test_params_off_by_one_is_counted_as_failure(name, tmp_path, perturbed_params):
    ops = workloads.WORKLOADS[name](3, tmp_path)
    tally = run.timed_run(ops, 0)
    assert tally.failed == len(ops) == tally.attempted - 1
    assert all("params" in line for line in tally.failures)


def test_wrong_tau_is_counted_as_failure(tmp_path, monkeypatch):
    original = costlens.cli.misnomer_report

    def shifted(records):
        report = original(records)
        taus = {k: v - 1e-4 for k, v in report.kendall_tau.items()}
        return dataclasses.replace(report, kendall_tau=taus)

    ops = workloads.WORKLOADS["compare_sweep"](3, tmp_path)
    monkeypatch.setattr(costlens.cli, "misnomer_report", shifted)
    tally = run.timed_run(ops, 0)
    assert tally.failed == len(ops)
    assert all("scipy tau-b" in line for line in tally.failures)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_result_line_matches_benchmark_json(name, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", "11",
         "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) and v["value"] >= 0
               for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "profile_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
