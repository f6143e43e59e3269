"""Smoke test of the benchmark itself, at the small ``--size smoke``.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload emits exactly the metrics BENCHMARK.json names,
with their units, that the correctness checks pass and repeat, that the
predicted zero-call cells hold, that a wrong reference value fails the run,
and that the tracer survives functions that no longer exist.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--size", "smoke", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.fixture(scope="module")
def traced():
    return {w: _result(_run("--workload", w, "--trace", "1")) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_and_positive(workload):
    result = _result(_run("--workload", workload, "--trace", "0", "--seed", "3"))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics_named(traced):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in traced.values():
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_traced_call_counts_repeat(traced):
    again = _result(_run("--workload", "sts-sphere", "--trace", "1"))
    calls = {k: v["value"] for k, v in again["metrics"].items() if k.endswith(".calls")}
    first = {k: v["value"] for k, v in traced["sts-sphere"]["metrics"].items()
             if k.endswith(".calls")}
    assert calls == first


def test_predicted_zero_call_cells(traced):
    def calls(workload, prefix):
        return [v["value"] for k, v in traced[workload]["metrics"].items()
                if k.startswith(prefix) and k.endswith(".calls")]

    for workload in ("sts-sphere", "sts-bayes"):
        assert not any(calls(workload, "gaussian."))
    for module in ("special.", "vmf.", "hypersphere."):
        assert not any(calls("sts-gauss", module))
        assert any(calls("sts-sphere", module))
    for workload in WORKLOADS:
        evidence = calls(workload, "comparison.nw_log_evidence")
        assert bool(evidence[0]) == (workload == "sts-bayes")


def test_wrong_reference_fails_the_run(tmp_path):
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    reference_path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(reference_path.read_text())
    rho = reference["smoke"]["sts-bayes"]["rho"]["bayes_factor"]
    first = sorted(rho)[0]
    rho[first] += 1e-4
    reference_path.write_text(json.dumps(reference))
    proc = _run("--workload", "sts-bayes", cwd=tmp_path)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_wraps_copies_and_reports_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import tracer
    from groupsim import special, vmf

    monkeypatch.setattr(tracer, "TARGETS", {
        "special": ("bessel_ratio", "no_such_function"),
        "no_such_module": ("anything",),
    })
    original = special.bessel_ratio
    trace = tracer.Tracer()
    trace.install()
    try:
        assert vmf.bessel_ratio is special.bessel_ratio is not original
        special.bessel_ratio(5, 2.0)
    finally:
        trace.uninstall()
    assert vmf.bessel_ratio is original and special.bessel_ratio is original
    assert sorted(trace.absent) == ["no_such_module.anything", "special.no_such_function"]
    calls, _ = trace.self_times()
    assert calls["special.bessel_ratio"] == 1
