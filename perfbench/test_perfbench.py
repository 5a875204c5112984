"""The benchmark's own tests: ``python -m pytest perfbench -q`` from the
repository root.  Each workload runs in its tiny mode (small inputs, one
measured second) and must print every metric of ``BENCHMARK.json`` by
name with its unit; an injected bad output must trip the correctness
gate."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("compile-sc", "compile-ft", "serve-mixed", "serve-cluster")


def bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None, done


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    code, result, done = bench("--workload", workload, "--tiny",
                               "--trace", str(trace))
    assert code == 0, done.stdout + done.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[kind]}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_trace_attributes_synthesis_to_the_right_backend():
    _, sc, _ = bench("--workload", "compile-sc", "--tiny", "--trace", "1")
    _, ft, _ = bench("--workload", "compile-ft", "--tiny", "--trace", "1")
    assert sc["metrics"]["core.sc_backend.synth_ms"]["value"] > 0
    assert sc["metrics"]["core.ft_backend.synth_ms"]["value"] == 0
    assert ft["metrics"]["core.sc_backend.synth_ms"]["value"] == 0
    assert ft["metrics"]["core.ft_backend.synth_ms"]["value"] > 0


def test_flipped_rz_angle_trips_the_correctness_gate():
    code, result, done = bench("--workload", "compile-sc", "--tiny",
                               "--inject-fault")
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert "verify_result failed" in done.stdout
    assert "statevector mismatch" in done.stdout


def test_refuses_to_run_without_the_compiler_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = bench("--workload", "compile-sc", cwd=tmp_path)
    assert code != 0 and result is None
