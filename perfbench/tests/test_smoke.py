"""Smoke test of the benchmark: every workload at its minimal length (one
operation), untraced and traced. Takes about three minutes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=400,
    )


def records(proc) -> tuple[list[dict], dict]:
    assert proc.returncode == 0, proc.stderr
    *lines, result = [json.loads(line) for line in proc.stdout.splitlines()]
    return lines, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    lines, result = records(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        for name in expected:
            assert result["metrics"][name]["value"] > 0, name

    assert lines[0]["record"] == "environment"
    assert lines[0]["blas_threads"] == "1"
    checks = [c for line in lines if line["record"] == "operation" for c in line["checks"]]
    assert result["attempted"] == len(checks) >= 1
    assert result["failed"] == sum(not c["ok"] for c in checks) == 0
    assert result["correct"] is True
    if not trace:
        passed = sum(c["ok"] and c["status"] in (None, "Optimal") for c in checks)
        assert result["metrics"]["check_pass_rate"]["value"] == passed / len(checks)


def test_counts_repeat_for_a_seed():
    counts = ("sdp.iterations", "relax.num_moments", "relax.largest_block",
              "oracle.eigenvalues_calls", "oracle.lp_atoms", "analysis.bound_below_exact")
    first, second = (records(bench("sweep_variance", 1, seed=11))[1]["metrics"]
                     for _ in range(2))
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert first["sdp.iterations"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
