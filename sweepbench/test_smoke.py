"""Smoke test of the sweep benchmark itself, on the tiny size of each workload.

    python3 -m pytest -q sweepbench/test_smoke.py

Takes one to two minutes on 2 cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "sweepbench" / "run.py"),
                           "--size", "tiny", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(*args, cwd=ROOT):
    proc = bench(*args, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_bench(root: Path):
    """A checkout at `root` holding only BENCHMARK.json and sweepbench/."""
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(HERE, root / "sweepbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    out = result("--workload", workload, "--trace", str(trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] >= 1 and out["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in out["metrics"].items()}
    for metric in out["metrics"].values():
        assert isinstance(metric["value"], float)


def test_counts_repeat_across_traced_runs():
    counts = []
    for _ in range(2):
        result("--workload", "rate-sweep", "--trace", "1")
        run_dir = ROOT / ".sweepbench" / "rate-sweep-tiny-seed20240901-trace1"
        counts.append(json.loads((run_dir / "result.json").read_text())["detail"]["counts"])
    assert counts[0] == counts[1]


def test_perturbed_reference_trips_the_gate(tmp_path):
    copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = tmp_path / "sweepbench" / "reference.json"
    reference = json.loads(path.read_text())
    cell = reference["workloads"]["bias-sweep@tiny"]["16:1"]
    cell["bias_sq_exact"] *= 1 + 1e-3
    path.write_text(json.dumps(reference))
    out = result("--workload", "bias-sweep", "--trace", "0", cwd=tmp_path)
    assert not out["correct"]
    assert out["failed"] >= 1


def test_fails_without_the_program(tmp_path):
    copy_bench(tmp_path)
    proc = bench("--workload", "bias-sweep", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
