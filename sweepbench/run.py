"""Sweep benchmark for kilab.

    python3 sweepbench/run.py --workload rate-sweep --seed 20240901 \
        --seconds 36 --trace 0

Run from the root of a source checkout. Each sweep runs `kilab run`'s path
(ExperimentConfig -> run_sweep -> write_rows) in a fresh interpreter
(child.py) with the workload's BLAS thread count pinned in its environment.

--trace 0 repeats the untraced sweep for --seconds (at least MIN_REPS
times) and reports the end-to-end metrics. --trace 1 runs the sweep
MIN_REPS times untraced (and as often serially, for a parallel workload),
twice traced (spans, then tracemalloc peaks), times the kilab import, and
reports the per-layer metrics. Every sweep passes through the
correctness gate in gate.py. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the manifest, every
metric and the gate details go to .sweepbench/<run>/result.json, and the
spans of a traced run to spans.jsonl beside it. README.md defines the
metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import cell_failures, cell_key, sweep_failures
from workloads import DEFAULT_SEED, WORKLOADS, traced_with, workload_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".sweepbench"
REFERENCE = HERE / "reference.json"

MIN_REPS = 3           # set-up and wall time are medians over at least 3 sweeps
MAX_RUN_SECONDS = 100  # no new sweep starts after this
CHILD_TIMEOUT = 60
TAIL_LADDER = (99, 95, 90, 75)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_MODULES = ("kilab", "kilab.rates", "kilab.zonal")
IMPORT_REPEATS = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "cells_per_s": "1/s",
              "cell_ms_p50": "ms", "cell_ms_tail": "ms", "peak_rss_mb": "MiB"}
STAGES = traced_with("ms")
CALL_STAGES = traced_with("calls")
PEAK_STAGES = traced_with("peak")


def per_layer_units() -> dict:
    units = {"spectrum.compute_spectrum.ms": "ms"}
    units.update({f"import.{m}.ms": "ms" for m in IMPORT_MODULES})
    units.update({f"{s}.ms": "ms" for s in STAGES})
    units.update({f"{s}.calls": "count" for s in CALL_STAGES})
    units.update({f"{s}.peak_n2": "n2_doubles" for s in PEAK_STAGES})
    units.update({"zonal.pk_matrices_per_cell": "count",
                  "seeding.gram_builds_per_cell": "count",
                  "harness.cell.ms": "ms", "harness.cell_self.ms": "ms",
                  "harness.parallel_efficiency": "ratio",
                  "trace.overhead_frac": "ratio"})
    return units


class Bench:
    """One benchmark run: its workload, output directory and gate state."""

    def __init__(self, args):
        self.name = args.workload
        self.workload = WORKLOADS[args.workload]
        self.size = args.size
        self.seed = args.seed
        self.config = workload_config(args.workload, args.size, args.seed)
        self.cells = len(self.config["d_list"]) * self.config["replicates"]
        self.run_dir = OUT_DIR / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        self.env = child_env(self.workload["blas_threads"])
        self.reference, self.rtol = load_reference(args.workload, args.size,
                                                   args.seed)
        self.attempted = self.failed = 0
        self.problems = []     # every gate failure, as text
        self.children = 0
        self.child_info = None

    def sweep(self, mode: str, workers: int,
              against: list[dict] | None = None) -> tuple[dict, list[dict]]:
        """Run one sweep in a fresh interpreter and gate its rows.

        Rows of a traced sweep must also equal the untraced rows `against`.
        """
        self.children += 1
        tag = f"{self.children:02d}-{mode}"
        job = {"config": self.config, "workers": workers, "mode": mode,
               "csv": str(self.run_dir / f"{tag}.csv"),
               "spans_out": str(self.run_dir / "spans.jsonl")}
        result = run_child([str(HERE / "child.py")], self.env, job)
        with open(job["csv"], newline="") as f:
            rows = list(csv.DictReader(f))
        self.child_info = {k: result[k] for k in ("versions", "openblas")}
        self.gate(rows, tag, against)
        return result, rows

    def gate(self, rows: list[dict], tag: str, against: list[dict] | None):
        """Count cells that fail the gate; record sweep-level failures."""
        self.attempted += self.cells
        missing = self.cells - len(rows)
        if missing:
            self.fail(tag, f"{missing} of {self.cells} cells produced no row")
        passed = []
        expected = {cell_key(r): r for r in against} if against else None
        for row in rows[: self.cells]:
            reasons = cell_failures(row, self.reference, self.rtol)
            if expected is not None:
                reasons += row_mismatch(row, expected.get(cell_key(row)))
            if reasons:
                self.fail(tag, f"cell {cell_key(row)}: {'; '.join(reasons)}")
            else:
                passed.append(row)
        self.failed += self.cells - len(passed)
        for reason in sweep_failures(passed, self.workload):
            self.fail(tag, reason)

    def fail(self, tag: str, reason: str):
        self.problems.append(f"{tag}: {reason}")

    def manifest(self) -> dict:
        return {
            "workload": self.name, "size": self.size, "seed": self.seed,
            "config": self.config, "workers": self.workload["workers"],
            "blas_threads": self.workload["blas_threads"],
            "child_env": {v: self.env[v] for v in BLAS_VARS},
            "parent_blas_env": {k: v for k, v in os.environ.items()
                                if any(s in k for s in ("BLAS", "OMP", "MKL", "GOTO"))},
            **(self.child_info or {}),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "git_commit": git_commit(),
        }


def child_env(blas_threads: int) -> dict:
    """The parent's environment with kilab's sources and BLAS threads pinned.

    KILAB_SEED would override the workload seed. Bytecode caching stays on,
    as for an installed package, so set-up does not recompile kilab.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("KILAB_SEED", "PYTHONDONTWRITEBYTECODE")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = str(blas_threads)
    return env


def run_child(argv: list[str], env: dict, job: dict | None = None,
              python_flags: tuple[str, ...] = ()) -> dict | str:
    """Run one interpreter to completion; returns its JSON result or stderr.

    The child gets its own session so that a timeout kills it together with
    any pool workers it started.
    """
    cmd = [sys.executable, *python_flags, *argv]
    if job is not None:
        job = dict(job, t_spawn=time.perf_counter())
        cmd.append(json.dumps(job))
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"child {argv} timed out after {CHILD_TIMEOUT} s")
    if proc.returncode != 0:
        raise SystemExit(f"child {argv} failed ({proc.returncode}):\n{err}")
    return json.loads(out.strip().splitlines()[-1]) if job is not None else err


def row_mismatch(row: dict, expected: dict | None) -> list[str]:
    """Columns in which a traced row differs from the untraced one."""
    if expected is None:
        return ["cell missing from the untraced sweep"]
    differ = [c for c in row if c != "runtime_ms" and row[c] != expected[c]]
    return [f"traced row differs from run_cell in {differ}"] if differ else []


def load_reference(workload: str, size: str, seed: int):
    """Reference cells of this workload, or None away from the reference seed."""
    with open(REFERENCE) as f:
        ref = json.load(f)
    if seed != ref["seed"]:
        return None, ref["rtol"]
    key = workload if size == "full" else f"{workload}@{size}"
    return ref["workloads"][key], ref["rtol"]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def warm_up(env: dict):
    """Compile kilab's bytecode and load its libraries once, untimed."""
    run_child(["-c", "import kilab"], env)


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_percentile(samples: int) -> int | None:
    """Highest ladder percentile with at least ten of `samples` beyond it."""
    for pct in TAIL_LADDER:
        if samples * (100 - pct) / 100 >= 10:
            return pct
    return None


def sweep_record(result: dict, rows: list[dict], workers: int) -> dict:
    """Wall, set-up, per-cell times and peak RSS of one untraced sweep.

    Serial cell times are the gaps between consecutive rows yielded by
    run_sweep (the first from the end of set-up). Rows of a pool arrive in
    chunks, so parallel cell times come from each row's runtime_ms, which
    the worker measures around its cell.

    Peak RSS is the main process's peak plus, for each pool worker, how far
    the largest worker's peak rose above the main process's RSS at the end
    of set-up, when run_sweep forks the workers. A worker's own peak would
    count again every page it shares with the main process.
    """
    wall = result["t_end"] - result["t_spawn"]
    setup = result["t_setup"] - result["t_spawn"]
    if workers == 1:
        stamps = [result["t_setup"]] + result["row_times"]
        cell_ms = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
    else:
        cell_ms = [float(r["runtime_ms"]) for r in rows if not r["error"]]
    main_kb = result["maxrss_self_kb"]
    worker_kb = result["maxrss_children_kb"] if workers > 1 else 0
    growth_kb = max(0, worker_kb - result["rss_setup_kb"]) if workers > 1 else 0
    return {"wall_s": wall, "setup_s": setup, "cells": len(rows),
            "cells_per_s": len(rows) / (wall - setup), "cell_ms": cell_ms,
            "peak_rss_mb": (main_kb + workers * growth_kb) / 1024.0,
            "main_peak_rss_mb": main_kb / 1024.0,
            "worker_peak_rss_mb": worker_kb / 1024.0,
            "worker_growth_mb": growth_kb / 1024.0}


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    workers = bench.workload["workers"]
    start = time.perf_counter()
    records = []
    while True:
        result, rows = bench.sweep("plain", workers)
        records.append(sweep_record(result, rows, workers))
        elapsed = time.perf_counter() - start
        next_end = elapsed + elapsed / len(records)
        if next_end > MAX_RUN_SECONDS or (len(records) >= MIN_REPS
                                          and next_end > seconds):
            break
    cell_ms = [ms for r in records for ms in r["cell_ms"]]
    pct = tail_percentile(MIN_REPS * bench.cells)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "cells_per_s": statistics.median(r["cells_per_s"] for r in records),
        "cell_ms_p50": statistics.median(cell_ms),
        "cell_ms_tail": percentile(cell_ms, pct) if pct else max(cell_ms),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }
    detail = {"sweeps": len(records), "cell_samples": len(cell_ms),
              "cell_ms_tail_percentile": pct or 100,
              **{k: statistics.median(r[k] for r in records)
                 for k in ("main_peak_rss_mb", "worker_peak_rss_mb")},
              "records": [{k: v for k, v in r.items() if k != "cell_ms"}
                          for r in records]}
    return metrics, detail


def load_spans(path: Path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f]


def import_times(env: dict) -> dict:
    """Median cumulative `-X importtime` of IMPORT_MODULES, in ms."""
    samples = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORT_REPEATS):
        err = run_child(["-c", "import kilab"], env, python_flags=("-X", "importtime"))
        for line in err.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2] in samples:
                samples[parts[2]].append(int(parts[1]) / 1e3)
    return {f"import.{m}.ms": statistics.median(v) for m, v in samples.items()}


def layer_metrics(spans: list[dict], traced: dict, memory: dict) -> dict:
    """Per-layer metrics from the spans and counts of the traced sweeps."""
    cells = sorted({s["cell"] for s in spans if s["cell"] is not None})
    per_cell = {c: {} for c in cells}
    child_ms = [0.0] * len(spans)   # time covered by each span's children
    for s in spans:
        ms = (s["end"] - s["start"]) * 1e3
        if s["parent"] is not None:
            child_ms[s["parent"]] += ms
        if s["cell"] is not None:
            entry = per_cell[s["cell"]].setdefault(s["name"], [0.0, 0])
            entry[0] += ms
            entry[1] += 1
    cell_ms, self_ms = [], []
    for i, s in enumerate(spans):
        if s["name"] == "harness.run_cell":
            ms = (s["end"] - s["start"]) * 1e3
            cell_ms.append(ms)
            self_ms.append(ms - child_ms[i])

    def mean_over_cells(name, field):
        return statistics.fmean(per_cell[c].get(name, (0.0, 0))[field] for c in cells)

    metrics = {"spectrum.compute_spectrum.ms": sum(
        (s["end"] - s["start"]) * 1e3 for s in spans
        if s["name"] == "spectrum.compute_spectrum")}
    for stage in STAGES:
        metrics[f"{stage}.ms"] = mean_over_cells(stage, 0)
    for stage in CALL_STAGES:
        metrics[f"{stage}.calls"] = mean_over_cells(stage, 1)
    sizes = memory["cell_sizes"]
    n_max = max(sizes.values())
    largest = [c for c, n in sizes.items() if n == n_max]
    for stage in PEAK_STAGES:
        metrics[f"{stage}.peak_n2"] = statistics.median(
            memory["peaks"][c].get(stage, 0) / (8.0 * n_max * n_max) for c in largest)
    metrics["zonal.pk_matrices_per_cell"] = statistics.median(
        traced["counts"][c]["pk"] for c in largest)
    metrics["seeding.gram_builds_per_cell"] = statistics.median(
        traced["counts"][c]["gram"] for c in largest)
    metrics["harness.cell.ms"] = statistics.fmean(cell_ms)
    metrics["harness.cell_self.ms"] = statistics.fmean(self_ms)
    return metrics


def traced(bench: Bench) -> tuple[dict, dict]:
    workers = bench.workload["workers"]

    def untraced(workers: int) -> tuple[list[dict], list[dict]]:
        runs = [bench.sweep("plain", workers) for _ in range(MIN_REPS)]
        return [sweep_record(r, rows, workers) for r, rows in runs], runs[0][1]

    parallel, serial_rows = untraced(workers)
    serial, serial_rows = untraced(1) if workers > 1 else (parallel, serial_rows)

    spans_result, _ = bench.sweep("spans", 1, against=serial_rows)
    memory_result, _ = bench.sweep("memory", 1, against=serial_rows)
    if spans_result["counts"] != memory_result["counts"]:
        bench.fail("counts", "P_k and Gram counts differ between the two traced sweeps")

    metrics = layer_metrics(load_spans(bench.run_dir / "spans.jsonl"),
                            spans_result, memory_result)
    traced_wall = spans_result["t_end"] - spans_result["t_spawn"]
    serial_wall = statistics.median(r["wall_s"] for r in serial)
    metrics["trace.overhead_frac"] = traced_wall / serial_wall - 1.0
    metrics["harness.parallel_efficiency"] = statistics.median(
        sum(r["cell_ms"]) / 1e3 for r in serial) / (workers * statistics.median(
            r["wall_s"] - r["setup_s"] for r in parallel))
    metrics.update(import_times(bench.env))
    detail = {"counts": spans_result["counts"], "untraced_serial_wall_s": serial_wall,
              "traced_wall_s": traced_wall}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "kilab" / "__init__.py").is_file():
        print(f"error: no kilab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    bench = Bench(args)
    warm_up(bench.env)
    if args.trace:
        metrics, detail = traced(bench)
        units = per_layer_units()
    else:
        metrics, detail = end_to_end(bench, args.seconds)
        units = END_TO_END

    failed_frac = bench.failed / bench.attempted
    report = {"manifest": bench.manifest(), "failed_frac": failed_frac,
              "problems": bench.problems, "detail": detail,
              "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                          for k in sorted(units)}}
    with open(bench.run_dir / "result.json", "w") as f:
        json.dump(report, f, indent=1)

    for name in sorted(units):
        print(f"{name:42s} {metrics[name]:14.6g} {units[name]}")
    if not args.trace:
        print(f"{'cell_ms_tail percentile':42s} {detail['cell_ms_tail_percentile']:14d} "
              f"(of {detail['cell_samples']} cells in {detail['sweeps']} sweeps)")
        for name in ("main_peak_rss_mb", "worker_peak_rss_mb"):
            print(f"{name:42s} {detail[name]:14.6g} MiB (not bounded)")
    print(f"{'failed_frac':42s} {failed_frac:14.6g} ratio")
    for problem in bench.problems:
        print(f"gate: {problem}")
    print(f"results: {bench.run_dir / 'result.json'}")
    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
