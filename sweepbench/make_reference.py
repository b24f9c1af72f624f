"""Write reference.json: the exact columns of every cell at the default seed.

    python3 sweepbench/make_reference.py

Runs one untraced sweep per workload and size, pinned like the benchmark,
and stores var_exact, bias_sq_exact, var_low_degree and var_high_degree of
each cell. The benchmark compares against these at the default seed with
relative tolerance RTOL, fixed here before any comparison was made: the
values are bit-identical at a fixed BLAS thread count and library build,
and move by far less than 1e-6 across thread counts, while any change to
the estimator's mathematics moves them by more.
"""

import csv
import json

from gate import EXACT_COLUMNS, cell_failures, cell_key
from run import HERE, OUT_DIR, REFERENCE, child_env, run_child, warm_up
from workloads import DEFAULT_SEED, WORKLOADS, workload_config

RTOL = 1e-6


def main():
    OUT_DIR.mkdir(exist_ok=True)
    workloads = {}
    for name, workload in WORKLOADS.items():
        env = child_env(workload["blas_threads"])
        warm_up(env)
        for size in ("full", "tiny"):
            path = OUT_DIR / f"reference-{name}-{size}.csv"
            job = {"config": workload_config(name, size, DEFAULT_SEED),
                   "workers": workload["workers"], "mode": "plain",
                   "csv": str(path)}
            run_child([str(HERE / "child.py")], env, job)
            with open(path, newline="") as f:
                rows = list(csv.DictReader(f))
            for row in rows:
                reasons = cell_failures(row, None, RTOL)
                if reasons:
                    raise SystemExit(f"{name} {cell_key(row)}: {reasons}")
            key = name if size == "full" else f"{name}@{size}"
            workloads[key] = {cell_key(row): {c: float(row[c]) for c in EXACT_COLUMNS}
                              for row in rows}
    with open(REFERENCE, "w") as f:
        json.dump({"seed": DEFAULT_SEED, "rtol": RTOL, "workloads": workloads},
                  f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
