"""Workloads and traced stages of the sweep benchmark, shared by run.py and
child.py.

Each workload is one `kilab run` sweep: an ExperimentConfig, a worker count
and a BLAS thread count. The BLAS thread count is part of the workload
because unpinned sweeps are not steady on a small host (see README.md).
The "tiny" size keeps the same settings with far fewer, smaller cells; the
smoke test runs it.
"""

from __future__ import annotations

DEFAULT_SEED = 20240901

# Public kilab functions ("module.function") that the traced sweeps wrap in
# a span, with the per-layer metrics taken from each: "ms" the mean time per
# cell, "calls" the calls per cell, "peak" the tracemalloc peak during the
# call (only for stages that call no other peak stage). compute_spectrum and
# run_cell have metrics of their own; evaluate_cell is traced for the span
# tree only.
TRACED = {
    "spectrum.compute_spectrum": (),
    "harness.run_cell": (),
    "target.build_target": ("ms",),
    "target.make_dataset": ("ms",),
    "estimator.fit": ("ms", "calls", "peak"),
    "estimator.evaluate_cell": (),
    "estimator.variance_split": ("ms", "calls", "peak"),
    "estimator.exact_bias_by_degree": ("ms", "calls", "peak"),
    "estimator.concentration_report": ("ms", "calls", "peak"),
    "estimator.mc_errors": ("ms", "calls", "peak"),
    "spectrum.assemble_kernel_matrix": ("ms",),
}


def traced_with(metric: str) -> list[str]:
    """The traced functions that report `metric`, in TRACED order."""
    return [name for name, metrics in TRACED.items() if metric in metrics]

WORKLOADS = {
    # Many small cells: fixed per-cell costs dominate (Python degree loops,
    # MC at m >> n, pool dispatch, CSV writes); the parallel harness path.
    "rate-sweep": {
        "config": {"kernel": "exp", "gamma": 1.75, "s": 0.5, "sigma2": 1.0,
                   "d_list": [8, 12, 16, 24, 32], "replicates": 10,
                   "mc_test_points": 2000},
        "workers": 2, "blas_threads": 1,
        "tiny": {"d_list": [8, 16, 32], "replicates": 2},
        # criterion-06 at gamma = 1.75
        "slope": {"column": "var_exact", "theory": -0.25, "tolerance": 0.25},
        "min_mc_consistent": 0.9,
    },
    # Serial path with sigma2 = 0 and MC off: variance work is bypassed, so
    # fit, bias, concentration, harness overhead and set-up remain.
    "bias-sweep": {
        "config": {"kernel": "exp", "gamma": 1.5, "s": 2.0, "sigma2": 0.0,
                   "d_list": list(range(8, 33)), "replicates": 4,
                   "mc_test_points": 0},
        "workers": 1, "blas_threads": 1,
        "tiny": {"d_list": [8, 16, 32], "replicates": 2},
        # criterion-07 at s = 2
        "slope": {"column": "bias_sq_exact", "theory": -3.0, "tolerance": 0.6},
    },
    # One dense O(n^3) cell at n = 2025 on the integer-gamma line, with
    # BLAS on every core of a 2-core host.
    "large-cell": {
        "config": {"kernel": "exp", "gamma": 2.0, "s": 0.5, "sigma2": 1.0,
                   "d_list": [45], "replicates": 1, "mc_test_points": 2000},
        "workers": 1, "blas_threads": 2,
        "tiny": {"d_list": [12], "replicates": 1},
    },
}


def workload_config(name: str, size: str, seed: int) -> dict:
    """The ExperimentConfig fields of one workload at one size and seed."""
    wl = WORKLOADS[name]
    config = dict(wl["config"])
    if size == "tiny":
        config.update(wl["tiny"])
    config["master_seed"] = seed
    return config
