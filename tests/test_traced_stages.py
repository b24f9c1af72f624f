"""The sweep benchmark's traced run wraps kilab functions by name; each
name in sweepbench/workloads.py::TRACED must still exist, and so must every
other name sweepbench/child.py patches or calls."""

import importlib
import importlib.util
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "sweepbench" / "workloads.py"

# child.py patches the first three and drives the sweep through the rest
CHILD_NAMES = [
    "harness.compute_spectrum",
    "zonal.ZonalBasis.iter_values",
    "seeding.SpherePoints.gram",
    "harness.ExperimentConfig.from_dict",
    "harness.run_sweep",
    "harness.write_rows",
]


def _missing(names):
    missing = []
    for name in names:
        module, *path = name.split(".")
        obj = importlib.import_module(f"kilab.{module}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(name)
    return missing


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("sweepbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.TRACED
    missing = _missing(workloads.TRACED)
    assert not missing, f"traced stages missing from kilab: {missing}"


def test_child_names_exist():
    missing = _missing(CHILD_NAMES)
    assert not missing, f"names the traced run patches or calls are missing: {missing}"
