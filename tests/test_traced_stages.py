"""The sweep benchmark's traced run wraps kilab functions by name; each
name in sweepbench/workloads.py::TRACED must still exist, and so must every
other name sweepbench/child.py patches or calls, with a signature that
accepts the arguments child.py passes."""

import importlib
import importlib.util
import inspect
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "sweepbench" / "workloads.py"

# child.py patches the first four (its wrappers take these arguments) and
# drives the sweep through the rest: (name, positional args, keyword args)
CHILD_CALLS = [
    ("seeding.SpherePoints.gram", ("points", "other"), {}),
    ("zonal.ZonalBasis.iter_values", ("basis", "t"), {}),
    ("harness.run_cell", ("config", "spectrum", "d", "replicate"), {}),
    ("harness.compute_spectrum", ("spec", "d"), {}),
    ("harness.ExperimentConfig.from_dict", ("data",), {}),
    ("harness.run_sweep", ("config",), {"workers": 1}),
    ("harness.write_rows", ("rows", "path"), {}),
]


def _resolve(name):
    module, *path = name.split(".")
    obj = importlib.import_module(f"kilab.{module}")
    for attr in path:
        obj = getattr(obj, attr, None)
    return obj


def _missing(names):
    return [name for name in names if not callable(_resolve(name))]


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("sweepbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.TRACED
    missing = _missing(workloads.TRACED)
    assert not missing, f"traced stages missing from kilab: {missing}"


def test_child_names_exist():
    missing = _missing(name for name, _, _ in CHILD_CALLS)
    assert not missing, f"names the traced run patches or calls are missing: {missing}"


def test_child_call_shapes_bind():
    for name, args, kwargs in CHILD_CALLS:
        try:
            inspect.signature(_resolve(name)).bind(*args, **kwargs)
        except TypeError as exc:
            raise AssertionError(f"child.py's call of {name} no longer binds: {exc}")
