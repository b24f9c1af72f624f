"""The sweep benchmark's traced run wraps kilab functions by name; each
name in sweepbench/workloads.py::TRACED must still exist."""

import importlib
import importlib.util
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "sweepbench" / "workloads.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("sweepbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.TRACED
    missing = []
    for name in workloads.TRACED:
        module, function = name.split(".")
        if not callable(getattr(importlib.import_module(f"kilab.{module}"), function, None)):
            missing.append(name)
    assert not missing, f"traced stages missing from kilab: {missing}"
