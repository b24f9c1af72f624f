"""`import kilab` loads numpy and scipy.linalg only; every
kilab process pays for its imports before the first cell runs. The BLAS
those imports load runs at the thread count tests/conftest.py sets."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.sparse", "scipy.spatial",
         "scipy.interpolate", "scipy.ndimage", "scipy.integrate", "scipy.special")


def test_import_kilab_skips_heavy_scipy_modules():
    # a fresh interpreter: other tests import scipy.stats into this one
    code = ("import kilab, kilab.cli, sys; "
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def _openblas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process (numpy and
    scipy each bundle one), read through its own C API."""
    maps = Path("/proc/self/maps")
    if not maps.exists():
        pytest.skip("needs /proc/self/maps")
    paths = {line.split()[-1] for line in maps.read_text().splitlines()
             if "openblas" in line.split()[-1].lower() and ".so" in line}
    threads = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if get is not None:
                    get.restype = ctypes.c_int
                    threads[path.rsplit("/", 1)[-1]] = get()
    return threads


def test_blas_runs_at_the_conftest_thread_count():
    import kilab  # noqa: F401  (loads numpy's and scipy.linalg's OpenBLAS)

    threads = _openblas_threads()
    if not threads:
        pytest.skip("no OpenBLAS loaded")
    limit = int(os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    assert all(1 <= n <= limit for n in threads.values()), threads
