"""`import kilab` loads numpy and the bare scipy package only, and maps one
OpenBLAS library, numpy's: every kilab process pays for its imports before
the first cell runs. That BLAS runs at the thread count tests/conftest.py
sets."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy.linalg", "scipy.stats", "scipy.optimize", "scipy.sparse",
         "scipy.spatial", "scipy.interpolate", "scipy.ndimage", "scipy.integrate",
         "scipy.special")


def _fresh(code: str) -> str:
    """Standard output of code run in a fresh interpreter after
    `import kilab, kilab.cli`: other tests import scipy modules into this one."""
    out = subprocess.run([sys.executable, "-c", "import kilab, kilab.cli, sys; " + code],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True)
    return out.stdout


def test_import_kilab_skips_heavy_scipy_modules():
    assert _fresh(f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))").split() == []


def test_import_kilab_skips_the_process_pool():
    # only a sweep with workers > 1 starts one
    assert _fresh("print('concurrent.futures.process' in sys.modules)").split() == ["False"]


def test_import_kilab_loads_numpy_random():
    # numpy >= 2 loads numpy.random on first use: without this the first
    # cell of every sweep pays about 20 ms of imports
    assert _fresh("print('numpy.random' in sys.modules)").split() == ["True"]


def test_a_config_and_a_spectrum_leave_numpy_polynomial_unimported():
    # KernelSpec checks a closed-form phi against Horner's rule, as eval_phi
    # runs it; importing numpy.polynomial for polyval cost every process
    # about 0.6 MiB of RSS and 4 ms
    code = ("from kilab.harness import ExperimentConfig; "
            "from kilab.spectrum import compute_spectrum; "
            "config = ExperimentConfig(gamma=1.5, s=0.5, d_list=(8,)); "
            "compute_spectrum(config.kernel_spec(), 8); "
            "print('numpy.polynomial' in sys.modules)")
    assert _fresh(code).split() == ["False"]


def test_import_kilab_maps_one_openblas():
    # fit's LAPACK calls run on numpy's OpenBLAS; scipy.linalg would map its own
    if not Path("/proc/self/maps").exists():
        pytest.skip("needs /proc/self/maps")
    libs = _fresh("print(*{line.split()[-1] for line in open('/proc/self/maps') "
                  "if 'openblas' in line.split()[-1].lower()})").split()
    assert len(libs) == 1, libs


def _openblas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process (numpy and
    scipy.linalg each bundle one), read through its own C API."""
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
    import kilab  # noqa: F401  (loads numpy's OpenBLAS)

    threads = _openblas_threads()
    if not threads:
        pytest.skip("no OpenBLAS loaded")
    limit = int(os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    assert all(1 <= n <= limit for n in threads.values()), threads
