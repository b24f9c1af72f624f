"""`import kilab` loads numpy, scipy.linalg and scipy.special only; every
kilab process pays for its imports before the first cell runs."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.sparse", "scipy.spatial",
         "scipy.interpolate", "scipy.ndimage", "scipy.integrate")


def test_import_kilab_skips_heavy_scipy_modules():
    # a fresh interpreter: other tests import scipy.stats into this one
    code = ("import kilab, kilab.cli, sys; "
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
