"""Experiment orchestration: configs, cell sweeps, CSV output, slope analysis.

A sweep enumerates (d, replicate) cells for one (kernel, gamma, s) setting
with n = round(c * d^gamma). Every cell derives its own seed substreams
from (master_seed, d, replicate, purpose), so execution order and worker
count never change the output.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import json
import math
import os
import sys
import time
import traceback
from dataclasses import asdict, dataclass, fields
from typing import Iterator

import numpy as np

from .errors import KilabError, UsageError
from .estimator import ErrorReport, FittedInterpolant, cell_bytes, evaluate_cell, fit
from .rates import classify, fit_slope
from .seeding import SeedPath, TAG_AXIS, TAG_MC
from .spectrum import (KernelSpec, Spectrum, compute_spectrum,
                       kernel_by_id, kernel_from_coefficients)
from .target import Target, build_target, make_dataset

SCHEMA_VERSION = 3

CSV_COLUMNS = [
    "schema_version", "kernel", "gamma", "s", "sigma2",
    "d", "n", "replicate", "seed_path",
    "l", "beta_norm_sq", "hs_norm_sq", "c0",
    *(f.name for f in fields(ErrorReport)),
    "runtime_ms", "error",
]

# largest n a cell may have: its RFP array of n (n + 1) / 2 doubles must fit
# in memory beside its n x (d + 1) points and its stages' buffers
# (estimator.cell_bytes), which run_sweep checks against physical memory
N_CAP = 8000


def _is_int(value) -> bool:
    """Python or numpy integer; bools and integral floats such as 8.0 are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Python or numpy integer or float; bools and strings are not."""
    return _is_int(value) or isinstance(value, (float, np.floating))


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a kernel, a (gamma, s) setting, a d-list and replicates."""

    gamma: float
    s: float
    d_list: tuple[int, ...]
    kernel: str = "exp"
    coefficients: tuple[float, ...] | None = None
    sigma2: float = 1.0
    n_coefficient: float = 1.0
    replicates: int = 1
    master_seed: int = 20240901
    mc_test_points: int = 2000

    def __post_init__(self):
        for name in ("replicates", "master_seed", "mc_test_points"):
            value = getattr(self, name)
            if not _is_int(value):
                raise UsageError(f"{name} must be an integer, got {value!r}")
        if not all(_is_int(d) for d in self.d_list):
            raise UsageError(f"every d must be an integer, got {list(self.d_list)}")
        for name in ("gamma", "s", "sigma2", "n_coefficient"):
            value = getattr(self, name)
            if not (_is_real(value) and math.isfinite(value)):
                raise UsageError(f"{name} must be a finite number, got {value!r}")
        if not all(map(_is_real, self.coefficients or ())):
            raise UsageError(f"coefficients must be numbers, got {self.coefficients!r}")
        if self.gamma <= 0:
            raise UsageError(f"gamma must be positive, got {self.gamma}")
        if self.s < 0:
            raise UsageError(f"s must be >= 0, got {self.s}")
        if self.replicates < 1:
            raise UsageError(f"replicates must be >= 1, got {self.replicates}")
        if self.master_seed < 0:
            raise UsageError(f"master_seed must be >= 0, got {self.master_seed}")
        if not self.d_list:
            raise UsageError("d_list must be non-empty")
        if any(d < 2 for d in self.d_list):
            raise UsageError("every d must be >= 2")
        if list(self.d_list) != sorted(set(self.d_list)):
            raise UsageError("d_list must be strictly increasing")
        if self.sigma2 < 0:
            raise UsageError(f"sigma2 must be >= 0, got {self.sigma2}")
        if self.mc_test_points != 0 and self.mc_test_points < 100:
            raise UsageError("mc_test_points must be 0 (off) or >= 100, "
                             f"got {self.mc_test_points}")
        self.kernel_spec()   # a bad kernel name or coefficients raise here
        for d in self.d_list:
            n = self.n_for(d)
            if n < 4:
                raise UsageError(f"d={d} gives n={n} < 4")
            if n > N_CAP:
                raise UsageError(f"d={d} gives n={n} above the cap {N_CAP}")

    def n_for(self, d: int) -> int:
        return int(round(self.n_coefficient * d ** self.gamma))

    def kernel_spec(self) -> KernelSpec:
        if self.coefficients is not None:
            spec = kernel_from_coefficients(self.coefficients)
            if self.kernel != "custom":
                raise UsageError('coefficients need "kernel": "custom", '
                                 f"got {self.kernel!r}")
            return spec
        return kernel_by_id(self.kernel)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise UsageError("config must be a JSON object")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        data = dict(data)
        try:
            for key in ("d_list", "coefficients"):    # JSON arrays
                if isinstance(data.get(key), list):
                    data[key] = tuple(data[key])
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad config: {exc}") from None

    def to_dict(self) -> dict:
        return asdict(self)    # json writes its tuples as lists

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as f:
                data = json.load(f)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {path} is not valid JSON: {exc}") from None
        return cls.from_dict(data)


def fit_cell(config: ExperimentConfig, spectrum: Spectrum, d: int,
             replicate: int) -> tuple[Target, FittedInterpolant, SeedPath]:
    """The cell recipe: the target, the fitted model and the seed path of cell
    (d, replicate), every random stream a child of (master_seed, d, replicate)."""
    seed = SeedPath(config.master_seed, (d, replicate))
    target = build_target(spectrum, config.s, config.gamma, seed.child(TAG_AXIS))
    dataset = make_dataset(target, config.n_for(d), config.sigma2, seed)
    return target, fit(dataset, spectrum), seed


def run_cell(config: ExperimentConfig, spectrum: Spectrum, d: int,
             replicate: int) -> dict:
    """Compute one CSV row; any Exception becomes an error row "<Type>: <message>"
    (with a traceback on stderr unless it is a KilabError)."""
    row = {
        "schema_version": SCHEMA_VERSION,
        "kernel": spectrum.spec.family_id,
        "gamma": config.gamma, "s": config.s, "sigma2": config.sigma2,
        "d": d, "n": config.n_for(d), "replicate": replicate,
        "seed_path": f"{config.master_seed}:{d}:{replicate}",
        "error": "",
    }
    t0 = time.perf_counter()
    try:
        target, model, seed = fit_cell(config, spectrum, d, replicate)
        report = evaluate_cell(model, target,
                               mc_test_points=config.mc_test_points,
                               mc_seed=seed.child(TAG_MC))
    except Exception as exc:  # one failing cell must not end the sweep
        if not isinstance(exc, KilabError):
            traceback.print_exc()
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    row.update(l=target.l, beta_norm_sq=target.l2_norm_sq,
               hs_norm_sq=target.hs_norm_sq, c0=target.c0, **vars(report))
    row["runtime_ms"] = (time.perf_counter() - t0) * 1e3
    return row


def _keep_freed_buffers() -> None:
    """Let glibc's malloc keep freed blocks of up to 32 MiB for reuse.

    Every cell frees its RFP array and panels, 128 KiB to 32 MiB. glibc
    returns a block above its mmap threshold to the system when it is freed,
    and trims the heap once its free top exceeds twice that threshold. The
    threshold only rises when such a block is freed, so it depends on what
    the process freed before; left low, every cell faults its buffers in
    again page by page (128 minor faults and about 1.4 ms more in a cell at
    n = 181). Both thresholds are pinned at the top of glibc's own dynamic
    range, 32 MiB and twice that; larger blocks are still mapped and
    returned. Without glibc's mallopt nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)    # M_TRIM_THRESHOLD


def _physical_memory() -> int | None:
    """Physical memory in bytes, or None where sysconf does not report it."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None
    return pages * page_size if pages > 0 and page_size > 0 else None


def _resident_memory() -> int:
    """This process's resident size in bytes, or 0 where the OS does not
    report it (Linux's /proc/self/statm does)."""
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


def run_sweep(config: ExperimentConfig, workers: int = 1) -> Iterator[dict]:
    """One row per (d, replicate) cell, in deterministic cell order.

    Every spectrum is computed by the call itself, before the first row is
    requested: a d whose spectrum fails raises here, before a CSV is opened.
    So does a sweep that cannot fit in physical memory, before its spectra:
    a cell killed for memory would end the sweep with no error row. The
    check counts this process's resident size once, as forked workers share
    its pages, and the largest cell (estimator.cell_bytes) once per
    concurrent worker. Only a parallel sweep imports the process pool (about
    15 ms), before its spectra, so what a forked worker holds beyond set-up
    is its cells' alone.
    """
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    busy = min(workers, len(config.d_list) * config.replicates)
    cell, d = max((cell_bytes(config.n_for(d), d, config.mc_test_points, config.sigma2), d)
                  for d in config.d_list)
    need, memory = _resident_memory() + busy * cell, _physical_memory()
    if memory is not None and need > memory:
        raise UsageError(f"this process and {busy} cell(s) of d={d}, n={config.n_for(d)} need "
                         f"{need / 2**30:.2f} GiB, above {memory / 2**30:.2f} GiB of physical memory")
    _keep_freed_buffers()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
    spec = config.kernel_spec()
    spectra = {d: compute_spectrum(spec, d) for d in config.d_list}
    cells = [(config, spectra[d], d, r)
             for d in config.d_list for r in range(config.replicates)]
    if workers == 1:
        return map(run_cell, *zip(*cells))
    return _pool_map(ProcessPoolExecutor, cells, workers)


def _pool_map(executor: type, cells: list, workers: int) -> Iterator[dict]:
    with executor(max_workers=workers, initializer=_keep_freed_buffers) as pool:
        yield from pool.map(run_cell, *zip(*cells), chunksize=4)


def _format_cell(value) -> str:
    """The one CSV encoding: None is empty, bools are true/false and every
    float (numpy scalars too) is repr(float(value)), so inf is "inf"."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_rows(rows: Iterator[dict], path: str | None,
               columns: list[str] = CSV_COLUMNS) -> tuple[int, int]:
    """Stream rows to CSV at path, or to standard output when path is None,
    flushing incrementally; returns (rows, failures)."""
    total = failed = 0
    with (contextlib.nullcontext(sys.stdout) if path is None else
          open(path, "w", newline="")) as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        f.flush()
        for row in rows:
            writer.writerow([_format_cell(row.get(c)) for c in columns])
            f.flush()
            total += 1
            if row.get("error"):
                failed += 1
    return total, failed


def read_rows(path: str) -> list[dict]:
    with open(path) as f:
        return list(csv.DictReader(f))


def analyze(results_path: str, quantity: str, tolerance: float = 0.25) -> dict:
    """Fit the log-log slope of a result column against the theory exponent
    of the one (gamma, s) setting that the successful rows record."""
    if quantity not in ("var_exact", "bias_sq_exact", "total"):
        raise UsageError(f"unknown quantity {quantity!r}")
    if not 0 <= tolerance < math.inf:
        raise UsageError(f"tolerance must be a finite number >= 0, got {tolerance}")
    rows = [r for r in read_rows(results_path) if not r.get("error")]
    if not rows:
        raise UsageError(f"no successful result rows in {results_path}")
    try:
        settings = {(float(r["gamma"]), float(r["s"])) for r in rows}
    except (KeyError, TypeError, ValueError):
        raise UsageError(f"rows of {results_path} do not all record gamma and s") from None
    for gamma, s in settings:   # first: NaN settings never compare equal
        if not (math.isfinite(gamma) and math.isfinite(s)):
            raise UsageError(f"rows of {results_path} record gamma={gamma}, s={s}")
    if len(settings) > 1:
        raise UsageError(f"{results_path} holds rows of {len(settings)} "
                         "(gamma, s) settings; fit one sweep at a time")
    (gamma, s), = settings
    columns = ("bias_sq_exact", "var_exact") if quantity == "total" else (quantity,)
    sf = fit_slope((float(r["d"]), sum(float(r[c]) for c in columns)) for r in rows)
    p = classify(s, gamma)
    theory = {"var_exact": p.var_exponent, "bias_sq_exact": p.bias_exponent,
              "total": p.total_exponent}[quantity]
    if theory is None:
        raise UsageError("bias exponent is undefined at integer gamma")
    passed = abs(sf.slope - theory) <= tolerance
    return {
        "quantity": quantity, "gamma": gamma, "s": s,
        "slope": sf.slope, "stderr": sf.stderr, "r2": sf.r2,
        "intercept": sf.intercept,
        "d_values": list(sf.d_values),
        "theory_exponent": theory, "tolerance": tolerance,
        "passed": bool(passed),
    }


def _parse_range(text: str) -> np.ndarray:
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise UsageError(f"range must be start:stop:step, got {text!r}") from None
    if (not all(map(math.isfinite, (start, stop, step)))
            or step <= 0 or stop < start):
        raise UsageError(f"bad range {text!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    # to 12 decimals, band's integer tolerance: 0.3, not 0.30000000000000004
    return np.round(start + step * np.arange(count), 12)


PHASE_COLUMNS = ["gamma", "s", "l", "Gamma_gamma", "var_exp", "bias_exp",
                 "total_exp", "minimax_exp", "classification"]


def phase_grid(gamma_range: str, s_range: str) -> Iterator[dict]:
    """Classified (gamma, s) grid rows keyed by PHASE_COLUMNS, for
    write_rows; every integer gamma within the gamma range is included."""
    gammas = [g for g in _parse_range(gamma_range) if g > 0]
    if not gammas:
        raise UsageError("gamma range contains no positive values")
    s_values = [s for s in _parse_range(s_range) if s >= 0]
    if not s_values:
        raise UsageError("s range contains no admissible values")
    lo, hi = math.ceil(min(gammas)), math.floor(max(gammas))
    extra = [float(g) for g in range(lo, hi + 1)
             if not any(abs(g - x) < 1e-12 for x in gammas)]
    for g in sorted(list(gammas) + extra):
        for s in s_values:
            p = classify(s, g)
            yield {
                "gamma": p.gamma, "s": p.s, "l": p.l,
                "Gamma_gamma": p.Gamma_gamma, "var_exp": p.var_exponent,
                "bias_exp": p.bias_exponent, "total_exp": p.total_exponent,
                "minimax_exp": p.minimax_exponent,
                "classification": p.classification,
            }
