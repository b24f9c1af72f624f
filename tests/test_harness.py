import ctypes
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kilab import (ExperimentConfig, SpherePoints, UsageError, analyze,
                   classify, compute_spectrum, phase_grid, read_rows, run_cell,
                   run_sweep, write_rows)
from kilab import estimator, evaluate_cell, harness
from kilab.cli import main as cli_main
from kilab.errors import NumericalError
from kilab.harness import CSV_COLUMNS, PHASE_COLUMNS, _parse_range
from kilab.seeding import TAG_MC
from kilab.verify import report_to_json, run_verify
from kilab.zonal import ZonalBasis


def small_config(**overrides):
    base = dict(gamma=1.3, s=1.0, d_list=(6, 8), kernel="exp",
                n_coefficient=2.0, replicates=2, mc_test_points=0,
                master_seed=42)
    base.update(overrides)
    return ExperimentConfig(**base)


def _cli_run(tmp_path, data):
    """`kilab run` on `data` written as a config file: (exit code, CSV written)."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "rows.csv"
    return cli_main(["run", "--config", str(cfg_path), "-o", str(out)]), out.exists()


def test_n_for():
    cfg = small_config()
    assert cfg.n_for(6) == round(2.0 * 6**1.3)
    assert cfg.n_for(8) == round(2.0 * 8**1.3)


def test_config_validation():
    with pytest.raises(UsageError):
        small_config(gamma=-1.0)
    with pytest.raises(UsageError):
        small_config(s=-0.1)
    with pytest.raises(UsageError):
        small_config(d_list=(8, 6))
    with pytest.raises(UsageError):
        small_config(d_list=(6, 6))
    with pytest.raises(UsageError):
        small_config(d_list=(1,))
    with pytest.raises(UsageError):
        small_config(replicates=0)
    with pytest.raises(UsageError):
        small_config(n_coefficient=0.1)  # n < 4
    with pytest.raises(UsageError):
        small_config(d_list=(6, 8, 4000))  # n above cap


@pytest.mark.parametrize("field, value", [
    ("sigma2", -1.0), ("mc_test_points", 50), ("kernel", "foo"),
    ("replicates", 2.5), ("master_seed", 4.5), ("coefficients", (0.5, -0.1)),
    ("coefficients", (0.9, 0.2)), ("d_list", (6.7, 8.2)),
    ("mc_test_points", 150.5), ("s", math.nan), ("sigma2", math.nan),
    ("gamma", math.inf), ("n_coefficient", math.inf), ("s", math.inf),
    ("gamma", True), ("s", True), ("sigma2", True), ("n_coefficient", True),
    ("coefficients", "1"), ("coefficients", {"0.5": 1}),
    ("coefficients", (True,)), ("master_seed", -1), ("mc_test_points", -5)])
def test_config_rejects_bad_values(tmp_path, field, value):
    # coefficients are tried with "kernel": "custom", so only the value is at fault
    overrides = {field: value, **({"kernel": "custom"} if field == "coefficients" else {})}
    with pytest.raises(UsageError):
        small_config(**overrides)
    data = {**small_config().to_dict(), **overrides}
    assert _cli_run(tmp_path, data) == (1, False)


def test_config_accepts_boundary_values():
    small_config(sigma2=0.0, mc_test_points=100)
    small_config(d_list=(np.int64(6), np.int64(8)), replicates=np.int64(2),
                 master_seed=np.int64(42))


def test_config_dict_round_trip():
    cfg = small_config()
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    cfg2 = small_config(coefficients=(0.25, 0.25, 0.5), kernel="custom")
    assert ExperimentConfig.from_dict(cfg2.to_dict()) == cfg2


# lam and jitter_policy were fields until schema 3, trace_tol and n_cap
# until the spectrum tolerance and the n cap became constants; their old
# defaults must now fail like any unknown key
@pytest.mark.parametrize("key, value", [
    ("bogus", 1), ("lam", 0.0), ("jitter_policy", "forbid"),
    ("trace_tol", 1e-10), ("n_cap", 8000)])
def test_from_dict_rejects_unknown_keys(tmp_path, key, value):
    data = {"gamma": 1.3, "s": 1.0, "d_list": [6], "n_coefficient": 2.0,
            key: value}
    with pytest.raises(UsageError, match="unknown config keys"):
        ExperimentConfig.from_dict(data)
    assert _cli_run(tmp_path, data) == (1, False)


_MINIMAL = {"gamma": 1.3, "s": 1.0, "d_list": [6], "n_coefficient": 2.0,
            "mc_test_points": 0}


@pytest.mark.parametrize("data", [
    [1, 2],
    {**_MINIMAL, "d_list": 8},
    {**_MINIMAL, "coefficients": ["x"]},
    {**_MINIMAL, "kernel": "nonsense", "coefficients": [0.25, 0.25, 0.5]},
    {**_MINIMAL, "kernel": "custom", "coefficients": [0.5, math.nan]},
], ids=["array", "d_list-scalar", "coefficients-string", "kernel-not-custom",
        "coefficients-nan"])
def test_malformed_config_files_are_usage_errors(tmp_path, capsys, data):
    assert _cli_run(tmp_path, data) == (1, False)
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("env_seed", ["777", "abc"])
def test_seed_comes_from_the_config_only(monkeypatch, tmp_path, env_seed):
    monkeypatch.setenv("KILAB_SEED", env_seed)
    data = small_config(d_list=(6,), replicates=1).to_dict()
    assert ExperimentConfig.from_dict(data).master_seed == 42
    assert _cli_run(tmp_path, data) == (0, True)
    rows = read_rows(str(tmp_path / "rows.csv"))
    assert [r["seed_path"] for r in rows] == ["42:6:0"]


def test_run_cell_row_shape():
    cfg = small_config(mc_test_points=500)
    sp = compute_spectrum(cfg.kernel_spec(), 6)
    row = run_cell(cfg, sp, 6, 0)
    assert row["error"] == ""
    assert row["d"] == 6 and row["n"] == cfg.n_for(6)
    assert row["seed_path"] == "42:6:0"
    assert row["var_exact"] > 0 and row["bias_sq_exact"] >= 0
    assert set(CSV_COLUMNS) <= set(row)


def test_csv_columns_are_the_schema_version_3_header():
    # the header is the on-disk format: names and order are pinned
    assert harness.SCHEMA_VERSION == 3
    assert CSV_COLUMNS == [
        "schema_version", "kernel", "gamma", "s", "sigma2",
        "d", "n", "replicate", "seed_path",
        "l", "beta_norm_sq", "hs_norm_sq", "c0",
        "bias_sq_exact", "var_exact", "var_low_degree", "var_high_degree",
        "B1", "B2", "bias_residual_bound",
        "bias_sq_mc", "bias_sq_mc_se", "var_mc", "var_mc_se", "mc_consistent",
        "kappa1", "kappa2",
        "runtime_ms", "error",
    ]


def test_fit_cell_is_the_recipe_run_cell_runs():
    # evaluate_cell on fit_cell's cell gives run_cell's row, so code that
    # builds a cell with fit_cell (kilab verify) checks what sweeps run
    cfg = small_config(mc_test_points=500)
    sp = compute_spectrum(cfg.kernel_spec(), 8)
    row = run_cell(cfg, sp, 8, 1)
    target, model, seed = harness.fit_cell(cfg, sp, 8, 1)
    assert seed.path == (8, 1) and model.n == row["n"] and target.l == row["l"]
    report = evaluate_cell(model, target, mc_test_points=cfg.mc_test_points,
                           mc_seed=seed.child(TAG_MC))
    for key, value in vars(report).items():
        assert row[key] == value, key
    assert row["beta_norm_sq"] == target.l2_norm_sq
    assert row["hs_norm_sq"] == target.hs_norm_sq and row["c0"] == target.c0


def test_run_cell_never_runs_concentration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("concentration_report called in a sweep cell")

    monkeypatch.setattr("kilab.estimator.concentration_report", refuse)
    cfg = small_config(mc_test_points=500)
    row = run_cell(cfg, compute_spectrum(cfg.kernel_spec(), 6), 6, 0)
    assert row["error"] == ""
    for key in ("lambda_min_K", "delta1_opnorm", "psi_gram_deviation",
                "psi_gram_meaningful"):
        assert key not in row


def test_run_cell_builds_no_n_by_n_gram_matrix(monkeypatch):
    # fit, the degree pass and the Monte Carlo check all rebuild G and the
    # cross-kernel from the points in cache blocks
    gram = SpherePoints.gram
    grams = []

    def gram_counted(points, other=None):
        grams.append(other is None)
        return gram(points, other)

    monkeypatch.setattr(SpherePoints, "gram", gram_counted)
    cfg = small_config(mc_test_points=500)
    row = run_cell(cfg, compute_spectrum(cfg.kernel_spec(), 6), 6, 0)
    assert row["error"] == ""
    assert grams == []


@pytest.mark.parametrize("sigma2, mc_test_points", [(1.0, 500), (0.0, 0)])
def test_run_cell_makes_one_degree_pass_over_g(monkeypatch, sigma2,
                                               mc_test_points):
    # variance and bias read one set of per-degree sums over G: the blocks
    # of G's lower triangle fed to the recurrence hold n (n + 1) / 2 values
    # plus at most half a block height per row (n^2 in one dense pass).
    # n = 308 takes several blocks, so a second pass would exceed the bound
    iter_values = ZonalBasis.iter_clipped_values
    shapes = []

    def iter_values_counted(basis, t):
        shapes.append(np.shape(t))
        return iter_values(basis, t)

    monkeypatch.setattr(ZonalBasis, "iter_clipped_values", iter_values_counted)
    cfg = small_config(sigma2=sigma2, mc_test_points=mc_test_points, n_coefficient=30.0)
    row = run_cell(cfg, compute_spectrum(cfg.kernel_spec(), 6), 6, 0)
    assert row["error"] == ""
    n = cfg.n_for(6)
    assert n == 308
    blocks = [shape for shape in shapes if len(shape) == 2]
    fed = sum(rows * cols for rows, cols in blocks)
    largest = max(rows for rows, _ in blocks)
    assert len(blocks) > 1 and largest < n
    assert n * (n + 1) // 2 <= fed <= n * (n + 1) // 2 + n * largest // 2


def test_sweep_cells_reuse_freed_buffers():
    # Each cell frees an n x n buffer (256 KiB at n = 181) and the degree
    # pass's blocks of 128 KiB. With glibc's default thresholds, and nothing
    # larger freed earlier, malloc returns them to the system and every cell
    # faults them in again. A fresh interpreter starts at those defaults.
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("needs glibc's mallopt")
    code = """
import resource
from kilab import ExperimentConfig, run_sweep
rows = run_sweep(ExperimentConfig(gamma=1.5, s=2.0, d_list=(32,), replicates=12,
                                  sigma2=0.0, mc_test_points=0))
next(rows)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
later = list(rows)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(later))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert float(out.stdout) < 10


def test_run_cell_peak_memory_is_one_n_squared_plus_panels():
    # one RFP array of n (n + 1) / 2 doubles holds K, the Cholesky factor
    # and then K^-1, beside the n x (d + 1) points; the degree pass holds one
    # S panel of PANEL_ROWS x n doubles, one PANEL_ROWS^2 tile of K^-1 and
    # six cache blocks, and the Monte Carlo check one K^-1 k(X, x) panel and
    # one panel of test points (estimator.stage_doubles). Measured
    # n (n + 1) / 2 + 454 n doubles at n = 1024; a PANEL_ROWS x n / 2 half
    # of K^-1 in place of the tile held 566 n
    cfg = ExperimentConfig(kernel="exp", gamma=2.0, s=0.5, d_list=(32,),
                           sigma2=1.0, mc_test_points=2000)
    spectrum = compute_spectrum(cfg.kernel_spec(), 32)
    n = cfg.n_for(32)
    assert n == 1024 > 2 * estimator.PANEL_ROWS
    tracemalloc.start()
    try:
        row = run_cell(cfg, spectrum, 32, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row["error"] == ""
    assert peak <= estimator.cell_bytes(n, 32, 2000, 1.0) < 8 * (n * (n + 1) // 2 + 566 * n)


CUSTOM = tuple(0.5 ** (j + 1) for j in range(30))


@pytest.mark.parametrize("d, kw", [
    (4000, dict(gamma=0.75, mc_test_points=2000)),
    (250, dict(gamma=0.75, mc_test_points=50_000)),
    (45, dict(gamma=2.0, mc_test_points=2000)),                     # large-cell
    (32, dict(gamma=1.75, mc_test_points=2000)),                    # rate-sweep
    (32, dict(gamma=1.5, s=2.0, sigma2=0.0, mc_test_points=0)),     # bias-sweep
    (24, dict(gamma=2.0, kernel="custom", coefficients=CUSTOM, mc_test_points=2000))])
def test_cell_count_bounds_the_traced_peak(d, kw):
    # estimator.cell_bytes, the count run_sweep refuses from, is at least
    # the cell's tracemalloc peak, and within 1.25 x of it on cells of
    # 16 MiB or more. The count of points, RFP array and one PANEL_ROWS x n
    # panel it replaced read 18.06 MiB against 27.00 traced at d = 4000 (the
    # 288 x (d + 1) panel of test points), 21.44 against 21.69 at n = 2025
    # and 2.40 against 2.66 at n = 431, and left out the m-long Monte Carlo
    # arrays that dominate at d = 250 with 50 000 test points
    cfg = ExperimentConfig(**{"s": 1.0, "sigma2": 1.0, **kw, "d_list": (d,)})
    spectrum = compute_spectrum(cfg.kernel_spec(), d)
    tracemalloc.start()
    try:
        row = run_cell(cfg, spectrum, d, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row["error"] == ""
    count = estimator.cell_bytes(cfg.n_for(d), d, cfg.mc_test_points, cfg.sigma2)
    assert peak <= count
    assert count < 16 << 20 or count <= 1.25 * peak


def test_spectra_and_cells_run_at_d_from_512():
    # a 520-node Gauss-Jacobi rule has NaN weights at every d >= 512
    spec = small_config().kernel_spec()
    for d in (512, 700):
        assert compute_spectrum(spec, d).k_max > 1
    cfg = small_config(gamma=1.0, s=0.5, d_list=(700,), n_coefficient=1.0,
                       replicates=1, mc_test_points=500)
    row = run_cell(cfg, compute_spectrum(spec, 700), 700, 0)
    assert row["error"] == ""
    assert row["n"] == 700 and row["mc_consistent"]


def test_sweep_deterministic_and_worker_invariant():
    cfg = small_config()
    strip = lambda rows: [{k: v for k, v in r.items() if k != "runtime_ms"}
                          for r in rows]
    rows1 = strip(run_sweep(cfg, workers=1))
    rows2 = strip(run_sweep(cfg, workers=1))
    rows_par = strip(run_sweep(cfg, workers=2))
    assert rows1 == rows2
    assert rows1 == rows_par
    assert len(rows1) == len(cfg.d_list) * cfg.replicates


def test_variance_ignores_s_and_the_bias_ignores_sigma2_row_by_row(monkeypatch):
    # var_exact is a function of the points and sigma^2, and the bias
    # columns of the points and the target, so row by row the variance at
    # s = 0.5 is the variance at s = 1, bit for bit, and the bias at
    # sigma^2 = 0 the bias at sigma^2 = 1. A sigma^2 = 0 cell solves one
    # column, f*(X), and a sigma^2 = 1 cell two, [y, f*(X)], so the bias
    # equality rests on the solve taking each column as it takes it alone.
    # By it the gamma = 0.75 criteria's s = 1 variance slope is the s = 0.5
    # one, and their sigma^2 = 1 bias slopes the sigma^2 = 0 ones
    real, widths = estimator._solve, []
    monkeypatch.setattr(estimator, "_solve",
                        lambda K, n, B: widths.append(B.shape[1]) or real(K, n, B))

    def sweep(s, sigma2):
        widths.clear()
        rows = list(run_sweep(ExperimentConfig(gamma=1.5, s=s, d_list=(8, 12, 16), sigma2=sigma2,
                                               replicates=2, mc_test_points=0)))
        assert [row["error"] for row in rows] == [""] * 6
        assert widths == [1 if sigma2 == 0 else 2] * 6
        return rows

    def columns(rows, *names):
        return [tuple(row[name] for name in names) for row in rows]

    bias = ("bias_sq_exact", "B1", "B2")
    noisy = {s: sweep(s, 1.0) for s in (0.25, 0.5, 1.0)}
    assert columns(noisy[0.5], "var_exact") == columns(noisy[1.0], "var_exact")
    for s in (0.25, 1.0):
        assert columns(sweep(s, 0.0), *bias) == columns(noisy[s], *bias)
    assert columns(noisy[0.25], *bias) != columns(noisy[1.0], *bias)


def test_sweep_workers_keep_the_config_seed(monkeypatch):
    # the workers take master_seed from the config object they are handed;
    # an ambient KILAB_SEED is read neither by the parent nor by a worker
    monkeypatch.setenv("KILAB_SEED", "7")
    cfg = small_config(master_seed=5)
    strip = lambda rows: [{k: v for k, v in r.items() if k != "runtime_ms"}
                          for r in rows]
    rows1 = strip(run_sweep(cfg, workers=1))
    rows_par = strip(run_sweep(cfg, workers=2))
    assert all(r["seed_path"].startswith("5:") for r in rows1)
    assert rows1 == rows_par


def test_sweep_poisoned_cell_is_isolated():
    # a degree <= 1 kernel gives K rank d+2 < n, so the factorization
    # fails; each cell must turn into an error row, not an exception
    cfg = small_config(kernel="custom", coefficients=(0.5, 0.5),
                       gamma=0.5, n_coefficient=4.0)
    rows = list(run_sweep(cfg, workers=1))
    assert len(rows) == 4
    assert all("NumericalError" in r["error"] for r in rows)
    assert all(r["seed_path"] for r in rows)


def test_sweep_band_above_kmax_is_error_row():
    cfg = small_config(kernel="custom", coefficients=(1.0,))
    rows = list(run_sweep(cfg, workers=1))
    assert len(rows) == 4
    assert all("UsageError" in r["error"] for r in rows)


def test_unexpected_exception_is_error_row(monkeypatch):
    # an exception from outside kilab (here a ValueError from fit) must not
    # end the sweep: its cell becomes an error row and the next cell runs
    real_fit = harness.fit
    calls = []

    def fit_failing_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise ValueError("array must not contain infs or NaNs")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(harness, "fit", fit_failing_once)
    rows = list(run_sweep(small_config(), workers=1))
    assert len(rows) == 4
    assert rows[0]["error"] == "ValueError: array must not contain infs or NaNs"
    assert "bias_sq_exact" not in rows[0]
    assert all(r["error"] == "" and r["bias_sq_exact"] >= 0 for r in rows[1:])


def test_spectrum_failure_writes_no_csv(monkeypatch, tmp_path):
    # a d whose spectrum fails must end the run before the CSV is opened,
    # not after the rows of the earlier d are lost in a header-only file
    real = harness.compute_spectrum

    def failing_at_12(spec, d):
        if d == 12:
            raise NumericalError("quadrature failed")
        return real(spec, d)

    monkeypatch.setattr("kilab.harness.compute_spectrum", failing_at_12)
    data = small_config(d_list=(6, 12), replicates=1).to_dict()
    assert _cli_run(tmp_path, data) == (2, False)


def test_write_and_read_rows(tmp_path):
    cfg = small_config()
    path = str(tmp_path / "out.csv")
    total, failed = write_rows(run_sweep(cfg), path)
    assert (total, failed) == (4, 0)
    rows = read_rows(path)
    assert len(rows) == 4
    assert rows[0]["schema_version"] == "3"
    assert float(rows[0]["var_exact"]) > 0
    assert rows[0]["bias_sq_mc"] == ""  # mc disabled
    # repr round trip keeps exact float values
    fresh = list(run_sweep(cfg))
    assert float(rows[2]["var_exact"]) == fresh[2]["var_exact"]


def test_parse_range():
    assert list(_parse_range("0.5:2.5:0.5")) == [0.5, 1.0, 1.5, 2.0, 2.5]
    assert list(_parse_range("1:1:1")) == [1.0]
    assert list(_parse_range("0.1:0.7:0.1")) == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    with pytest.raises(UsageError):
        _parse_range("1:2")
    with pytest.raises(UsageError):
        _parse_range("2:1:0.5")
    with pytest.raises(UsageError):
        _parse_range("1:2:0")
    with pytest.raises(UsageError):
        _parse_range("0.5:nan:0.25")


def test_cli_phase_writes_grid_values_to_12_decimals(tmp_path):
    # start + step * k alone gives 0.30000000000000004 and 0.7000000000000001
    out = tmp_path / "phase.csv"
    assert cli_main(["phase", "--gamma", "0.1:0.7:0.1", "--s", "0.1:0.3:0.1",
                     "-o", str(out)]) == 0
    rows = read_rows(str(out))
    assert sorted({r["gamma"] for r in rows}) == ["0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7"]
    assert sorted({r["s"] for r in rows}) == ["0.1", "0.2", "0.3"]


def test_phase_grid_spot_checks(tmp_path):
    path = str(tmp_path / "phase.csv")
    write_rows(phase_grid("0.4:2.4:0.1", "0.0:2.0:0.5"), path,
               columns=PHASE_COLUMNS)
    rows = {(float(r["gamma"]), float(r["s"])): r for r in read_rows(path)}
    def lookup(g, s):
        for (gg, ss), r in rows.items():
            if abs(gg - g) < 1e-9 and abs(ss - s) < 1e-9:
                return r
        raise KeyError((g, s))
    assert lookup(0.4, 1.0)["classification"] == "optimal"
    assert lookup(1.5, 1.0)["classification"] == "sub-optimal"
    assert lookup(2.0, 1.0)["classification"] == "inconsistent"
    assert lookup(1.5, 0.0)["classification"] == "inconsistent"
    assert lookup(0.4, 1.0)["Gamma_gamma"] == "inf"
    assert lookup(2.0, 0.5)["bias_exp"] == ""


def test_phase_grid_injects_integer_gamma_lines():
    gammas = {r["gamma"] for r in phase_grid("0.5:2.5:1.0", "1.0:1.0:1.0")}
    assert 1.0 in gammas and 2.0 in gammas


def test_phase_grid_injects_only_integers_within_the_range():
    gammas = [r["gamma"] for r in phase_grid("2.5:3.5:0.5", "1:1:1")]
    assert gammas == [2.5, 3.0, 3.5]
    gammas = [r["gamma"] for r in phase_grid("1.2:2.8:0.8", "1:1:1")]
    assert gammas == [1.2, 2.0, 2.8]
    assert [r["gamma"] for r in phase_grid("2.25:2.75:0.25", "1:1:1")] == [2.25, 2.5, 2.75]


def _synthetic_csv(path, gamma, s):
    """Three replicates per d with var ~ d^-0.5 and bias^2 ~ d^-1, recorded
    as a sweep at (gamma, s)."""
    rows = []
    for d in (8, 16, 32, 64):
        for rep in range(3):
            rows.append({"schema_version": 1, "gamma": gamma, "s": s,
                         "d": d, "replicate": rep,
                         "var_exact": 2.0 * d**-0.5,
                         "bias_sq_exact": 5.0 * d**-1.0, "error": ""})
    write_rows(iter(rows), str(path))
    return rows


def test_analyze_synthetic_csv(tmp_path):
    # gamma and s come from the rows: at (1.5, 0.5) the variance, bias and
    # total exponents are -0.5, -1 and -0.5
    path = str(tmp_path / "synth.csv")
    _synthetic_csv(path, 1.5, 0.5)
    rep = analyze(path, "var_exact")
    assert rep["passed"] and rep["slope"] == pytest.approx(-0.5, abs=1e-9)
    assert (rep["gamma"], rep["s"]) == (1.5, 0.5)
    rep = analyze(path, "bias_sq_exact")
    assert rep["passed"] and rep["slope"] == pytest.approx(-1.0, abs=1e-9)
    rep = analyze(path, "total")
    assert rep["theory_exponent"] == pytest.approx(-0.5)
    integer_gamma = str(tmp_path / "integer_gamma.csv")
    _synthetic_csv(integer_gamma, 2.0, 1.0)
    with pytest.raises(UsageError):
        analyze(integer_gamma, "bias_sq_exact")
    with pytest.raises(UsageError):
        analyze(path, "nope")


def test_analyze_needs_gamma_and_s_in_the_rows(tmp_path):
    path = str(tmp_path / "bare.csv")
    rows = [{"schema_version": 1, "d": d, "replicate": 0,
             "var_exact": d**-0.5, "error": ""} for d in (8, 16, 32)]
    write_rows(iter(rows), path)
    with pytest.raises(UsageError, match="gamma and s"):
        analyze(path, "var_exact")
    for gamma in (math.inf, math.nan):
        _synthetic_csv(path, gamma, 0.5)
        with pytest.raises(UsageError, match=f"gamma={gamma}"):
            analyze(path, "var_exact")


def test_cli_fit_rejects_rows_of_two_sweeps(tmp_path, capsys):
    path = tmp_path / "two.csv"
    rows = (_synthetic_csv(tmp_path / "a.csv", 1.5, 0.5)
            + _synthetic_csv(tmp_path / "b.csv", 1.75, 0.5))
    write_rows(iter(rows), str(path))
    assert cli_main(["fit", "--input", str(path),
                     "--quantity", "var_exact"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_analyze_skips_error_rows(tmp_path):
    path = str(tmp_path / "mixed.csv")
    rows = []
    for d in (8, 16, 32):
        rows.append({"schema_version": 1, "gamma": 1.5, "s": 1.0, "d": d,
                     "replicate": 0, "var_exact": d**-0.5,
                     "bias_sq_exact": d**-1.0, "error": ""})
        rows.append({"schema_version": 1, "gamma": 1.5, "s": 1.0, "d": d,
                     "replicate": 1, "error": "NumericalError: boom"})
    write_rows(iter(rows), path)
    rep = analyze(path, "var_exact")
    assert rep["slope"] == pytest.approx(-0.5, abs=1e-9)


# CLI smoke tests


def test_cli_spectrum(tmp_path, capsys):
    out = str(tmp_path / "spec.csv")
    assert cli_main(["spectrum", "--kernel", "exp", "--d", "16",
                     "-o", out]) == 0
    capsys.readouterr()
    assert cli_main(["spectrum", "--kernel", "exp", "--d", "16"]) == 0
    with open(out, newline="") as f:
        assert capsys.readouterr().out == f.read()    # stdout: the same bytes
    rows = read_rows(out)
    assert rows[0]["k"] == "0"
    # mu_0 = E[phi(t)] sits a little above the degree-0 series coefficient
    mu = [float(r["mu_k"]) for r in rows]
    assert math.exp(-1.0) < mu[0] < math.exp(-1.0) * 1.05
    assert all(m > 0 for m in mu)
    total = sum(float(r["mu_k_times_N"]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_cli_spectrum_bad_kernel():
    assert cli_main(["spectrum", "--kernel", "nope", "--d", "16"]) == 1


def test_cli_phase(tmp_path):
    out = str(tmp_path / "phase.csv")
    assert cli_main(["phase", "--gamma", "0.5:2.5:0.5",
                     "--s", "0.5:1.5:0.5", "-o", out]) == 0
    rows = read_rows(out)
    assert {r["classification"] for r in rows} <= {
        "optimal", "sub-optimal", "inconsistent"}
    assert cli_main(["phase", "--gamma", "bad", "--s", "1:1:1",
                     "-o", out]) == 1


def test_cli_phase_cells_are_plain_numbers(tmp_path):
    # gamma and s come from numpy ranges, so every exponent is a numpy
    # scalar until the CSV encoder writes it
    out = str(tmp_path / "phase.csv")
    assert cli_main(["phase", "--gamma", "0.05:4:0.05",
                     "--s", "0:3:0.25", "-o", out]) == 0
    with open(out) as f:
        assert f.readline().strip() == ",".join(PHASE_COLUMNS)
    rows = read_rows(out)
    assert len(rows) == 80 * 13
    for row in rows:
        p = classify(float(row["s"]), float(row["gamma"]))
        assert int(row["l"]) == p.l
        assert row["classification"] == p.classification
        for column, value in [("Gamma_gamma", p.Gamma_gamma),
                              ("var_exp", p.var_exponent),
                              ("bias_exp", p.bias_exponent),
                              ("total_exp", p.total_exponent),
                              ("minimax_exp", p.minimax_exponent)]:
            if value is None:
                assert row[column] == ""
            else:
                assert float(row[column]) == value, (column, row[column])


def test_cli_run_and_fit(tmp_path, capsys):
    cfg = small_config(d_list=(6, 8, 12), replicates=3)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    out = str(tmp_path / "rows.csv")
    assert cli_main(["run", "--config", str(cfg_path), "-o", out]) == 0
    assert len(read_rows(out)) == 9
    progress = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("d=")]
    assert [line.split(":")[0] for line in progress] == [
        f"d={d} n={cfg.n_for(d)}" for d in (6, 8, 12)]
    assert [line.split(": ")[1].split(" cells")[0] for line in progress] == [
        "3/9", "6/9", "9/9"]
    assert all(line.endswith(", 0 failed") for line in progress)
    # d in (6, 8, 12) is preasymptotic, so only the exit-code plumbing is
    # under test here; rate accuracy has its own acceptance coverage
    assert cli_main(["fit", "--input", out, "--quantity", "var_exact",
                     "--tolerance", "2.0"]) == 0
    assert cli_main(["fit", "--input", out, "--quantity", "var_exact",
                     "--tolerance", "1e-6"]) == 2


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_run_rejects_workers_below_one(tmp_path, capsys, workers):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config().to_dict()))
    out = tmp_path / "rows.csv"
    assert cli_main(["run", "--config", str(cfg_path), "-o", str(out),
                     "--workers", workers]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: workers must be >= 1")


def test_cli_run_refuses_a_sweep_that_cannot_fit(tmp_path, capsys, monkeypatch):
    # the sweep process's resident size, once (forked workers share its
    # pages), and the largest cell's count (estimator.cell_bytes) once per
    # concurrent worker must fit; the sweep is refused before any cell runs
    # and before a CSV is opened, naming the largest cell
    cfg = small_config()
    n, own = cfg.n_for(8), 37 << 20
    cell = estimator.cell_bytes(n, 8, 0, cfg.sigma2)
    assert cell > estimator.cell_bytes(cfg.n_for(6), 6, 0, cfg.sigma2)
    monkeypatch.setattr(harness, "_resident_memory", lambda: own)
    monkeypatch.setattr(harness, "_physical_memory", lambda: own + cell)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "rows.csv"
    args = ["run", "--config", str(cfg_path), "-o", str(out)]
    assert cli_main(args + ["--workers", "2"]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "physical memory" in err and f"d=8, n={n}" in err
    assert cli_main(args) == 0
    monkeypatch.setattr(harness, "_physical_memory", lambda: own + cell - 1)
    assert cli_main(args) == 1
    monkeypatch.setattr(harness, "_physical_memory", lambda: own + 2 * cell)
    assert cli_main(args + ["--workers", "2"]) == 0
    # where sysconf reports no memory size the check is skipped
    monkeypatch.setattr(harness, "_physical_memory", lambda: None)
    assert len(list(run_sweep(cfg, workers=2))) == 4
    monkeypatch.undo()
    memory = harness._physical_memory()
    assert memory is None or memory == os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    # the resident size where the OS reports it, else 0: at most the peak so
    # far, read as VmHWM from /proc/self/status, which counts pages as statm
    # does (ru_maxrss read up to 180 KiB below statm in fresh processes, so
    # the check failed when this test ran alone)
    own = harness._resident_memory()
    if own:
        with open("/proc/self/status") as f:
            peak = next(int(line.split()[1]) << 10 for line in f if line.startswith("VmHWM:"))
        assert 10 << 20 < own <= peak

    def unreported(name):
        raise ValueError(name)

    with monkeypatch.context() as m:
        m.setattr(os, "sysconf", unreported)
        assert harness._resident_memory() == 0 and harness._physical_memory() is None


def test_sweep_is_refused_when_its_test_point_panel_cannot_fit(tmp_path, monkeypatch):
    # at gamma = 0.75, d = 4000 (n = 503) with 2000 Monte Carlo points the
    # cell peaks at 27.00 MiB traced, 8.8 MiB of it the 288 x 4001 panel of
    # test points; with 22.5 MiB free the sweep is refused before any
    # spectrum or cell is computed and before a CSV is opened (the count of
    # points, RFP array and one 288 x n panel read 18.06 MiB and let it run)
    cfg = ExperimentConfig(gamma=0.75, s=1.0, d_list=(4000,), mc_test_points=2000)
    assert cfg.n_for(4000) == 503
    calls = []
    monkeypatch.setattr(harness, "compute_spectrum", lambda *a: calls.append(a))
    monkeypatch.setattr(harness, "run_cell", lambda *a: calls.append(a))
    monkeypatch.setattr(harness, "_resident_memory", lambda: 0)
    monkeypatch.setattr(harness, "_physical_memory", lambda: 22.5 * 2**20)
    code, wrote = _cli_run(tmp_path, cfg.to_dict())
    assert (code, wrote, calls) == (1, False, [])


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
def test_cli_fit_rejects_a_tolerance_that_is_not_finite_and_nonnegative(
        tmp_path, capsys, tolerance):
    path = str(tmp_path / "synth.csv")
    _synthetic_csv(path, 1.5, 0.5)
    with pytest.raises(UsageError, match="tolerance"):
        analyze(path, "var_exact", tolerance=float(tolerance))
    assert cli_main(["fit", "--input", path, "--quantity", "var_exact",
                     "--tolerance", tolerance]) == 1
    assert capsys.readouterr().err.startswith("error: tolerance")


def _csv_bytes_without_runtime(path):
    """The CSV's lines as bytes with the runtime_ms field cut out."""
    data = path.read_bytes()
    assert b'"' not in data    # nothing quoted, so every comma ends a field
    lines = data.splitlines(keepends=True)
    i = lines[0].split(b",").index(b"runtime_ms")
    return [b",".join(f for j, f in enumerate(line.split(b",")) if j != i)
            for line in lines]


def test_cli_run_csv_bytes_match_across_worker_counts(tmp_path):
    # the determinism promise: one config, one CSV, runtime_ms aside
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(sigma2=0.5, mc_test_points=500).to_dict()))
    written = []
    for workers in ("1", "2"):
        out = tmp_path / f"rows{workers}.csv"
        assert cli_main(["run", "--config", str(cfg_path), "-o", str(out),
                         "--workers", workers]) == 0
        written.append(_csv_bytes_without_runtime(out))
    assert len(written[0]) == 5 and written[0] == written[1]


def test_cli_run_writes_mc_consistent_as_true_or_false(tmp_path):
    assert _cli_run(tmp_path, small_config(mc_test_points=500).to_dict()) == (0, True)
    values = [r["mc_consistent"] for r in read_rows(str(tmp_path / "rows.csv"))]
    assert len(values) == 4 and set(values) <= {"true", "false"}


def test_cli_verify_quick(capsys):
    assert cli_main(["verify", "--quick"]) == 0
    out, err = capsys.readouterr()
    results, report = run_verify(quick=True)
    assert out == report_to_json(report) + "\n"
    assert err.splitlines() == [f"[PASS] {r.name}: {r.detail}" for r in results]


def test_cli_run_failure_exit_code(tmp_path):
    cfg = small_config(kernel="custom", coefficients=(1.0,))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    out = str(tmp_path / "rows.csv")
    assert cli_main(["run", "--config", str(cfg_path), "-o", out]) == 2


@pytest.mark.parametrize("command", ["spectrum", "phase", "run", "fit"])
def test_cli_file_errors_exit_cleanly(tmp_path, capsys, command):
    # an -o into a missing directory, or a missing --input, is a usage error
    out = str(tmp_path / "missing" / "out.csv")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config().to_dict()))
    argv = {"spectrum": ["spectrum", "--d", "8", "-o", out],
            "phase": ["phase", "--gamma", "1:2:1", "--s", "1:1:1", "-o", out],
            "run": ["run", "--config", str(cfg_path), "-o", out],
            "fit": ["fit", "--input", out, "--quantity", "var_exact"]}[command]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")


def test_cli_run_missing_config(tmp_path):
    assert cli_main(["run", "--config", str(tmp_path / "nope.json"),
                     "-o", str(tmp_path / "o.csv")]) == 1
