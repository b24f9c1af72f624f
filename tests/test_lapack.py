"""kilab._lapack against scipy.linalg (and numpy, for gemm) as the
reference, its argument checks, and the scipy.linalg adapters it returns
when the library lacks a symbol."""

import ctypes
import types

import numpy as np
import numpy.linalg._umath_linalg
import pytest
import scipy.linalg
from scipy.linalg.blas import dsymv as scipy_dsymv
from scipy.linalg.lapack import dpotrf as scipy_dpotrf, dpotri as scipy_dpotri

from kilab import _lapack, estimator, fit, mc_errors
from kilab.harness import ExperimentConfig, fit_cell
from kilab.seeding import TAG_MC
from kilab.spectrum import compute_spectrum

RTOL = 1e-12


def _spd(n, seed=5):
    b = np.random.default_rng(seed).standard_normal((n, n))
    return b @ b.T / n + np.eye(n)


def _close(got, ref):
    return np.linalg.norm(got - ref) <= RTOL * np.linalg.norm(ref)


def _triangle(a, lower, k=0):
    """The lower or upper triangle of a, without the k nearest diagonals."""
    return np.tril(a, -k) if lower else np.triu(a, k)


def test_the_numpy_openblas_symbols_select_the_ctypes_path():
    lib = ctypes.CDLL(numpy.linalg._umath_linalg.__file__)
    bound = all(hasattr(lib, name) for name in _lapack._SYMBOLS)
    assert estimator.potrf.__qualname__.startswith("bind.") == bound
    assert estimator.potrs is _lapack.potrs


@pytest.mark.parametrize("lower", [1])    # the triangle potrf and potri write
@pytest.mark.parametrize("n", [1, 33, 600])
def test_factor_inverse_and_solve_match_scipy(n, lower):
    a = _spd(n)
    c = a.copy(order="F")
    info = _lapack.potrf(c)
    ref, ref_info = scipy_dpotrf(a.copy(order="F"), lower=lower, clean=0, overwrite_a=1)
    assert info == ref_info == 0
    assert _close(_triangle(c, lower), _triangle(ref, lower))
    # the other triangle, never referenced, still holds a
    assert np.array_equal(_triangle(c, not lower, 1), _triangle(a, not lower, 1))

    rhs = np.random.default_rng(6).standard_normal((n, 3))
    read_only = c.view()
    read_only.flags.writeable = False    # the solve only reads the factor
    for factor, b in ((c, rhs[:, 0]), (c, rhs), (read_only, rhs[:, 1])):
        x = _lapack.potrs(factor, b)
        assert x.shape == b.shape
        assert _close(x, scipy.linalg.cho_solve((ref, lower), b))

    info = _lapack.potri(c)
    ref_inv, ref_info = scipy_dpotri(ref, lower=lower, overwrite_c=1)
    assert info == ref_info == 0
    assert _close(_triangle(c, lower), _triangle(ref_inv, lower))


def test_factor_reports_the_failing_minor_as_scipy_does():
    a = _spd(12)
    a[7, 7] = -1.0
    assert _lapack.potrf(a.copy(order="F")) == \
        scipy_dpotrf(a.copy(order="F"), lower=1, clean=0, overwrite_a=1)[1] > 0


@pytest.mark.parametrize("n", [1, 33, 600])
def test_dsymv_reads_the_upper_triangle_by_default(n):
    # fit keeps K in the upper triangle of the factored view K.T; the lower
    # one holds the factor, here replaced by a different symmetric matrix
    a, other = _spd(n), _spd(n, seed=7)
    stored = np.asfortranarray(np.triu(a) + np.tril(other, -1))
    x = np.random.default_rng(8).standard_normal(n)
    y = _lapack.symv(stored, x)
    assert _close(y, scipy_dsymv(1.0, stored, x))
    assert _close(y, a @ x)


@pytest.mark.parametrize("gemm", [_lapack.gemm, _lapack.bind(object())[4]],
                         ids=["bound", "scipy adapter"])
@pytest.mark.parametrize("n", [1, 33, 600])
def test_gemm_accumulates_like_numpy(n, gemm):
    # c (n x m) += a (n x k) @ b (k x m) in place, twice, on rectangular
    # Fortran-order operands; a is a column slice of a square Fortran-order
    # matrix, as the Monte Carlo check passes K^-1[:, cols]
    rng = np.random.default_rng(9)
    k, m = max(n // 3, 1), n + 5
    square = np.asfortranarray(rng.standard_normal((n, n + k)))
    a = square[:, n:]
    b = np.asfortranarray(rng.standard_normal((k, m)))
    c0 = np.asfortranarray(rng.standard_normal((n, m)))
    c = c0.copy(order="F")
    gemm(a, b, c)
    assert _close(c, c0 + a @ b)
    gemm(a, b, c)
    assert _close(c, c0 + 2 * (a @ b))


def _recording_lib(calls):
    """A library object whose symbols record their calls."""
    def symbol(name):
        return lambda *args: calls.append(name) or 0
    return types.SimpleNamespace(**{name: symbol(name) for name in _lapack._SYMBOLS})


def _bad_matrices():
    a = _spd(4)
    read_only = a.copy(order="F")
    read_only.flags.writeable = False
    return {"C order": a.copy(order="C"), "float32": a.astype(np.float32, order="F"),
            "non-square": np.asfortranarray(a[:, :3]), "read-only": read_only}


@pytest.mark.parametrize("case", ["C order", "float32", "non-square", "read-only"])
def test_bad_matrices_raise_before_reaching_the_library(case):
    calls = []
    potrf, potri, potrs, symv, gemm = _lapack.bind(_recording_lib(calls))
    bad, good = _bad_matrices()[case], _spd(4).copy(order="F")
    with pytest.raises(ValueError):
        potrf(bad)
    with pytest.raises(ValueError):
        potri(bad)
    with pytest.raises(ValueError):
        gemm(good, good, bad)    # c is written
    if case not in ("read-only", "non-square"):    # a and b are only read
        with pytest.raises(ValueError):
            gemm(bad, good, good.copy(order="F"))
        with pytest.raises(ValueError):
            gemm(good, bad, good.copy(order="F"))
    if case != "read-only":    # the factor and A are only read
        with pytest.raises(ValueError):
            potrs(bad, np.ones(4))
        with pytest.raises(ValueError):
            symv(bad, np.ones(4))
    assert calls == []

    potrf(good)
    with pytest.raises(ValueError):
        potrs(good, np.ones(3))
    with pytest.raises(ValueError):
        symv(good, np.ones(5))
    wide = np.asfortranarray(np.ones((4, 3)))
    with pytest.raises(ValueError):
        gemm(wide, good, good.copy(order="F"))    # 4 x 3 @ 4 x 4
    with pytest.raises(ValueError):
        gemm(good, good, wide)                    # into 4 x 3
    gemm(good, wide, wide.copy(order="F"))
    assert calls == ["scipy_LAPACKE_dpotrf_work64_", "scipy_cblas_dgemm64_"]


def test_a_library_without_the_symbols_falls_back_to_scipy(monkeypatch):
    # the adapters drop the arrays scipy returns, so a copy in place of an
    # in-place write would leave fit working on K instead of its factor
    fallback = _lapack.bind(object())
    assert not set(fallback) & {_lapack.potrf, _lapack.potri, _lapack.potrs, _lapack.symv}

    config = ExperimentConfig(gamma=1.5, s=0.5, d_list=(12,), master_seed=31337)
    sp = compute_spectrum(config.kernel_spec(), 12)
    _, model, _ = fit_cell(config, sp, 12, 0)
    for name, routine in zip(("potrf", "potri", "potrs", "symv"), fallback):
        monkeypatch.setattr(estimator, name, routine)
    other = fit(model.dataset, sp)
    # two OpenBLAS builds: the same arithmetic up to rounding
    for got, ref in ((other.alpha, model.alpha), (other.alpha_clean, model.alpha_clean),
                     (other.K_inv, model.K_inv)):
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_mc_through_the_scipy_gemm_adapter_matches_the_bound_path(monkeypatch):
    # n = 376 and m = 613 run two column blocks and three test-point panels
    config = ExperimentConfig(gamma=1.5, s=0.5, d_list=(12,), master_seed=31337,
                              n_coefficient=(estimator.PANEL_ROWS + 88) / 12**1.5)
    sp = compute_spectrum(config.kernel_spec(), 12)
    target, model, seed = fit_cell(config, sp, 12, 0)
    assert model.n > estimator.CROSS_COLS
    m = 2 * estimator.PANEL_ROWS + 37
    ref = mc_errors(model, target, m, seed.child(TAG_MC))
    monkeypatch.setattr(estimator, "gemm", _lapack.bind(object())[4])
    got = mc_errors(model, target, m, seed.child(TAG_MC))
    assert ref.var > 0
    for g, r in zip(vars(got).values(), vars(ref).values()):
        assert g == pytest.approx(r, rel=1e-13, abs=0.0)
