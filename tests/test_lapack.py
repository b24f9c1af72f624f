"""kilab._lapack against scipy.linalg as the reference, its argument checks,
and the scipy.linalg fallback it takes when the library lacks a symbol."""

import ctypes
import types

import numpy as np
import numpy.linalg._umath_linalg
import pytest
import scipy.linalg
from scipy.linalg.blas import dsymv as scipy_dsymv
from scipy.linalg.lapack import dpotrf as scipy_dpotrf, dpotri as scipy_dpotri

from kilab import _lapack, estimator, fit
from kilab.harness import ExperimentConfig, fit_cell
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
    assert (estimator.dpotrf.__module__ == "kilab._lapack") == bound
    assert estimator.cho_solve is _lapack.cho_solve


@pytest.mark.parametrize("lower", [1, 0])
@pytest.mark.parametrize("n", [1, 33, 600])
def test_factor_inverse_and_solve_match_scipy(n, lower):
    a = _spd(n)
    c, info = _lapack.dpotrf(a.copy(order="F"), lower=lower, clean=0, overwrite_a=1)
    ref, ref_info = scipy_dpotrf(a.copy(order="F"), lower=lower, clean=0, overwrite_a=1)
    assert info == ref_info == 0
    assert _close(_triangle(c, lower), _triangle(ref, lower))
    # clean=0: the other triangle, never referenced, still holds a
    assert np.array_equal(_triangle(c, not lower, 1), _triangle(a, not lower, 1))

    rhs = np.random.default_rng(6).standard_normal((n, 3))
    read_only = c.view()
    read_only.flags.writeable = False    # the solve only reads the factor
    for factor, b in ((c, rhs[:, 0]), (c, rhs), (read_only, rhs[:, 1])):
        x = _lapack.cho_solve((factor, lower), b, check_finite=False)
        assert x.shape == b.shape
        assert _close(x, scipy.linalg.cho_solve((ref, lower), b))

    inv, info = _lapack.dpotri(c, lower=lower, overwrite_c=1)
    ref_inv, ref_info = scipy_dpotri(ref, lower=lower, overwrite_c=1)
    assert inv is c and info == ref_info == 0
    assert _close(_triangle(inv, lower), _triangle(ref_inv, lower))


def test_factor_reports_the_failing_minor_as_scipy_does():
    a = _spd(12)
    a[7, 7] = -1.0
    assert _lapack.dpotrf(a.copy(order="F"), lower=1, clean=0, overwrite_a=1)[1] == \
        scipy_dpotrf(a.copy(order="F"), lower=1, clean=0, overwrite_a=1)[1] > 0


@pytest.mark.parametrize("n", [1, 33, 600])
def test_dsymv_reads_the_upper_triangle_by_default(n):
    # fit keeps K in the upper triangle of the factored view K.T; the lower
    # one holds the factor, here replaced by a different symmetric matrix
    a, other = _spd(n), _spd(n, seed=7)
    stored = np.asfortranarray(np.triu(a) + np.tril(other, -1))
    x = np.random.default_rng(8).standard_normal(n)
    y = _lapack.dsymv(1.0, stored, x)
    assert _close(y, scipy_dsymv(1.0, stored, x))
    assert _close(y, a @ x)
    low = np.tril(stored) + np.tril(stored, -1).T
    assert _close(_lapack.dsymv(2.0, stored, x, lower=1), 2.0 * low @ x)


def _recording_lib(calls):
    """A library object whose four symbols record their calls."""
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
    dpotrf, dpotri, cho_solve, dsymv = _lapack.bind(_recording_lib(calls))
    bad = _bad_matrices()[case]
    with pytest.raises(ValueError):
        dpotrf(bad, lower=1, clean=0, overwrite_a=1)
    with pytest.raises(ValueError):
        dpotri(bad, lower=1, overwrite_c=1)
    if case != "read-only":    # the factor and A are only read
        with pytest.raises(ValueError):
            cho_solve((bad, True), np.ones(4), check_finite=False)
        with pytest.raises(ValueError):
            dsymv(1.0, bad, np.ones(4))
    assert calls == []

    good = _spd(4).copy(order="F")
    dpotrf(good, lower=1, clean=0, overwrite_a=1)
    with pytest.raises(ValueError):
        cho_solve((good, True), np.ones(3), check_finite=False)
    with pytest.raises(ValueError):
        dsymv(1.0, good, np.ones(5))
    assert calls == ["scipy_LAPACKE_dpotrf_work64_"]


def test_a_library_without_the_symbols_falls_back_to_scipy(monkeypatch):
    fallback = _lapack.bind(object())
    assert fallback == (scipy_dpotrf, scipy_dpotri, scipy.linalg.cho_solve, scipy_dsymv)

    config = ExperimentConfig(gamma=1.5, s=0.5, d_list=(12,), master_seed=31337)
    sp = compute_spectrum(config.kernel_spec(), 12)
    _, model, _ = fit_cell(config, sp, 12, 0)
    for name, routine in zip(("dpotrf", "dpotri", "cho_solve", "dsymv"), fallback):
        monkeypatch.setattr(estimator, name, routine)
    other = fit(model.dataset, sp)
    # two OpenBLAS builds: the same arithmetic up to rounding
    for got, ref in ((other.alpha, model.alpha), (other.alpha_clean, model.alpha_clean),
                     (other.K_inv, model.K_inv)):
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
