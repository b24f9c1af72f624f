"""kilab._lapack against scipy.linalg (and numpy, for symm, gemm and syrk) as the
reference, its argument checks, and the scipy.linalg adapters it returns
when the library lacks a symbol."""

import ctypes
import types

import numpy as np
import numpy.linalg._umath_linalg
import pytest
from scipy.linalg.lapack import (dpftrf as scipy_dpftrf, dpftri as scipy_dpftri,
                                 dpftrs as scipy_dpftrs, dtrttf)

from kilab import _lapack, estimator, fit, mc_errors, variance_split
from kilab.harness import ExperimentConfig, fit_cell
from kilab.seeding import TAG_MC
from kilab.spectrum import compute_spectrum

RTOL = 1e-12
# the RFP layout differs between even and odd n
RFP_SIZES = [1, 2, 3, 33, 64, 65, 600, 601]
ADAPTERS = _lapack.bind(object())


def _spd(n, seed=5):
    b = np.random.default_rng(seed).standard_normal((n, n))
    return b @ b.T / n + np.eye(n)


def _rfp(a):
    """a's lower triangle in RFP storage (TRANSR = 'N', UPLO = 'L'), by
    LAPACK's dtrttf."""
    packed, info = dtrttf(np.asfortranarray(a), transr="N", uplo="L")
    assert info == 0
    return packed


def _close(got, ref):
    return np.linalg.norm(got - ref) <= RTOL * np.linalg.norm(ref)


def test_the_numpy_openblas_symbols_select_the_ctypes_path():
    lib = ctypes.CDLL(numpy.linalg._umath_linalg.__file__)
    bound = all(hasattr(lib, name) for name in _lapack._SYMBOLS)
    assert estimator.pftrf.__qualname__.startswith("bind.") == bound
    assert estimator.pftrs is _lapack.pftrs and estimator.symm is _lapack.symm


def test_pointers_are_the_arrays_data_addresses():
    base = np.zeros((7, 5), order="F")
    for a in (base, base[2:, 1:], base.T, base[1:4, 2:3], np.zeros(3)[1:]):
        assert (getattr(_lapack._data(a), "value", _lapack._data(a))
                == a.ctypes.data)


@pytest.mark.parametrize("lower", [1])    # the triangle RFP storage holds
@pytest.mark.parametrize("n", RFP_SIZES)
def test_factor_inverse_and_solve_match_scipy(n, lower):
    _factor_inverse_and_solve(n, _lapack.pftrf, _lapack.pftri, _lapack.pftrs)


@pytest.mark.parametrize("n", RFP_SIZES)
def test_scipy_adapters_factor_inverse_and_solve_match_scipy(n):
    _factor_inverse_and_solve(n, *ADAPTERS[:3])


def _factor_inverse_and_solve(n, pftrf, pftri, pftrs):
    a = _spd(n)
    c = _rfp(a)
    info = pftrf(c)
    ref, ref_info = scipy_dpftrf(n, _rfp(a), transr="N", uplo="L")
    assert info == ref_info == 0
    assert _close(c, ref)

    rhs = np.random.default_rng(6).standard_normal((n, 3))
    read_only = c.view()
    read_only.flags.writeable = False    # the solve only reads the factor
    for factor, b in ((c, rhs[:, 0]), (c, rhs), (read_only, rhs[:, 1])):
        x = pftrs(factor, b)
        assert x.shape == b.shape
        ref_x, ref_info = scipy_dpftrs(n, ref, b.reshape(n, -1), transr="N", uplo="L")
        assert ref_info == 0 and _close(x, ref_x.reshape(b.shape))
        assert _close(a @ x, b)

    info = pftri(c)
    ref_inv, ref_info = scipy_dpftri(n, ref, transr="N", uplo="L")
    assert info == ref_info == 0
    assert _close(c, ref_inv)


def test_factor_reports_the_failing_minor_as_scipy_does():
    a = _spd(12)
    a[7, 7] = -1.0
    assert _lapack.pftrf(_rfp(a)) == \
        scipy_dpftrf(12, _rfp(a), transr="N", uplo="L")[1] > 0


@pytest.mark.parametrize("symm", [_lapack.symm, ADAPTERS[3]], ids=["bound", "scipy adapter"])
@pytest.mark.parametrize("n", RFP_SIZES)
def test_symm_reads_the_lower_triangle_like_numpy(n, symm):
    # c (n x m) += A @ b for the symmetric A held in a's lower triangle; a is
    # a block of a larger column-major array, or the transpose of one (whose
    # base then holds A in its upper triangle), as fit's RFP blocks are
    rng = np.random.default_rng(8)
    sym, m = _spd(n, seed=7), 4
    other = np.asfortranarray(rng.standard_normal((n + 3, n + 2)))
    lower = other[2:-1, 1:-1]
    lower[np.tril_indices(n)] = sym[np.tril_indices(n)]
    upper = np.asfortranarray(rng.standard_normal((n + 1, n))).T[:, 1:]
    upper[np.tril_indices(n)] = sym[np.tril_indices(n)]
    b = np.asfortranarray(rng.standard_normal((n + 2, m)))[1:-1]
    for a in (lower, upper):
        c0 = np.asfortranarray(rng.standard_normal((n, m)))
        c = c0.copy(order="F")
        symm(a, b, c)
        assert _close(c, c0 + sym @ b)


@pytest.mark.parametrize("gemm", [_lapack.gemm, ADAPTERS[4]], ids=["bound", "scipy adapter"])
@pytest.mark.parametrize("n", [1, 33, 600])
def test_gemm_accumulates_like_numpy(n, gemm):
    # c (n x m) += a (n x k) @ b (k x m) in place, twice, on rectangular
    # operands: a is a column slice of a square Fortran-order matrix, as the
    # Monte Carlo check passes K^-1's blocks, and a and b are also taken as
    # transposes of column-major blocks
    rng = np.random.default_rng(9)
    k, m = max(n // 3, 1), n + 5
    square = np.asfortranarray(rng.standard_normal((n, n + k)))
    a = square[:, n:]
    b = np.asfortranarray(rng.standard_normal((k, m)))
    for a_, b_ in ((a, b), (np.ascontiguousarray(a), np.ascontiguousarray(b))):
        c0 = np.asfortranarray(rng.standard_normal((n, m)))
        c = c0.copy(order="F")
        gemm(a_, b_, c)
        assert _close(c, c0 + a @ b)
        gemm(a_, b_, c)
        assert _close(c, c0 + 2 * (a @ b))


@pytest.mark.parametrize("syrk", [_lapack.syrk, ADAPTERS[5]], ids=["bound", "scipy adapter"])
@pytest.mark.parametrize("n", [1, 33, 600])
def test_syrk_adds_the_gram_matrix_to_the_upper_triangle(n, syrk):
    # c (n x n) gets a^T a added on and above its diagonal and keeps its
    # strict lower triangle; a is a block of a column-major array, or the
    # transpose of one, and c a block of a larger column-major array
    rng = np.random.default_rng(10)
    k = max(n // 2, 1)
    a = np.asfortranarray(rng.standard_normal((k + 3, n)))[1:-2]
    big = np.asfortranarray(rng.standard_normal((n + 4, n)))
    for a_ in (a, np.ascontiguousarray(a)):
        c = big[2:-2]
        c0 = c.copy()
        syrk(a_, c)
        upper = np.triu_indices(n)
        assert _close(c[upper], (c0 + a.T @ a)[upper])
        assert np.array_equal(np.tril(c, -1), np.tril(c0, -1))


def _recording_lib(calls):
    """A library object whose symbols record their calls."""
    def symbol(name):
        return lambda *args: calls.append(name) or 0
    return types.SimpleNamespace(**{name: symbol(name) for name in _lapack._SYMBOLS})


def _bad_arrays():
    """Per case, a bad 2-D operand and the operands it is bad for, and a bad
    RFP array (None where the case does not apply)."""
    a = _spd(4)
    read_only = a.copy(order="F")
    read_only.flags.writeable = False
    packed = _rfp(a)
    packed_read_only = packed.copy()
    packed_read_only.flags.writeable = False
    every = ("gemm a", "gemm b", "gemm c", "symm a", "symm b", "symm c", "syrk a", "syrk c")
    return {
        # a transposed operand serves as gemm's a or b and symm's or syrk's a
        "C order": (a.copy(order="C"), ("gemm c", "symm b", "symm c", "syrk c"), None),
        "float32": (a.astype(np.float32, order="F"), every, packed.astype(np.float32)),
        "non-square": (np.asfortranarray(a[:, :3]),
                       ("gemm a", "gemm b", "gemm c", "symm a", "symm b", "symm c", "syrk c"),
                       None),
        "read-only": (read_only, ("gemm c", "symm c", "syrk c"), packed_read_only),
        "wrong length": (None, (), packed[:-1]),
        # neither a column-major matrix nor the transpose of one
        "strided": (np.asfortranarray(np.ones((8, 4)))[::2], every,
                    np.repeat(packed, 2)[::2]),
    }


@pytest.mark.parametrize("case", ["C order", "float32", "non-square", "read-only",
                                  "wrong length", "strided"])
def test_bad_matrices_raise_before_reaching_the_library(case):
    calls = []
    pftrf, pftri, pftrs, symm, gemm, syrk = _lapack.bind(_recording_lib(calls))
    bad, bad_for, bad_packed = _bad_arrays()[case]
    good = _spd(4).copy(order="F")
    for where in bad_for:
        routine, operand = where.split()
        args = [good, good, good.copy(order="F")]
        if routine == "syrk":
            del args[1]
        args[("ac" if routine == "syrk" else "abc").index(operand)] = bad
        with pytest.raises(ValueError):
            {"gemm": gemm, "symm": symm, "syrk": syrk}[routine](*args)
    if bad_packed is not None:
        with pytest.raises(ValueError):
            pftrf(bad_packed)
        with pytest.raises(ValueError):
            pftri(bad_packed)
        if case != "read-only":    # the factor is only read
            with pytest.raises(ValueError):
                pftrs(bad_packed, np.ones(4))
    assert calls == []

    packed = _rfp(good)
    pftrf(packed)
    with pytest.raises(ValueError):
        pftrs(packed, np.ones(3))
    wide = np.asfortranarray(np.ones((4, 3)))
    with pytest.raises(ValueError):
        gemm(wide, good, good.copy(order="F"))    # 4 x 3 @ 4 x 4
    with pytest.raises(ValueError):
        gemm(good, good, wide)                    # into 4 x 3
    with pytest.raises(ValueError):
        symm(wide, wide, wide.copy(order="F"))    # a not square
    with pytest.raises(ValueError):
        syrk(wide, good.copy(order="F"))          # 3 x 3 into 4 x 4
    gemm(good, wide, wide.copy(order="F"))
    symm(good, wide, wide.copy(order="F"))
    syrk(wide, np.ones((3, 3), order="F"))
    assert calls == ["scipy_LAPACKE_dpftrf_work64_", "scipy_cblas_dgemm64_",
                     "scipy_cblas_dsymm64_", "scipy_cblas_dsyrk64_"]


def _patch_adapters(monkeypatch):
    for name, routine in zip(("pftrf", "pftri", "pftrs", "symm", "gemm", "syrk"), ADAPTERS):
        monkeypatch.setattr(estimator, name, routine)


def test_a_library_without_the_symbols_falls_back_to_scipy(monkeypatch):
    # the adapters drop the arrays scipy returns, so a copy in place of an
    # in-place write would leave fit working on K instead of its factor
    assert not set(ADAPTERS) & {_lapack.pftrf, _lapack.pftri, _lapack.pftrs,
                                _lapack.symm, _lapack.gemm, _lapack.syrk}

    config = ExperimentConfig(gamma=1.5, s=0.5, d_list=(12,), master_seed=31337)
    sp = compute_spectrum(config.kernel_spec(), 12)
    target, model, seed = fit_cell(config, sp, 12, 0)
    ref_mc = mc_errors(model, target, 500, seed.child(TAG_MC))
    _patch_adapters(monkeypatch)
    other = fit(model.dataset, sp)
    # two OpenBLAS builds: the same arithmetic up to rounding
    for got, ref in ((other.alpha, model.alpha), (other.alpha_clean, model.alpha_clean),
                     (other.K_inv, model.K_inv)):
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
    assert variance_split(other, target.l) == pytest.approx(
        variance_split(model, target.l), rel=1e-13, abs=0.0)
    got_mc = mc_errors(other, target, 500, seed.child(TAG_MC))
    for g, r in zip(vars(got_mc).values(), vars(ref_mc).values()):
        assert g == pytest.approx(r, rel=1e-13, abs=0.0)


def test_mc_through_the_scipy_gemm_adapter_matches_the_bound_path(monkeypatch):
    # n = 376 and m = 613 run two column blocks and three test-point panels
    config = ExperimentConfig(gamma=1.5, s=0.5, d_list=(12,), master_seed=31337,
                              n_coefficient=(estimator.PANEL_ROWS + 88) / 12**1.5)
    sp = compute_spectrum(config.kernel_spec(), 12)
    target, model, seed = fit_cell(config, sp, 12, 0)
    assert len(estimator._tiles(model.n)) == 2
    m = 2 * estimator.PANEL_ROWS + 37
    ref = mc_errors(model, target, m, seed.child(TAG_MC))
    _patch_adapters(monkeypatch)
    got = mc_errors(model, target, m, seed.child(TAG_MC))
    assert ref.var > 0
    for g, r in zip(vars(got).values(), vars(ref).values()):
        assert g == pytest.approx(r, rel=1e-13, abs=0.0)
