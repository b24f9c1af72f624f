"""kilab._lapack against scipy.linalg (and numpy, for the routines on 2-D
views) as the reference, its argument checks, the scipy.linalg adapters it
returns when the library lacks a symbol, and the tiled factor and inverse
kilab.estimator builds from them."""

import ast
import ctypes
import inspect
import types

import numpy as np
import numpy.linalg._umath_linalg
import pytest
from scipy.linalg.lapack import (dpftrf as scipy_dpftrf, dpftri as scipy_dpftri,
                                 dpftrs as scipy_dpftrs, dtrttf)

from scipy.linalg import eigvalsh
from scipy.linalg.lapack import dpotrf as scipy_dpotrf, dtfttr

from kilab import (Dataset, NumericalError, SpherePoints, _lapack, assemble_kernel_matrix,
                   estimator, fit, mc_errors, variance_split)
from kilab.harness import ExperimentConfig, fit_cell, run_cell
from kilab.seeding import TAG_MC
from kilab.spectrum import compute_spectrum

RTOL = 1e-12
# the RFP layout differs between even and odd n
RFP_SIZES = [1, 2, 3, 33, 64, 65, 600, 601]
NAMES = ("pftrs", "symm", "gemm", "syrk", "potrf", "trtri", "lauum", "trsm", "trmm")
ADAPTERS = dict(zip(NAMES, _lapack.bind(object())))
BOUND = {name: getattr(_lapack, name) for name in NAMES}


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
    assert estimator.potrf.__qualname__.startswith("bind.") == bound
    assert estimator.pftrs is _lapack.pftrs and estimator.symm is _lapack.symm


def test_pointers_are_the_arrays_data_addresses():
    base = np.zeros((7, 5), order="F")
    for a in (base, base[2:, 1:], base.T, base[1:4, 2:3], np.zeros(3)[1:]):
        assert (getattr(_lapack._data(a), "value", _lapack._data(a))
                == a.ctypes.data)


@pytest.mark.parametrize("lower", [1])    # the triangle RFP storage holds
@pytest.mark.parametrize("n", RFP_SIZES)
def test_factor_inverse_and_solve_match_scipy(n, lower):
    _factor_inverse_and_solve(n, _lapack.pftrs)


@pytest.mark.parametrize("n", RFP_SIZES)
def test_scipy_adapters_factor_inverse_and_solve_match_scipy(monkeypatch, n):
    _patch_adapters(monkeypatch)
    _factor_inverse_and_solve(n, ADAPTERS["pftrs"])


def _factor_inverse_and_solve(n, pftrs):
    """kilab.estimator's tiled factor and inverse of an RFP array against
    LAPACK's pftrf and pftri, and pftrs solves with that factor."""
    a = _spd(n)
    c = _rfp(a)
    assert estimator._cholesky(c, n) == 0
    ref, ref_info = scipy_dpftrf(n, _rfp(a), transr="N", uplo="L")
    assert ref_info == 0 and _close(c, ref)

    rhs = np.random.default_rng(6).standard_normal((n, 3))
    read_only = c.view()
    read_only.flags.writeable = False    # the solve only reads the factor
    for factor, b in ((c, rhs[:, 0]), (c, rhs), (read_only, rhs[:, 1])):
        x = pftrs(factor, b)
        assert x.shape == b.shape
        ref_x, ref_info = scipy_dpftrs(n, ref, b.reshape(n, -1), transr="N", uplo="L")
        assert ref_info == 0 and _close(x, ref_x.reshape(b.shape))
        assert _close(a @ x, b)

    assert estimator._invert(c, n) == 0
    ref_inv, ref_info = scipy_dpftri(n, ref, transr="N", uplo="L")
    assert ref_info == 0 and _close(c, ref_inv)


def test_factor_reports_the_failing_minor_as_scipy_does():
    # the minor of order 8 ends in the second RFP half (n1 = 6), so the
    # tiled factor adds its tile's start to potrf's info
    a = _spd(12)
    a[7, 7] = -1.0
    assert estimator._cholesky(_rfp(a), 12) == \
        scipy_dpftrf(12, _rfp(a), transr="N", uplo="L")[1] == 8


@pytest.mark.parametrize("symm", [_lapack.symm, ADAPTERS["symm"]], ids=["bound", "scipy adapter"])
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


@pytest.mark.parametrize("gemm", [_lapack.gemm, ADAPTERS["gemm"]], ids=["bound", "scipy adapter"])
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


@pytest.mark.parametrize("syrk", [_lapack.syrk, ADAPTERS["syrk"]], ids=["bound", "scipy adapter"])
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


def _views(rng, rows, cols):
    """A rows x cols block of a larger column-major array, and the transpose
    of one, as the RFP blocks' views of the two halves are."""
    col = np.asfortranarray(rng.standard_normal((rows + 3, cols + 2)))[1:-2, 1:-1]
    tr = np.asfortranarray(rng.standard_normal((cols + 4, rows + 1)))[2:-2, 1:].T
    return col, tr


@pytest.mark.parametrize("routines", [BOUND, ADAPTERS], ids=["bound", "scipy adapter"])
@pytest.mark.parametrize("n", [1, 33, 300])
def test_gemm_and_syrk_scale_the_product_and_syrk_takes_a_transposed_c(n, routines):
    # -1 subtracts the product; a transposed c's upper triangle is its base's
    # lower one, which syrk updates while the other triangle stays as it
    # was (gemm's c stays column-major)
    gemm, syrk = routines["gemm"], routines["syrk"]
    rng = np.random.default_rng(11)
    k = max(n // 3, 1)
    a = np.asfortranarray(rng.standard_normal((k, n)))
    for c in _views(rng, n, n):
        c0 = c.copy()
        syrk(a, c, -1.0)
        upper = np.triu_indices(n)
        assert _close(c[upper], (c0 - a.T @ a)[upper])
        assert np.array_equal(np.tril(c, -1), np.tril(c0, -1))
    c0 = c.T.copy(order="F")
    gemm(a.T, a, c.T, -1.0)
    assert _close(c.T, c0 - a.T @ a)


@pytest.mark.parametrize("routines", [BOUND, ADAPTERS], ids=["bound", "scipy adapter"])
@pytest.mark.parametrize("n", [1, 33, 300])
def test_potrf_trtri_and_lauum_work_on_the_lower_triangle_of_a_view(n, routines):
    # in turn L, L^-1 and L^-T L^-1 = K^-1 on and below the diagonal of a
    # column-major or a transposed view; the strict upper triangle, which in
    # RFP storage may hold the other half's values, is left alone
    potrf, trtri, lauum = routines["potrf"], routines["trtri"], routines["lauum"]
    rng = np.random.default_rng(12)
    K = _spd(n, seed=13)
    L = np.linalg.cholesky(K)
    lower = np.tril_indices(n)
    for a in _views(rng, n, n):
        a[lower] = K[lower]
        upper = np.triu(a, 1)
        assert potrf(a) == 0 and _close(np.tril(a), L)
        assert trtri(a) == 0 and _close(np.tril(a), np.linalg.inv(L))
        assert lauum(a) == 0 and _close(a[lower], np.linalg.inv(K)[lower])
        assert np.array_equal(np.triu(a, 1), upper)


def test_potrf_reports_the_failing_minor_as_scipy_does():
    a = _spd(12)
    a[7, 7] = -1.0
    ref = scipy_dpotrf(a, lower=1)[1]
    for potrf in (_lapack.potrf, ADAPTERS["potrf"]):
        for view in _views(np.random.default_rng(14), 12, 12):
            view[...] = a
            assert potrf(view) == ref == 8


@pytest.mark.parametrize("routines", [BOUND, ADAPTERS], ids=["bound", "scipy adapter"])
@pytest.mark.parametrize("n", [1, 33, 300])
def test_trsm_and_trmm_take_either_view_of_each_operand(n, routines):
    # b := scale L^-1 b and b := b L for the lower-triangular L in a's lower
    # triangle, with a and b each column-major or transposed
    trsm, trmm = routines["trsm"], routines["trmm"]
    rng = np.random.default_rng(15)
    L = np.linalg.cholesky(_spd(n, seed=16))
    m = max(n // 2, 1) + 3
    for a in _views(rng, n, n):
        a[np.tril_indices(n)] = L[np.tril_indices(n)]
        for b in _views(rng, n, m):
            b0 = b.copy()
            trsm(a, b, -1.0)
            assert _close(b, -np.linalg.solve(L, b0))
            trsm(a, b)
            assert _close(L @ (L @ b), -b0)
        for b in _views(rng, m, n):
            b0 = b.copy()
            trmm(a, b)
            assert _close(b, b0 @ L)


def _recording_lib(calls):
    """A library object whose symbols record their calls."""
    def symbol(name):
        return lambda *args: calls.append(name) or 0
    return types.SimpleNamespace(**{name: symbol(name) for name in _lapack._SYMBOLS})


# each routine's 2-D operands, in call order
OPERANDS = {"gemm": "abc", "symm": "abc", "syrk": "ac", "potrf": "a", "trtri": "a",
            "lauum": "a", "trsm": "ab", "trmm": "ab"}


def _bad_arrays():
    """Per case, a bad 2-D operand and the operands it is bad for, and a bad
    RFP array (None where the case does not apply)."""
    a = _spd(4)
    read_only = a.copy(order="F")
    read_only.flags.writeable = False
    packed = _rfp(a)
    every = tuple(f"{routine} {operand}" for routine, operands in OPERANDS.items()
                  for operand in operands)
    return {
        # a transposed operand serves everywhere but as gemm's c and symm's b
        # and c
        "C order": (a.copy(order="C"), ("gemm c", "symm b", "symm c"), None),
        "float32": (a.astype(np.float32, order="F"), every, packed.astype(np.float32)),
        # 4 x 3: trsm's b only needs a's order of rows
        "non-square": (np.asfortranarray(a[:, :3]),
                       tuple(where for where in every if where != "trsm b"), None),
        # pftrs only reads the factor
        "read-only": (read_only, ("gemm c", "symm c", "syrk c", "potrf a", "trtri a",
                                  "lauum a", "trsm b", "trmm b"), None),
        "wrong length": (None, (), packed[:-1]),
        # neither a column-major matrix nor the transpose of one
        "strided": (np.asfortranarray(np.ones((8, 4)))[::2], every,
                    np.repeat(packed, 2)[::2]),
    }


@pytest.mark.parametrize("case", ["C order", "float32", "non-square", "read-only",
                                  "wrong length", "strided"])
def test_bad_matrices_raise_before_reaching_the_library(case):
    calls = []
    routines = dict(zip(NAMES, _lapack.bind(_recording_lib(calls))))
    pftrs = routines["pftrs"]
    gemm, symm, syrk = routines["gemm"], routines["symm"], routines["syrk"]
    bad, bad_for, bad_packed = _bad_arrays()[case]
    good = _spd(4).copy(order="F")
    for where in bad_for:
        routine, operand = where.split()
        args = [good.copy(order="F") for _ in OPERANDS[routine]]
        args[OPERANDS[routine].index(operand)] = bad
        with pytest.raises(ValueError):
            routines[routine](*args)
    if bad_packed is not None:
        with pytest.raises(ValueError):
            pftrs(bad_packed, np.ones(4))
    assert calls == []

    packed = _rfp(good)
    pftrs(packed, np.ones(4))
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
    with pytest.raises(ValueError):
        routines["trsm"](good, wide.T.copy(order="F"))    # L^-1 (4 x 4) b (3 x 4)
    with pytest.raises(ValueError):
        routines["trmm"](good, wide.copy(order="F"))      # b (4 x 3) L (4 x 4)
    gemm(good, wide, wide.copy(order="F"))
    symm(good, wide, wide.copy(order="F"))
    syrk(wide, np.ones((3, 3), order="F"))
    for name in ("potrf", "trtri", "lauum"):
        routines[name](good.copy(order="F"))
    routines["trsm"](good, wide.copy(order="F"))
    routines["trmm"](good, wide.T.copy(order="F"))
    assert calls == ["scipy_LAPACKE_dpftrs_work64_", "scipy_cblas_dgemm64_",
                     "scipy_cblas_dsymm64_", "scipy_cblas_dsyrk64_",
                     "scipy_LAPACKE_dpotrf_work64_", "scipy_LAPACKE_dtrtri_work64_",
                     "scipy_LAPACKE_dlauum_work64_", "scipy_cblas_dtrsm64_",
                     "scipy_cblas_dtrmm64_"]


def _patch_adapters(monkeypatch):
    for name, routine in ADAPTERS.items():
        monkeypatch.setattr(estimator, name, routine)


def test_a_library_without_the_symbols_falls_back_to_scipy(monkeypatch):
    # the adapters drop the arrays scipy returns, so a copy in place of an
    # in-place write would leave fit working on K instead of its factor
    assert not set(ADAPTERS.values()) & set(BOUND.values())

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


def _kernel_cell(n, d=40, seed=31337):
    """A sigma^2 = 1 cell of n points on S^d (exp kernel, gamma = 2) and its
    spectrum; at d = 40 K's condition number stays below 1e4 up to
    n = 1153."""
    config = ExperimentConfig(gamma=2.0, s=0.5, d_list=(d,), master_seed=seed,
                              n_coefficient=n / d**2)
    sp = compute_spectrum(config.kernel_spec(), d)
    _, model, _ = fit_cell(config, sp, d, 0)
    assert model.n == n
    return model, sp


@pytest.mark.parametrize("path", ["bound", "scipy adapter"])
@pytest.mark.parametrize("n", [2, 3, 23, 128, 288, 289, 290, 577, 1153])
def test_tiled_factor_and_inverse_match_numpy(monkeypatch, n, path):
    # halves of one and two indices, odd and even n, one tile per half up
    # to n = 2 PANEL_ROWS, and one to three tiles per half of the RFP split
    if path == "scipy adapter":
        _patch_adapters(monkeypatch)
    model, sp = _kernel_cell(max(n, 4))    # a cell has at least 4 points
    assert len(estimator._tiles(n)) >= 2
    K = assemble_kernel_matrix(sp.spec, model.dataset.points.gram())[:n, :n]
    packed = _rfp(K)
    assert estimator._cholesky(packed, n) == 0
    L, info = dtfttr(n, packed, transr="N", uplo="L")
    assert info == 0 and _close(np.tril(L), np.linalg.cholesky(K))
    assert estimator._invert(packed, n) == 0
    low, info = dtfttr(n, packed, transr="N", uplo="L")
    assert info == 0
    K_inv = np.tril(low) + np.tril(low, -1).T
    assert _close(K_inv, np.linalg.inv(K))


def test_a_duplicated_point_fails_the_tiled_factor_at_its_row():
    # point 400, in the first tile of the second half (n = 600, two tiles
    # per half), repeats point 10, so K is singular; the factor stops at the
    # minor of order 401 and fit reports lambda_min of K assembled afresh
    assert estimator._tiles(600)[2] == (300, 450)
    _duplicated_point_fails_at_its_row(600, 400)


def test_a_duplicated_point_in_the_second_half_of_a_small_cell_fails_at_its_row():
    # n = 200 has one tile per half, [0, 100) and [100, 200): point 150
    # repeats point 10, and the factor stops at the minor of order 151
    assert estimator._tiles(200) == [(0, 100), (100, 200)]
    _duplicated_point_fails_at_its_row(200, 150)


def _duplicated_point_fails_at_its_row(n, row):
    model, sp = _kernel_cell(n, d=12)
    X = model.dataset.points.coordinates.copy()
    X[row] = X[10]
    ds = Dataset(points=SpherePoints(12, X), y=model.dataset.y, clean=model.dataset.clean,
                 sigma2=1.0)
    K = assemble_kernel_matrix(sp.spec, ds.points.gram())
    assert estimator._cholesky(_rfp(K), n) == row + 1
    with pytest.raises(NumericalError, match="not positive definite") as err:
        fit(ds, sp)
    reported = float(str(err.value).split("lambda_min = ")[1].rstrip(")"))
    assert reported == pytest.approx(eigvalsh(K, subset_by_index=(0, 0))[0], rel=1e-12)


def test_every_blas_call_of_a_cell_writes_at_most_one_tile_of_columns(monkeypatch):
    # OpenBLAS's workspace grows with the widest output a call writes, so a
    # cell with several tiles per half (n = 1600, three of 266-267) must
    # make no call wider than PANEL_ROWS
    config = ExperimentConfig(gamma=2.0, s=0.5, d_list=(40,), sigma2=1.0,
                              mc_test_points=2 * estimator.PANEL_ROWS + 37, master_seed=31337)
    assert config.n_for(40) == 1600
    widths = _call_widths(monkeypatch, config, 40)
    too_wide = [(name, w) for name, w, _ in widths if w > estimator.PANEL_ROWS]
    assert not too_wide, too_wide[:5]


def test_every_blas_call_of_a_small_cell_writes_at_most_half_of_n_columns(monkeypatch):
    # at n = 128 each RFP half is one tile of 64: no call of the fit or the
    # degree pass, the factor's and the inverse's included, is wider than
    # that; the Monte Carlo products write one panel of test points, at
    # most PANEL_ROWS columns
    config = ExperimentConfig(gamma=1.75, s=0.5, d_list=(16,), sigma2=1.0,
                              mc_test_points=2000, master_seed=31337)
    assert config.n_for(16) == 128
    widths = _call_widths(monkeypatch, config, 16)
    too_wide = [(name, w, mc) for name, w, mc in widths
                if w > (estimator.PANEL_ROWS if mc else 64)]
    assert not too_wide, too_wide[:5]
    assert any(mc for *_, mc in widths) and not all(mc for *_, mc in widths)


def _call_widths(monkeypatch, config, d):
    """(routine, width, in the Monte Carlo check) for each call of
    kilab._lapack's routines that one cell makes; every routine must be
    called. The width is the column count of the column-major output (of b
    for trsm and trmm, seen by the library as the transpose of a transposed
    view), a LAPACK routine's order, and pftrs's right-hand-side column
    count."""
    widths, in_mc = [], [False]

    def columns(a):
        return a.shape[0] if _lapack._operand(a)[0] else a.shape[1]

    def order(a):
        return a.shape[0]

    width = {"pftrs": lambda a, b: b.shape[1] if b.ndim == 2 else 1,
             "symm": lambda a, b, c: columns(c), "gemm": lambda a, b, c, *_: columns(c),
             "syrk": lambda a, c, *_: order(c), "trsm": lambda a, b, *_: columns(b),
             "trmm": lambda a, b: columns(b), "potrf": order, "trtri": order, "lauum": order}
    assert set(width) == set(NAMES)

    def recorded(name, routine):
        def call(*args):
            widths.append((name, int(width[name](*args)), in_mc[0]))
            return routine(*args)
        return call

    def mc_errors(*args):
        in_mc[0] = True
        try:
            return real_mc(*args)
        finally:
            in_mc[0] = False

    for name in NAMES:
        monkeypatch.setattr(estimator, name, recorded(name, getattr(_lapack, name)))
    real_mc = estimator.mc_errors
    monkeypatch.setattr(estimator, "mc_errors", mc_errors)
    row = run_cell(config, compute_spectrum(config.kernel_spec(), d), d, 0)
    assert row["error"] == ""
    assert {name for name, *_ in widths} == set(NAMES)
    return widths


def test_every_bound_routine_is_imported_by_the_estimator():
    # a binding no cell can call would linger unseen: bind, on the library
    # and as scipy adapters, returns exactly the routines kilab.estimator
    # imports from kilab._lapack, which binds them under the same names
    tree = ast.parse(inspect.getsource(estimator))
    imported = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                and node.module == "_lapack" and node.level == 1 for alias in node.names}
    lib = ctypes.CDLL(numpy.linalg._umath_linalg.__file__)
    for routines in (_lapack.bind(lib), _lapack.bind(object())):
        assert [routine.__name__ for routine in routines] == list(NAMES)
    assert imported == set(NAMES) and len(_lapack._SYMBOLS) == len(NAMES)
    assert all(getattr(estimator, name) is getattr(_lapack, name) for name in NAMES)
