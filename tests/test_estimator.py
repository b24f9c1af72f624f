import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigvalsh
from scipy.linalg.lapack import dtfttr

from kilab import (Dataset, NumericalError, SeedPath, SpherePoints, UsageError,
                   assemble_kernel_matrix, build_target, compute_spectrum,
                   concentration_report, estimator, evaluate_cell,
                   eval_target, exact_bias_by_degree, eval_phi, fit,
                   kernel_by_id, kernel_from_coefficients, make_dataset,
                   mc_errors, multiplicity, predict, sample_sphere, tail_sums,
                   variance_split, zonal_series)
from kilab.harness import ExperimentConfig, fit_cell
from kilab.seeding import TAG_AXIS, TAG_MC, TAG_POINTS
from kilab.zonal import BLOCK_DOUBLES, ZonalBasis

SEED = SeedPath(31337)


def _kernel_matrix(model):
    """Test-only oracle: K assembled afresh from the training points."""
    return assemble_kernel_matrix(model.spectrum.spec, model.dataset.points.gram())


def _dense(packed, n):
    """The symmetric n x n matrix whose lower triangle the RFP array packed
    holds (TRANSR = 'N', UPLO = 'L'), unpacked by LAPACK's dtfttr."""
    low, info = dtfttr(n, packed, transr="N", uplo="L")
    assert info == 0
    low = np.tril(low)
    return low + np.tril(low, -1).T


def _cell(d=8, gamma=1.5, s=0.5, sigma2=1.0, n=None, seed_label=0):
    """Cell (d, seed_label) of an exp-kernel sweep with master seed 31337,
    built by the harness's cell recipe; n overrides round(d^gamma) through
    n_coefficient. A sweep refuses cells below 4 points, so a smaller n
    refits the first n points of the 4-point cell."""
    config = ExperimentConfig(gamma=gamma, s=s, d_list=(d,), sigma2=sigma2,
                              n_coefficient=1.0 if n is None else max(n, 4) / d**gamma,
                              replicates=seed_label + 1, master_seed=31337)
    sp = compute_spectrum(config.kernel_spec(), d)
    target, model, seed = fit_cell(config, sp, d, seed_label)
    if n is not None and n < 4:
        ds = model.dataset
        model = fit(Dataset(points=SpherePoints(d, ds.points.coordinates[:n]), y=ds.y[:n],
                            clean=ds.clean[:n], sigma2=sigma2), sp)
    return model, target, seed


def test_single_point_dual_weight():
    sp = compute_spectrum(kernel_by_id("exp"), 4)
    target = build_target(sp, 1.0, 1.5, SEED.child(1))
    ds = make_dataset(target, 1, 1.0, SEED.child(2))
    model = fit(ds, sp)
    assert model.alpha[0] == pytest.approx(ds.y[0] / eval_phi(sp.spec, 1.0), rel=1e-12)


def test_training_labels_reproduced():
    model, target, _ = _cell()
    scale = max(1.0, float(np.max(np.abs(model.dataset.y))))
    resid = np.max(np.abs(predict(model, model.dataset.points) - model.dataset.y))
    assert resid <= 1e-6 * scale


def test_zero_labels_zero_function():
    model, target, seed = _cell()
    ds = model.dataset
    zero_ds = ds.__class__(points=ds.points, y=np.zeros(ds.n),
                           clean=np.zeros(ds.n), sigma2=0.0)
    m = fit(zero_ds, model.spectrum)
    test = sample_sphere(8, 50, seed.child(78))
    assert np.max(np.abs(predict(m, test))) < 1e-12


def test_prediction_antipodal_symmetry():
    # dataset closed under x -> -x with symmetric labels gives even predictions
    sp = compute_spectrum(kernel_by_id("exp"), 4)
    half = sample_sphere(4, 15, SEED.child(3)).coordinates
    pts = SpherePoints(4, np.vstack([half, -half]))
    y_half = SEED.child(4).rng().normal(size=15)
    ds = Dataset(points=pts, y=np.concatenate([y_half, y_half]),
                clean=np.concatenate([y_half, y_half]), sigma2=0.0)
    model = fit(ds, sp)
    q_half = sample_sphere(4, 30, SEED.child(5)).coordinates
    q = SpherePoints(4, np.vstack([q_half, -q_half]))
    pred = predict(model, q)
    assert np.max(np.abs(pred[:30] - pred[30:])) < 1e-9


def test_variance_single_point():
    sp = compute_spectrum(kernel_by_id("exp"), 4)
    target = build_target(sp, 1.0, 1.5, SEED.child(6))
    ds = make_dataset(target, 1, 1.0, SEED.child(7))
    model = fit(ds, sp)
    phi2_one = tail_sums(sp, -1).kappa2
    expected = 1.0 * phi2_one / eval_phi(sp.spec, 1.0) ** 2
    assert sum(variance_split(model, -1)) == pytest.approx(expected, rel=1e-10)


def test_variance_zero_noise():
    model, _, _ = _cell(sigma2=0.0)
    assert sum(variance_split(model, -1)) == 0.0


def test_variance_split_sums_to_total():
    model, target, _ = _cell(d=12)
    low, high = variance_split(model, target.l)
    assert low + high == pytest.approx(sum(variance_split(model, -1)), rel=1e-9)
    assert low >= 0 and high >= 0


def _trace_variance_split(model, l):
    """Independent oracle: sigma^2 tr(K^-1 M K^-1), split at degree l.

    M and M_{<=l} are assembled as explicit n x n matrices and each trace
    takes two dense LU solves against a freshly assembled K.
    """
    sp = model.spectrum
    G = model.dataset.points.gram()
    coef = sp.mu**2 * sp.multiplicities
    M = zonal_series(sp.d, coef, G)
    M_low = zonal_series(sp.d, coef[: l + 1], G)

    K = _kernel_matrix(model)

    def trace_quad(mat):
        w = np.linalg.solve(K, mat)
        return float(np.trace(np.linalg.solve(K, w.T)))

    sigma2 = model.dataset.sigma2
    return sigma2 * trace_quad(M_low), sigma2 * trace_quad(M - M_low)


@pytest.mark.parametrize("d, gamma", [(16, 1.25), (12, 1.75), (10, 2.0)])
def test_variance_split_matches_trace_oracle(d, gamma):
    model, target, _ = _cell(d=d, gamma=gamma)
    low, high = variance_split(model, target.l)
    low_ref, high_ref = _trace_variance_split(model, target.l)
    assert low == pytest.approx(low_ref, rel=1e-9)
    assert high == pytest.approx(high_ref, rel=1e-9)
    assert sum(variance_split(model, -1)) == pytest.approx(low_ref + high_ref, rel=1e-9)


def _full_pk(d, k_max, G):
    """Test-only oracle: every n x n P_k(G), one unblocked recurrence."""
    p = [np.ones_like(G), G.copy()]
    for k in range(1, k_max):
        p.append(((2 * k + d - 1) * G * p[k] - k * p[k - 1]) / (k + d - 1))
    return p[: k_max + 1]


@pytest.mark.parametrize("d, n", [(8, 1), (8, 100), (12, 200),
                                  (12, 2 * estimator.PANEL_ROWS + 200)])
def test_blocked_degree_sums_match_full_matrix_oracle(d, n):
    # n = 1; n = 100 is one block per RFP half, 50 x 50 and 50 x 100;
    # n = 200 is three lower-triangle blocks, 100 x 100, 87 x 187 and the
    # ragged 13 x 200; n = 2 PANEL_ROWS + 200 runs the pass over four S
    # panels
    assert n == 1 or n < BLOCK_DOUBLES // n or n % (BLOCK_DOUBLES // n)
    model, target, _ = _cell(d=d, gamma=1.5, n=n)
    sp = model.spectrum
    K_inv = _dense(model.K_inv, model.n)
    S = K_inv @ K_inv.T
    a = model.alpha_clean
    G = model.dataset.points.gram()
    # The k = 0 term 1^T S 1 is badly conditioned, so each degree's
    # tolerance scales with sum_ij |W_ij P_k(G_ij)| for its weight W. The
    # blocked pass measured at most 2.4e-15 of that scale (n <= 1229).
    var_k, var_tol, quad, quad_tol = [], [], [], []
    for p_k in _full_pk(sp.d, sp.k_max, G):
        var_k.append(np.vdot(S, p_k))
        var_tol.append(1e-12 * np.abs(S * p_k).sum())
        quad.append(a @ p_k @ a)
        quad_tol.append(1e-12 * np.abs(np.outer(a, a) * p_k).sum())
    w = model.dataset.sigma2 * sp.mu**2 * sp.multiplicities
    for l in range(-1, sp.k_max + 1):
        low, _ = variance_split(model, l)
        assert abs(low - w[: l + 1] @ var_k[: l + 1]) <= w[: l + 1] @ var_tol[: l + 1]

    rep = exact_bias_by_degree(model, target)
    beta = np.zeros(sp.k_max + 1)
    beta[: target.l + 2] = target.beta
    t_w = model.dataset.points.coordinates @ target.axis
    for k, p_w in enumerate(_full_pk(sp.d, sp.k_max, t_w)):
        mu2n = sp.mu[k] ** 2 * sp.multiplicities[k]
        expected = (mu2n * quad[k]
                    - 2 * sp.mu[k] * beta[k] * np.sqrt(sp.multiplicities[k]) * (a @ p_w)
                    + beta[k] ** 2)
        assert abs(rep.by_degree[k] - max(expected, 0.0)) <= mu2n * quad_tol[k] + 1e-15

    # at sigma^2 = 0 the pass skips S and reads the same a^T P_k(G) a
    ds = model.dataset
    noiseless = fit(Dataset(points=ds.points, y=ds.clean, clean=ds.clean,
                            sigma2=0.0), sp)
    inner, quad_noiseless = noiseless.degree_sums
    assert not inner.any() and noiseless.K_inv is None
    assert np.array_equal(quad_noiseless, model.degree_sums[1])


@pytest.mark.parametrize("sigma2, panels", [(1.0, 1), (0.0, 0)])
def test_degree_pass_holds_one_s_panel_and_a_few_blocks(sigma2, panels):
    # beyond the model the pass holds at most one PANEL_ROWS x n panel of S
    # and one PANEL_ROWS^2 tile of K^-1, none at sigma^2 = 0, and a few cache
    # blocks (estimator.stage_doubles); n = 800 makes a panel larger than
    # the blocks' allowance. Measured:
    # 298 945 doubles at sigma^2 = 1 (tiles of 200), where a PANEL_ROWS x
    # ceil(n / 2) half of K^-1 in place of the tile gave 444 396
    model, _, _ = _cell(d=16, gamma=2.0, n=800, sigma2=sigma2)
    n = model.n
    assert estimator.PANEL_ROWS * n > 8 * BLOCK_DOUBLES
    tracemalloc.start()
    try:
        model.degree_sums
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = estimator.stage_doubles(n, 16, 0, sigma2)["degree_pass"]
    assert peak <= 8 * held
    # a PANEL_ROWS x ceil(n / 2) half of K^-1 in place of the tile held
    # 444 396 doubles; at sigma^2 = 0 the pass holds no S panel
    assert held < (444_396 if panels else estimator.PANEL_ROWS * n)


def test_fit_factors_phi_of_the_degree_pass_blocks(monkeypatch):
    # fit and the degree pass build G from the points through the same
    # blocks, so the K that fit factors is Phi of the G blocks the degree
    # pass reads, bit for bit, on the large-cell sweep's points (n = 2025,
    # d = 45); the blocks must cover G's lower triangle
    points = sample_sphere(45, 2025, SeedPath(20240901, (45, 0)).child(TAG_POINTS))
    sp = compute_spectrum(kernel_by_id("exp"), 45)
    y = points.coordinates[:, 0].copy()
    real, factored = estimator._cholesky, []
    monkeypatch.setattr(estimator, "_cholesky",
                        lambda a, n: factored.append(a.copy()) or real(a, n))
    model = fit(Dataset(points=points, y=y, clean=y, sigma2=0.0), sp)
    K = np.tril(_dense(factored[0], points.n))

    iter_values, covered = ZonalBasis.iter_clipped_values, [0]

    def iter_values_checked(basis, t):
        if np.ndim(t) == 2:
            r0, (h, r1) = covered[0], t.shape
            assert r1 == r0 + h and t.size <= BLOCK_DOUBLES
            K_b = np.tril(eval_phi(sp.spec, t), r0)
            assert np.array_equal(K_b, K[r0:r1, :r1])
            covered[0] = r1
        return iter_values(basis, t)

    monkeypatch.setattr(ZonalBasis, "iter_clipped_values", iter_values_checked)
    model.degree_sums
    assert covered == [points.n]


def test_mc_variance_matches_two_solve_oracle():
    model, target, seed = _cell(d=12, gamma=1.75)
    mc = mc_errors(model, target, 500, seed.child(TAG_MC))
    # a dense LU solve with m right-hand sides against a freshly assembled K
    test = sample_sphere(target.d, 500, seed.child(TAG_MC))
    kx = eval_phi(model.spectrum.spec, test.gram(model.dataset.points))
    s = np.linalg.solve(_kernel_matrix(model), kx.T)
    samples = model.dataset.sigma2 * np.sum(s * s, axis=0)
    assert mc.var == pytest.approx(samples.mean(), rel=1e-10)
    assert mc.var_se == pytest.approx(samples.std(ddof=1) / np.sqrt(500), rel=1e-10)


def test_mc_holds_one_panel_of_test_points():
    # the test points are drawn a PANEL_ROWS panel at a time inside the
    # cross-kernel loop, so at d = 2000 and m = 2000 the check holds one
    # panel of PANEL_ROWS x (d + 1) doubles, its K^-1 k(X, x) and
    # cross-kernel buffers, a few arrays of m and blocks
    # (estimator.stage_doubles), never an m x (d + 1) array (measured
    # 624 947 doubles; drawing all m points at once held 8 014 225)
    d, m = 2000, 2000
    model, target, seed = _cell(d=d, gamma=0.5)
    n = model.n
    tracemalloc.start()
    try:
        mc_errors(model, target, m, seed.child(TAG_MC))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * estimator.stage_doubles(n, d, m, 1.0)["mc"] < 8 * m * (d + 1)


@pytest.mark.parametrize("d, m", [(12, 2 * estimator.PANEL_ROWS + 37), (1000, 300)])
def test_mc_panels_concatenate_to_one_sphere_draw(monkeypatch, d, m):
    # the Monte Carlo check's test points are sample_sphere(d, m, seed), bit
    # for bit, however they are cut into panels
    model, target, seed = _cell(d=d, gamma=1.0 if d < 100 else 0.5)
    drawn, real = [], estimator.sphere_panels

    def recorded(*args):
        for panel in real(*args):
            drawn.append(panel.copy())
            yield panel

    monkeypatch.setattr(estimator, "sphere_panels", recorded)
    mc_errors(model, target, m, seed.child(TAG_MC))
    assert [len(p) for p in drawn[:-1]] == [estimator.PANEL_ROWS] * (len(drawn) - 1)
    whole = sample_sphere(d, m, seed.child(TAG_MC)).coordinates
    assert np.concatenate(drawn).tobytes() == whole.tobytes()


@pytest.mark.parametrize("sigma2", [1.0, 0.0])
def test_panelled_mc_and_predict_match_dense_formulas(sigma2):
    # n = PANEL_ROWS + 88 and m = 2 PANEL_ROWS + 37: three test-point panels,
    # the last ragged, each over two column blocks of training points, one
    # per half of K^-1's RFP storage. Blocked BLAS products need not equal
    # the full m x n products bit for bit (OpenBLAS blocks by the operand
    # sizes, and the blocks are summed), so the tolerances cover a few ulps:
    # measured at most 6.3e-15 relative on McErrors and 3.9e-14 of max
    # |prediction|.
    n, m = estimator.PANEL_ROWS + 88, 2 * estimator.PANEL_ROWS + 37
    assert len(estimator._tiles(n)) == 2
    model, target, seed = _cell(d=12, n=n, sigma2=sigma2)
    mc = mc_errors(model, target, m, seed.child(TAG_MC))
    test = sample_sphere(target.d, m, seed.child(TAG_MC))
    kx = eval_phi(model.spectrum.spec, test.gram(model.dataset.points))
    bias = (kx @ model.alpha_clean - eval_target(target, test)) ** 2
    var = (sigma2 * np.sum(np.square(_dense(model.K_inv, model.n) @ kx.T), axis=0) if sigma2
           else np.zeros(m))
    dense = (bias.mean(), bias.std(ddof=1) / np.sqrt(m),
             var.mean(), var.std(ddof=1) / np.sqrt(m))
    got = (mc.bias_sq, mc.bias_sq_se, mc.var, mc.var_se)
    assert got == pytest.approx(dense, rel=1e-13, abs=0.0)

    pred, pred_dense = predict(model, test), kx @ model.alpha
    assert np.max(np.abs(pred - pred_dense)) <= 1e-12 * np.max(np.abs(pred_dense))


@pytest.mark.parametrize("n", [1, 2, 256, 288, 289, 431, 577, 2025])
def test_tiles_cover_each_half_of_the_rfp_split(n):
    # the one rule for row panels, cross-kernel column blocks and the tiles
    # of the factor: consecutive tiles of at most PANEL_ROWS over [0, n),
    # none straddling K's RFP halves at n1 = n - n // 2, so from n = 2 on a
    # tile ends at n1, and each half has the fewest tiles
    tiles = estimator._tiles(n)
    assert tiles[0][0] == 0 and tiles[-1][1] == n
    assert all(t1 == u0 for (_, t1), (u0, _) in zip(tiles, tiles[1:]))
    assert all(0 < t1 - t0 <= estimator.PANEL_ROWS for t0, t1 in tiles)
    n1 = n - n // 2
    assert not any(t0 < n1 < t1 for t0, t1 in tiles)
    first = [t for t in tiles if t[1] <= n1]
    assert len(first) == -(-n1 // estimator.PANEL_ROWS)
    assert len(tiles) - len(first) == -(-(n // 2) // estimator.PANEL_ROWS)


def test_predict_makes_no_k_inv_product(monkeypatch):
    # only the Monte Carlo variance needs K^-1 k(X, x); predict on a noisy
    # model, whose K^-1 exists, must not form it
    model, _, seed = _cell(d=12, n=estimator.PANEL_ROWS + 88)
    assert model.K_inv is not None

    def refuse(*args):
        raise AssertionError("predict reached a K^-1 product")

    monkeypatch.setattr(estimator, "_sym_product", refuse)
    monkeypatch.setattr(estimator, "gemm", refuse)
    test = sample_sphere(12, 2 * estimator.PANEL_ROWS + 37, seed.child(TAG_MC))
    pred = predict(model, test)
    kx = eval_phi(model.spectrum.spec, test.gram(model.dataset.points))
    assert np.max(np.abs(pred - kx @ model.alpha)) <= 1e-12 * np.max(np.abs(pred))


def test_k_inv_formed_only_when_used():
    # only the variance oracles read K^-1, so a noiseless fit never forms it
    model, target, _ = _cell(d=12, sigma2=0.0)
    assert model.K_inv is None
    evaluate_cell(model, target, mc_test_points=500, mc_seed=SEED.child(8))
    noisy, _, _ = _cell(d=12)
    assert noisy.K_inv is not None


@pytest.mark.parametrize("n", [40, 77])
def test_k_inv_matches_two_solve_route_and_is_symmetric(n):
    # the tiled inverse over the factor, in RFP storage (an even and an odd
    # n lay it out differently); the reference is a dense LU solve against a freshly
    # assembled K
    model, _, _ = _cell(d=12, n=n)
    ref = np.linalg.solve(_kernel_matrix(model), np.eye(n))
    assert model.K_inv.shape == (n * (n + 1) // 2,)
    K_inv = _dense(model.K_inv, n)
    assert np.linalg.norm(K_inv - ref) <= 1e-12 * np.linalg.norm(ref)


def test_k_inv_potri_failure_raises(monkeypatch):
    # the tiled inverse inverts each diagonal tile of the factor by trtri;
    # a failure on the first tile is reported at its row
    ds, sp = _forced_fit(monkeypatch, 0)
    monkeypatch.setattr(estimator, "trtri", lambda a: 3)
    with pytest.raises(NumericalError, match="info=3"):
        fit(ds, sp)


def _forced_fit(monkeypatch, failures):
    """A d = 12 cell whose first `failures` diagonal-tile factorizations
    report failure."""
    real = estimator.potrf
    calls = []

    def potrf_failing(a):
        calls.append(1)
        info = real(a)
        return (info or 5) if len(calls) <= failures else info

    monkeypatch.setattr(estimator, "potrf", potrf_failing)
    sp = compute_spectrum(kernel_by_id("exp"), 12)
    seed = SeedPath(31337, (12, 0))
    ds = make_dataset(build_target(sp, 0.5, 1.5, seed.child(TAG_AXIS)), 42, 1.0, seed)
    return ds, sp


def test_fit_matches_dense_solve(monkeypatch):
    ds, sp = _forced_fit(monkeypatch, 0)
    model = fit(ds, sp)
    K = assemble_kernel_matrix(sp.spec, ds.points.gram())
    for x, rhs in ((model.alpha, ds.y), (model.alpha_clean, ds.clean)):
        ref = np.linalg.solve(K, rhs)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def _count_pftrs(monkeypatch):
    """The right-hand-side column count of each pftrs call."""
    real, calls = estimator.pftrs, []

    def pftrs_counted(a, b):
        calls.append(b.shape[1])
        return real(a, b)

    monkeypatch.setattr(estimator, "pftrs", pftrs_counted)
    return calls


def test_noiseless_fit_solves_once(monkeypatch):
    # make_dataset hands fit y as the clean array itself at sigma2 = 0, so
    # one solve serves both; its residual meets the contract, so no
    # refinement sweep runs
    calls = _count_pftrs(monkeypatch)
    sp = compute_spectrum(kernel_by_id("exp"), 12)
    ds = make_dataset(build_target(sp, 0.5, 1.5, SEED.child(1)), 42, 0.0, SEED)
    model = fit(ds, sp)
    assert len(calls) == 1
    assert ds.y is ds.clean and model.alpha is model.alpha_clean


def test_equal_but_separate_labels_get_two_solves(monkeypatch):
    # the rule is identity, not sigma2: equal copies are two right-hand-side
    # columns of the one solve
    calls = _count_pftrs(monkeypatch)
    sp = compute_spectrum(kernel_by_id("exp"), 12)
    noiseless = make_dataset(build_target(sp, 0.5, 1.5, SEED.child(1)), 42, 0.0, SEED)
    ds = Dataset(points=noiseless.points, y=noiseless.clean.copy(),
                 clean=noiseless.clean.copy(), sigma2=0.0)
    model = fit(ds, sp)
    assert calls == [2] and model.alpha is not model.alpha_clean
    ref = np.linalg.solve(assemble_kernel_matrix(sp.spec, ds.points.gram()), ds.clean)
    for x in (model.alpha, model.alpha_clean):
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_a_solve_that_misses_the_contract_is_refined_once(monkeypatch):
    # a first solve of Y 1e-6 off in relative terms gets one refinement
    # sweep, which brings the residual back inside 1e-10; the other
    # right-hand-side column, f*(X) solved well, is not refined
    ds, sp = _forced_fit(monkeypatch, 0)
    real, calls = estimator.pftrs, []

    def pftrs_perturbed(a, b):
        calls.append(b)
        x = real(a, b)
        if len(calls) == 1:
            x[:, 0] *= 1 + 1e-6
        return x

    monkeypatch.setattr(estimator, "pftrs", pftrs_perturbed)
    model = fit(ds, sp)
    assert [b.shape[1] for b in calls] == [2, 1]
    assert np.array_equal(calls[0], np.stack((ds.y, ds.clean), axis=1))
    K = assemble_kernel_matrix(sp.spec, ds.points.gram())
    for x, rhs in ((model.alpha, ds.y), (model.alpha_clean, ds.clean)):
        assert np.linalg.norm(K @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_fit_factorization_failure_messages(monkeypatch):
    ds, sp = _forced_fit(monkeypatch, 1)
    with pytest.raises(NumericalError, match="not positive definite"):
        fit(ds, sp)


def test_fit_failure_reports_lambda_min_of_the_assembled_k(monkeypatch):
    # the array is half-factored when the factor fails, so lambda_min must come
    # from a K assembled afresh, not from what is left in the buffer
    ds, sp = _forced_fit(monkeypatch, 1)
    with pytest.raises(NumericalError) as err:
        fit(ds, sp)
    reported = float(str(err.value).split("lambda_min = ")[1].rstrip(")"))
    K = assemble_kernel_matrix(sp.spec, ds.points.gram())
    assert reported == pytest.approx(eigvalsh(K, subset_by_index=(0, 0))[0],
                                     rel=1e-12)


def _arrays(obj):
    """Every ndarray reachable through obj's dataclass fields."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, field.name))


@pytest.mark.parametrize("sigma2, count", [(1.0, 1), (0.0, 0)])
def test_fitted_model_holds_one_n_by_n_array_only_when_noisy(sigma2, count):
    # K^-1 is the RFP array of n (n + 1) / 2 doubles that held K and the
    # factor; a noiseless fit keeps no array of that size at all
    model, _, _ = _cell(d=12, sigma2=sigma2)
    n = model.n
    big = [a for a in _arrays(model) if a.size >= n * (n + 1) // 2]
    assert len(big) == count
    if count:
        assert big[0] is model.K_inv and big[0].shape == (n * (n + 1) // 2,)


def test_custom_kernel_fit_holds_one_n_by_n_buffer():
    # Horner's rule evaluates Phi over each G block in place, copying one
    # row block of it at a time, so a custom kernel fits in the one RFP
    # array and fit's few cache blocks (estimator.stage_doubles) as exp does
    spec = kernel_from_coefficients([0.5 ** (j + 1) for j in range(30)])
    sp = compute_spectrum(spec, 24)
    seed = SeedPath(31337, (24, 0))
    target = build_target(sp, 1.0, 2.0, seed.child(TAG_AXIS))
    ds = make_dataset(target, 576, 0.0, seed)
    tracemalloc.start()
    try:
        model = fit(ds, sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = model.n
    assert model.K_inv is None
    held = n * (n + 1) // 2 + estimator.stage_doubles(n, 24, 0, 0.0)["fit"]
    assert peak <= 8 * held < 8 * n * n    # no n x n copy of G for Horner's rule


def test_fit_rejects_a_non_finite_solve(monkeypatch):
    # a NaN residual compares False against any tolerance
    ds, sp = _forced_fit(monkeypatch, 0)
    monkeypatch.setattr(estimator, "pftrs",
                        lambda factor, rhs: np.full_like(rhs, np.nan))
    with pytest.raises(NumericalError, match="residual nan"):
        fit(ds, sp)


def test_bias_zero_target():
    model, target, _ = _cell(sigma2=1.0)
    zero = target.__class__(spectrum=target.spectrum, s=target.s,
                            gamma=target.gamma, l=target.l,
                            beta=np.zeros_like(target.beta), axis=target.axis,
                            hs_norm_sq=0.0, c0=0.0)
    ds = model.dataset
    zero_ds = ds.__class__(points=ds.points, y=ds.y, clean=np.zeros(ds.n),
                           sigma2=ds.sigma2)
    m = fit(zero_ds, model.spectrum)
    rep = exact_bias_by_degree(m, zero)
    assert rep.total == 0.0


def test_bias_single_point_matches_mc():
    sp = compute_spectrum(kernel_by_id("exp"), 4)
    seed = SeedPath(31337, (99,))
    target = build_target(sp, 0.0, 0.5, seed.child(TAG_AXIS))
    const = target.__class__(spectrum=sp, s=0.0, gamma=0.5, l=0,
                             beta=np.array([target.beta[0], 0.0]),
                             axis=target.axis,
                             hs_norm_sq=target.beta[0] ** 2, c0=1.0)
    ds = make_dataset(const, 1, 0.0, seed)
    model = fit(ds, sp)
    rep = exact_bias_by_degree(model, const)
    mc = mc_errors(model, const, 20_000, seed.child(TAG_MC))
    assert rep.by_degree[0] > 0  # degree-0 shrinkage term
    assert rep.by_degree[1:].sum() > 0  # overshoot into k >= 1
    assert abs(rep.total - mc.bias_sq) <= 3 * mc.bias_sq_se


def test_bias_degree_split_sums():
    model, target, _ = _cell(d=12, s=1.0)
    rep = exact_bias_by_degree(model, target)
    assert rep.B1 + rep.B2 == pytest.approx(rep.total, rel=1e-12)
    assert np.all(rep.by_degree >= 0)


def test_b2_tracks_tail_energy():
    # B2 within a loose bracket of the dominant term beta_{l+1}^2
    ratios = []
    for d in (8, 16):
        model, target, _ = _cell(d=d, s=1.0, gamma=1.5, sigma2=0.0)
        rep = exact_bias_by_degree(model, target)
        ratios.append(rep.B2 / target.beta[target.l + 1] ** 2)
    assert all(0.5 <= r <= 2.0 for r in ratios)


def test_mc_exact_agreement():
    model, target, seed = _cell(d=16, gamma=1.5, s=0.5)
    rep = exact_bias_by_degree(model, target)
    var = sum(variance_split(model, -1))
    mc = mc_errors(model, target, 4000, seed.child(TAG_MC))
    assert abs(rep.total - mc.bias_sq) <= 3 * mc.bias_sq_se
    assert abs(var - mc.var) <= 3 * mc.var_se


def test_mc_zero_cases():
    model, target, seed = _cell(sigma2=0.0)
    mc = mc_errors(model, target, 500, seed.child(TAG_MC))
    assert mc.var == 0.0
    with pytest.raises(UsageError):
        mc_errors(model, target, 50, seed.child(TAG_MC))


def test_concentration_report_fields():
    model, target, _ = _cell(d=16)
    rep = concentration_report(model, target.l)
    assert rep.lambda_min_K > 0
    assert rep.B_l == 1 + multiplicity(16, 1)
    assert rep.meaningful == (model.n >= rep.B_l)


@pytest.mark.parametrize("gamma", [1.5, 2.0])
def test_concentration_report_matches_dense_oracle(gamma):
    # test-only oracle: K rebuilt from the points, eigensolves on copies
    model, target, _ = _cell(d=12, gamma=gamma)
    sp, l, n = model.spectrum, target.l, model.n
    K_inv_before, alpha_before = model.K_inv.copy(), model.alpha.copy()
    rep = concentration_report(model, l)
    assert np.array_equal(model.K_inv, K_inv_before)
    assert np.array_equal(model.alpha, alpha_before)

    G = model.dataset.points.gram()
    K = assemble_kernel_matrix(sp.spec, G)
    lam_min = eigvalsh(K, subset_by_index=(0, 0))[0]
    ev = eigvalsh(K - zonal_series(sp.d, (sp.mu * sp.multiplicities)[: l + 1], G))
    kappa1 = tail_sums(sp, l).kappa1
    delta1 = max(abs(ev[0] / kappa1 - 1.0), abs(ev[-1] / kappa1 - 1.0))
    ev_a = eigvalsh(zonal_series(sp.d, sp.multiplicities[: l + 1], G) / n)
    psi_dev = np.max(np.abs(ev_a[-min(rep.B_l, n):] - 1.0))
    assert rep.lambda_min_K == pytest.approx(lam_min, rel=1e-12)
    assert rep.delta1_opnorm == pytest.approx(delta1, rel=1e-12)
    assert rep.psi_gram_deviation == pytest.approx(psi_dev, rel=1e-12)


def test_concentration_report_builds_g_once(monkeypatch):
    # lambda_min(K) comes from the K the report assembles over its own G
    model, target, _ = _cell(d=12)
    gram, grams = SpherePoints.gram, []

    def gram_counted(points, other=None):
        grams.append(other)
        return gram(points, other)

    monkeypatch.setattr(SpherePoints, "gram", gram_counted)
    concentration_report(model, target.l)
    assert grams == [None]


def test_concentration_report_peak_memory_beside_k_inv():
    # K^-1 plus at most two n x n arrays of the report's own (G, then K
    # beside K's degree > l part), everything else below one panel of
    # PANEL_ROWS x n doubles (measured 3.15 n^2 here)
    tracemalloc.start()
    try:
        model, target, _ = _cell(d=16, gamma=2.0, n=800)
        rep = concentration_report(model, target.l)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = model.n
    assert model.K_inv is not None and rep.lambda_min_K > 0
    assert peak <= 8 * (3 * n * n + estimator.PANEL_ROWS * n)


def test_concentration_flags_small_n():
    model, target, _ = _cell(d=16, n=10)
    rep = concentration_report(model, target.l)
    assert not rep.meaningful  # n=10 < B_1 = 18


def test_concentration_improves_with_d():
    meds = {"d1": [], "psi": []}
    for d in (8, 16, 32):
        vals_d1, vals_psi = [], []
        for rep_i in range(10):
            model, target, _ = _cell(d=d, seed_label=rep_i)
            rep = concentration_report(model, target.l)
            vals_d1.append(rep.delta1_opnorm)
            vals_psi.append(rep.psi_gram_deviation)
        meds["d1"].append(np.median(vals_d1))
        meds["psi"].append(np.median(vals_psi))
    assert meds["d1"][-1] < meds["d1"][0]
    assert meds["psi"][-1] < meds["psi"][0]


def test_lambda_min_vs_kappa1_grows_with_d():
    # the bulk eigenvalue floor approaches kappa1 from below as d grows
    medians = []
    for d in (8, 16, 32):
        ratios = []
        for rep_i in range(8):
            model, target, _ = _cell(d=d, seed_label=rep_i)
            rep = concentration_report(model, target.l)
            kappa1 = tail_sums(model.spectrum, target.l).kappa1
            ratios.append(rep.lambda_min_K / kappa1)
        medians.append(np.median(ratios))
    assert all(a < b for a, b in zip(medians, medians[1:]))
    assert medians[0] > 0.2 and medians[-1] > 0.4
    assert medians[-1] < 1.0


def test_evaluate_cell_defaults_run_the_exact_oracles_only():
    model, target, _ = _cell()
    rep = evaluate_cell(model, target)
    assert rep.var_exact > 0 and rep.bias_sq_exact >= 0
    assert rep.bias_sq_mc is None and rep.mc_consistent is None


def test_evaluate_cell_full_report():
    model, target, seed = _cell(d=12)
    rep = evaluate_cell(model, target, mc_test_points=2000,
                        mc_seed=seed.child(TAG_MC))
    assert rep.bias_sq_exact >= 0 and rep.var_exact >= 0
    assert rep.B1 + rep.B2 == pytest.approx(rep.bias_sq_exact, rel=1e-9)
    assert rep.mc_consistent

