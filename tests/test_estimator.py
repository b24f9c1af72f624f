import numpy as np
import pytest
from scipy.linalg import cho_solve

from kilab import (Dataset, SeedPath, SpherePoints, UsageError, build_target,
                   compute_spectrum, concentration_report, evaluate_cell,
                   exact_bias_by_degree, exact_variance, eval_phi, fit,
                   kernel_by_id, make_dataset, mc_errors, multiplicity,
                   predict, sample_sphere, tail_sums, variance_split,
                   zonal_series)
from kilab.seeding import TAG_AXIS, TAG_MC

SEED = SeedPath(31337)


def _cell(d=8, gamma=1.5, s=0.5, sigma2=1.0, n=None, lam=0.0, seed_label=0):
    sp = compute_spectrum(kernel_by_id("exp"), d)
    seed = SeedPath(31337, (d, seed_label))
    target = build_target(sp, s, gamma, seed.child(TAG_AXIS))
    ds = make_dataset(target, n or round(d**gamma), sigma2, seed)
    return fit(ds, sp, lam=lam), target, seed


def test_single_point_dual_weight():
    sp = compute_spectrum(kernel_by_id("exp"), 4)
    target = build_target(sp, 1.0, 1.5, SEED.child(1))
    ds = make_dataset(target, 1, 1.0, SEED.child(2))
    model = fit(ds, sp)
    assert model.alpha[0] == pytest.approx(ds.y[0] / eval_phi(sp.spec, 1.0), rel=1e-12)


def test_dual_norm_shrinks_with_ridge():
    model0, target, seed = _cell(lam=0.0)
    norms = []
    for lam in (0.0, 1e-3, 1e-1, 10.0):
        m = fit(model0.dataset, model0.spectrum, lam=lam)
        norms.append(np.linalg.norm(m.alpha))
    assert all(a >= b for a, b in zip(norms, norms[1:]))


def test_interpolation_limit_of_ridge():
    model0, target, seed = _cell(d=8, gamma=1.5)
    model_eps = fit(model0.dataset, model0.spectrum, lam=1e-12)
    test = sample_sphere(8, 100, seed.child(77))
    gap = np.max(np.abs(predict(model0, test) - predict(model_eps, test)))
    assert gap < 1e-6


def test_training_labels_reproduced():
    model, target, _ = _cell()
    scale = max(1.0, float(np.max(np.abs(model.dataset.y))))
    resid = np.max(np.abs(predict(model, model.dataset.points) - model.dataset.y))
    assert model.jitter_used == 0.0
    assert resid <= 1e-6 * scale


def test_zero_labels_zero_function():
    model, target, seed = _cell()
    ds = model.dataset
    zero_ds = ds.__class__(points=ds.points, y=np.zeros(ds.n),
                           clean=np.zeros(ds.n), sigma2=0.0, seed=ds.seed)
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
                clean=np.concatenate([y_half, y_half]), sigma2=0.0,
                seed=SEED)
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
    assert exact_variance(model) == pytest.approx(expected, rel=1e-10)


def test_variance_zero_noise():
    model, _, _ = _cell(sigma2=0.0)
    assert exact_variance(model) == 0.0


def test_variance_split_sums_to_total():
    model, target, _ = _cell(d=12)
    low, high = variance_split(model, target.l)
    assert low + high == pytest.approx(exact_variance(model), rel=1e-9)
    assert low >= 0 and high >= 0


def _trace_variance_split(model, l):
    """Independent oracle: sigma^2 tr(K^-1 M K^-1), split at degree l.

    M and M_{<=l} are assembled as explicit n x n matrices and each trace
    takes two solves against the factor, the route variance_split replaces.
    """
    sp = model.spectrum
    G = model.dataset.points.gram()
    coef = sp.mu**2 * sp.multiplicities
    M = zonal_series(sp.d, coef, G)
    M_low = zonal_series(sp.d, coef[: l + 1], G)

    def trace_quad(mat):
        w = cho_solve(model.cho, mat)
        return float(np.trace(cho_solve(model.cho, w.T)))

    sigma2 = model.dataset.sigma2
    return sigma2 * trace_quad(M_low), sigma2 * trace_quad(M - M_low)


@pytest.mark.parametrize("d, gamma, lam", [
    (16, 1.25, 0.0), (12, 1.75, 0.0), (10, 2.0, 0.0), (12, 1.5, 1e-3),
])
def test_variance_split_matches_trace_oracle(d, gamma, lam):
    model, target, _ = _cell(d=d, gamma=gamma, lam=lam)
    low, high = variance_split(model, target.l)
    low_ref, high_ref = _trace_variance_split(model, target.l)
    assert low == pytest.approx(low_ref, rel=1e-9)
    assert high == pytest.approx(high_ref, rel=1e-9)
    assert exact_variance(model) == pytest.approx(low_ref + high_ref, rel=1e-9)


def test_variance_monotone_in_ridge():
    model0, target, _ = _cell(d=8)
    values = []
    for lam in (0.0, 1e-4, 1e-2, 1.0):
        m = fit(model0.dataset, model0.spectrum, lam=lam)
        values.append(exact_variance(m))
    assert all(a >= b - 1e-14 for a, b in zip(values, values[1:]))


def test_bias_zero_target():
    model, target, _ = _cell(sigma2=1.0)
    zero = target.__class__(spectrum=target.spectrum, s=target.s,
                            gamma=target.gamma, l=target.l,
                            beta=np.zeros_like(target.beta), axis=target.axis,
                            hs_norm_sq=0.0, c0=0.0)
    ds = model.dataset
    zero_ds = ds.__class__(points=ds.points, y=ds.y, clean=np.zeros(ds.n),
                           sigma2=ds.sigma2, seed=ds.seed)
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
    var = exact_variance(model)
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


def test_evaluate_cell_full_report():
    model, target, seed = _cell(d=12)
    rep = evaluate_cell(model, target, mc_test_points=2000,
                        mc_seed=seed.child(TAG_MC))
    assert rep.bias_sq_exact >= 0 and rep.var_exact >= 0
    assert rep.B1 + rep.B2 == pytest.approx(rep.bias_sq_exact, rel=1e-9)
    assert rep.mc_consistent
    assert rep.jitter_used == 0.0


def test_fit_rejects_negative_ridge():
    model, target, _ = _cell()
    with pytest.raises(UsageError):
        fit(model.dataset, model.spectrum, lam=-1.0)
