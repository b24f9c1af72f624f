import math

import numpy as np
import pytest

from kilab import (KernelSpec, NumericalError, SeedPath, SpherePoints,
                   UsageError, ZonalBasis, assemble_kernel_matrix,
                   compute_spectrum, eval_phi, kernel_by_id,
                   kernel_from_coefficients, multiplicity, quadrature,
                   sample_sphere, tail_sums, zonal_series)


def _squared_coef(sp):
    """Coefficients of Phi2(t) = sum_k mu_k^2 N(d,k) P_kd(t)."""
    return sp.mu**2 * sp.multiplicities


def _low_degree_matrix(sp, l, G):
    """K_{<=l}: entries sum_{k<=l} mu_k N(d,k) P_kd(G_ij)."""
    return zonal_series(sp.d, (sp.mu * sp.multiplicities)[: l + 1], G)


def test_eval_phi_exp_kernel():
    spec = kernel_by_id("exp")
    assert eval_phi(spec, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert eval_phi(spec, 0.0) == pytest.approx(math.exp(-1), abs=1e-15)
    # closed form agrees with the coefficient series
    t = np.linspace(-1, 1, 7)
    series = sum(a * t**j for j, a in enumerate(spec.coefficients))
    assert np.max(np.abs(eval_phi(spec, t) - series)) < 1e-14


def test_eval_phi_geometric_kernel():
    spec = kernel_by_id("geometric")
    assert eval_phi(spec, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert eval_phi(spec, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_eval_phi_constant_kernel():
    spec = kernel_from_coefficients([0.3])
    t = np.linspace(-1, 1, 11)
    assert np.array_equal(eval_phi(spec, t), np.full(11, 0.3))


def _former_phi(spec, t):
    """The expressions eval_phi used before it wrote into a buffer."""
    if spec.family_id == "exp":
        return np.exp(t - 1.0)
    if spec.family_id == "geometric":
        return 1.0 / (2.0 - t)
    out = np.zeros_like(t)
    for a_j in reversed(spec.coefficients):
        out = out * t + a_j
    return out


@pytest.mark.parametrize("spec", [kernel_by_id("exp"), kernel_by_id("geometric"),
                                  kernel_from_coefficients([0.3, 0.2, 0.1, 0.05])],
                         ids=lambda spec: spec.family_id)
def test_eval_phi_matches_former_expressions(spec):
    # 300 x 100 spans two row blocks (163 and 137 rows) of Horner's rule
    t = np.linspace(-1.0, 1.0, 30000).reshape(300, 100)
    expected = _former_phi(spec, t)
    assert np.array_equal(eval_phi(spec, t), expected)
    out = np.empty_like(t)
    assert eval_phi(spec, t, out=out) is out and np.array_equal(out, expected)
    t_copy = t.copy()
    assert np.array_equal(eval_phi(spec, t_copy, out=t_copy), expected)  # in place
    for x in (1.0, -0.3):
        value = eval_phi(spec, x)
        assert type(value) is float and value == float(_former_phi(spec, np.float64(x)))


def test_kernel_spec_validation():
    with pytest.raises(UsageError):
        kernel_from_coefficients([0.5, -0.1])
    with pytest.raises(UsageError):
        kernel_from_coefficients([0.9, 0.2])  # sum > 1
    with pytest.raises(UsageError):
        kernel_from_coefficients([0.5, 0.0, 0.3])  # interior zero
    with pytest.raises(UsageError, match="finite"):
        kernel_from_coefficients([0.5, float("nan")])


def test_constant_kernel_spectrum():
    spec = kernel_from_coefficients([0.3])
    sp = compute_spectrum(spec, 5)
    assert sp.mu[0] == pytest.approx(0.3, abs=1e-13)
    assert np.all(sp.mu[1:] == 0.0)


def test_linear_kernel_eigenvalue():
    # Phi(t) = 0.5 + 0.5 t at d = 2: mu_1 = 0.5/(d+1) = 1/6, and
    # mu_1 N(2,1) = 0.5, the linear coefficient
    spec = kernel_from_coefficients([0.5, 0.5])
    sp = compute_spectrum(spec, 2)
    assert sp.mu[1] == pytest.approx(1 / 6, abs=1e-12)
    assert sp.mu[1] * multiplicity(2, 1) == pytest.approx(0.5, abs=1e-11)


@pytest.mark.parametrize("kernel_id", ["exp", "geometric"])
@pytest.mark.parametrize("d", [4, 8, 16])
def test_mercer_reconstruction(kernel_id, d):
    spec = kernel_by_id(kernel_id)
    sp = compute_spectrum(spec, d)
    t = np.linspace(-1, 1, 201)
    coef = sp.mu * sp.multiplicities
    recon = np.zeros_like(t)
    for k, p_k in enumerate(sp.basis().iter_values(t)):
        recon += coef[k] * p_k
    assert np.max(np.abs(eval_phi(spec, t) - recon)) <= 2e-10
    assert abs(coef.sum() + sp.trace_residual - eval_phi(spec, 1.0)) < 1e-12


@pytest.mark.parametrize("kernel_id", ["exp", "geometric"])
def test_mercer_reconstruction_at_every_d(kernel_id):
    spec = kernel_by_id(kernel_id)
    t = np.linspace(-1, 1, 201)
    phi = eval_phi(spec, t)
    worst = {}
    for d in [*range(2, 129), 700, 2000]:
        sp = compute_spectrum(spec, d)
        assert sp.trace_residual < 1e-10
        worst[d] = float(np.max(np.abs(phi - zonal_series(d, sp.mu * sp.multiplicities, t))))
    assert {d: r for d, r in worst.items() if r > 2e-10} == {}


def _projections(spec, d, points, k_top):
    """E[Phi P_k] for k <= k_top on a points-node Gauss-Jacobi rule."""
    rule = quadrature(d, points)
    p = ZonalBasis(d, k_top).eval_all(rule.nodes)
    return p @ (rule.weights * eval_phi(spec, rule.nodes))


@pytest.mark.parametrize("kernel_id", ["exp", "geometric"])
@pytest.mark.parametrize("d", [8, 16, 45])
def test_spectrum_rule_matches_a_520_node_rule(kernel_id, d):
    spec = kernel_by_id(kernel_id)
    mu = compute_spectrum(spec, d).mu[:4]
    ref = _projections(spec, d, 520, 3)
    assert np.all(np.abs(mu - ref) <= 1e-12 * ref)


@pytest.mark.parametrize("d", [2, 45, 700, 2000])
def test_long_custom_kernel_reconstructs_at_any_d(d):
    spec = kernel_from_coefficients([0.5 ** (j + 1) for j in range(400)])
    sp = compute_spectrum(spec, d)
    t = np.linspace(-1, 1, 201)
    recon = zonal_series(d, sp.mu * sp.multiplicities, t)
    assert np.max(np.abs(eval_phi(spec, t) - recon)) <= 2e-10


def test_slowly_decaying_kernel_hits_the_k_max_cap():
    # about 0.011 of this kernel's trace lies above degree 62
    spec = kernel_from_coefficients([0.03 * 0.97**j for j in range(200)])
    with pytest.raises(NumericalError, match="k_max cap 64 binds"):
        compute_spectrum(spec, 45)


# k_max of exp at every d of the benchmark workloads and criteria 05-08; a
# spectrum change that moves the truncation must fail here
EXP_K_MAX = {**{d: 10 for d in range(2, 5)}, **{d: 11 for d in range(5, 22)},
             **{d: 12 for d in range(22, 33)}, 45: 12}


def test_exp_k_max_pinned_where_results_are_gated():
    spec = kernel_by_id("exp")
    assert {d: compute_spectrum(spec, d).k_max for d in EXP_K_MAX} == EXP_K_MAX


def test_eigenvalue_decay_matches_d_power():
    spec = kernel_by_id("exp")
    for k in range(4):
        scaled = [compute_spectrum(spec, d).mu[k] * d**k for d in (10, 20, 40)]
        assert max(scaled) / min(scaled) < 5.0


def test_monotone_eigenvalue_dominance():
    # mu_k for k >= p+1 is O(mu_p / d)
    spec = kernel_by_id("exp")
    for d in (8, 16, 32):
        sp = compute_spectrum(spec, d)
        for p in range(min(3, sp.k_max - 1) + 1):
            assert np.all(sp.mu[p + 1:] <= 5.0 * sp.mu[p] / d)


def test_tail_sums_whole_trace():
    sp = compute_spectrum(kernel_by_id("exp"), 16)
    ts = tail_sums(sp, -1)
    assert ts.kappa1 == pytest.approx(1.0, abs=1e-10)


def test_tail_sums_complement_identity():
    sp = compute_spectrum(kernel_by_id("exp"), 16)
    ts = tail_sums(sp, 1)
    expected = 1.0 - sp.mu[0] - sp.mu[1] * multiplicity(16, 1)
    assert ts.kappa1 == pytest.approx(expected, abs=1e-10)
    assert 0 < ts.kappa1 <= 1.0
    assert 0 < ts.kappa2 <= sp.mu[2] * ts.kappa1 + 1e-15


def test_kappa2_scaling_in_d():
    l = 1
    scaled = [tail_sums(compute_spectrum(kernel_by_id("exp"), d), l).kappa2 * d ** (l + 1)
              for d in (8, 16, 32)]
    assert max(scaled) / min(scaled) < 5.0


def test_tail_sums_rejects_l_at_kmax():
    sp = compute_spectrum(kernel_by_id("exp"), 8)
    with pytest.raises(UsageError):
        tail_sums(sp, sp.k_max)


def test_squared_kernel_at_one_equals_kappa2():
    sp = compute_spectrum(kernel_by_id("exp"), 8)
    ts = tail_sums(sp, -1)
    assert zonal_series(8, _squared_coef(sp), 1.0) == pytest.approx(ts.kappa2, rel=1e-12)


def test_squared_kernel_constant_case():
    sp = compute_spectrum(kernel_from_coefficients([0.3]), 5)
    t = np.linspace(-1, 1, 9)
    assert np.max(np.abs(zonal_series(5, _squared_coef(sp), t) - 0.09)) < 1e-13


def test_squared_kernel_projections_are_mu_squared():
    # projecting the squared kernel onto degree k recovers mu_k^2
    d = 8
    sp = compute_spectrum(kernel_by_id("exp"), d)
    rule = quadrature(d, 200)
    p = ZonalBasis(d, 6).eval_all(rule.nodes)
    vals = zonal_series(d, _squared_coef(sp), rule.nodes)
    for k in range(7):
        proj = rule.integrate(vals * p[k])
        assert proj == pytest.approx(sp.mu[k] ** 2, abs=1e-14)


def test_assemble_single_point():
    spec = kernel_by_id("geometric")
    pts = SpherePoints(2, np.array([[1.0, 0.0, 0.0]]))
    K = assemble_kernel_matrix(spec, pts.gram())
    assert K.shape == (1, 1)
    assert K[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_assemble_antipodal_pair():
    spec = kernel_by_id("exp")
    x = np.array([1.0, 0.0, 0.0])
    pts = SpherePoints(2, np.stack([x, -x]))
    K = assemble_kernel_matrix(spec, pts.gram())
    assert K[0, 1] == pytest.approx(math.exp(-2), abs=1e-15)


@pytest.mark.parametrize("n", [50, 431])
def test_assemble_exactly_symmetric(n):
    spec = kernel_by_id("exp")
    K = assemble_kernel_matrix(spec, sample_sphere(16, n, SeedPath(15, (n,))).gram())
    assert np.array_equal(K, K.T)
    assert np.all(np.diag(K) == eval_phi(spec, 1.0))


def test_eval_phi_clips_rounding_and_rejects_the_rest():
    spec = kernel_by_id("exp")
    assert eval_phi(spec, 1 + 1e-13) == eval_phi(spec, 1.0)
    assert eval_phi(spec, np.array([-1 - 1e-13]))[0] == eval_phi(spec, -1.0)
    with pytest.raises(UsageError):
        eval_phi(spec, 1 + 1e-11)
    for spec in (spec, kernel_from_coefficients([0.3, 0.2])):   # NaN too
        with pytest.raises(UsageError):
            eval_phi(spec, np.nan)
        with pytest.raises(UsageError):
            eval_phi(spec, np.array([0.5, np.nan]))


def test_kernel_matrix_min_eigenvalue_near_kappa1():
    # lambda_min(K) stays a constant fraction of the degree > l tail mass
    # when n ~ d^gamma with l = floor(gamma)
    for d, n, l in ((16, 64, 1), (24, 117, 1)):
        spec = kernel_by_id("exp")
        sp = compute_spectrum(spec, d)
        pts = sample_sphere(d, n, SeedPath(11, (d,)))
        K = assemble_kernel_matrix(spec, pts.gram())
        ev_min = np.linalg.eigvalsh(K)[0]
        kappa1 = tail_sums(sp, l).kappa1
        assert ev_min >= 0.3 * kappa1


def test_low_degree_matrix_degree_zero():
    sp = compute_spectrum(kernel_by_id("exp"), 6)
    pts = sample_sphere(6, 10, SeedPath(12))
    out = _low_degree_matrix(sp, 0, pts.gram())
    assert np.max(np.abs(out - sp.mu[0])) < 1e-14


def test_low_degree_matrix_telescopes_to_full():
    spec = kernel_by_id("exp")
    sp = compute_spectrum(spec, 6)
    pts = sample_sphere(6, 30, SeedPath(13))
    full = assemble_kernel_matrix(spec, pts.gram())
    trunc = _low_degree_matrix(sp, sp.k_max, pts.gram())
    assert np.max(np.abs(full - trunc)) <= sp.trace_residual + 1e-14


def test_low_degree_matrix_rank_bound():
    sp = compute_spectrum(kernel_by_id("exp"), 5)
    pts = sample_sphere(5, 80, SeedPath(14))
    l = 2
    out = _low_degree_matrix(sp, l, pts.gram())
    b_l = sum(multiplicity(5, k) for k in range(l + 1))
    rank = int(np.sum(np.linalg.eigvalsh(out) > 1e-9))
    assert rank <= b_l


def test_negative_coefficient_kernel_raises():
    # a closed form that is not the coefficient series (here a non-PSD
    # zonal function) must be rejected when the spec is built
    def bad_phi(t, out):
        np.subtract(0.5, 0.4 * t, out=out)

    with pytest.raises(UsageError, match="closed-form phi differs"):
        KernelSpec(family_id="custom", coefficients=(0.5, 0.4), phi=bad_phi)
