import dataclasses
import math

import numpy as np
import pytest

from kilab import (SeedPath, SpherePoints, UsageError, build_target, classify,
                   compute_spectrum, eval_target, kernel_by_id, make_dataset,
                   multiplicity, quadrature, sample_sphere)
from kilab.zonal import ZonalBasis

SEED = SeedPath(2024)


def _spectrum(d):
    return compute_spectrum(kernel_by_id("exp"), d)


def test_flat_energy_at_s_zero():
    sp = _spectrum(8)
    t = build_target(sp, 0.0, 1.5, SEED.child(1))
    assert np.max(np.abs(t.beta**2 - t.beta[0] ** 2)) < 1e-14
    # tail component theta_{>l} has Theta(1) L2 energy
    assert t.beta[t.l + 1] ** 2 > 0.1


def test_source_condition_checker():
    for s, gamma in [(0.0, 1.5), (1.0, 1.5), (3.0, 2.4), (0.5, 0.8)]:
        sp = _spectrum(12)
        t = build_target(sp, s, gamma, SEED.child(2))
        hs = float(np.sum(t.beta**2 * sp.mu[: t.l + 2] ** (-s)))
        assert hs == pytest.approx(t.hs_norm_sq, rel=1e-12)
        assert hs <= 4.0 + 1e-12
        assert t.c0 > 0
        # both source-condition lower bounds hold with the reported c0
        assert float(np.sum(t.beta[: t.l + 1] ** 2)) >= t.c0 - 1e-12
        for p in (t.l, t.l + 1):
            assert sp.mu[p] ** (-s) * t.beta[p] ** 2 >= t.c0 - 1e-12


def test_tail_energy_scales_with_d():
    # ||theta_{>l}||^2 * d^{(l+1)s} bounded across d for s = 1, gamma = 1.5
    s, gamma, l = 1.0, 1.5, 1
    scaled = []
    for d in (8, 16, 32):
        sp = _spectrum(d)
        t = build_target(sp, s, gamma, SEED.child(3, d))
        scaled.append(t.beta[l + 1] ** 2 * d ** ((l + 1) * s))
    assert max(scaled) / min(scaled) < 5.0


def test_low_degree_inverse_energy_saturates():
    # ||Sigma_{<=l}^-1 theta_{<=l}||^2 stays bounded at s = 3 (s~ = 2 regime)
    s, gamma, l = 3.0, 1.5, 1
    vals = []
    for d in (8, 16, 32):
        sp = _spectrum(d)
        t = build_target(sp, s, gamma, SEED.child(4, d))
        vals.append(float(np.sum(t.beta[: l + 1] ** 2 / sp.mu[: l + 1] ** 2)))
    assert max(vals) / min(vals) < 5.0


def test_band_exceeding_kmax_rejected():
    sp = _spectrum(8)
    with pytest.raises(UsageError):
        build_target(sp, 1.0, float(sp.k_max + 2), SEED.child(5))


@pytest.mark.parametrize("gamma", [0.7, 1.5, 2.0, 2 - 1e-13, 2 + 1e-13,
                                   3 - 1e-13, 3 + 1e-13, 3 - 1e-11])
def test_target_band_is_the_theory_band(gamma):
    # the target's band and classify's come from one rule (rates.band)
    t = build_target(_spectrum(8), 1.0, gamma, SEED.child(6))
    assert t.l == classify(1.0, gamma).l


def test_eval_at_axis():
    sp = _spectrum(6)
    t = build_target(sp, 1.0, 1.5, SEED.child(6))
    pts = SpherePoints(6, t.axis[None, :])
    expected = sum(t.beta[k] * math.sqrt(multiplicity(6, k)) for k in range(t.l + 2))
    assert eval_target(t, pts)[0] == pytest.approx(expected, rel=1e-12)


def test_eval_target_rejects_non_unit_axis():
    sp = _spectrum(6)
    t = build_target(sp, 1.0, 1.5, SEED.child(6))
    pts = SpherePoints(6, t.axis[None, :])
    with pytest.raises(UsageError):
        eval_target(dataclasses.replace(t, axis=2 * t.axis), pts)


def test_constant_target():
    sp = compute_spectrum(kernel_by_id("exp"), 5)
    t = build_target(sp, 1.0, 1.5, SEED.child(7))
    const = t.__class__(spectrum=sp, s=0.0, gamma=t.gamma, l=0,
                        beta=np.array([0.7, 0.0]), axis=t.axis,
                        hs_norm_sq=0.0, c0=0.0)
    pts = sample_sphere(5, 50, SEED.child(8))
    assert np.max(np.abs(eval_target(const, pts) - 0.7)) < 1e-14


def test_mc_l2_norm_matches_beta_norm():
    sp = _spectrum(8)
    t = build_target(sp, 0.5, 1.5, SEED.child(9))
    pts = sample_sphere(8, 100_000, SEED.child(10))
    vals = eval_target(t, pts) ** 2
    se = vals.std(ddof=1) / math.sqrt(pts.n)
    assert abs(vals.mean() - t.l2_norm_sq) < 3 * se


def test_cross_degree_orthogonality_mc():
    sp = _spectrum(8)
    t = build_target(sp, 0.5, 1.5, SEED.child(11))
    pts = sample_sphere(8, 50_000, SEED.child(12))
    tw = np.clip(pts.coordinates @ t.axis, -1, 1)
    p = ZonalBasis(8, t.l + 1).eval_all(tw)
    comps = [t.beta[k] * math.sqrt(multiplicity(8, k)) * p[k]
             for k in range(t.l + 2)]
    for j in range(len(comps)):
        for k in range(j + 1, len(comps)):
            prod = comps[j] * comps[k]
            se = prod.std(ddof=1) / math.sqrt(pts.n)
            assert abs(prod.mean()) < 4 * se + 1e-12


def test_band_limit_is_exact():
    # projection onto degree l+2 via quadrature over <x, w> is zero
    d = 6
    sp = _spectrum(d)
    t = build_target(sp, 1.0, 1.5, SEED.child(13))
    rule = quadrature(d, 80)
    basis = ZonalBasis(d, t.l + 2)
    # f* restricted to the zonal slice: values at inner products with the axis
    coef = t.beta * np.sqrt(sp.multiplicities[: t.l + 2])
    vals = np.zeros_like(rule.nodes)
    for k, p_k in enumerate(basis.iter_values(rule.nodes)):
        if k > t.l + 1:
            proj = rule.integrate(vals * p_k) * multiplicity(d, k)
            assert abs(proj) < 1e-10
            break
        vals += coef[k] * p_k


def test_dataset_noise_free():
    sp = _spectrum(6)
    t = build_target(sp, 1.0, 1.5, SEED.child(14))
    ds = make_dataset(t, 25, 0.0, SEED.child(15))
    assert np.array_equal(ds.y, ds.clean)


def test_dataset_singleton():
    sp = _spectrum(6)
    t = build_target(sp, 1.0, 1.5, SEED.child(16))
    ds = make_dataset(t, 1, 1.0, SEED.child(17))
    assert ds.n == 1 and ds.y.shape == (1,)


def test_dataset_deterministic():
    sp = _spectrum(6)
    t = build_target(sp, 1.0, 1.5, SEED.child(18))
    a = make_dataset(t, 40, 1.0, SEED.child(19))
    b = make_dataset(t, 40, 1.0, SEED.child(19))
    assert a.y.tobytes() == b.y.tobytes()
    assert a.points.coordinates.tobytes() == b.points.coordinates.tobytes()


def test_dataset_noise_mean_sane():
    sp = _spectrum(6)
    t = build_target(sp, 1.0, 1.5, SEED.child(20))
    n, sigma2 = 10_000, 0.25
    ds = make_dataset(t, n, sigma2, SEED.child(21))
    resid = ds.y - ds.clean
    assert abs(resid.mean()) < 4 * math.sqrt(sigma2 / n)
