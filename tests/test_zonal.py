import math

import numpy as np
import pytest

from kilab import (SeedPath, UsageError, ZonalBasis, multiplicity, quadrature,
                   sample_sphere, zonal_series)
from kilab.spectrum import K_MAX_CAP
from kilab.zonal import (BLOCK_DOUBLES, clip_unit, multiplicities,
                         zonal_projections)


def _harmonic_gram(d, k, G):
    """The degree-k harmonic Gram matrix N(d,k) P_kd(G)."""
    return multiplicity(d, k) * ZonalBasis(d, k).eval_all(G)[k]


def test_multiplicity_base_cases():
    for d in (1, 2, 5, 40):
        assert multiplicity(d, 0) == 1
    assert multiplicity(2, 2) == 5
    assert multiplicity(3, 1) == 4
    assert multiplicity(2, 1) == 3
    assert multiplicity(1, 7) == 2  # circle: two harmonics per degree


def test_multiplicity_large_arguments_exact():
    # exact integer arithmetic, no overflow; cross-check against the
    # dimension count comb(k+d, k) - comb(k+d-2, k-2)
    for d, k in ((64, 40), (100, 7), (12, 60)):
        val = multiplicity(d, k)
        assert isinstance(val, int)
        assert val == math.comb(k + d, k) - math.comb(k + d - 2, k - 2)


@pytest.mark.parametrize("d", [1, 2, 3, 45, 700, 2000])
def test_multiplicities_match_multiplicity(d):
    assert multiplicities(d, K_MAX_CAP) == [multiplicity(d, k)
                                             for k in range(K_MAX_CAP + 1)]


def test_multiplicity_rejects_bad_input():
    with pytest.raises(UsageError):
        multiplicity(0, 1)
    with pytest.raises(UsageError):
        multiplicity(3, -1)
    for d, k_max in ((0, 3), (3, -1)):
        with pytest.raises(UsageError):
            multiplicities(d, k_max)


def test_degree_one_is_identity():
    basis = ZonalBasis(9, 3)
    assert basis.eval_all(0.7)[1] == pytest.approx(0.7, abs=1e-15)


def test_degree_two_closed_form():
    # P_2,d(t) = ((d+1) t^2 - 1) / d
    t = np.linspace(-1, 1, 33)
    for d in (2, 5, 16):
        basis = ZonalBasis(d, 4)
        expected = ((d + 1) * t**2 - 1) / d
        assert np.max(np.abs(basis.eval_all(t)[2] - expected)) < 1e-14
    assert ZonalBasis(2, 2).eval_all(0.5)[2] == pytest.approx(-0.125, abs=1e-15)


def test_normalization_at_one():
    for d in (1, 2, 9, 64):
        basis = ZonalBasis(d, 12)
        vals = basis.eval_all(np.array([1.0]))
        assert np.max(np.abs(vals - 1.0)) < 1e-12


def test_three_term_recurrence_identity():
    t = np.linspace(-1, 1, 101)
    for d in (2, 7, 64):
        p = ZonalBasis(d, 16).eval_all(t)
        for k in range(1, 16):
            lhs = (k + d - 1) * p[k + 1]
            rhs = (2 * k + d - 1) * t * p[k] - k * p[k - 1]
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_quadrature_probability_normalization():
    for d in (1, 2, 8, 32):
        rule = quadrature(d, 64)
        assert abs(rule.weights.sum() - 1.0) < 1e-14
        assert np.all(rule.weights > 0)
        assert abs(rule.integrate(rule.nodes)) < 1e-14


def test_quadrature_second_moment():
    rule = quadrature(3, 40)
    assert abs(rule.integrate(rule.nodes**2) - 0.25) < 1e-12


def test_quadrature_orthogonality_distinct_degrees():
    d = 6
    rule = quadrature(d, 60)
    _, _, p2, p3 = ZonalBasis(d, 3).eval_all(rule.nodes)
    assert abs(rule.integrate(p2 * p3)) < 1e-12


def test_orthonormality_with_multiplicity():
    # N(d,k) E[P_k^2] = 1
    for d in (2, 8, 32):
        k_max = 12
        rule = quadrature(d, 4 * (k_max + 1))
        basis = ZonalBasis(d, k_max)
        p = basis.eval_all(rule.nodes)
        for k in range(k_max + 1):
            val = multiplicity(d, k) * rule.integrate(p[k] ** 2)
            assert abs(val - 1.0) < 1e-8


@pytest.mark.parametrize("d", [1, 2, 5, 45, 700])
def test_zonal_projections_match_quadrature_and_the_trace(d):
    # a degree-29 polynomial: a 40-node rule integrates f P_k exactly for
    # k <= 50, and its projections stop at degree 29
    coef = 0.5 * 0.8 ** np.arange(30)
    proj = zonal_projections(d, coef, 40)
    rule = quadrature(d, 40)
    f = np.polynomial.polynomial.polyval(rule.nodes, coef)
    ref = ZonalBasis(d, 40).eval_all(rule.nodes) @ (rule.weights * f)
    assert np.all(proj >= 0) and np.all(proj[30:] == 0)
    assert np.max(np.abs(proj - ref)) <= 1e-14
    mults = np.array(multiplicities(d, 40), dtype=float)
    assert float(mults @ proj) == pytest.approx(coef.sum(), rel=1e-14)


def test_gram_zonal_degree_zero_is_ones():
    pts = sample_sphere(4, 3, SeedPath(7))
    out = _harmonic_gram(4, 0, pts.gram())
    assert np.array_equal(out, np.ones((3, 3)))


def test_gram_zonal_diagonal_is_multiplicity():
    pts = sample_sphere(5, 20, SeedPath(8))
    for k in (1, 2, 3):
        out = _harmonic_gram(5, k, pts.gram())
        assert np.max(np.abs(np.diag(out) - multiplicity(5, k))) < 1e-9


def test_gram_zonal_positive_semidefinite():
    pts = sample_sphere(6, 50, SeedPath(9))
    for k in (0, 1, 2):
        out = _harmonic_gram(6, k, pts.gram())
        ev_min = np.linalg.eigvalsh(out)[0]
        assert ev_min >= -1e-8 * multiplicity(6, k)


def test_gram_zonal_concentration_improves_with_d():
    # once N(d,k) outgrows n, Gram_k / N(d,k) approaches the identity;
    # the deviation shrinks as d grows at fixed n
    n, k = 40, 2
    devs = []
    for d in (16, 32, 64):
        assert multiplicity(d, k) > n
        pts = sample_sphere(d, n, SeedPath(10, (d,)))
        out = _harmonic_gram(d, k, pts.gram()) / multiplicity(d, k)
        ev = np.linalg.eigvalsh(out)
        devs.append(max(abs(ev[0] - 1), abs(ev[-1] - 1)))
    assert devs == sorted(devs, reverse=True)
    assert devs[-1] < 0.5


def test_zonal_series_matches_explicit_sum():
    d, coef = 7, np.array([0.4, -1.5, 2.0, 0.25, 3.0])
    t = np.linspace(-1, 1, 41)
    expected = sum(c * p for c, p in zip(coef, ZonalBasis(d, 4).iter_values(t)))
    assert np.array_equal(zonal_series(d, coef, t), expected)
    # scalar in, float out
    assert isinstance(zonal_series(d, coef, 0.3), float)
    assert zonal_series(d, coef, 1.0) == pytest.approx(coef.sum(), rel=1e-14)


def test_zonal_series_matches_gram_zonal():
    d = 6
    G = sample_sphere(d, 25, SeedPath(15)).gram()
    coef = np.array([0.3, 0.0, 1.7, 0.6])
    expected = sum(c / multiplicity(d, k) * _harmonic_gram(d, k, G)
                   for k, c in enumerate(coef))
    assert np.max(np.abs(zonal_series(d, coef, G) - expected)) < 1e-13


def test_zonal_series_edge_cases():
    t = np.linspace(-1, 1, 5)
    assert np.array_equal(zonal_series(3, [], t), np.zeros(5))
    assert np.array_equal(zonal_series(3, [2.5], t), np.full(5, 2.5))
    with pytest.raises(UsageError):
        zonal_series(3, [1.0, 1.0], np.array([1.5]))


def _unblocked_recurrence(d, k_max, t):
    """Test-only oracle: the recurrence with one new array per degree."""
    p = [np.ones_like(t), t.copy()]
    for k in range(1, k_max):
        p.append(((2 * k + d - 1) * t * p[k] - k * p[k - 1]) / (k + d - 1))
    return p[: k_max + 1]


def test_eval_all_rows_are_independent():
    # iter_values reuses three buffers; eval_all must still copy every degree
    t = np.linspace(-1, 1, 37)
    p = ZonalBasis(5, 9).eval_all(t)
    assert np.array_equal(p, np.stack(_unblocked_recurrence(5, 9, t)))


def test_zonal_series_across_row_blocks():
    # 300 x 300 splits into row blocks of 54 rows, the last one of 30
    d, coef = 7, np.array([0.5, 0.25, 0.125, 0.0625, 0.03125])
    G = sample_sphere(d, 300, SeedPath(9)).gram()
    assert 300 % (BLOCK_DOUBLES // 300) != 0
    expected = sum(c * p for c, p in zip(coef, _unblocked_recurrence(d, 4, G)))
    assert np.array_equal(zonal_series(d, coef, G), expected)


def test_clip_unit_copies_only_out_of_range_input():
    t = np.array([-1.0, 0.3, 1.0])
    assert clip_unit(t, "zonal") is t
    over = np.array([-1 - 1e-13, 1 + 1e-13])
    assert np.array_equal(clip_unit(over, "zonal"), [-1.0, 1.0])
    assert over[1] > 1.0  # the input itself is left alone
    basis = ZonalBasis(4, 3)
    assert basis.eval_all(1 + 1e-13)[3] == basis.eval_all(1.0)[3]
    with pytest.raises(UsageError):
        basis.eval_all(1 + 1e-11)
    # NaN compares False against both ends of [-1, 1]; it is rejected too
    with pytest.raises(UsageError):
        zonal_series(3, [1, 1], [np.nan])
    with pytest.raises(UsageError):
        clip_unit(np.array([0.0, np.nan, 0.5]), "zonal")

