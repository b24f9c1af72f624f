import math

import numpy as np
import pytest

from kilab import (SeedPath, UsageError, band, bias_exponent, classify,
                   fit_slope, gamma_threshold, minimax_exponent, total_exponent,
                   var_exponent)


def test_band():
    assert band(1.5) == (1, False)
    assert band(0.7) == (0, False)
    assert band(2.0) == (2, True)
    assert band(2 - 1e-13) == (2, True) and band(3 + 1e-13) == (3, True)
    assert band(2 - 1e-11) == (1, False) and band(3 + 1e-11) == (3, False)
    assert band(1e-13) == (0, False)   # 0 is not an integer gamma
    assert band(np.float64(2.5)) == (2, False)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(UsageError):
            band(bad)


def test_var_exponent_values():
    assert var_exponent(1.5) == pytest.approx(-0.5)
    assert var_exponent(1.2) == pytest.approx(-0.2)
    assert var_exponent(2.0) == 0.0
    assert var_exponent(0.7) == pytest.approx(-0.3)
    with pytest.raises(UsageError):
        var_exponent(0.0)


def test_var_exponent_nonpositive_zero_iff_integer():
    for g in np.linspace(0.05, 4.0, 127):
        e = var_exponent(float(g))
        assert e <= 0
        assert (e == 0) == (abs(g - round(g)) < 1e-9 and round(g) >= 1)


def test_bias_exponent_values():
    assert bias_exponent(0.5, 1.5) == pytest.approx(-1.0)
    assert bias_exponent(0.0, 1.5) == 0.0
    assert bias_exponent(4.0, 1.5) == pytest.approx(-3.0)  # s~ saturates at 2
    assert bias_exponent(1.0, 2.0) is None


def test_total_exponent_values():
    assert total_exponent(1.0, 1.5) == pytest.approx(-0.5)
    assert total_exponent(1.0, 0.8) == pytest.approx(-0.2)
    assert total_exponent(0.0, 2.7) == 0.0
    assert total_exponent(0.0, 1.5) == 0.0


def test_gamma_threshold_branches():
    assert math.isinf(gamma_threshold(0.4))
    assert math.isinf(gamma_threshold(0.5))
    assert gamma_threshold(0.75) == pytest.approx(0.25)
    assert gamma_threshold(2.25) == pytest.approx(0.125)
    assert gamma_threshold(2.75) == pytest.approx(1 / 12)
    # never above 0.5 past gamma = 0.5, decaying toward zero
    assert gamma_threshold(0.51) <= 0.5
    assert gamma_threshold(17.3) < 0.05


def test_gamma_threshold_jump_at_half_integers():
    for l in (1, 2, 3):
        left = gamma_threshold(l + 0.5)
        right = gamma_threshold(l + 0.5 + 1e-9)
        assert left == pytest.approx(0.5 / l)
        # jump of size 0.5/(l(l+1)): the threshold switches branches here
        assert left - right == pytest.approx(0.5 / (l * (l + 1)), abs=1e-6)


def test_minimax_exponent_values():
    assert minimax_exponent(1.0, 1.5) == pytest.approx(-1.0)
    assert minimax_exponent(0.5, 1.5) == pytest.approx(-0.5)
    assert minimax_exponent(1.0, 0.8) == pytest.approx(-0.8)
    with pytest.raises(UsageError):
        minimax_exponent(0.0, 1.5)
    with pytest.raises(UsageError):
        minimax_exponent(1.0, 2.0)


def test_classify_spot_checks():
    assert classify(1.0, 1.5).classification == "sub-optimal"
    assert classify(0.5, 1.5).classification == "optimal"
    assert classify(3.0, 0.4).classification == "optimal"
    assert classify(1.0, 2.0).classification == "inconsistent"
    assert classify(0.0, 1.5).classification == "inconsistent"


@pytest.mark.parametrize("gamma, s", [(1.4, 0.4), (1.15, 0.15), (1.2, 0.2), (2.4, 0.2),
                                      (2.7, 0.1), (2.85, 0.05), (3.6, 0.1)])
def test_classify_counts_s_on_the_threshold_as_optimal(gamma, s):
    # s = Gamma(gamma) exactly, while the float Gamma lands an ulp below s
    assert classify(s, gamma).Gamma_gamma < s
    assert classify(s, gamma).classification == "optimal"
    assert classify(s + 1e-9, gamma).classification == "sub-optimal"


def test_classify_populates_phase_point():
    p = classify(1.0, 1.5)
    assert p.l == 1
    assert p.var_exponent == pytest.approx(-0.5)
    assert p.bias_exponent == pytest.approx(-2.0)
    assert p.total_exponent == pytest.approx(-0.5)
    assert p.Gamma_gamma == pytest.approx(0.5)
    assert p.minimax_exponent == pytest.approx(-1.0)
    p_int = classify(1.0, 3.0)
    assert p_int.bias_exponent is None and p_int.minimax_exponent is None


def test_classification_agrees_with_exponent_route():
    rng = SeedPath(555).rng()
    checked = 0
    while checked < 10_000:
        gamma = float(rng.uniform(0.02, 4.0))
        if abs(gamma - round(gamma)) < 1e-6:
            continue
        s = float(rng.uniform(1e-9, 3.0))
        p = classify(s, gamma)
        gap = total_exponent(s, gamma) - minimax_exponent(s, gamma)
        assert gap >= -1e-9
        expected = "optimal" if gap <= 1e-9 else "sub-optimal"
        assert p.classification == expected, (s, gamma, gap)
        checked += 1


def test_exponent_continuity_inside_intervals():
    for l in (0, 1, 2):
        grid = np.linspace(l + 1e-6, l + 1 - 1e-6, 501)
        vals = [var_exponent(float(g)) for g in grid]
        diffs = np.abs(np.diff(vals))
        assert np.max(diffs) < 5e-3  # no jump inside the open interval


def test_fit_slope_exact_power_law():
    pairs = [(d, 7.0 * d**-0.5) for d in (8, 16, 32)]
    sf = fit_slope(pairs)
    assert sf.slope == pytest.approx(-0.5, abs=1e-12)
    assert sf.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_slope_constant():
    sf = fit_slope([(d, 3.0) for d in (8, 16, 32)])
    assert sf.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_dominated_sum():
    sf = fit_slope([(d, 1 / d + 1 / d**2) for d in (8, 16, 32)])
    assert -1.2 < sf.slope < -1.0


def test_fit_slope_replicates_averaged_in_log():
    pairs = [(d, v * d**-1.0) for d in (8, 16, 32) for v in (0.5, 2.0)]
    sf = fit_slope(pairs)
    assert sf.slope == pytest.approx(-1.0, abs=1e-12)


def test_fit_slope_rejections():
    with pytest.raises(UsageError):
        fit_slope([(8, 1.0), (16, 0.5)])
    with pytest.raises(UsageError):
        fit_slope([(8, 1.0), (16, -0.5), (32, 0.1)])


def test_fit_slope_matches_linregress_oracle():
    from scipy.stats import linregress  # reference only; kilab must not import it

    rng = np.random.default_rng(5)
    noisy = [(d, math.exp(rng.normal(0.3, 0.2)) * d ** -0.7)
             for d in (6, 8, 12, 16, 24, 32) for _ in range(3)]
    power = [(d, 7.0 * d ** -1.25) for d in (8, 16, 32, 64)]
    constant = [(d, 3.0) for d in (8, 16, 32)]
    minimum = [(8, 0.4), (16, 0.1), (32, 0.07)]
    for pairs in (noisy, power, constant, minimum):
        sf = fit_slope(pairs)
        ref = linregress(np.log(sf.d_values), sf.mean_log_values)
        assert sf.slope == pytest.approx(ref.slope, rel=1e-12, abs=1e-12)
        assert sf.intercept == pytest.approx(ref.intercept, rel=1e-12, abs=1e-12)
        if pairs is constant:
            # y - mean(y) is exactly 0 here, where linregress reports
            # rvalue = stderr = nan; the fit reports r = 0 and stderr = 0
            assert sf.r2 == 0.0 and sf.stderr == 0.0
            continue
        assert sf.stderr == pytest.approx(ref.stderr, rel=1e-12, abs=1e-12)
        assert sf.r2 == pytest.approx(ref.rvalue ** 2, rel=1e-12, abs=1e-12)
