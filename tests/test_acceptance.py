"""End-to-end acceptance checks.

Each test prints a single [PASS]/[FAIL] line naming the criterion. Rate
criteria are slope fits over a d-grid with generous tolerances, because
the underlying statements are asymptotic in d with unspecified constants;
identity and oracle criteria use tight tolerances.
"""

import numpy as np
import pytest

from kilab import (SeedPath, SpherePoints, ExperimentConfig, build_target,
                   classify, compute_spectrum, concentration_report,
                   evaluate_cell, eval_phi, fit, fit_slope, kernel_by_id,
                   make_dataset, minimax_exponent, predict, run_sweep,
                   total_exponent)
from kilab.seeding import TAG_AXIS, TAG_MC
from kilab.verify import report_to_json, run_verify

ACCEPT_SEED = 424242


def _verdict(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _sweep_rows(**kwargs):
    defaults = dict(kernel="exp", mc_test_points=0, master_seed=ACCEPT_SEED)
    defaults.update(kwargs)
    rows = list(run_sweep(ExperimentConfig(**defaults), workers=2))
    bad = [r for r in rows if r["error"]]
    assert not bad, f"{len(bad)} cells failed: {bad[0]['error']}"
    return rows


def test_01_spectral_exactness():
    t = np.linspace(-1, 1, 201)
    worst_recon = worst_trace = 0.0
    for kernel_id in ("exp", "geometric"):
        spec = kernel_by_id(kernel_id)
        for d in (4, 8, 16):
            sp = compute_spectrum(spec, d)
            coef = sp.mu * sp.multiplicities
            recon = np.zeros_like(t)
            for k, p_k in enumerate(sp.basis().iter_values(t)):
                recon += coef[k] * p_k
            worst_recon = max(worst_recon,
                              float(np.max(np.abs(eval_phi(spec, t) - recon))))
            worst_trace = max(worst_trace,
                              abs(float(coef.sum()) - float(eval_phi(spec, 1.0))))
    ok = worst_recon <= 2e-10 and worst_trace <= 1e-10
    _verdict("criterion-01 spectral-exactness", ok,
             f"reconstruction {worst_recon:.2e} (<= 2e-10), "
             f"trace {worst_trace:.2e} (<= 1e-10)")


def test_02_discretized_operator_oracle():
    # brute-force eigenvalues of the kernel integral operator on S^2,
    # discretized on a 40 x 50 product grid (Gauss-Legendre in the height
    # coordinate, uniform in angle)
    spec = kernel_by_id("exp")
    sp = compute_spectrum(spec, 2)
    t_nodes, t_weights = np.polynomial.legendre.leggauss(40)
    angles = 2 * np.pi * np.arange(50) / 50
    r = np.sqrt(1 - t_nodes**2)
    coords = np.stack([
        np.outer(r, np.cos(angles)).ravel(),
        np.outer(r, np.sin(angles)).ravel(),
        np.outer(t_nodes, np.ones(50)).ravel(),
    ], axis=1)
    w = np.outer(t_weights / 2.0, np.full(50, 1 / 50)).ravel()
    gram = np.clip(coords @ coords.T, -1.0, 1.0)
    root_w = np.sqrt(w)
    A = root_w[:, None] * eval_phi(spec, gram) * root_w[None, :]
    ev = np.linalg.eigvalsh(A)[::-1]
    worst = 0.0
    idx = 0
    for k in range(5):
        block = ev[idx: idx + (2 * k + 1)]
        idx += 2 * k + 1
        worst = max(worst, float(np.max(np.abs(block / sp.mu[k] - 1.0))))
    ok = worst <= 0.02
    _verdict("criterion-02 discretized-operator-oracle", ok,
             f"worst relative eigenvalue error {worst:.2e} (<= 2e-2) "
             f"over degrees k <= 4 with multiplicities 2k+1")


def test_03_interpolation_constraint():
    rng = SeedPath(ACCEPT_SEED, (3,)).rng()
    worst = 0.0
    for i in range(20):
        gamma = (1.3, 1.5, 2.4)[i % 3]
        d = int(rng.integers(4, 13) if gamma == 2.4 else rng.integers(6, 25))
        n = max(4, round(d**gamma))
        sp = compute_spectrum(kernel_by_id("exp"), d)
        seed = SeedPath(ACCEPT_SEED, (3, i))
        target = build_target(sp, 1.0, gamma, seed.child(TAG_AXIS))
        ds = make_dataset(target, n, 1.0, seed)
        model = fit(ds, sp)
        resid = float(np.max(np.abs(predict(model, ds.points) - ds.y)))
        scale = max(1.0, float(np.max(np.abs(ds.y))))
        worst = max(worst, resid / scale)
    ok = worst <= 1e-6
    _verdict("criterion-03 interpolation-constraint", ok,
             f"worst scaled training residual {worst:.2e} (<= 1e-6) "
             f"over 20 cells, zero jitter")


def test_04_exact_vs_mc_oracle():
    rng = SeedPath(ACCEPT_SEED, (4,)).rng()
    consistent = 0
    for i in range(30):
        gamma = float(rng.uniform(1.2, 2.6))
        if abs(gamma - round(gamma)) < 0.05:
            gamma += 0.1
        s = float(rng.uniform(0.25, 2.0))
        d = int(rng.integers(6, 17))
        n = max(4, round(d**gamma))
        sp = compute_spectrum(kernel_by_id("exp"), d)
        seed = SeedPath(ACCEPT_SEED, (4, i))
        target = build_target(sp, s, gamma, seed.child(TAG_AXIS))
        ds = make_dataset(target, n, 1.0, seed)
        model = fit(ds, sp)
        rep = evaluate_cell(model, target, mc_test_points=4000,
                            mc_seed=seed.child(TAG_MC))
        consistent += bool(rep.mc_consistent)
    ok = consistent >= 28
    _verdict("criterion-04 exact-vs-mc-oracle", ok,
             f"{consistent}/30 cells within 4 MC standard errors "
             f"for both bias and variance (need >= 28)")


def test_05_variance_rate():
    rows = _sweep_rows(gamma=1.5, s=0.5, sigma2=1.0,
                       d_list=(8, 12, 16, 24, 32), replicates=50)
    sf = fit_slope([(r["d"], r["var_exact"]) for r in rows])
    ok = abs(sf.slope - (-0.5)) <= 0.25
    _verdict("criterion-05 variance-rate", ok,
             f"var_exact slope {sf.slope:+.3f} vs theory -0.500 "
             f"(tolerance 0.25, gamma=1.5, 50 replicates)")


def test_06_variance_asymmetry():
    details = []
    ok = True
    for gamma, dominant in ((1.25, "var_low_degree"), (1.75, "var_high_degree")):
        rows = _sweep_rows(gamma=gamma, s=0.5, sigma2=1.0,
                           d_list=(8, 12, 16, 24, 32), replicates=50)
        sf = fit_slope([(r["d"], r["var_exact"]) for r in rows])
        other = ("var_high_degree" if dominant == "var_low_degree"
                 else "var_low_degree")
        agree = sum(r[dominant] > r[other] for r in rows)
        slope_ok = abs(sf.slope - (-0.25)) <= 0.25
        branch_ok = agree >= 0.95 * len(rows)
        ok = ok and slope_ok and branch_ok
        details.append(f"gamma={gamma}: slope {sf.slope:+.3f} vs -0.250, "
                       f"dominant branch agrees {agree}/{len(rows)}")
    _verdict("criterion-06 variance-asymmetry", ok, "; ".join(details))


def test_07_bias_rate():
    details = []
    ok = True
    for s, theory, tol in ((0.5, -1.0, 0.3), (2.0, -3.0, 0.6)):
        rows = _sweep_rows(gamma=1.5, s=s, sigma2=0.0,
                           d_list=(8, 12, 16, 24, 32), replicates=50)
        sf = fit_slope([(r["d"], r["bias_sq_exact"]) for r in rows])
        ok = ok and abs(sf.slope - theory) <= tol
        details.append(f"s={s}: slope {sf.slope:+.3f} vs {theory:+.3f} "
                       f"(tolerance {tol})")
    _verdict("criterion-07 bias-rate", ok,
             "; ".join(details) + "; noise-free cells, gamma=1.5")


def test_08_inconsistency_at_integer_gamma():
    rows = _sweep_rows(gamma=2.0, s=0.5, sigma2=1.0,
                       d_list=(6, 8, 10), replicates=20)
    means = {d: np.mean([r["var_exact"] for r in rows if r["d"] == d])
             for d in (6, 8, 10)}
    ratio = means[10] / means[6]
    ok = ratio >= 0.5
    _verdict("criterion-08 integer-gamma-inconsistency", ok,
             f"mean var_exact ratio d=10 vs d=6 is {ratio:.3f} "
             f"(must stay >= 0.5: variance does not vanish at gamma=2)")


def test_09_phase_diagram_correctness():
    rng = SeedPath(ACCEPT_SEED, (9,)).rng()
    agree = checked = 0
    while checked < 10_000:
        gamma = float(rng.uniform(0.02, 4.0))
        if abs(gamma - round(gamma)) < 1e-6:
            continue
        s = float(rng.uniform(1e-9, 3.0))
        gap = total_exponent(s, gamma) - minimax_exponent(s, gamma)
        expected = "optimal" if gap <= 1e-9 else "sub-optimal"
        agree += classify(s, gamma).classification == expected
        checked += 1
    spots = (
        (3.0, 0.4, "optimal"),
        (0.5, 1.5, "optimal"),
        (1.0, 1.5, "sub-optimal"),
        (1.0, 2.0, "inconsistent"),
    )
    spots_ok = all(classify(s, g).classification == want
                   for s, g, want in spots)
    ok = agree == checked and spots_ok
    _verdict("criterion-09 phase-diagram", ok,
             f"{agree}/{checked} random points agree with the "
             f"exponent-comparison route; spot checks "
             f"{'pass' if spots_ok else 'fail'}")


def test_10_concentration_trend():
    # concentration_report is not part of a sweep cell, so this builds the
    # cells of a gamma=1.5, s=0.5 sweep the way run_cell does and calls it
    gamma, s, replicates = 1.5, 0.5, 60
    med = {"delta1_opnorm": [], "psi_gram_deviation": []}
    for d in (8, 16, 32):
        sp = compute_spectrum(kernel_by_id("exp"), d)
        reps = []
        for r in range(replicates):
            seed = SeedPath(ACCEPT_SEED, (d, r))
            target = build_target(sp, s, gamma, seed.child(TAG_AXIS))
            model = fit(make_dataset(target, round(d**gamma), 1.0, seed), sp)
            reps.append(concentration_report(model, target.l))
        for field in med:
            med[field].append(float(np.median([getattr(c, field) for c in reps])))
    ok = all(a > b for m in med.values() for a, b in zip(m, m[1:]))
    _verdict("criterion-10 concentration-trend", ok,
             "median delta1 " + " -> ".join(f"{v:.3f}" for v in med["delta1_opnorm"])
             + ", psi-gram " + " -> ".join(f"{v:.3f}" for v in med["psi_gram_deviation"])
             + " (both must strictly decrease)")


def test_11_determinism():
    first = report_to_json(run_verify(quick=True)[1])
    second = report_to_json(run_verify(quick=True)[1])
    ok = first == second and '"all_passed": true' in first
    _verdict("criterion-11 determinism", ok,
             f"two verify runs produced {'identical' if first == second else 'different'} "
             f"reports ({len(first)} bytes)")


@pytest.fixture(scope="module")
def strip_rows():
    """The gamma = 0.75, sigma^2 = 1 sweeps of criteria 12 and 13, by s. Over
    seven master seeds at 3 replicates the variance slope read -0.286 to
    -0.287, the bias^2 slopes -0.976 to -1.041 (s = 1) and -0.205 to -0.220
    (s = 0.25), and the label gaps 0.458-0.460 and 0.007-0.016, each at
    least 0.2 inside the 0.25 tolerance."""
    return {s: _sweep_rows(gamma=0.75, s=s, sigma2=1.0, replicates=3,
                           d_list=(250, 500, 1000, 2000, 4000))
            for s in (1.0, 0.25)}


def _slope(rows, *columns):
    return fit_slope([(r["d"], sum(r[c] for c in columns)) for r in rows]).slope


def test_12_rates_below_gamma_one(strip_rows):
    var = _slope(strip_rows[1.0], "var_exact")
    bias = {s: _slope(rows, "bias_sq_exact") for s, rows in strip_rows.items()}
    ok = (abs(var - (-0.25)) <= 0.25 and abs(bias[1.0] - (-1.0)) <= 0.25
          and abs(bias[0.25] - (-0.25)) <= 0.25)
    _verdict("criterion-12 rates-below-gamma-one", ok,
             f"var_exact slope {var:+.3f} vs -0.250; bias_sq_exact slope "
             f"{bias[1.0]:+.3f} vs -1.000 (s=1) and {bias[0.25]:+.3f} vs -0.250 "
             f"(s=0.25); tolerance 0.25, gamma=0.75, 3 replicates")


def test_13_measured_phase_labels(strip_rows):
    # a point is sub-optimal when its total slope exceeds the minimax
    # exponent by more than the tolerance, else optimal
    details, ok = [], True
    for s, want in ((1.0, "sub-optimal"), (0.25, "optimal")):
        p = classify(s, 0.75)
        gap = _slope(strip_rows[s], "var_exact", "bias_sq_exact") - p.minimax_exponent
        label = "sub-optimal" if gap > 0.25 else "optimal"
        ok = ok and label == want == p.classification
        details.append(f"s={s}: gap {gap:+.3f} reads {label}, classify says {p.classification}")
    _verdict("criterion-13 measured-phase-labels", ok,
             "; ".join(details) + " (tolerance 0.25, gamma=0.75)")


@pytest.fixture(scope="module")
def low_gamma_rows():
    """The gamma = 0.4, sigma^2 = 1 sweeps of criterion 14, by s (n = 9-28).
    Over master seeds 424242 and 1-4 at 3 replicates the variance slope
    read -0.349 to -0.354, the bias^2 slopes -0.476 to -0.619 (s = 0.5) and
    -0.707 to -0.748 (s = 2), and the label gaps -0.036 to +0.042."""
    return {s: _sweep_rows(gamma=0.4, s=s, sigma2=1.0, replicates=3,
                           d_list=(250, 500, 1000, 2000, 4000))
            for s in (0.5, 2.0)}


def test_14_rates_and_labels_at_gamma_below_half(low_gamma_rows):
    # at gamma <= 0.5 the threshold Gamma is infinite, so every s > 0 is
    # optimal: each measured total slope must stay within the tolerance of
    # the minimax exponent
    var = _slope(low_gamma_rows[0.5], "var_exact")
    ok = abs(var - (-0.4)) <= 0.25
    details = [f"var_exact slope {var:+.3f} vs -0.400"]
    for s, want in ((0.5, -0.5), (2.0, -0.8)):
        bias = _slope(low_gamma_rows[s], "bias_sq_exact")
        p = classify(s, 0.4)
        gap = _slope(low_gamma_rows[s], "var_exact", "bias_sq_exact") - p.minimax_exponent
        label = "sub-optimal" if gap > 0.25 else "optimal"
        ok = (ok and abs(bias - want) <= 0.25 and p.Gamma_gamma == np.inf
              and label == "optimal" == p.classification)
        details.append(f"s={s}: bias_sq_exact slope {bias:+.3f} vs {want:+.3f}, "
                       f"gap {gap:+.3f} reads {label}, classify says {p.classification}")
    _verdict("criterion-14 rates-and-labels-at-gamma-0.4", ok,
             "; ".join(details) + " (tolerance 0.25, 3 replicates)")


def test_verify_catches_corrupted_spectrum(monkeypatch):
    # a designed failure: perturbing one eigenvalue must break the
    # reconstruction check and flip the overall verdict
    real = compute_spectrum

    def corrupt(spec, d):
        sp = real(spec, d)
        mu = sp.mu.copy()
        mu[1] *= 1 + 1e-6
        return type(sp)(spec=sp.spec, d=sp.d, k_max=sp.k_max, mu=mu,
                        multiplicities=sp.multiplicities,
                        trace_residual=sp.trace_residual)

    monkeypatch.setattr("kilab.verify.compute_spectrum", corrupt)
    results, report = run_verify(quick=True)
    failed = [r.name for r in results if not r.passed]
    assert not report["all_passed"]
    assert failed == ["mercer_reconstruction"]
