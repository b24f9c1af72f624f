"""Built-in verification suite: spectral oracles, estimator invariants,
classification cross-validation. Deterministic by construction so repeated
runs produce byte-identical machine-readable reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import KilabError
from .estimator import evaluate_cell, predict
from .harness import ExperimentConfig, fit_cell
from .rates import classify, minimax_exponent, total_exponent
from .seeding import SeedPath, TAG_MC, sample_sphere
from .spectrum import compute_spectrum, eval_phi, kernel_by_id, tail_sums
from .zonal import (ZonalBasis, multiplicities, multiplicity, quadrature,
                    zonal_series)

VERIFY_SEED = 715517


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, fn: Callable[[], str]) -> CheckResult:
    try:
        return CheckResult(name, True, fn())
    except AssertionError as exc:
        return CheckResult(name, False, str(exc))
    except KilabError as exc:
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")


def _fmt(x: float) -> str:
    return f"{x:.3e}"


def check_multiplicities() -> str:
    assert multiplicity(7, 0) == 1, "N(d,0) != 1"
    assert multiplicity(2, 2) == 5, f"N(2,2) = {multiplicity(2, 2)} != 5"
    assert multiplicity(3, 1) == 4, f"N(3,1) = {multiplicity(3, 1)} != 4"
    assert multiplicity(1, 5) == 2, f"N(1,5) = {multiplicity(1, 5)} != 2"
    for d in (1, 2, 7, 64):
        assert multiplicities(d, 12) == [multiplicity(d, k) for k in range(13)], (
            f"multiplicities({d}, 12) disagrees with the factorial formula")
    return "spot values exact"


def check_recurrence() -> str:
    t = np.linspace(-1, 1, 101)
    worst = 0.0
    for d in (2, 8, 64):
        basis = ZonalBasis(d, 20)
        p = basis.eval_all(t)
        for k in range(1, 20):
            lhs = (k + d - 1) * p[k + 1]
            rhs = (2 * k + d - 1) * t * p[k] - k * p[k - 1]
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert np.max(np.abs(p[:, -1] - 1.0)) < 1e-12, f"P_k(1) != 1 at d={d}"
    assert worst < 1e-10, f"recurrence residual {worst:.2e}"
    return f"max residual {_fmt(worst)}"


def check_quadrature() -> str:
    # the reference rule that spectra are checked against, to degree 12
    worst = 0.0
    k_top = 12
    for d in (2, 3, 6, 32):
        rule = quadrature(d, 80)
        m1 = rule.integrate(rule.nodes)
        m2 = rule.integrate(rule.nodes**2)
        assert abs(m1) < 1e-14, f"first moment {m1:.2e} at d={d}"
        assert abs(m2 - 1.0 / (d + 1)) < 1e-12, f"second moment off at d={d}"
        p = ZonalBasis(d, k_top).eval_all(rule.nodes)
        root_n = np.sqrt(np.array(multiplicities(d, k_top), dtype=float))
        ortho = (p * rule.weights) @ p.T * np.outer(root_n, root_n)
        err = float(np.max(np.abs(ortho - np.eye(k_top + 1))))
        assert err < 1e-10, (
            f"orthonormality residual {err:.2e} at d={d}, m={rule.nodes.size}")
        worst = max(worst, err)
    return f"moments and orthonormality pass, max residual {_fmt(worst)}"


def check_mercer() -> str:
    t = np.linspace(-1, 1, 201)
    worst_recon = worst_trace = 0.0
    for kernel_id in ("exp", "geometric"):
        spec = kernel_by_id(kernel_id)
        for d in (4, 8, 16, 700):
            sp = compute_spectrum(spec, d)
            assert np.all(sp.mu >= 0), f"negative eigenvalue ({kernel_id}, d={d})"
            coef = sp.mu * sp.multiplicities
            recon = zonal_series(sp.d, coef, t)
            resid = float(np.max(np.abs(eval_phi(spec, t) - recon)))
            trace = abs(float(coef.sum()) + sp.trace_residual
                        - float(eval_phi(spec, 1.0)))
            assert resid <= 2e-10, f"Mercer residual {resid:.2e} ({kernel_id}, d={d})"
            assert trace < 1e-12, f"trace identity off by {trace:.2e} ({kernel_id}, d={d})"
            worst_recon = max(worst_recon, resid)
            worst_trace = max(worst_trace, trace)
    return f"reconstruction {_fmt(worst_recon)}, trace {_fmt(worst_trace)}"


def check_eigen_decay() -> str:
    spec = kernel_by_id("exp")
    scaled = {k: [] for k in range(4)}
    for d in (10, 20, 40):
        sp = compute_spectrum(spec, d)
        for k in range(4):
            scaled[k].append(sp.mu[k] * d**k)
    for k, vals in scaled.items():
        ratio = max(vals) / min(vals)
        assert ratio < 5.0, f"mu_{k} d^{k} spread ratio {ratio:.2f}"
    return "mu_k ~ d^-k within constants for k <= 3"


def check_kappa_rates() -> str:
    spec = kernel_by_id("exp")
    l = 1
    scaled = []
    for d in (8, 16, 32):
        sp = compute_spectrum(spec, d)
        ts = tail_sums(sp, l)
        assert 0 < ts.kappa1 <= 1.0, f"kappa1 {ts.kappa1} out of range"
        assert ts.kappa2 <= sp.mu[l + 1] * ts.kappa1 + 1e-15, "kappa2 bound violated"
        scaled.append(ts.kappa2 * d ** (l + 1))
    ratio = max(scaled) / min(scaled)
    assert ratio < 5.0, f"kappa2 d^(l+1) spread ratio {ratio:.2f}"
    return "kappa1 = Theta(1), kappa2 ~ d^-(l+1)"


def _one_cell(gamma: float, s: float, d: int):
    """(target, model, seed path) of replicate 0 at (gamma, s, d), built by
    the recipe sweeps run, on the exp kernel with n = round(d^gamma)."""
    config = ExperimentConfig(gamma=gamma, s=s, d_list=(d,),
                              master_seed=VERIFY_SEED)
    return fit_cell(config, compute_spectrum(config.kernel_spec(), d), d, 0)


def check_interpolation(quick: bool) -> str:
    cells = [(1.3, 8), (1.5, 10)] if quick else [(1.3, 8), (1.5, 12), (2.4, 8), (1.3, 16)]
    worst = 0.0
    for gamma, d in cells:
        _, model, _ = _one_cell(gamma, 0.5, d)
        resid = float(np.max(np.abs(predict(model, model.dataset.points)
                                    - model.dataset.y)))
        scale = max(1.0, float(np.max(np.abs(model.dataset.y))))
        assert resid <= 1e-6 * scale, f"training residual {resid:.2e} (gamma={gamma}, d={d})"
        worst = max(worst, resid / scale)
    return f"max scaled residual {_fmt(worst)}"


def check_exact_vs_mc(quick: bool) -> str:
    cells = [(1.5, 8, 0.5), (1.5, 12, 1.0)] if quick else \
            [(1.5, 8, 0.5), (1.5, 12, 1.0), (1.3, 10, 2.0), (2.4, 6, 0.5)]
    for gamma, d, s in cells:
        target, model, seed = _one_cell(gamma, s, d)
        report = evaluate_cell(model, target, mc_test_points=2000,
                               mc_seed=seed.child(TAG_MC))
        assert report.mc_consistent, (
            f"exact vs MC mismatch at (gamma={gamma}, d={d}, s={s}): "
            f"bias {report.bias_sq_exact:.4e} vs {report.bias_sq_mc:.4e} "
            f"(se {report.bias_sq_mc_se:.1e}), var {report.var_exact:.4e} "
            f"vs {report.var_mc:.4e} (se {report.var_mc_se:.1e})"
        )
    return f"{len(cells)} cells agree within 4 SE"


def check_classification(quick: bool) -> str:
    n_points = 2000 if quick else 10000
    rng = SeedPath(VERIFY_SEED, (99,)).rng()
    count = 0
    for _ in range(n_points):
        gamma = float(rng.uniform(0.02, 4.0))
        if abs(gamma - round(gamma)) < 1e-3:
            continue
        s = float(rng.uniform(1e-6, 3.0))
        p = classify(s, gamma)
        gap = total_exponent(s, gamma) - minimax_exponent(s, gamma)
        expected = "optimal" if gap <= 1e-9 else "sub-optimal"
        assert gap >= -1e-9, f"total below minimax at (s={s}, gamma={gamma})"
        assert p.classification == expected, (
            f"classification {p.classification} != exponent route {expected} "
            f"at (s={s}, gamma={gamma}), gap={gap:.2e}"
        )
        count += 1
    return f"{count} random points agree"


def check_determinism() -> str:
    a = sample_sphere(6, 500, SeedPath(VERIFY_SEED, (1, 2, 3))).coordinates
    b = sample_sphere(6, 500, SeedPath(VERIFY_SEED, (1, 2, 3))).coordinates
    assert a.tobytes() == b.tobytes(), "sphere sampling not bit-identical"
    t1, m1, s1 = _one_cell(1.5, 0.5, 8)
    t2, m2, s2 = _one_cell(1.5, 0.5, 8)
    r1 = evaluate_cell(m1, t1, 500, s1.child(TAG_MC))
    r2 = evaluate_cell(m2, t2, 500, s2.child(TAG_MC))
    assert r1.bias_sq_exact == r2.bias_sq_exact, "bias not reproducible"
    assert r1.var_exact == r2.var_exact, "variance not reproducible"
    assert r1.bias_sq_mc == r2.bias_sq_mc, "MC stream not reproducible"
    return "bit-identical repeats"


def run_verify(quick: bool = False) -> tuple[list[CheckResult], dict]:
    """Run all checks; returns results and a deterministic JSON-able report."""
    checks = [
        ("multiplicities", check_multiplicities),
        ("zonal_recurrence", check_recurrence),
        ("quadrature", check_quadrature),
        ("mercer_reconstruction", check_mercer),
        ("eigenvalue_decay", check_eigen_decay),
        ("kappa_tail_rates", check_kappa_rates),
        ("interpolation_constraint", lambda: check_interpolation(quick)),
        ("exact_vs_mc", lambda: check_exact_vs_mc(quick)),
        ("classification_consistency", lambda: check_classification(quick)),
        ("determinism", check_determinism),
    ]
    results = [_check(name, fn) for name, fn in checks]
    report = {
        "suite": "kilab-verify",
        "mode": "quick" if quick else "full",
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    return results, report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
