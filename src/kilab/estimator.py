"""Minimum-norm interpolation fits and exact error oracles.

The estimator is the minimum-norm interpolant f_hat(x) = k(x, X) K^-1 Y.
Because both the kernel and the target are zonal, the bias and variance
of the fitted function are exact finite-dimensional
expressions in the n x n Gram matrix G. With M = sum_k mu_k^2 N_k P_k(G)
the variance is sigma^2 * tr(K^-1 M K^-1) = sigma^2 * <K^-2, M>, which
splits into one nonnegative term per degree,

  var_k = sigma^2 mu_k^2 N_k <K^-2, P_k(G)>,

and the degree-k component of the bias

  ||E f_hat - f*||^2 restricted to degree k
      = mu_k^2 N_k a^T P_k(G) a - 2 mu_k beta_k sqrt(N_k) a^T p_k(w)
        + beta_k^2,

where a = K^-1 f*(X) and p_k(w)_i = P_kd(<x_i, w>). Monte Carlo versions
of both quantities serve as independent cross-checks, never as truth.

fit builds G once and keeps it on the fitted model in place of K: K = Phi(G)
lives only inside fit (and the on-demand concentration_report, which
evaluate_cell never runs). One O(k_max n^2) recurrence pass over row blocks
of G (FittedInterpolant.degree_sums) yields both per-degree sums, <S, P_k(G)>
for the variance and a^T P_k(G) a for the bias. K^-1 is formed once per fit,
on first use (FittedInterpolant.K_inv), for S = K^-1 K^-T and the Monte Carlo
variance; a cell with sigma^2 = 0 and Monte Carlo off never forms it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigvalsh, LinAlgError
from scipy.linalg.lapack import dpotri

from .errors import NumericalError, UsageError
from .seeding import SeedPath, SpherePoints, sample_sphere
from .spectrum import Spectrum, assemble_kernel_matrix, eval_phi, tail_sums
from .target import Dataset, Target, eval_target
from .zonal import ZonalBasis, multiplicity, zonal_series

RESIDUAL_TOL = 1e-10
MIRROR_BLOCK = 32    # columns per block when K^-1's triangle is mirrored


@dataclass(frozen=True)
class FittedInterpolant:
    """A Cholesky-factorized kernel matrix with dual weights for Y and f*(X)."""

    dataset: Dataset
    spectrum: Spectrum
    G: np.ndarray              # Gram matrix X X^T of the training points
    cho: tuple                 # scipy (c, lower) Cholesky factor of K
    alpha: np.ndarray          # K^-1 Y
    alpha_clean: np.ndarray    # K^-1 f*(X)

    @property
    def n(self) -> int:
        return self.dataset.n

    @cached_property
    def K_inv(self) -> np.ndarray:
        """K^-1 from a copy of the factor by LAPACK potri (2n^3/3 flops, a
        third of n solves against I), formed on first use; exactly symmetric."""
        c, lower = self.cho
        inv, info = dpotri(c, lower=lower)
        if info != 0:
            raise NumericalError(f"LAPACK dpotri failed (info={info})")
        _mirror_lower(inv if lower else inv.T)
        return inv

    @cached_property
    def degree_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """(<S, P_k(G)>, a^T P_k(G) a) for k = 0..k_max from one recurrence
        pass over G, with S = K^-1 K^-T and a = alpha_clean. S is formed only
        when sigma^2 > 0; otherwise the first array stays zero."""
        sp = self.spectrum
        S = self.K_inv @ self.K_inv.T if self.dataset.sigma2 > 0 else None
        a = self.alpha_clean
        inner = np.zeros(sp.k_max + 1)
        quad = np.zeros(sp.k_max + 1)
        for rows, values in sp.basis().iter_blocks(self.G):
            for k, p_k in enumerate(values):
                if S is not None:
                    inner[k] += np.vdot(S[rows], p_k)
                quad[k] += a[rows] @ (p_k @ a)
        return inner, quad


def _mirror_lower(a: np.ndarray) -> None:
    """Copy the strict lower triangle of square a onto the upper one in
    place, a column block at a time, so temporaries stay block-sized."""
    n = len(a)
    upper = np.triu(np.ones((MIRROR_BLOCK, MIRROR_BLOCK), dtype=bool), 1)
    for c0 in range(0, n, MIRROR_BLOCK):
        c1 = min(c0 + MIRROR_BLOCK, n)
        a[:c0, c0:c1] = a[c0:c1, :c0].T
        diag = a[c0:c1, c0:c1]
        np.copyto(diag, diag.T, where=upper[: c1 - c0, : c1 - c0])


def fit(dataset: Dataset, spectrum: Spectrum) -> FittedInterpolant:
    """Factorize K by Cholesky and solve for the dual weights.

    Raises NumericalError when K is not positive definite.
    """
    if dataset.points.d != spectrum.d:
        raise UsageError("dataset and spectrum dimensions differ")

    G = dataset.points.gram()
    K = assemble_kernel_matrix(spectrum.spec, G)
    try:
        # Fortran order: LAPACK factors the copy in place
        factor = cho_factor(K.copy(order="F"), lower=True, overwrite_a=True)
    except LinAlgError:
        lam_min = float(eigvalsh(K, subset_by_index=(0, 0))[0])
        raise NumericalError(
            f"kernel matrix not positive definite (lambda_min ~ {lam_min:.3e})"
        ) from None

    def solve_refined(rhs: np.ndarray) -> np.ndarray:
        x = cho_solve(factor, rhs)
        # one iterative-refinement sweep keeps the 1e-10 residual contract
        x = x + cho_solve(factor, rhs - K @ x)
        scale = max(float(np.linalg.norm(rhs)), 1e-300)
        rel = float(np.linalg.norm(rhs - K @ x)) / scale
        if rel > RESIDUAL_TOL:
            raise NumericalError(f"linear solve residual {rel:.3e} exceeds {RESIDUAL_TOL}")
        return x

    alpha = solve_refined(dataset.y)
    alpha_clean = solve_refined(dataset.clean)
    return FittedInterpolant(dataset=dataset, spectrum=spectrum, G=G,
                             cho=factor, alpha=alpha, alpha_clean=alpha_clean)


def predict(model: FittedInterpolant, points: SpherePoints) -> np.ndarray:
    """k(x, X) alpha for each query point x."""
    if points.d != model.dataset.points.d:
        raise UsageError("query dimension does not match training dimension")
    kx = eval_phi(model.spectrum.spec, points.gram(model.dataset.points))
    return kx @ model.alpha


def variance_split(model: FittedInterpolant, l: int) -> tuple[float, float]:
    """Exact variance split into degree <= l and degree > l contributions.

    var_k = sigma^2 mu_k^2 N_k <S, P_k(G)> with S = K^-1 K^-T = K^-2, read
    from model.degree_sums; every var_k is nonnegative, so the split has no
    cancellation. l = -1 puts everything in 'high'.
    """
    sigma2 = model.dataset.sigma2
    if sigma2 == 0.0:
        return 0.0, 0.0
    sp = model.spectrum
    var_k = sigma2 * sp.mu**2 * sp.multiplicities * model.degree_sums[0]
    return float(var_k[: l + 1].sum()), float(var_k[l + 1:].sum())


@dataclass(frozen=True)
class BiasReport:
    """Per-degree exact bias decomposition."""

    by_degree: np.ndarray      # squared L2 norms, degrees 0..k_max
    residual_bound: float      # bound on the dropped degrees > k_max
    l: int

    @property
    def B1(self) -> float:
        return float(self.by_degree[: self.l + 1].sum())

    @property
    def B2(self) -> float:
        return float(self.by_degree[self.l + 1:].sum())

    @property
    def total(self) -> float:
        return float(self.by_degree.sum())


def exact_bias_by_degree(model: FittedInterpolant, target: Target) -> BiasReport:
    """Exact squared bias, one nonnegative contribution per harmonic degree."""
    sp = model.spectrum
    if target.spectrum is not sp and (
            target.spectrum.d != sp.d or target.spectrum.k_max != sp.k_max
            or not np.array_equal(target.spectrum.mu, sp.mu)):
        raise UsageError("target was built on a different spectrum")
    t_w = model.dataset.points.coordinates @ target.axis
    a = model.alpha_clean
    mu, n_k = sp.mu, sp.multiplicities

    beta = np.zeros(sp.k_max + 1)
    beta[: target.l + 2] = target.beta
    cross = np.zeros(sp.k_max + 1)       # a^T p_k(w), needed where beta_k != 0
    for k, p_w in enumerate(ZonalBasis(sp.d, target.l + 1).iter_values(t_w)):
        cross[k] = a @ p_w

    by_degree = (mu * mu * n_k * model.degree_sums[1]
                 - 2.0 * mu * beta * np.sqrt(n_k) * cross + beta * beta)
    bad = by_degree < -1e-10
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NumericalError(f"negative degree-{k} bias contribution {by_degree[k]:.3e}")
    by_degree = np.maximum(by_degree, 0.0)

    # dropped degrees only overshoot: mu_k^2 N_k a^T P_k(G) a <= n ||a||^2 tail
    mu_edge = float(sp.mu[sp.k_max])
    residual = mu_edge * sp.trace_residual * model.n * float(a @ a)
    return BiasReport(by_degree=by_degree, residual_bound=residual, l=target.l)


@dataclass(frozen=True)
class McErrors:
    bias_sq: float
    bias_sq_se: float
    var: float
    var_se: float


def mc_errors(model: FittedInterpolant, target: Target, m_test: int,
              seed: SeedPath) -> McErrors:
    """Monte Carlo bias^2 and variance over fresh uniform test points."""
    if m_test < 100:
        raise UsageError(f"mc test points must be >= 100, got {m_test}")
    test = sample_sphere(target.d, m_test, seed)
    kx = eval_phi(model.spectrum.spec, test.gram(model.dataset.points))  # (m, n)

    bias_samples = (kx @ model.alpha_clean - eval_target(target, test)) ** 2
    bias_sq = float(bias_samples.mean())
    bias_se = float(bias_samples.std(ddof=1) / math.sqrt(m_test))

    sigma2 = model.dataset.sigma2
    if sigma2 == 0.0:
        return McErrors(bias_sq, bias_se, 0.0, 0.0)
    s = model.K_inv @ kx.T                            # K^-1 k(X, x), (n, m)
    var_samples = sigma2 * np.sum(np.square(s, out=s), axis=0)
    var = float(var_samples.mean())
    var_se = float(var_samples.std(ddof=1) / math.sqrt(m_test))
    return McErrors(bias_sq, bias_se, var, var_se)


@dataclass(frozen=True)
class ConcentrationReport:
    """Empirical concentration diagnostics for the random kernel matrix."""

    lambda_min_K: float
    delta1_opnorm: float       # ||K_{>l}/kappa1 - I||_op
    psi_gram_deviation: float  # max |lambda - 1| over top-B_l eigs of sum_k Gram_k / n
    B_l: int
    meaningful: bool           # n >= B_l, else the Psi-gram comparison is rank-deficient


def concentration_report(model: FittedInterpolant, l: int) -> ConcentrationReport:
    """On-demand diagnostics, never run by evaluate_cell: forms K from model.G
    and makes three dense O(n^3) eigensolves (lambda_min(K), the degree > l
    part of K, and the low-degree harmonic Gram matrix / n)."""
    sp = model.spectrum
    if l >= sp.k_max:
        raise UsageError(f"l={l} must be below k_max={sp.k_max}")
    n = model.n
    G = model.G
    kappa1 = tail_sums(sp, l).kappa1

    # every matrix here is exactly symmetric and owned, so its transpose is
    # a Fortran-order view that LAPACK overwrites without a copy
    K = assemble_kernel_matrix(sp.spec, G)
    K_high = zonal_series(sp.d, (sp.mu * sp.multiplicities)[: l + 1], G)
    np.subtract(K, K_high, out=K_high)
    lam_min_K = float(eigvalsh(K.T, subset_by_index=(0, 0), overwrite_a=True)[0])
    del K
    ev = eigvalsh(K_high.T, overwrite_a=True)
    del K_high
    delta1 = float(max(abs(ev[0] / kappa1 - 1.0), abs(ev[-1] / kappa1 - 1.0)))

    B_l = sum(multiplicity(sp.d, k) for k in range(l + 1))
    A = zonal_series(sp.d, sp.multiplicities[: l + 1], G)
    A /= n
    ev_a = eigvalsh(A.T, overwrite_a=True)
    top = ev_a[-min(B_l, n):]
    psi_dev = float(np.max(np.abs(top - 1.0)))
    return ConcentrationReport(lambda_min_K=lam_min_K, delta1_opnorm=delta1,
                               psi_gram_deviation=psi_dev, B_l=B_l,
                               meaningful=n >= B_l)


@dataclass(frozen=True)
class ErrorReport:
    """Everything one experiment cell reports; maps 1:1 onto CSV columns."""

    bias_sq_exact: float
    var_exact: float
    var_low_degree: float
    var_high_degree: float
    B1: float
    B2: float
    bias_residual_bound: float
    bias_sq_mc: float | None
    bias_sq_mc_se: float | None
    var_mc: float | None
    var_mc_se: float | None
    mc_consistent: bool | None   # exact within 4 SE of MC (None if MC skipped)
    kappa1: float
    kappa2: float


def evaluate_cell(model: FittedInterpolant, target: Target,
                  mc_test_points: int = 2000,
                  mc_seed: SeedPath | None = None) -> ErrorReport:
    """Run all exact oracles and (optionally) the MC cross-check on one fit."""
    l = target.l
    ts = tail_sums(model.spectrum, l)
    var_low, var_high = variance_split(model, l)
    var_exact = var_low + var_high
    bias = exact_bias_by_degree(model, target)

    bias_mc = bias_se = var_mc = var_se = None
    mc_ok = None
    if mc_test_points > 0:
        if mc_seed is None:
            raise UsageError("mc_seed is required when mc_test_points > 0")
        mc = mc_errors(model, target, mc_test_points, mc_seed)
        bias_mc, bias_se, var_mc, var_se = mc.bias_sq, mc.bias_sq_se, mc.var, mc.var_se
        bias_ok = abs(bias.total - bias_mc) <= 4.0 * bias_se + 1e-12
        var_ok = (model.dataset.sigma2 == 0.0
                  or abs(var_exact - var_mc) <= 4.0 * var_se + 1e-12)
        mc_ok = bool(bias_ok and var_ok)

    return ErrorReport(
        bias_sq_exact=bias.total,
        var_exact=var_exact,
        var_low_degree=var_low,
        var_high_degree=var_high,
        B1=bias.B1,
        B2=bias.B2,
        bias_residual_bound=bias.residual_bound,
        bias_sq_mc=bias_mc,
        bias_sq_mc_se=bias_se,
        var_mc=var_mc,
        var_mc_se=var_se,
        mc_consistent=mc_ok,
        kappa1=ts.kappa1,
        kappa2=ts.kappa2,
    )
