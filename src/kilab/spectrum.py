"""Inner-product kernels Phi and their spherical-harmonic spectra.

A kernel k(x, x') = Phi(<x, x'>) with Phi(t) = sum_j a_j t^j, a_j >= 0 and
sum_j a_j <= 1, has Mercer decomposition

    Phi(t) = sum_k mu_k N(d,k) P_kd(t),

so the per-degree eigenvalues are the projections

    mu_k = E_rho[Phi(t) P_kd(t)] = sum_j a_j E_rho[t^j P_kd(t)],

computed here exactly from the coefficients by the zonal recurrence
(zonal.zonal_projections). Tail sums kappa1/kappa2 over
degrees > l and kernel-matrix assembly also live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError, UsageError
from .zonal import (ZonalBasis, clip_unit, multiplicities, row_blocks,
                    zonal_projections)

K_MAX_CAP = 64
TRACE_TOL = 1e-10   # k_max is the first degree whose trace residual is below this


@dataclass(frozen=True)
class KernelSpec:
    """An inner-product kernel Phi: nonnegative Taylor coefficients, Phi(1) <= 1.

    `phi` is an optional closed-form evaluator phi(t, out) that writes
    Phi(t) into `out` (which may be t itself); without it the truncated
    series is evaluated by Horner's rule. K is built from `phi` but the
    spectrum from the coefficients, so the two must agree within
    1e-12 on [-1, 1]. Only the last coefficient may be zero.
    """

    family_id: str
    coefficients: tuple[float, ...]
    phi: Callable[[np.ndarray, np.ndarray], None] | None = None

    def __post_init__(self):
        a = np.asarray(self.coefficients, dtype=float)
        if a.size == 0:
            raise UsageError("kernel needs at least one coefficient")
        if not np.all(np.isfinite(a)):
            raise UsageError("kernel coefficients must be finite")
        if np.any(a < 0):
            raise UsageError("kernel coefficients must be nonnegative")
        if np.any(a[:-1] == 0):
            raise UsageError("kernel coefficients below the last must be positive")
        if a.sum() > 1 + 1e-12:
            raise UsageError("coefficient sum exceeds 1 (violates Phi(1) <= 1)")
        if self.phi is not None:    # against Horner's rule, as eval_phi runs it without phi
            t = np.linspace(-1.0, 1.0, 17)
            gap = np.max(np.abs(eval_phi(self, t) - _horner(self.coefficients, t, np.empty(17))))
            if not gap <= 1e-12:
                raise UsageError(f"closed-form phi differs from the coefficient "
                                 f"series by {gap:.3e} on [-1, 1]")


def eval_phi(spec: KernelSpec, t, out: np.ndarray | None = None) -> np.ndarray:
    """Phi(t) for |t| <= 1, closed form when available else Horner, written
    into `out` when given; out may be t itself, so a caller that owns its
    Gram panel evaluates the kernel in place."""
    t_arr = clip_unit(t, "kernel")
    if out is None:
        out = np.empty_like(t_arr)
    eval_phi_clipped(spec, t_arr, out)
    return out if np.ndim(t) else float(out)


def eval_phi_clipped(spec: KernelSpec, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """eval_phi for a float array t already clipped into [-1, 1], such as a
    Gram block of unit points that kilab.estimator clips as it builds it,
    with no second scan of t; out may be t itself."""
    if spec.phi is not None:
        spec.phi(t, out)
    else:
        _horner(spec.coefficients, np.atleast_1d(t), np.atleast_1d(out))
    return out


def _horner(coefficients: Sequence[float], t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_j a_j t^j into out by Horner's rule, by row blocks: out may be t,
    so each block of t is copied, and freed before the next block is
    copied."""
    for rows in row_blocks(t):
        t_b, out_b = t[rows].copy(), out[rows]
        out_b[...] = 0.0
        for a_j in reversed(coefficients):
            out_b *= t_b
            out_b += a_j
        del t_b
    return out


def _phi_exp(t, out):
    np.subtract(t, 1.0, out=out)
    np.exp(out, out=out)


def _phi_geometric(t, out):
    np.subtract(2.0, t, out=out)
    np.divide(1.0, out, out=out)


# module-level evaluators keep KernelSpec (and Spectrum) picklable
BUILTIN_KERNELS = {
    "exp": lambda: KernelSpec(
        family_id="exp", phi=_phi_exp,
        coefficients=tuple(math.exp(-1) / math.factorial(j) for j in range(40)),
    ),
    "geometric": lambda: KernelSpec(
        family_id="geometric", phi=_phi_geometric,
        coefficients=tuple(0.5 ** (j + 1) for j in range(80)),
    ),
}


def kernel_by_id(kernel_id: str) -> KernelSpec:
    try:
        return BUILTIN_KERNELS[kernel_id]()
    except KeyError:
        raise UsageError(
            f"unknown kernel id {kernel_id!r}; built-ins: {sorted(BUILTIN_KERNELS)}"
        ) from None


def kernel_from_coefficients(coeffs: Sequence[float]) -> KernelSpec:
    return KernelSpec(family_id="custom", coefficients=tuple(float(c) for c in coeffs))


@dataclass(frozen=True)
class Spectrum:
    """Per-degree eigenvalues of an inner-product kernel at a fixed d."""

    spec: KernelSpec
    d: int
    k_max: int
    mu: np.ndarray                 # shape (k_max+1,)
    multiplicities: np.ndarray     # shape (k_max+1,), float copies of exact ints
    trace_residual: float          # Phi(1) - sum_k mu_k N(d,k) >= 0

    def basis(self) -> ZonalBasis:
        return ZonalBasis(self.d, self.k_max)


@dataclass(frozen=True)
class TailSums:
    """kappa1 = sum_{k>l} mu_k N(d,k), kappa2 likewise with mu_k^2."""

    kappa1: float
    kappa2: float


def compute_spectrum(spec: KernelSpec, d: int) -> Spectrum:
    """Eigenvalues mu_k = sum_j a_j E[t^j P_kd] from the coefficients
    (zonal_projections: exact up to rounding, full relative precision and
    nonnegative at any d), truncated at the first degree whose trace
    residual is below TRACE_TOL."""
    phi1 = float(eval_phi(spec, 1.0))
    mults = np.array(multiplicities(d, K_MAX_CAP), dtype=float)
    mu = zonal_projections(d, spec.coefficients, K_MAX_CAP)

    residuals = phi1 - np.cumsum(mu * mults)
    ok = np.nonzero(residuals < TRACE_TOL)[0]
    if ok.size == 0:
        raise NumericalError(
            f"k_max cap {K_MAX_CAP} binds: trace residual {residuals[-1]:.3e} >= "
            f"{TRACE_TOL:.1e} for kernel {spec.family_id!r} at d={d}"
        )
    k_max = int(ok[0])
    trace_residual = float(max(residuals[k_max], 0.0))
    return Spectrum(
        spec=spec, d=d, k_max=k_max,
        mu=mu[: k_max + 1].copy(),
        multiplicities=mults[: k_max + 1].copy(),
        trace_residual=trace_residual,
    )


def tail_sums(spectrum: Spectrum, l: int) -> TailSums:
    """Multiplicity-weighted tail sums over degrees > l (l = -1 gives the trace)."""
    if l >= spectrum.k_max:
        raise UsageError(
            f"tail degree l={l} >= k_max={spectrum.k_max}: the kernel's "
            "spectrum ends at k_max"
        )
    lo = l + 1
    w = spectrum.mu[lo:] * spectrum.multiplicities[lo:]
    kappa1 = float(w.sum() + spectrum.trace_residual)
    kappa2 = float((spectrum.mu[lo:] * w).sum())
    return TailSums(kappa1=kappa1, kappa2=kappa2)


def assemble_kernel_matrix(spec: KernelSpec, G: np.ndarray, out=None) -> np.ndarray:
    """K = Phi(G) for a Gram matrix G = X X^T, with Phi(1) on the diagonal, in
    `out` when given (out may be G); exactly symmetric when G is, with no
    symmetrizing copy (SpherePoints.gram forms X X^T as one product)."""
    K = eval_phi(spec, G, out=out)
    np.fill_diagonal(K, float(eval_phi(spec, 1.0)))
    return K
