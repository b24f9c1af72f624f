"""Band-limited zonal targets satisfying the source condition, and datasets.

A target with smoothness exponent s and scale gamma (l = rates.band(gamma))
places all its energy on degrees 0..l+1 along a single random axis w:

    f*(x) = sum_{k<=l+1} beta_k sqrt(N(d,k)) P_kd(<x, w>),

where each degree component has unit L2 norm by the addition theorem, so
||f*||_L2^2 = sum_k beta_k^2. Choosing beta_k = c * mu_k^(s/2) makes the
per-degree power-space energy mu_k^(-s) beta_k^2 = c^2 identical across
degrees; c is set so the total squared power-space norm is min(R, l+2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .rates import band
from .seeding import SeedPath, SpherePoints, sample_noise, sample_sphere, TAG_POINTS, TAG_NOISE
from .spectrum import Spectrum
from .zonal import zonal_series

NORM_BUDGET = 4.0   # R: the target's squared power-space norm is min(R, l+2)


@dataclass(frozen=True)
class Target:
    """A zonal source-condition function on S^d."""

    spectrum: Spectrum
    s: float
    gamma: float
    l: int
    beta: np.ndarray          # shape (l+2,), degree coefficients
    axis: np.ndarray          # unit vector in R^(d+1)
    hs_norm_sq: float         # sum_k mu_k^(-s) beta_k^2
    c0: float                 # per-degree energy floor (source condition)

    @property
    def d(self) -> int:
        return self.spectrum.d

    @property
    def l2_norm_sq(self) -> float:
        return float(self.beta @ self.beta)


@dataclass(frozen=True)
class Dataset:
    """Labeled sample from y = f*(x) + eps with x uniform on S^d. fit solves
    once when y is clean itself, twice when they are separate arrays."""

    points: SpherePoints
    y: np.ndarray
    clean: np.ndarray         # f*(X)
    sigma2: float

    @property
    def n(self) -> int:
        return self.points.n


def build_target(spectrum: Spectrum, s: float, gamma: float, seed: SeedPath) -> Target:
    """Construct the equal-energy band-limited target for (s, gamma)."""
    if s < 0:
        raise UsageError(f"source exponent must be >= 0, got {s}")
    l, _ = band(gamma)
    if l + 1 > spectrum.k_max:
        raise UsageError(
            f"target band l+1={l + 1} exceeds spectrum k_max={spectrum.k_max}: "
            "the kernel's spectrum ends at k_max"
        )
    mu_band = spectrum.mu[: l + 2]
    if np.any(mu_band <= 0):
        raise UsageError("spectrum has vanishing eigenvalues inside the target band")
    c_sq = min(NORM_BUDGET, l + 2.0) / (l + 2.0)
    beta = math.sqrt(c_sq) * mu_band ** (s / 2.0)
    hs_norm_sq = float(c_sq * (l + 2))
    c0 = float(min(c_sq, (beta[: l + 1] ** 2).sum()))
    axis = sample_sphere(spectrum.d, 1, seed).coordinates[0]
    return Target(spectrum=spectrum, s=float(s), gamma=float(gamma), l=l,
                  beta=beta, axis=axis, hs_norm_sq=hs_norm_sq, c0=c0)


def eval_target(target: Target, points: SpherePoints) -> np.ndarray:
    """Exact evaluation f*(x) = sum_k beta_k sqrt(N(d,k)) P_kd(<x, w>)."""
    if points.d != target.d:
        raise UsageError(f"dimension mismatch: points d={points.d}, target d={target.d}")
    return eval_target_along_axis(target, points.coordinates @ target.axis)


def eval_target_along_axis(target: Target, t: np.ndarray) -> np.ndarray:
    """f*(x) for points x with <x, w> = t."""
    sp = target.spectrum
    return zonal_series(sp.d, target.beta * np.sqrt(sp.multiplicities[: target.l + 2]), t)


def make_dataset(target: Target, n: int, sigma2: float, seed: SeedPath) -> Dataset:
    """X uniform on S^d and y = f*(X) + N(0, sigma2) noise; y is clean at sigma2 = 0."""
    if n < 1:
        raise UsageError(f"sample size must be >= 1, got {n}")
    points = sample_sphere(target.d, n, seed.child(TAG_POINTS))
    clean = eval_target(target, points)
    y = clean if sigma2 == 0 else clean + sample_noise(n, sigma2, seed.child(TAG_NOISE))
    return Dataset(points=points, y=y, clean=clean, sigma2=float(sigma2))
