"""Zonal (Gegenbauer-type) polynomial algebra on the sphere S^d.

Everything spectral in this package reduces, via the addition theorem

    sum_m psi_km(x) psi_km(x') = N(d,k) * P_kd(<x, x'>),

to the polynomials P_kd normalized so P_kd(1) = 1, the multiplicities
N(d,k), and integration against the inner-product density

    rho_d(t) ∝ (1 - t^2)^((d-2)/2)   on [-1, 1],

realized by Gauss-Jacobi quadrature. Explicit spherical harmonics are
never constructed.

Three-term recurrence (normalized so P_k(1) = 1):

    (k + d - 1) P_{k+1}(t) = (2k + d - 1) t P_k(t) - k P_{k-1}(t),
    P_0 = 1, P_1 = t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.special import roots_jacobi

from .errors import NumericalError, UsageError


def multiplicity(d: int, k: int) -> int:
    """Dimension N(d,k) of the degree-k spherical harmonic space on S^d.

    Exact integer arithmetic: (2k+d-1) (k+d-2)! / [k (d-1)! (k-1)!].
    """
    if d < 1:
        raise UsageError(f"dimension must be >= 1, got {d}")
    if k < 0:
        raise UsageError(f"degree must be >= 0, got {k}")
    if k == 0:
        return 1
    num = (2 * k + d - 1) * math.factorial(k + d - 2)
    den = k * math.factorial(d - 1) * math.factorial(k - 1)
    q, r = divmod(num, den)
    if r != 0:
        raise NumericalError(f"multiplicity formula not integral at d={d}, k={k}")
    return q


class ZonalBasis:
    """Evaluator for P_{0..k_max, d} via the stable three-term recurrence."""

    def __init__(self, d: int, k_max: int):
        if d < 1:
            raise UsageError(f"dimension must be >= 1, got {d}")
        if k_max < 0:
            raise UsageError(f"k_max must be >= 0, got {k_max}")
        self.d = d
        self.k_max = k_max

    def _clamp(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if np.any(np.abs(t) > 1 + 1e-12):
            raise UsageError("zonal argument outside [-1, 1]")
        return np.clip(t, -1.0, 1.0)

    def iter_values(self, t: np.ndarray) -> Iterator[np.ndarray]:
        """Yield P_0(t), P_1(t), ..., P_{k_max}(t) without storing the stack."""
        t = self._clamp(t)
        d = self.d
        p_prev = np.ones_like(t)
        yield p_prev
        if self.k_max == 0:
            return
        p_cur = t.copy()
        yield p_cur
        for k in range(1, self.k_max):
            p_next = ((2 * k + d - 1) * t * p_cur - k * p_prev) / (k + d - 1)
            yield p_next
            p_prev, p_cur = p_cur, p_next

    def eval(self, k: int, t) -> np.ndarray:
        """P_{k,d}(t) for scalar or array t."""
        if k > self.k_max:
            raise UsageError(f"degree {k} exceeds k_max={self.k_max}")
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        for j, vals in enumerate(self.iter_values(t_arr)):
            if j == k:
                return vals if np.ndim(t) else float(vals[0])
        raise AssertionError("unreachable")

    def eval_all(self, t: np.ndarray) -> np.ndarray:
        """Stack of shape (k_max+1, *t.shape) with all degrees at once."""
        t = np.asarray(t, dtype=float)
        return np.stack(list(self.iter_values(t)))


def zonal_series(d: int, coef, t) -> np.ndarray:
    """sum_{k < len(coef)} coef[k] * P_kd(t) for scalar or array t."""
    coef = np.asarray(coef, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    out = np.zeros_like(t_arr)
    for c, p_k in zip(coef, ZonalBasis(d, max(coef.size - 1, 0)).iter_values(t_arr)):
        out += c * p_k
    return out if np.ndim(t) else float(out)


@dataclass(frozen=True)
class QuadratureRule:
    """Probability quadrature for the density rho_d on [-1, 1]."""

    d: int
    nodes: np.ndarray
    weights: np.ndarray  # positive, sum to 1

    @property
    def size(self) -> int:
        return self.nodes.size

    def integrate(self, values: np.ndarray) -> float:
        """Integral of a function sampled at the nodes (last axis)."""
        return float(np.asarray(values) @ self.weights)


def quadrature(d: int, points: int) -> QuadratureRule:
    """Gauss-Jacobi rule for weight (1-t^2)^((d-2)/2), normalized to mass 1."""
    if d < 1:
        raise UsageError(f"dimension must be >= 1, got {d}")
    if points < 1:
        raise UsageError(f"quadrature size must be >= 1, got {points}")
    alpha = (d - 2) / 2.0
    try:
        nodes, weights = roots_jacobi(points, alpha, alpha)
    except Exception as exc:  # pragma: no cover - scipy failure path
        raise NumericalError(f"Gauss-Jacobi node computation failed: {exc}") from exc
    total = weights.sum()
    if not np.isfinite(total) or total <= 0:
        raise NumericalError(f"degenerate Gauss-Jacobi weights for d={d}, m={points}")
    return QuadratureRule(d=d, nodes=nodes, weights=weights / total)


def gram_zonal(basis: ZonalBasis, k: int, G: np.ndarray) -> np.ndarray:
    """The degree-k harmonic Gram matrix N(d,k) * P_kd(G).

    By the addition theorem this equals Psi_k Psi_k^T for any orthonormal
    basis Psi_k of the degree-k eigenspace evaluated at the sample points.
    G must be a matrix of pairwise inner products of unit vectors.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise UsageError(f"G must be square, got shape {G.shape}")
    if np.max(np.abs(np.diag(G) - 1.0)) > 1e-9:
        raise UsageError("G diagonal is not 1: inputs must be unit sphere points")
    return multiplicity(basis.d, k) * basis.eval(k, G)
