"""Zonal (Gegenbauer-type) polynomial algebra on the sphere S^d.

Everything spectral in this package reduces, via the addition theorem

    sum_m psi_km(x) psi_km(x') = N(d,k) * P_kd(<x, x'>),

to the polynomials P_kd normalized so P_kd(1) = 1, the multiplicities
N(d,k), and integration against the inner-product density

    rho_d(t) ∝ (1 - t^2)^((d-2)/2)   on [-1, 1].

Projections of a power series onto P_kd come exactly from the recurrence
(zonal_projections); the Gauss-Jacobi rule (quadrature) is the reference
they are checked against. Explicit spherical harmonics are never
constructed.

The recurrence runs on blocks of at most BLOCK_DOUBLES values: zonal_series
by row blocks of its argument (ZonalBasis.iter_blocks), and the degree
pass over G by the blocks kilab.estimator rebuilds from the points
(_gram_blocks), so no n x n P_k(G) exists.

Three-term recurrence (normalized so P_k(1) = 1):

    (k + d - 1) P_{k+1}(t) = (2k + d - 1) t P_k(t) - k P_{k-1}(t),
    P_0 = 1, P_1 = t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NumericalError, UsageError

# A recurrence (or Horner) row block holds at most this many doubles
# (128 KiB), so it and its three buffers stay in L2 cache.
BLOCK_DOUBLES = 16384


def clip_unit(t, what: str) -> np.ndarray:
    """t as floats in [-1, 1]: overshoot up to 1e-12 is clipped, on a copy
    made only then; anything further out, or NaN, raises UsageError."""
    t = np.asarray(t, dtype=float)
    lo, hi = (t.min(), t.max()) if t.size else (0.0, 0.0)
    if not (lo >= -1 - 1e-12 and hi <= 1 + 1e-12):   # NaN fails both
        raise UsageError(f"{what} argument outside [-1, 1]")
    return np.clip(t, -1.0, 1.0) if lo < -1.0 or hi > 1.0 else t


def row_blocks(t: np.ndarray) -> Iterator[slice]:
    """Slices of t's leading axis, each at most BLOCK_DOUBLES values (but at
    least one row); the split depends only on t's shape."""
    step = max(1, BLOCK_DOUBLES * len(t) // max(t.size, 1))
    return (slice(start, start + step) for start in range(0, len(t), step))


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


def multiplicities(d: int, k_max: int) -> list[int]:
    """N(d,0..k_max) with one exact big-integer step per degree, not the
    factorials of multiplicity(): B_k = C(k+d-2, k) = B_{k-1} (k+d-2) / k and
    N(d,k) = (2k+d-1) B_k / (d-1)."""
    if d < 1:
        raise UsageError(f"dimension must be >= 1, got {d}")
    if k_max < 0:
        raise UsageError(f"k_max must be >= 0, got {k_max}")
    if d == 1:
        return [1] + [2] * k_max      # the circle: cos(k t) and sin(k t)
    out, b = [1], 1
    for k in range(1, k_max + 1):
        b, r = divmod(b * (k + d - 2), k)
        n_k, r2 = divmod((2 * k + d - 1) * b, d - 1)
        if r or r2:
            raise NumericalError(f"multiplicity formula not integral at d={d}, k={k}")
        out.append(n_k)
    return out


class ZonalBasis:
    """Evaluator for P_{0..k_max, d} via the stable three-term recurrence."""

    def __init__(self, d: int, k_max: int):
        if d < 1:
            raise UsageError(f"dimension must be >= 1, got {d}")
        if k_max < 0:
            raise UsageError(f"k_max must be >= 0, got {k_max}")
        self.d = d
        self.k_max = k_max

    def iter_values(self, t) -> Iterator[np.ndarray]:
        """Yield P_0(t), P_1(t), ..., P_{k_max}(t) without storing the stack.

        The recurrence reuses three buffers in place: a yielded array holds
        P_k(t) only until the next one is requested. Copy it to keep it.
        """
        return self._recurrence(clip_unit(t, "zonal"))

    def iter_clipped_values(self, t: np.ndarray) -> Iterator[np.ndarray]:
        """iter_values for a float array t already clipped into [-1, 1], such
        as a Gram block of unit points that kilab.estimator clips as it builds
        it, with no second scan of t."""
        return self._recurrence(t)

    def iter_blocks(self, t) -> Iterator[tuple[slice, Iterator[np.ndarray]]]:
        """Yield (rows, iter_values(t[rows])) over blocks of leading-axis rows
        of t, each at most BLOCK_DOUBLES values (but at least one row)."""
        t = clip_unit(t, "zonal")
        for rows in row_blocks(t):
            yield rows, self._recurrence(t[rows])

    def _recurrence(self, t: np.ndarray) -> Iterator[np.ndarray]:
        d = self.d
        p_prev = np.ones_like(t)
        yield p_prev
        if self.k_max == 0:
            return
        p_cur = t.copy()
        yield p_cur
        p_next = np.empty_like(t)
        for k in range(1, self.k_max):
            np.multiply(t, 2 * k + d - 1, out=p_next)
            p_next *= p_cur
            p_prev *= k
            p_next -= p_prev
            p_next /= k + d - 1
            yield p_next
            p_prev, p_cur, p_next = p_cur, p_next, p_prev

    def eval_all(self, t: np.ndarray) -> np.ndarray:
        """Stack of shape (k_max+1, *t.shape) with all degrees at once."""
        t = np.asarray(t, dtype=float)
        out = np.empty((self.k_max + 1,) + t.shape)
        for k, p_k in enumerate(self.iter_values(t)):
            out[k] = p_k
        return out


def zonal_series(d: int, coef, t) -> np.ndarray:
    """sum_{k < len(coef)} coef[k] * P_kd(t) for scalar or array t."""
    coef = np.asarray(coef, dtype=float)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t_arr)
    for rows, values in ZonalBasis(d, max(coef.size - 1, 0)).iter_blocks(t_arr):
        for c, p_k in zip(coef, values):
            out[rows] += c * p_k
    return out if np.ndim(t) else float(out[0])


def zonal_projections(d: int, coef, k_max: int) -> np.ndarray:
    """E_rho[f P_kd] for k = 0..k_max, f(t) = sum_j coef[j] t^j, exactly.

    The recurrence reads t P_k = a_k P_{k+1} + c_k P_{k-1} with
    a_k = (k+d-1)/(2k+d-1), c_k = k/(2k+d-1) and a_0 = 1, so the moments
    m_{j,k} = E[t^j P_k] obey

        m_{0,k} = [k = 0],   m_{j+1,k} = a_k m_{j,k+1} + c_k m_{j,k-1},

    and vanish for k > j. One moment vector over degrees 0..max(k_max,
    len(coef) - 1) is updated once per coefficient. Every a_k, c_k and
    m_{j,k} is nonnegative, so for nonnegative coef each projection is a
    sum of nonnegative terms: no cancellation, full relative precision,
    never negative, at any d.
    """
    coef = np.asarray(coef, dtype=float)
    k = np.arange(max(k_max + 1, coef.size), dtype=float)
    den = np.maximum(2 * k + d - 1, 1.0)   # 0 only at d = 1, k = 0, where a_0 = 1
    up, down = (k + d - 1) / den, k / den
    up[0] = 1.0
    m = np.zeros(k.size + 2)        # m[1 + k] = m_{j,k}; both ends stay 0
    m[1] = 1.0
    out = coef[0] * m[1:-1]
    for a_j in coef[1:]:
        m[1:-1] = up * m[2:] + down * m[:-2]
        out += a_j * m[1:-1]
    return out[: k_max + 1]


@dataclass(frozen=True)
class QuadratureRule:
    """Probability quadrature for the density rho_d on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray  # positive, sum to 1

    def integrate(self, values: np.ndarray) -> float:
        """Integral of a function sampled at the nodes (last axis)."""
        return float(np.asarray(values) @ self.weights)


def quadrature(d: int, points: int) -> QuadratureRule:
    """Gauss-Jacobi rule for weight (1-t^2)^((d-2)/2), normalized to mass 1."""
    if d < 1:
        raise UsageError(f"dimension must be >= 1, got {d}")
    if points < 1:
        raise UsageError(f"quadrature size must be >= 1, got {points}")
    # imported here: only verify and the tests use the rule, so
    # `import kilab` does not load scipy.special
    from scipy.special import roots_jacobi

    alpha = (d - 2) / 2.0
    try:
        nodes, weights = roots_jacobi(points, alpha, alpha)
    except Exception as exc:  # pragma: no cover - scipy failure path
        raise NumericalError(f"Gauss-Jacobi node computation failed: {exc}") from exc
    total = weights.sum()
    if not np.isfinite(total) or total <= 0:
        raise NumericalError(f"degenerate Gauss-Jacobi weights for d={d}, m={points}")
    return QuadratureRule(nodes=nodes, weights=weights / total)

