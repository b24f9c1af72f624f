"""Closed-form convergence-rate exponents and the (s, gamma) phase diagram.

With n ~ d^gamma and l = floor(gamma), the interpolant's error exponents
in d are

    variance: max(l - gamma, gamma - l - 1)            (0 at integer gamma)
    bias^2:   max(-(l+1) s, (2 - min(s,2)) l - 2 gamma)  (non-integer gamma)
    total:    max(l - gamma, gamma - l - 1, -(l+1) s)

The minimax exponent over the source-condition ball and the threshold
Gamma(gamma) classify each (gamma, s) as optimal / sub-optimal /
inconsistent. fit_slope does the log-log regression used to compare
finite-d sweeps against these exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

_INT_EPS = 1e-12


def _is_integer(gamma: float) -> bool:
    return abs(gamma - round(gamma)) < _INT_EPS and round(gamma) >= 1


def var_exponent(gamma: float) -> float:
    """Exponent of the variance in d: max(l - gamma, gamma - l - 1)."""
    if gamma <= 0:
        raise UsageError(f"gamma must be positive, got {gamma}")
    if _is_integer(gamma):
        return 0.0
    l = math.floor(gamma)
    return max(l - gamma, gamma - l - 1.0)


def bias_exponent(s: float, gamma: float) -> float | None:
    """Exponent of the squared bias; None at integer gamma (excluded case)."""
    if gamma <= 0:
        raise UsageError(f"gamma must be positive, got {gamma}")
    if s < 0:
        raise UsageError(f"s must be >= 0, got {s}")
    if _is_integer(gamma):
        return None
    l = math.floor(gamma)
    s_tilde = min(s, 2.0)
    return max(-(l + 1) * s, (2.0 - s_tilde) * l - 2.0 * gamma)


def total_exponent(s: float, gamma: float) -> float:
    """Exponent of the generalization error: variance terms plus -(l+1)s."""
    if gamma <= 0:
        raise UsageError(f"gamma must be positive, got {gamma}")
    if s < 0:
        raise UsageError(f"s must be >= 0, got {s}")
    l = math.floor(gamma) if not _is_integer(gamma) else round(gamma)
    return max(l - gamma, gamma - l - 1.0, -(l + 1) * s)


def gamma_threshold(gamma: float) -> float:
    """The optimality threshold Gamma(gamma); +inf on (0, 0.5]."""
    if gamma <= 0:
        raise UsageError(f"gamma must be positive, got {gamma}")
    if gamma <= 0.5:
        return math.inf
    if gamma <= 1.0:
        return 1.0 - gamma
    l = math.floor(gamma)
    if _is_integer(gamma):
        l = round(gamma) - 1   # gamma = l+1 lands in the (l+0.5, l+1] branch
        return (l + 1 - gamma) / (l + 1)
    if gamma <= l + 0.5:
        return (gamma - l) / l
    return (l + 1 - gamma) / (l + 1)


def minimax_exponent(s: float, gamma: float) -> float:
    """Minimax rate exponent over the source-condition ball (s > 0, non-integer gamma).

    The unique p with gamma in (p(1+s), (p+1)(1+s)] selects the branch:
    exponent -(gamma - p) when gamma <= p(1+s) + s, else -(p+1)s.
    """
    if s <= 0:
        raise UsageError("minimax exponent requires s > 0")
    if gamma <= 0:
        raise UsageError(f"gamma must be positive, got {gamma}")
    if _is_integer(gamma):
        raise UsageError("minimax exponent is not defined at integer gamma")
    p = math.ceil(gamma / (1.0 + s)) - 1
    if gamma <= p * (1.0 + s) + s:
        return -(gamma - p)
    return -(p + 1) * s


@dataclass(frozen=True)
class PhasePoint:
    """A fully classified point of the (gamma, s) phase diagram."""

    gamma: float
    s: float
    l: int
    s_tilde: float
    var_exponent: float
    bias_exponent: float | None
    total_exponent: float
    Gamma_gamma: float
    minimax_exponent: float | None
    classification: str   # "optimal" | "sub-optimal" | "inconsistent"


def classify(s: float, gamma: float) -> PhasePoint:
    """Classification precedence: inconsistent > optimal (s <= Gamma) > sub-optimal."""
    if gamma <= 0:
        raise UsageError(f"gamma must be positive, got {gamma}")
    if s < 0:
        raise UsageError(f"s must be >= 0, got {s}")
    integer_gamma = _is_integer(gamma)
    l = round(gamma) if integer_gamma else math.floor(gamma)
    thr = gamma_threshold(gamma)
    if s == 0 or integer_gamma:
        label = "inconsistent"
    elif s <= thr:
        label = "optimal"
    else:
        label = "sub-optimal"
    mm = None
    if s > 0 and not integer_gamma:
        mm = minimax_exponent(s, gamma)
    return PhasePoint(
        gamma=float(gamma), s=float(s), l=l, s_tilde=min(s, 2.0),
        var_exponent=var_exponent(gamma),
        bias_exponent=bias_exponent(s, gamma),
        total_exponent=total_exponent(s, gamma),
        Gamma_gamma=thr,
        minimax_exponent=mm,
        classification=label,
    )


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of log(value) against log(d)."""

    slope: float
    intercept: float
    stderr: float
    r2: float
    d_values: tuple[float, ...]
    mean_log_values: tuple[float, ...]


def fit_slope(pairs) -> SlopeFit:
    """Fit log(value) ~ slope * log(d); replicates averaged in log space.

    pairs: iterable of (d, value) with value > 0. With replicates per d the
    fit runs on per-d means of log(value).
    """
    by_d: dict[float, list[float]] = {}
    for i, (d, v) in enumerate(pairs):
        if v <= 0:
            raise UsageError(f"non-positive value {v} at pair index {i} (d={d})")
        by_d.setdefault(float(d), []).append(math.log(v))
    if len(by_d) < 3:
        raise UsageError(f"need >= 3 distinct d values, got {len(by_d)}")
    ds = sorted(by_d)
    x = np.log(ds)
    y = np.array([float(np.mean(by_d[d])) for d in ds])
    # ordinary least squares as scipy.stats.linregress computes it (r clipped
    # to [-1, 1], stderr on m - 2 degrees of freedom), except that constant y
    # gives r = 0 and stderr = 0 where linregress gives nan
    xc, yc = x - x.mean(), y - y.mean()
    sxx, sxy, syy = float(xc @ xc), float(xc @ yc), float(yc @ yc)
    slope = sxy / sxx
    r = 0.0 if syy == 0.0 else min(max(sxy / math.sqrt(sxx * syy), -1.0), 1.0)
    return SlopeFit(
        slope=slope, intercept=float(y.mean() - slope * x.mean()),
        stderr=math.sqrt((1.0 - r * r) * syy / sxx / (len(ds) - 2)), r2=r * r,
        d_values=tuple(ds), mean_log_values=tuple(y),
    )
