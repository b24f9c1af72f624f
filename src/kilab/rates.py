"""Closed-form convergence-rate exponents and the (s, gamma) phase diagram.

With n ~ d^gamma and l = band(gamma) (floor(gamma), or gamma itself when
it is an integer), the interpolant's error exponents in d are

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

# gamma within TOL of an integer counts as that integer, and s within TOL
# above Gamma(gamma) as on the threshold, so a boundary does not turn on
# the last bit of a grid value or of Gamma
TOL = 1e-12


def band(gamma: float) -> tuple[int, bool]:
    """The band l of gamma and whether gamma counts as an integer: within
    TOL of an integer >= 1, l is that integer, otherwise floor(gamma)."""
    if not 0 < gamma < math.inf:
        raise UsageError(f"gamma must be positive and finite, got {gamma}")
    nearest = round(gamma)
    if nearest >= 1 and abs(gamma - nearest) < TOL:
        return nearest, True
    return math.floor(gamma), False


def var_exponent(gamma: float) -> float:
    """Exponent of the variance in d: max(l - gamma, gamma - l - 1)."""
    l, integer = band(gamma)
    return 0.0 if integer else max(l - gamma, gamma - l - 1.0)


def bias_exponent(s: float, gamma: float) -> float | None:
    """Exponent of the squared bias; None at integer gamma (excluded case)."""
    l, integer = band(gamma)
    if s < 0:
        raise UsageError(f"s must be >= 0, got {s}")
    if integer:
        return None
    return max(-(l + 1) * s, (2.0 - min(s, 2.0)) * l - 2.0 * gamma)


def total_exponent(s: float, gamma: float) -> float:
    """Exponent of the generalization error: variance terms plus -(l+1)s."""
    l, _ = band(gamma)
    if s < 0:
        raise UsageError(f"s must be >= 0, got {s}")
    return max(l - gamma, gamma - l - 1.0, -(l + 1) * s)


def gamma_threshold(gamma: float) -> float:
    """The optimality threshold Gamma(gamma); +inf on (0, 0.5]."""
    l, integer = band(gamma)
    if gamma <= 0.5:
        return math.inf
    if gamma <= 1.0:
        return 1.0 - gamma
    if integer:
        l -= 1   # gamma = l+1 lands in the (l+0.5, l+1] branch
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
    if band(gamma)[1]:
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
    var_exponent: float
    bias_exponent: float | None
    total_exponent: float
    Gamma_gamma: float
    minimax_exponent: float | None
    classification: str   # "optimal" | "sub-optimal" | "inconsistent"


def classify(s: float, gamma: float) -> PhasePoint:
    """Classification precedence: inconsistent > optimal (s <= Gamma, within
    TOL) > sub-optimal. A bad gamma or s raises UsageError from band or
    bias_exponent."""
    l, integer = band(gamma)
    thr = gamma_threshold(gamma)
    if s == 0 or integer:
        label = "inconsistent"
    elif s - thr <= TOL:
        label = "optimal"
    else:
        label = "sub-optimal"
    return PhasePoint(
        gamma=float(gamma), s=float(s), l=l,
        var_exponent=var_exponent(gamma),
        bias_exponent=bias_exponent(s, gamma),
        total_exponent=total_exponent(s, gamma),
        Gamma_gamma=thr,
        minimax_exponent=minimax_exponent(s, gamma) if s > 0 and not integer else None,
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
