"""Output-correctness gate of the sweep benchmark.

Per cell (a cell that fails counts in failed_frac):
  - the row is not an error row;
  - the four exact columns are finite and nonnegative, and var_exact is 0
    when sigma2 is 0;
  - where Monte Carlo ran, the exact bias and variance lie within
    MC_GROSS_SE standard errors of it (the program's own verdict,
    mc_consistent, uses 4; this catches gross errors only);
  - at the reference seed, the four exact columns match the committed
    reference within its relative tolerance.
Per sweep (a failure makes the run incorrect):
  - the log-log slope of a column against d is within the tolerance of an
    acceptance criterion (per-d means of log values, as kilab.fit_slope);
  - mc_consistent holds in at least the stated share of cells.
"""

from __future__ import annotations

import math
import statistics

EXACT_COLUMNS = ("var_exact", "bias_sq_exact", "var_low_degree",
                 "var_high_degree")
MC_GROSS_SE = 6.0


def cell_key(row: dict) -> str:
    return f"{row['d']}:{row['replicate']}"


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * max(abs(value), abs(ref))


def cell_failures(row: dict, reference: dict | None, rtol: float) -> list[str]:
    """Reasons one CSV row (all values strings) fails the per-cell gate."""
    if row["error"]:
        return [f"error row: {row['error']}"]
    reasons = []
    values = {c: float(row[c]) for c in EXACT_COLUMNS}
    for column, value in values.items():
        if not math.isfinite(value) or value < 0:
            reasons.append(f"{column}={value} is not finite and nonnegative")
    if float(row["sigma2"]) == 0.0 and values["var_exact"] != 0.0:
        reasons.append("var_exact is not 0 at sigma2 = 0")
    if row["bias_sq_mc"]:
        for exact, mc, se in (("bias_sq_exact", "bias_sq_mc", "bias_sq_mc_se"),
                              ("var_exact", "var_mc", "var_mc_se")):
            gap = abs(values[exact] - float(row[mc]))
            if gap > MC_GROSS_SE * float(row[se]) + 1e-12:
                reasons.append(f"{exact} is {gap:.3e} from {mc}, over "
                               f"{MC_GROSS_SE:g} standard errors")
    if reference is not None:
        ref = reference.get(cell_key(row))
        if ref is None:
            reasons.append("cell missing from the reference")
        else:
            for column in EXACT_COLUMNS:
                if not _close(values[column], ref[column], rtol):
                    reasons.append(f"{column}={values[column]!r} differs from "
                                   f"reference {ref[column]!r} (rtol {rtol:g})")
    return reasons


def log_slope(rows: list[dict], column: str) -> float:
    """Slope of per-d mean log(value) against log(d)."""
    by_d: dict[float, list[float]] = {}
    for row in rows:
        by_d.setdefault(float(row["d"]), []).append(math.log(float(row[column])))
    ds = sorted(by_d)
    xs = [math.log(d) for d in ds]
    ys = [statistics.fmean(by_d[d]) for d in ds]
    return statistics.linear_regression(xs, ys).slope


def sweep_failures(rows: list[dict], workload: dict) -> list[str]:
    """Reasons a whole sweep fails; rows are the ones that passed per cell."""
    reasons = []
    slope = workload.get("slope")
    if slope is not None:
        if len({row["d"] for row in rows}) < 3:
            reasons.append("fewer than 3 distinct d values for the slope fit")
        else:
            fitted = log_slope(rows, slope["column"])
            if abs(fitted - slope["theory"]) > slope["tolerance"]:
                reasons.append(f"{slope['column']} slope {fitted:+.3f} is not "
                               f"within {slope['tolerance']} of "
                               f"{slope['theory']:+.3f}")
    share = workload.get("min_mc_consistent")
    if share is not None and rows:
        consistent = sum(row["mc_consistent"] == "true" for row in rows)
        if consistent < share * len(rows):
            reasons.append(f"mc_consistent in {consistent}/{len(rows)} cells, "
                           f"below {share:.0%}")
    return reasons
