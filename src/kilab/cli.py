"""Command-line harness.

Subcommands: spectrum, phase, run, fit, verify.
Exit codes: 0 ok, 1 usage/config error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from .errors import NumericalError, UsageError
from .harness import (PHASE_COLUMNS, ExperimentConfig, analyze, phase_grid,
                      run_sweep, write_rows)
from .spectrum import compute_spectrum, kernel_by_id
from .verify import report_to_json, run_verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3

SPECTRUM_COLUMNS = ["k", "mu_k", "N_dk", "mu_k_times_N"]


def _cmd_spectrum(args) -> int:
    sp = compute_spectrum(kernel_by_id(args.kernel), args.d)
    rows = ({"k": k, "mu_k": sp.mu[k], "N_dk": int(sp.multiplicities[k]),
             "mu_k_times_N": sp.mu[k] * sp.multiplicities[k]}
            for k in range(sp.k_max + 1))
    write_rows(rows, args.output, columns=SPECTRUM_COLUMNS)
    print(f"# kernel={args.kernel} d={args.d} k_max={sp.k_max} "
          f"trace_residual={sp.trace_residual:.3e}", file=sys.stderr)
    return EXIT_OK


def _cmd_phase(args) -> int:
    count, _ = write_rows(phase_grid(args.gamma, args.s), args.output,
                          columns=PHASE_COLUMNS)
    print(f"wrote {count} phase rows to {args.output}", file=sys.stderr)
    return EXIT_OK


def _progress(rows, config: ExperimentConfig):
    """Pass rows through; after the last replicate of each d, print d, n,
    cells done, the median runtime_ms of that d's cells and failures so far."""
    total = len(config.d_list) * config.replicates
    done = failed = 0
    times = []
    for row in rows:
        yield row
        done += 1
        failed += bool(row.get("error"))
        if "runtime_ms" in row:
            times.append(row["runtime_ms"])
        if row["replicate"] == config.replicates - 1:
            median = f"{statistics.median(times):.1f} ms" if times else "n/a"
            print(f"d={row['d']} n={row['n']}: {done}/{total} cells, "
                  f"median {median}, {failed} failed", file=sys.stderr)
            times = []


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    total, failed = write_rows(
        _progress(run_sweep(config, workers=args.workers), config), args.output)
    print(f"wrote {total} rows to {args.output} ({failed} failed)",
          file=sys.stderr)
    return EXIT_NUMERICAL if failed else EXIT_OK


def _cmd_fit(args) -> int:
    report = analyze(args.input, args.quantity, tolerance=args.tolerance)
    print(json.dumps(report, indent=2, sort_keys=True))
    verdict = "PASS" if report["passed"] else "FAIL"
    print(f"{verdict}: slope {report['slope']:+.4f} +- {report['stderr']:.4f} "
          f"vs theory {report['theory_exponent']:+.4f} "
          f"(tolerance {report['tolerance']})", file=sys.stderr)
    return EXIT_OK if report["passed"] else EXIT_NUMERICAL


def _cmd_verify(args) -> int:
    results, report = run_verify(quick=args.quick)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail}", file=sys.stderr)
    print(report_to_json(report))
    return EXIT_OK if report["all_passed"] else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kilab",
        description="Kernel interpolation on the sphere: spectra, rate "
                    "sweeps, phase diagram, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="dump per-degree eigenvalues as CSV")
    p.add_argument("--kernel", default="exp")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("phase", help="emit the classified (gamma, s) grid")
    p.add_argument("--gamma", required=True, help="start:stop:step")
    p.add_argument("--s", required=True, help="start:stop:step")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_phase)

    p = sub.add_parser("run", help="run an experiment sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("fit", help="fit a log-log slope against theory")
    p.add_argument("--input", required=True)
    p.add_argument("--quantity", required=True,
                   choices=["var_exact", "bias_sq_exact", "total"])
    p.add_argument("--tolerance", type=float, default=0.25)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("verify", help="run the built-in invariant suite")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:    # OSError: an unreadable or unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
