"""Minimum-norm kernel interpolation with inner-product kernels on S^d:
exact spectral bias/variance oracles and large-d convergence-rate checks.
"""

# the bare package maps no BLAS; sweepbench/child.py reports its version
# from sys.modules["scipy"]
import scipy  # noqa: F401

from .errors import KilabError, NumericalError, UsageError
from .seeding import SeedPath, SpherePoints, sample_noise, sample_sphere
from .zonal import (ZonalBasis, QuadratureRule, multiplicity, quadrature,
                    zonal_series)
from .spectrum import (KernelSpec, Spectrum, TailSums, assemble_kernel_matrix,
                       compute_spectrum, eval_phi, kernel_by_id,
                       kernel_from_coefficients, tail_sums)
from .target import Dataset, Target, build_target, eval_target, make_dataset
from .estimator import (BiasReport, ErrorReport, FittedInterpolant, McErrors,
                        ConcentrationReport, concentration_report,
                        evaluate_cell, exact_bias_by_degree, fit, mc_errors,
                        predict, variance_split)
from .rates import (PhasePoint, SlopeFit, band, bias_exponent, classify,
                    fit_slope, gamma_threshold, minimax_exponent,
                    total_exponent, var_exponent)
from .harness import (ExperimentConfig, analyze, phase_grid, read_rows,
                      run_cell, run_sweep, write_rows)
from .verify import run_verify

__version__ = "0.1.0"
