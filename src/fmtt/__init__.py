"""Reward-tilted sampling and search for flow-based transports.

The package evolves particles under stochastic-interpolant dynamics between
Gaussian mixtures, tilts them toward a terminal reward through look-ahead
reward fields and importance log-weights, and drives the whole loop with a
sequential Monte Carlo engine plus discrepancy-based schedule diagnostics.
Everything is verifiable against closed-form oracles.
"""

import os as _os

# FMTT_THREADS=n caps the BLAS pools, which are sized when numpy is first
# imported, so it must be applied before the imports below.
if _os.environ.get("FMTT_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["FMTT_THREADS"])

from .config import ExperimentConfig
from .diagnostics import (BarrierProfile, DiscrepancyTrace, RefinedSchedule,
                          incremental_discrepancy,
                          incremental_discrepancy_log, quality_ratio,
                          refine_schedule, thermodynamic_length,
                          total_discrepancy, trace_from_run, trace_from_runs,
                          var_model)
from .errors import (ConfigError, DegenerateEnsembleError,
                     DiagnosticsUndefinedError, FmttError, ScheduleDomainError,
                     SchemeCompatibilityError, ToleranceError)
from .flowmap import FlowMapEvaluator, JacobianResult, gaussian_pair_closed_form
from .mixtures import DynamicsAt, GaussianMixture, MixturePath, standard_normal
from .oracles import (SnisEstimate, finite_diff_grad, snis_tilted_expectation,
                      tilted_mixture)
from .rewards import (CustomReward, LinearReward, LogResponsibilityReward,
                      Lookahead, QuadraticReward, Reward, TimeDependentReward,
                      ZeroReward, coordinate_laplacian, hutchinson_laplacian)
from .schedule import InterpolantSchedule
from .smc import (ParticleEnsemble, RunConfig, RunResult, ess, resample, run,
                  top_n_select, weighted_expectation)
from .tilt import (StepInput, position_step, weight_step_expectation,
                   weight_step_ito, weight_step_laplacian,
                   weight_step_simplified)

__version__ = "0.1.0"
