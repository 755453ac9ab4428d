"""Workload sizes and oracle-gate constants.

This module imports neither numpy nor fmtt, so the entry point (run.py), the
workload process (worker.py) and the tests can all read it.
"""

from __future__ import annotations

# Problem sizes.  "full" is what a benchmark run measures; "smoke" pushes tiny
# sizes through the same code, gates and tracer so the tests finish quickly.
SIZES = {
    "exact-small": {
        "full": {"n": 64, "steps": 20},
        "smoke": {"n": 16, "steps": 4},
    },
    "naive-wide": {
        "full": {"n": 512, "steps": 50},
        "smoke": {"n": 64, "steps": 10},
    },
    "refine-cli": {
        "full": {"n": 256, "steps": 200, "probes": 64, "rounds": 1, "runs": 2,
                 "log_z_tol": 0.05},
        "smoke": {"n": 64, "steps": 20, "probes": 4, "rounds": 1, "runs": 2,
                  "log_z_tol": 0.25},
    },
}

WORKLOADS = tuple(SIZES)

# Gate on a weighted estimate: |estimate - oracle| <= Z_MAX * sqrt(
# (STDERR_INFLATION * stderr)^2 + oracle_stderr^2).  The stderr is the
# delta-method one, sqrt(sum_i w_i^2 (h_i - mean)^2), which ignores the
# correlation that resampling leaves between particles.  On the seed code,
# over about 100 operations per workload, the sd of the naive-wide mean is
# 1.4 times its mean stderr, of refine-cli's 1.1 times and of exact-small's
# 0.95 times; an earlier sizing at twice the naive-wide size saw 1.8 times.
# The inflation covers the worst of these.
STDERR_INFLATION = 2.5
Z_MAX = 5.0

# Seed of every Monte Carlo oracle; kept apart from the workload seeds.
ORACLE_SEED = 20251128


def op_seed(seed: int, index: int) -> int:
    """Seed of the index-th operation of a benchmark run with --seed seed.

    The spacing keeps every SMC stream of a run apart from those of other
    runs and operations: `fmtt refine` seeds its runs at offsets
    1000 * round + run, which stay below 10_000 here.
    """
    return seed * 1_000_000 + index * 10_000
