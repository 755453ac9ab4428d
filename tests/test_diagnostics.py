import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

import fmtt.smc
from fmtt import (BarrierProfile, DiagnosticsUndefinedError, DiscrepancyTrace,
                  InterpolantSchedule, LinearReward, MixturePath, RunConfig,
                  TimeDependentReward, ZeroReward, incremental_discrepancy,
                  incremental_discrepancy_log, quality_ratio, refine_schedule,
                  run, standard_normal, thermodynamic_length,
                  total_discrepancy, trace_from_run, trace_from_runs,
                  var_model)
from fmtt.diagnostics import _log_moments


def make_trace(d_hat):
    d_hat = np.asarray(d_hat, dtype=float)
    return DiscrepancyTrace(d_hat, np.linspace(0, 1, d_hat.shape[0] + 1))


def test_constant_g_gives_zero():
    w = np.array([0.3, 0.5, 0.2])
    assert incremental_discrepancy(w, np.full(3, 2.7)) == pytest.approx(0.0, abs=1e-12)


def test_two_particle_example():
    d = incremental_discrepancy(np.array([1.0, 1.0]), np.array([1.0, 3.0]))
    assert d == pytest.approx(np.log(1.25), abs=1e-12)
    # cross-check: Var(G) = 0.25 for the normalized increment
    assert d == pytest.approx(np.log(1.0 + 0.25), abs=1e-12)


def test_paper_literal_sign_flips_g0_term():
    w = np.array([1.0, 1.0])
    g = np.array([1.0, 3.0])
    default = incremental_discrepancy(w, g)
    literal = incremental_discrepancy(w, g, paper_literal=True)
    assert literal == pytest.approx(default - 2.0 * np.log(2.0), abs=1e-12)


def test_lognormal_consistency():
    sigma2 = 0.3
    rng = np.random.default_rng(0)
    g = np.exp(rng.normal(0.0, np.sqrt(sigma2), 200000))
    d = incremental_discrepancy(np.ones(g.shape[0]), g)
    assert d == pytest.approx(sigma2, abs=0.02)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        incremental_discrepancy(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        incremental_discrepancy_log(np.zeros(1), np.zeros(1))


def test_total_discrepancy_examples():
    assert total_discrepancy(make_trace([0.0, 0.0])) == 0.0
    assert total_discrepancy(make_trace([0.04, 0.09])) == pytest.approx(0.13)


def test_thermodynamic_length_examples():
    prof = thermodynamic_length(make_trace([0.04, 0.09]))
    assert np.allclose(prof.lambda_cum, [0.0, 0.2, 0.5])
    assert prof.total == pytest.approx(0.5)
    assert thermodynamic_length(make_trace([0.0, 0.0])).total == 0.0


def test_length_clamps_negative_estimates():
    prof = thermodynamic_length(make_trace([-0.01, 0.04]))
    assert prof.total == pytest.approx(0.2)


def test_cauchy_schwarz_bound():
    rng = np.random.default_rng(3)
    d = rng.uniform(0, 0.5, 20)
    tr = make_trace(d)
    prof = thermodynamic_length(tr)
    assert prof.total <= np.sqrt(tr.n_steps * total_discrepancy(tr)) + 1e-12
    assert 0.0 < quality_ratio(tr) <= 1.0


def test_quality_ratio_examples():
    assert quality_ratio(make_trace([0.1, 0.1, 0.1])) == pytest.approx(1.0)
    assert quality_ratio(make_trace([0.04, 0.09])) == pytest.approx(0.25 / 0.26)
    assert quality_ratio(make_trace([0.25, 0.0])) == pytest.approx(0.5)
    with pytest.raises(DiagnosticsUndefinedError):
        quality_ratio(make_trace([0.0, 0.0]))


def test_refine_schedule_inversion_example():
    prof = BarrierProfile(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.3, 0.4]))
    out = refine_schedule(prof, 2)
    assert not out.flat
    assert out.times[1] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert out.times[0] == 0.0 and out.times[-1] == 1.0


def test_refine_constant_profile_unchanged():
    ts = np.linspace(0.0, 1.0, 11)
    prof = BarrierProfile(ts, 0.7 * ts)
    out = refine_schedule(prof, 10)
    assert np.array_equal(out.times, ts)
    assert not out.flat


def test_refine_flat_profile_flagged():
    ts = np.linspace(0.0, 1.0, 5)
    out = refine_schedule(BarrierProfile(ts, np.zeros(5)), 4)
    assert out.flat
    assert np.array_equal(out.times, ts)


def test_refine_output_strictly_increasing():
    # a profile with a long flat segment forces the nudging path
    ts = np.array([0.0, 0.2, 0.6, 0.8, 1.0])
    lam = np.array([0.0, 0.5, 0.5, 0.5, 1.0])
    out = refine_schedule(BarrierProfile(ts, lam), 8)
    assert np.all(np.diff(out.times) > 0)
    assert out.times[0] == 0.0 and out.times[-1] == 1.0


def test_var_model_literal_example():
    assert var_model(0.2, 2.0, 10) == pytest.approx(
        0.2 * np.expm1(0.1) - 1.0, abs=1e-12)
    assert var_model(50.0, 2.0, 10) > var_model(5.0, 2.0, 10) > var_model(0.5, 2.0, 10)
    with pytest.raises(ValueError):
        var_model(0.0, 2.0, 10)
    with pytest.raises(ValueError):
        var_model(0.2, 0.5, 10)


def _linear_run(seed, n=64, k=40):
    sched = InterpolantSchedule.linear(eta_offset=0.05)
    path = MixturePath(standard_normal(1), standard_normal(1), sched)
    rt = TimeDependentReward(LinearReward([0.5]), "naive", path)
    cfg = RunConfig(n_particles=n, n_steps=k, chi="local_tilt",
                    weight_scheme="ito", seed=seed,
                    resampling={"kind": "never"})
    return run(cfg, path, rt)


def test_zero_reward_run_has_zero_discrepancy():
    path = MixturePath(standard_normal(1), standard_normal(1))
    rt = TimeDependentReward(ZeroReward(), "naive", path)
    cfg = RunConfig(n_particles=32, n_steps=20, weight_scheme="ito", seed=0)
    tr = trace_from_run(run(cfg, path, rt))
    assert total_discrepancy(tr) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(DiagnosticsUndefinedError):
        quality_ratio(tr)


def test_trace_from_run_shape_and_finite():
    tr = trace_from_run(_linear_run(0))
    assert tr.n_steps == 40
    assert np.all(np.isfinite(tr.d_hat))
    assert total_discrepancy(tr) > 0


def test_multi_run_agrees_with_single_run_average():
    runs = [_linear_run(s) for s in range(8)]
    multi = trace_from_runs(runs).d_hat
    singles = np.array([trace_from_run(r).d_hat for r in runs])
    mean_single = singles.mean(axis=0)
    stderr = singles.std(axis=0, ddof=1) / np.sqrt(singles.shape[0])
    assert np.all(np.abs(multi - mean_single) < 4 * stderr + 5e-3)


def test_trace_from_runs_single_falls_back():
    r = _linear_run(1)
    assert np.array_equal(trace_from_runs([r]).d_hat, trace_from_run(r).d_hat)
    with pytest.raises(ValueError):
        trace_from_runs([])


@pytest.mark.parametrize("paper_literal", [False, True])
def test_copies_of_one_run_give_its_trace(paper_literal):
    path = MixturePath(standard_normal(1), standard_normal(1))
    rt = TimeDependentReward(LinearReward([1.0]), "naive", path)
    r = run(RunConfig(n_particles=64, n_steps=10, chi="local_tilt", weight_scheme="ito",
                      resampling={"kind": "never"}, seed=1), path, rt)
    single = trace_from_run(r, paper_literal).d_hat
    assert single[0] == pytest.approx(-8.309 if paper_literal else 0.00830, abs=1e-3)
    for copies in (2, 3):
        multi = trace_from_runs([r] * copies, paper_literal).d_hat
        assert np.allclose(multi, single, rtol=0, atol=1e-12)


def test_trace_validation():
    with pytest.raises(ValueError):
        DiscrepancyTrace(np.zeros(3), np.linspace(0, 1, 3))
    with pytest.raises(ValueError):
        BarrierProfile(np.array([0.0, 1.0]), np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        BarrierProfile(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.4, 0.3]))


def _recorded_linear_runs(monkeypatch, seeds):
    """Runs with resampling, plus each step's log-weights before the step
    and log incremental weights, as (K, N) arrays per run."""
    steps = []
    weight_step_ito = fmtt.smc.weight_step_ito

    def recording_ito(inp, *args):
        out = weight_step_ito(inp, *args)
        steps.append((inp.logweight.copy(), out - inp.logweight))
        return out

    monkeypatch.setattr(fmtt.smc, "weight_step_ito", recording_ito)
    sched = InterpolantSchedule.linear(eta_offset=0.05)
    path = MixturePath(standard_normal(1), standard_normal(1), sched)
    rt = TimeDependentReward(LinearReward([0.8]), "naive", path)
    runs, arrays = [], []
    for seed in seeds:
        steps.clear()
        cfg = RunConfig(n_particles=48, n_steps=25, chi="tilted_score",
                        weight_scheme="ito", seed=seed,
                        resampling={"kind": "at_steps", "steps": [8, 16]})
        runs.append(run(cfg, path, rt))
        arrays.append(tuple(np.array(a) for a in zip(*steps)))
    return runs, arrays


@pytest.mark.parametrize("paper_literal", [False, True])
def test_streamed_moments_match_the_array_formula(monkeypatch, paper_literal):
    runs, arrays = _recorded_linear_runs(monkeypatch, [3, 4, 5])
    sign = -1.0 if paper_literal else 1.0

    def moments(lw, lg):
        return [logsumexp(lw + i * lg) for i in range(3)]

    lw, lg = arrays[0]
    single = [g[2] - 2.0 * g[1] + sign * g[0] for g in map(moments, lw, lg)]
    assert np.allclose(trace_from_run(runs[0], paper_literal).d_hat, single,
                       rtol=0, atol=1e-12)
    multi = []
    for k in range(runs[0].log_moments.shape[0]):
        per_run, z, log_w0 = [], [], []
        for res, (lw, lg) in zip(runs, arrays):
            log_z = 0.0 if k == 0 else res.log_z_history[k - 1]
            per_run.append(log_z + np.array(moments(lw[k], lg[k])) - logsumexp(lw[k]))
            z.append(np.exp(log_z))
            log_w0.append(logsumexp(lw[k]))
        g = logsumexp(np.array(per_run), axis=0)
        # The literal form subtracts 2 log sum_n w_n, averaged over the runs
        # with weights Z_r, from the plain one.
        literal = 2.0 * np.dot(z, log_w0) / np.sum(z) if paper_literal else 0.0
        multi.append(g[2] - 2.0 * g[1] + g[0] - literal)
    assert np.allclose(trace_from_runs(runs, paper_literal).d_hat, multi,
                       rtol=0, atol=1e-12)


def test_trace_from_run_rejects_one_particle_and_nonfinite_log_g():
    one = _linear_run(0, n=1, k=3)
    with pytest.raises(ValueError, match="at least 2 particles"):
        trace_from_run(one)
    res = _linear_run(0, n=4, k=3)
    res.log_g_finite[1] = False
    with pytest.raises(ValueError, match="positive and finite"):
        trace_from_run(res)
    # A multi-run trace checks every run, whichever its place.
    good = _linear_run(1, n=4, k=3)
    for runs in ([one, one], [good, one], [one, good]):
        with pytest.raises(ValueError, match="at least 2 particles"):
            trace_from_runs(runs)
    for runs in ([res, res], [good, res], [res, good]):
        with pytest.raises(ValueError, match="positive and finite"):
            trace_from_runs(runs)


def test_zeroth_log_moment_is_log_total_weight_at_zero_g():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = _log_moments(np.zeros(3), np.array([0.0, -np.inf, 1.0]))
    assert m[0] == pytest.approx(np.log(3.0), abs=1e-15)
    assert np.allclose(m[1:], [np.log(1.0 + np.e), np.log(1.0 + np.e**2)], rtol=0, atol=1e-15)
