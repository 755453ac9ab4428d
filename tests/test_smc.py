from dataclasses import dataclass, field

import numpy as np
import pytest

import fmtt.smc
from fmtt import (ConfigError, CustomReward, DegenerateEnsembleError, FlowMapEvaluator,
                  GaussianMixture, InterpolantSchedule, LinearReward,
                  LogResponsibilityReward, MixturePath, QuadraticReward,
                  ParticleEnsemble, RunConfig, RunResult, StepInput,
                  TimeDependentReward, ZeroReward, ess, position_step, resample,
                  run, standard_normal, top_n_select, weight_step_ito,
                  weight_step_laplacian, weighted_expectation)
from fmtt.schedule import CHI_CHOICES
from fmtt.smc import _ess_rows, _keyed, _step_rng
from fmtt.tilt import WEIGHT_SCHEMES


def std_path():
    sched = InterpolantSchedule.linear(eta_offset=0.05)
    return MixturePath(standard_normal(1), standard_normal(1), sched)


def uniform_ensemble(positions):
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    return ParticleEnsemble(positions, np.zeros(positions.shape[0]),
                            positions.shape[0])


def test_ess_examples():
    assert ess(np.zeros(4)) == pytest.approx(4.0)
    assert ess(np.array([0.0, -np.inf, -np.inf, -np.inf])) == pytest.approx(1.0)
    assert ess(np.array([np.log(2), np.log(2), 0.0, 0.0])) == pytest.approx(3.6)


def test_ess_degenerate():
    with pytest.raises(DegenerateEnsembleError):
        ess(np.full(3, -np.inf))


def test_nan_log_weight_is_named_not_called_degenerate():
    one_nan = np.array([0.0, -1.0, np.nan, 0.5])
    for fn in (ess, lambda a: weighted_expectation(a, lambda x: x[:, 0], np.ones((4, 1)))):
        with pytest.raises(DegenerateEnsembleError, match=r"1 of 4 .*particles \[2\]"):
            fn(one_nan)
    with pytest.raises(DegenerateEnsembleError, match=r"2 of 5 .*particles \[2, 4\]"):
        ess(np.append(one_nan, np.inf))


def test_batch_weights_name_the_particles_of_the_failing_run():
    logw = np.zeros((3, 4))
    logw[1, 2] = np.nan
    with pytest.raises(DegenerateEnsembleError, match=r"1 of 4 .*particles \[2\]"):
        _ess_rows(logw)
    logw[1] = -np.inf
    with pytest.raises(DegenerateEnsembleError, match="no finite log-weight"):
        _ess_rows(logw)


def test_negative_epsilon_rejected_before_the_first_step():
    sched = InterpolantSchedule(epsilon=lambda t: -t, eta_offset=0.05)
    path = MixturePath(standard_normal(1), standard_normal(1), sched)
    rt = TimeDependentReward(LinearReward([0.5]), "naive", path)
    with pytest.raises(ValueError, match=r"epsilon\(0\.1\) = -0\.1 < 0"):
        run(RunConfig(n_particles=8, n_steps=10, weight_scheme="ito", seed=0), path, rt)


@pytest.mark.parametrize("schedule,scheme", [
    (InterpolantSchedule.linear(), "laplacian"),  # eta undefined at t = 0
    (InterpolantSchedule.linear("zero", 0.05), "ito"),  # no diffusion where chi != 0
], ids=["eta-offset-0", "ito-epsilon-zero"])
def test_tilted_score_schedule_rejected_before_the_first_step(schedule, scheme):
    path = MixturePath(standard_normal(1), standard_normal(1), schedule)
    rt = TimeDependentReward(LinearReward([0.5]), "naive", path)
    with pytest.raises(ConfigError, match="chi tilted_score"):
        run(RunConfig(n_particles=8, n_steps=10, chi="tilted_score",
                      weight_scheme=scheme, seed=0), path, rt)


def test_ess_of_each_run_is_the_scalar_formula_bitwise():
    # The batched loop takes every run's ESS in one call; a float64 scalar's
    # ** 2 rounds otherwise than an array's square in 4 of these rows.
    logw = np.random.default_rng(0).normal(scale=2.0, size=(10_000, 64))
    want = []
    for a in logw:
        w = np.exp(a - a.max())
        want.append(float(w.sum() ** 2 / np.sum(w**2)))
    assert np.array_equal(_ess_rows(logw), want)
    assert ess(logw[0]) == want[0]


def test_ess_shift_invariant():
    a = np.array([0.3, -1.2, 0.8, 0.0])
    assert ess(a) == pytest.approx(ess(a + 123.0), abs=1e-12)


def test_weighted_expectation_examples():
    ens = uniform_ensemble([[0.0], [2.0]])
    assert weighted_expectation(ens, lambda x: x[:, 0]) == pytest.approx(1.0)
    ens2 = ParticleEnsemble([[1.0], [0.0]], [1.0, 0.0], 2)
    e = np.e
    assert weighted_expectation(ens2, lambda x: x[:, 0]) == pytest.approx(e / (e + 1))
    assert weighted_expectation(ens2, lambda x: np.ones(x.shape[0])) == pytest.approx(1.0)


def test_weighted_expectation_needs_one_position_per_log_weight():
    with pytest.raises(ValueError, match="positions"):
        weighted_expectation(np.zeros(3), lambda p: p[:, 0])
    with pytest.raises(ValueError, match="3 log-weights but 2 positions"):
        weighted_expectation(np.zeros(3), lambda p: p[:, 0], np.zeros((2, 1)))


def test_weighted_expectation_refuses_positions_beside_an_ensemble():
    ens = uniform_ensemble([[0.0], [2.0]])
    with pytest.raises(ValueError, match="own positions"):
        weighted_expectation(ens, lambda p: p[:, 0], np.full((3, 1), 5.0))


def test_weighted_expectation_shift_invariant():
    pos = np.array([[0.4], [1.1], [-0.3]])
    logw = np.array([0.2, -0.5, 1.0])
    a = weighted_expectation(logw, lambda x: x[:, 0], pos)
    b = weighted_expectation(logw + 50.0, lambda x: x[:, 0], pos)
    assert a == pytest.approx(b, abs=1e-12)


def test_resample_concentrated():
    ens = ParticleEnsemble([[1.0], [2.0], [3.0]], [0.0, -np.inf, -np.inf], 3)
    out = resample(ens, np.random.default_rng(0))
    assert np.all(out.positions == 1.0)
    assert np.array_equal(out.ancestors, [0, 0, 0])
    assert np.all(out.logweights == 0.0)


def test_systematic_uniform_keeps_everyone():
    pos = np.arange(8.0).reshape(-1, 1)
    out = resample(uniform_ensemble(pos), np.random.default_rng(1), "systematic")
    assert np.array_equal(np.sort(out.positions[:, 0]), pos[:, 0])


def test_multinomial_deterministic_per_seed():
    ens = ParticleEnsemble(np.arange(6.0).reshape(-1, 1),
                           np.array([0.0, 1.0, -1.0, 0.5, 0.0, 2.0]), 6)
    a = resample(ens, np.random.default_rng(7), "multinomial")
    b = resample(ens, np.random.default_rng(7), "multinomial")
    assert np.array_equal(a.positions, b.positions)


def test_resample_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        resample(uniform_ensemble([[0.0]]), np.random.default_rng(0), "fancy")


def test_top_n_examples():
    ens = uniform_ensemble([[10.0], [11.0], [12.0]])
    out = top_n_select(ens, np.array([3.0, 1.0, 2.0]), 2)
    assert np.array_equal(np.sort(out.positions[:, 0]), [10.0, 12.0])
    tied = top_n_select(ens, np.zeros(3), 2)
    assert np.array_equal(tied.positions[:, 0], [10.0, 11.0])
    best = top_n_select(ens, np.array([0.0, 5.0, 1.0]), 1)
    assert np.all(best.positions == 11.0)


def test_top_n_reclones_survivors():
    ens = ParticleEnsemble([[1.0], [2.0], [3.0], [4.0]], np.zeros(4), 2, clones=2)
    out = top_n_select(ens, np.array([0.0, 3.0, 1.0, 2.0]), 2)
    assert np.array_equal(out.positions[:, 0], [2.0, 2.0, 4.0, 4.0])
    assert np.array_equal(out.ancestors, [1, 1, 3, 3])
    assert np.all(out.logweights == 0.0)


def test_z_smc_examples():
    def result_with(log_z, mode="sampling"):
        return RunResult(uniform_ensemble([[0.0]]), np.array([0.0, 1.0]),
                         np.ones(1), [], [], np.array([log_z]), np.zeros(1),
                         np.zeros((1, 1)), np.zeros((1, 1)), mode)

    assert np.exp(result_with(0.0).log_z()) == pytest.approx(1.0)
    assert np.exp(result_with(np.log(2.0)).log_z()) == pytest.approx(2.0)
    assert np.exp(result_with(np.log(1.5) + np.log(2.0)).log_z()) == pytest.approx(3.0)
    assert np.isnan(np.exp(result_with(0.0, mode="searching").log_z()))


def test_log_z_is_zero_before_the_first_step_and_refuses_other_steps():
    path = std_path()
    rt = TimeDependentReward(LinearReward([0.5]), "naive", path)
    res = run(RunConfig(n_particles=8, n_steps=5, chi="local_tilt", weight_scheme="ito",
                        seed=0), path, rt)
    assert res.log_z(0) == 0.0
    assert res.log_z() == res.log_z(5) == res.log_z_history[-1] != 0.0
    search = run(RunConfig(n_particles=8, n_steps=5, mode="searching", weight_scheme="ito",
                           seed=0), path, rt)
    assert np.isnan(search.log_z(0))
    for result in (res, search):
        for k in (-1, 6, 7):
            with pytest.raises(ValueError, match="K = 5"):
                result.log_z(k)


def test_searching_run_records_no_log_z():
    path = std_path()
    rt = TimeDependentReward(LinearReward([0.5]), "naive", path)
    res = run(RunConfig(n_particles=16, n_steps=8, clones=2, mode="searching",
                        weight_scheme="ito", resampling={"kind": "every", "r": 4}, seed=7),
              path, rt)
    assert res.resample_steps == [4]
    assert np.isnan(res.log_z_history).all()
    assert np.isnan(res.log_z(0)) and np.isnan(res.log_z())


def test_reward_on_another_path_refused():
    path, other = std_path(), std_path()
    rt = TimeDependentReward(LinearReward([0.5]), "denoiser", other)
    cfg = RunConfig(n_particles=8, n_steps=4, weight_scheme="ito", seed=0)
    with pytest.raises(ConfigError, match="another path"):
        run(cfg, path, rt)
    cfg.check(other, rt)
    cfg.check(path, TimeDependentReward(LinearReward([0.5]), "naive"))


def test_zero_reward_run_is_plain_transport():
    path = std_path()
    rt = TimeDependentReward(ZeroReward(), "naive", path)
    cfg = RunConfig(n_particles=512, n_steps=50, weight_scheme="ito", seed=3)
    res = run(cfg, path, rt)
    assert np.allclose(res.ess_history, 512.0)
    assert res.resample_steps == []
    assert abs(float(res.ensemble.positions.mean())) < 4.0 / np.sqrt(512)
    assert np.exp(res.log_z()) == pytest.approx(1.0, abs=1e-10)


def test_run_deterministic_per_seed():
    path = std_path()
    rt = TimeDependentReward(LinearReward([0.5]), "naive", path)
    cfg = RunConfig(n_particles=32, n_steps=20, chi="local_tilt",
                    weight_scheme="ito", seed=11)
    a = run(cfg, path, rt)
    b = run(cfg, path, rt)
    assert np.array_equal(a.ensemble.positions, b.ensemble.positions)
    assert np.array_equal(a.log_z_history, b.log_z_history)


def test_laplacian_run_reads_no_probe_setting_and_no_generator(monkeypatch):
    # The laplacian weights take the exact trace: the probe count and kind
    # change nothing, and no step builds the weights' generator (channel 2).
    channels = set()

    def keyed(gen, seed, step, channel):
        channels.add(channel)
        return _keyed(gen, seed, step, channel)
    monkeypatch.setattr(fmtt.smc, "_keyed", keyed)
    path = std_path()
    rt = TimeDependentReward(QuadraticReward(0.5), "naive", path)
    runs = [run(RunConfig(n_particles=32, n_steps=20, chi="local_tilt",
                          weight_scheme="laplacian", seed=11, hutchinson=h), path, rt)
            for h in ({"probes": 4}, {"probes": 64, "probe": "rademacher"})]
    assert np.array_equal(runs[0].ensemble.logweights, runs[1].ensemble.logweights)
    assert np.array_equal(runs[0].log_z_history, runs[1].log_z_history)
    assert 1 in channels and 2 not in channels


def test_base_chi_positions_match_zero_reward_bitwise():
    path = std_path()
    rt = TimeDependentReward(LinearReward([0.5]), "naive", path)
    rt0 = TimeDependentReward(ZeroReward(), "naive", path)
    cfg = RunConfig(n_particles=32, n_steps=20, chi="base",
                    weight_scheme="ito", seed=4,
                    resampling={"kind": "never"})
    cfg0 = RunConfig(n_particles=32, n_steps=20, chi="default",
                     weight_scheme="ito", seed=4,
                     resampling={"kind": "never"})
    a = run(cfg, path, rt)
    b = run(cfg0, path, rt0)
    assert np.array_equal(a.ensemble.positions, b.ensemble.positions)


def test_log_z_accounting_consistent_with_events():
    from scipy.special import logsumexp
    path = std_path()
    rt = TimeDependentReward(LinearReward([0.8]), "naive", path)
    cfg = RunConfig(n_particles=64, n_steps=40, chi="tilted_score",
                    weight_scheme="ito", seed=9,
                    resampling={"kind": "at_steps", "steps": [10, 25]})
    res = run(cfg, path, rt)
    assert res.resample_steps == [10, 25]
    final_mean = float(logsumexp(res.ensemble.logweights) - np.log(64))
    assert res.log_z_history[-1] == pytest.approx(
        sum(res.resample_log_means) + final_mean, abs=1e-10)


def test_z_smc_matches_closed_form_normalizer():
    # Terminal normalizer of the reward-tilted standard normal with
    # r(x) = 0.5 x is exp(0.125).
    path = std_path()
    rt = TimeDependentReward(LinearReward([0.5]), "naive", path)
    vals = []
    for seed in range(6):
        cfg = RunConfig(n_particles=256, n_steps=200, chi="local_tilt",
                        weight_scheme="ito", seed=seed,
                        resampling={"kind": "never"})
        vals.append(np.exp(run(cfg, path, rt).log_z()))
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
    assert abs(mean - np.exp(0.125)) < 3 * stderr + 0.01


def test_searching_mode_increases_target_mode_mass():
    target = GaussianMixture.isotropic([0.5, 0.5], [[-2.0, 0.0], [2.0, 0.0]], 0.25)
    path = MixturePath(standard_normal(2), target,
                       InterpolantSchedule.linear(eta_offset=0.05))
    rt = TimeDependentReward(LogResponsibilityReward(target, 1, 0.1),
                             "denoiser", path)

    def mode2(res):
        lr = target.log_responsibilities(res.ensemble.positions)
        return float(np.mean(lr[:, 1] > np.log(0.5)))

    search = RunConfig(n_particles=32, n_steps=60, clones=2, mode="searching",
                       chi="tilted_score", weight_scheme="ito", seed=21,
                       resampling={"kind": "at_steps", "steps": [30]})
    base = RunConfig(n_particles=64, n_steps=60, chi="default",
                     weight_scheme="ito", seed=21,
                     resampling={"kind": "never"})
    assert mode2(run(search, path, rt)) > mode2(run(base, path, rt))


def test_config_validation_errors():
    path = std_path()
    rt = TimeDependentReward(LinearReward([1.0]), "naive", path)
    with pytest.raises(ConfigError):
        RunConfig(n_particles=0)
    with pytest.raises(ConfigError):
        RunConfig(mode="browsing")
    with pytest.raises(ConfigError):
        RunConfig(weight_scheme="simplified").check(path, rt)
    # With ito weights each of these is valid for a naive reward but for the
    # value it names, which is refused when the RunConfig is built.
    RunConfig(weight_scheme="ito").check(path, rt)
    for bad in ({"resampling": {"kind": "ess", "threshold": 0.0}},
                {"n_steps": 10, "resampling": {"kind": "every", "r": 3}},
                {"n_steps": 10, "resampling": {"kind": "at_steps", "steps": [11]}},
                {"n_steps": 2, "schedule_times": [0.0, 0.5, 0.9]},
                {"resampling": {"kind": "ess", "threshold": "0.5"}},
                {"resampling": {"kind": "at_steps", "steps": 3}}):
        with pytest.raises(ConfigError):
            RunConfig(weight_scheme="ito", **bad)


def test_seeds_above_2_to_the_63_keep_their_low_bits():
    draws = [_step_rng(seed, 1, 1).standard_normal(4) for seed in (2**63, 2**63 + 1)]
    assert not np.array_equal(*draws)


def test_rekeyed_streams_are_the_reference_streams():
    # One generator per run, rekeyed for each draw, gives the stream of a
    # generator built from the key, whatever it drew before.
    gen = np.random.Generator(np.random.Philox(0))
    for seed in (0, 7, 2**63 - 1, 2**63, 2**63 + 5, 2**64 - 1):
        for step in (0, 1, 2, 255, 256, 10_000):
            for channel in range(4):
                want = _step_rng(seed, step, channel)
                got = _keyed(gen, seed, step, channel)
                assert np.array_equal(got.standard_normal(7), want.standard_normal(7))
                assert np.array_equal(got.random(3), want.random(3))
                assert got.integers(2**32) == want.integers(2**32)


def test_schedule_times_are_honored():
    path = std_path()
    rt = TimeDependentReward(ZeroReward(), "naive", path)
    ts = np.concatenate([[0.0], np.sort(np.random.default_rng(2).uniform(0, 1, 9)), [1.0]])
    cfg = RunConfig(n_particles=8, n_steps=10, schedule_times=ts,
                    weight_scheme="ito", seed=0)
    res = run(cfg, path, rt)
    assert np.array_equal(res.times, ts)


@dataclass(frozen=True)
class CountingFlow(FlowMapEvaluator):
    """Records the start time s of every plain and sensitivity solve."""

    maps: list = field(default_factory=list)
    jacobians: list = field(default_factory=list)

    def flow_map(self, s, t, x):
        self.maps.append(s)
        return super().flow_map(s, t, x)

    def flow_map_jacobian(self, s, t, x):
        self.jacobians.append(s)
        return super().flow_map_jacobian(s, t, x)


class CountingReward(TimeDependentReward):
    """Counts look-ahead evaluations, those among them with grad r_t, and
    finite-difference time derivatives."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lookaheads = 0
        self.grad_lookaheads = 0
        self.time_derivatives = 0

    def lookahead_value_and_grad(self, t, x, grad=True):
        self.lookaheads += 1
        self.grad_lookaheads += grad
        return super().lookahead_value_and_grad(t, x, grad)

    def time_derivative(self, t, x, h=1e-4):
        self.time_derivatives += 1
        return super().time_derivative(t, x, h)


def two_mode_path():
    target = GaussianMixture.isotropic([0.5, 0.5], [[-2.0, 0.0], [2.0, 0.0]], 0.25)
    return target, MixturePath(standard_normal(2), target,
                               InterpolantSchedule.linear(eta_offset=0.05))


def test_lookahead_at_t0_makes_one_solve():
    target, path = two_mode_path()
    flow = CountingFlow(path, rel_tol=1e-7, abs_tol=1e-9)
    reward = LogResponsibilityReward(target, 1, 0.1)
    rt = TimeDependentReward(reward, "flowmap_exact", path, flow)
    x = np.array([[0.3, -0.2], [1.5, 0.4]])
    look = rt.lookahead_value_and_grad(0.0, x)
    assert flow.maps == [] and flow.jacobians == [0.0]
    end = FlowMapEvaluator(path, rel_tol=1e-7, abs_tol=1e-9).flow_map_jacobian(0.0, 1.0, x)
    assert np.array_equal(look.terminal, reward.value(end.endpoint))
    assert np.all(look.value == 0.0) and np.all(look.grad == 0.0)


def test_flowmap_run_solve_budget():
    # One look-ahead solve per state: a sensitivity solve wherever grad r_t
    # is read, and no plain map solve before t = 1.
    target, path = two_mode_path()
    flow = CountingFlow(path, rel_tol=1e-7, abs_tol=1e-9)
    rt = TimeDependentReward(LogResponsibilityReward(target, 1, 0.1), "flowmap_exact",
                             path, flow)
    cfg = RunConfig(n_particles=16, n_steps=6, weight_scheme="simplified", seed=5,
                    resampling={"kind": "every", "r": 2})
    res = run(cfg, path, rt)
    assert res.resample_steps == [2, 4]
    assert [s for s in flow.maps if s < 1.0] == []
    assert len(flow.jacobians) <= cfg.n_steps + 1


def _reference_ito_run(cfg, path, rt):
    """The run loop rebuilt from the public step functions, with every
    look-ahead record and the dynamics recomputed at the current states."""
    ts = cfg.times()
    n = cfg.n_particles
    x = path.base.sample(n, _step_rng(cfg.seed, 0, 0))
    lw = np.zeros(n)
    for k in range(1, cfg.n_steps + 1):
        noise = _step_rng(cfg.seed, k, 1).standard_normal(x.shape)
        t = ts[k - 1]
        inp = StepInput(x, lw, t, ts[k], noise, rt.lookahead_value_and_grad(t, x),
                        path.dynamics(t, x))
        x_next = position_step(inp, cfg.chi, path)
        lw = weight_step_ito(inp, cfg.chi, rt, path, rt.lookahead_value_and_grad(ts[k], x_next))
        x = x_next
        if (k < cfg.n_steps and cfg.resampling["kind"] == "ess"
                and ess(lw) < cfg.resampling["threshold"] * n):
            ens = resample(ParticleEnsemble(x, lw, n), _step_rng(cfg.seed, k, 3))
            x, lw = ens.positions, ens.logweights
    return x, lw


@pytest.mark.parametrize("mode,resampling", [
    ("naive", {"kind": "ess", "threshold": 0.85}), ("naive", {"kind": "never"}),
    ("denoiser", {"kind": "ess", "threshold": 0.85}), ("denoiser", {"kind": "never"}),
], ids=["resampling0", "resampling1", "denoiser-ess", "denoiser-never"])
def test_carried_lookahead_matches_recomputed_bitwise(mode, resampling):
    target, path = two_mode_path()
    rt = TimeDependentReward(LogResponsibilityReward(target, 1, 0.5), mode, path)
    cfg = RunConfig(n_particles=32, n_steps=15, chi="tilted_score", weight_scheme="ito",
                    seed=13, resampling=resampling)
    res = run(cfg, path, rt)
    assert (res.resample_steps != []) == (resampling["kind"] == "ess")
    x, lw = _reference_ito_run(cfg, path, rt)
    assert np.array_equal(res.ensemble.positions, x)
    assert np.array_equal(res.ensemble.logweights, lw)


def test_search_scores_are_the_lookahead_at_the_selected_states(monkeypatch):
    target, path = two_mode_path()
    rt = TimeDependentReward(LogResponsibilityReward(target, 1, 0.1), "denoiser", path)
    seen = []

    def recording_top_n(ensemble, scores, n):
        seen.append((ensemble.positions.copy(), np.array(scores)))
        return top_n_select(ensemble, scores, n)

    monkeypatch.setattr(fmtt.smc, "top_n_select", recording_top_n)
    cfg = RunConfig(n_particles=8, n_steps=12, clones=3, mode="searching",
                    chi="tilted_score", weight_scheme="ito", seed=2,
                    resampling={"kind": "at_steps", "steps": [4, 9]})
    res = run(cfg, path, rt)
    assert res.resample_steps == [4, 9] and len(seen) == 2
    for step, (positions, scores) in zip(res.resample_steps, seen):
        assert np.array_equal(scores, rt.value(res.times[step], positions))


def test_naive_ito_run_reads_dr_dt_from_the_record():
    # In naive mode d/dt r_t = r(x) is the record's terminal reward: one
    # look-ahead per state (K + 1 in all) and no finite difference in t.
    target, path = two_mode_path()
    rt = CountingReward(LogResponsibilityReward(target, 1, 0.5), "naive", path)
    cfg = RunConfig(n_particles=16, n_steps=8, chi="tilted_score", weight_scheme="ito",
                    seed=4)
    res = run(cfg, path, rt)
    assert res.resample_steps != []
    assert rt.time_derivatives == 0
    assert rt.lookaheads == cfg.n_steps + 1


@pytest.mark.parametrize("step", ["position", "laplacian", "ito", "ito-next"])
def test_record_without_grad_is_refused_not_recomputed(step):
    # Each of these reads grad r_t of a record; a record made without it is
    # an error of the caller, and no look-ahead is evaluated in its place.
    target, path = two_mode_path()
    rt = CountingReward(LogResponsibilityReward(target, 1, 0.5), "naive", path)
    x = np.random.default_rng(3).normal(size=(4, 2))
    look = rt.lookahead_value_and_grad(0.3, x, step == "ito-next")
    look_next = rt.lookahead_value_and_grad(0.31, x, step != "ito-next")
    inp = StepInput(x, np.zeros(4), 0.3, 0.31, np.zeros_like(x), look, path.dynamics(0.3, x))
    rt.lookaheads = 0
    with pytest.raises(ValueError, match="grad"):
        if step == "position":
            position_step(inp, "local_tilt", path)
        elif step == "laplacian":
            weight_step_laplacian(inp, "default", rt, path)
        else:
            chi = "tilted_score" if step == "ito-next" else "default"
            weight_step_ito(inp, chi, rt, path, look_next)
    assert rt.lookaheads == 0


def step_reward(x):
    """log 4 * [x_0 > 0]: on the two-mode target the tilted mass of x_0 > 0
    is 0.8 and log Z = log 2.5, up to the modes' tails across 0 (Phi(-4))."""
    return np.log(4.0) * (x[:, 0] > 0)


# Every (epsilon, weight scheme, chi) that a run accepts: simplified weights
# take chi default only, and ito weights with chi tilted_score need
# epsilon > 0 where chi != 0, which epsilon zero is not.
SETTINGS = [(epsilon, scheme, chi) for epsilon in ("one_minus_t", "zero")
            for scheme in WEIGHT_SCHEMES
            for chi in (("default",) if scheme == "simplified" else CHI_CHOICES)
            if (epsilon, scheme, chi) != ("zero", "ito", "tilted_score")]
# The settings that read no grad r_t: simplified or expectation weights
# with chi + epsilon = 0 at every knot.
VALUE_ONLY_SETTINGS = {("one_minus_t", "expectation", "base"), ("zero", "simplified", "default"),
                       ("zero", "expectation", "default"), ("zero", "expectation", "local_tilt"),
                       ("zero", "expectation", "base")}


def setting(epsilon, scheme, chi, base_reward, cls=TimeDependentReward, **run):
    """The run config, path and look-ahead of one setting on the two-mode
    target: a flow-map look-ahead for simplified weights, naive otherwise."""
    target = GaussianMixture.isotropic([0.5, 0.5], [[-2.0, 0.0], [2.0, 0.0]], 0.25)
    path = MixturePath(standard_normal(2), target,
                       InterpolantSchedule.linear(epsilon, eta_offset=0.05))
    mode = "flowmap_exact" if scheme == "simplified" else "naive"
    cfg = RunConfig(chi=chi, weight_scheme=scheme, **{
        "n_particles": 8, "n_steps": 6, "expectation_samples": 4,
        "hutchinson": {"probes": 4}, "seed": 3, **run})
    return cfg, path, cls(base_reward, mode, path)


@pytest.mark.parametrize("epsilon,scheme,chi", SETTINGS, ids=map("-".join, SETTINGS))
def test_value_only_reward_runs_exactly_where_no_grad_is_read(epsilon, scheme, chi):
    cfg, path, rt = setting(epsilon, scheme, chi, CustomReward(step_reward), CountingReward)
    if (epsilon, scheme, chi) in VALUE_ONLY_SETTINGS:
        cfg.check(path, rt)
        assert np.isfinite(run(cfg, path, rt).log_z())
        assert rt.lookaheads > 0 and rt.grad_lookaheads == 0
        return
    first = next(t for t in cfg.times() if cfg.reads_grad(path.schedule, t))
    for call in (cfg.check, lambda path, rt: run(cfg, path, rt)):
        with pytest.raises(ConfigError) as info:
            call(path, rt)
        message = str(info.value)
        for part in (f"run.weight_scheme {scheme}", f"run.chi {chi}", f"t={first:.6g}",
                     "simplified or expectation weights",
                     "chi + epsilon = 0 at every knot"):
            assert part in message
    assert rt.lookaheads == 0


class RecordingReward(TimeDependentReward):
    """Records, for each look-ahead record that `run` builds, its t and
    whether it carries grad r_t; the evaluations that the weight steps make
    through `value`, `grad` and `time_derivative` are not records."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.records = []
        self._inner = False

    def lookahead_value_and_grad(self, t, x, grad=True):
        look = super().lookahead_value_and_grad(t, x, grad)
        if not self._inner:
            self.records.append((t, look.grad is not None))
        return look

    def _unrecorded(self, method, t, x):
        self._inner = True
        try:
            return method(t, x)
        finally:
            self._inner = False

    def value(self, t, x):
        return self._unrecorded(super().value, t, x)

    def grad(self, t, x):
        return self._unrecorded(super().grad, t, x)


@pytest.mark.parametrize("epsilon,scheme,chi", SETTINGS, ids=map("-".join, SETTINGS))
def test_records_carry_grad_exactly_where_the_run_reads_it(epsilon, scheme, chi):
    reward = CustomReward(step_reward, lambda x: np.zeros_like(x))
    cfg, path, rt = setting(epsilon, scheme, chi, reward, RecordingReward,
                            resampling={"kind": "every", "r": 2})
    run(cfg, path, rt)
    assert rt.records == [(t, cfg.reads_grad(path.schedule, t)) for t in cfg.times()]


@pytest.mark.parametrize("epsilon,scheme,chi", [("zero", "simplified", "default"),
                                                ("one_minus_t", "expectation", "base")],
                         ids=["zero-simplified", "one_minus_t-expectation-base"])
def test_value_only_step_reward_matches_its_oracle(epsilon, scheme, chi):
    # n = 128, K = 50, seeds 0-7: log Z against log 2.5 and the tilted mass
    # of x_0 > 0 against 0.8, as z-scores over the seeds.
    log_z, mass = [], []
    for seed in range(8):
        cfg, path, rt = setting(epsilon, scheme, chi, CustomReward(step_reward),
                                n_particles=128, n_steps=50, expectation_samples=16,
                                seed=seed)
        res = run(cfg, path, rt)
        log_z.append(res.log_z())
        mass.append(weighted_expectation(res.ensemble, lambda x: (x[:, 0] > 0) * 1.0))
    for values, oracle in ((log_z, np.log(2.5)), (mass, 0.8)):
        z = (np.mean(values) - oracle) / (np.std(values, ddof=1) / np.sqrt(len(values)))
        assert abs(z) <= 3, (values, oracle)


def test_misshapen_custom_reward_is_refused_at_the_first_lookahead():
    path = std_path()
    rt = TimeDependentReward(CustomReward(lambda x: x, lambda x: x), "naive", path)
    with pytest.raises(ValueError, match=r"CustomReward\.fn returned shape \(4, 1\)"):
        run(RunConfig(n_particles=4, n_steps=4, weight_scheme="ito"), path, rt)
