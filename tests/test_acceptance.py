"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package on analytically
tractable Gaussian problems, checking results against closed-form or
brute-force oracles at fixed seeds.
"""

import numpy as np
import pytest

from fmtt import (BarrierProfile, DiscrepancyTrace, FlowMapEvaluator,
                  GaussianMixture, InterpolantSchedule, LinearReward,
                  LogResponsibilityReward, MixturePath,
                  QuadraticReward, RunConfig, TimeDependentReward, ZeroReward,
                  hutchinson_laplacian, incremental_discrepancy,
                  quality_ratio, refine_schedule, run, snis_tilted_expectation,
                  standard_normal, thermodynamic_length, total_discrepancy,
                  trace_from_run, weighted_expectation)
from fmtt.verify import SUITES


def std_path_1d(eta_offset=0.0):
    sched = InterpolantSchedule.linear(eta_offset=eta_offset)
    return MixturePath(standard_normal(1), standard_normal(1), sched)


def two_mode_2d():
    target = GaussianMixture.isotropic([0.5, 0.5], [[-2.0, 0.0], [2.0, 0.0]], 0.25)
    sched = InterpolantSchedule.linear(eta_offset=0.05)
    path = MixturePath(standard_normal(2), target, sched)
    return path, target


def mode2_mass(target, positions, logweights=None):
    lr = target.log_responsibilities(positions)
    h = (lr[:, 1] > np.log(0.5)).astype(float)
    if logweights is None:
        return float(np.mean(h))
    return weighted_expectation(logweights, lambda x: h, positions)


def test_criterion_1_flow_map_correctness():
    ev = FlowMapEvaluator(std_path_1d(), rel_tol=1e-10, abs_tol=1e-12)
    val = ev.flow_map(0.0, 0.5, np.array([1.0]))[0]
    assert abs(val - np.sqrt(0.5)) < 1e-8

    target = GaussianMixture([1.0], [[1.0]], [[[1.0]]])
    ev2 = FlowMapEvaluator(MixturePath(standard_normal(1), target),
                           rel_tol=1e-10, abs_tol=1e-12)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        s, t, u = np.sort(rng.uniform(0.0, 1.0, 3))
        x = rng.normal(size=(1,))
        mid = ev2.flow_map(s, t, x)
        semigroup = abs(ev2.flow_map(t, u, mid)[0] - ev2.flow_map(s, u, x)[0])
        inverse = abs(ev2.flow_map(t, s, mid)[0] - x[0])
        worst = max(worst, semigroup, inverse)
    assert worst <= 1e-6
    print(f"criterion 1: endpoint error {abs(val - np.sqrt(0.5)):.2e}, "
          f"worst residual {worst:.2e}")


def test_criterion_2_lookahead_transport_identity():
    worst = 0.0
    cases = []
    path1 = std_path_1d()
    cases.append((path1, np.linspace(-2.5, 2.5, 20).reshape(-1, 1)))
    target2 = GaussianMixture([1.0], [[0.5, -0.5]],
                              [np.array([[0.8, 0.2], [0.2, 0.6]])])
    path2 = MixturePath(standard_normal(2), target2)
    rng = np.random.default_rng(1)
    cases.append((path2, rng.normal(size=(20, 2))))
    for path, xs in cases:
        flow = FlowMapEvaluator(path, rel_tol=1e-10, abs_tol=1e-12)
        rt = TimeDependentReward(LinearReward(np.full(path.dim, 0.7)),
                                 "flowmap_exact", path, flow)
        for t in np.linspace(0.04, 0.96, 20):
            b = path.dynamics(t, xs).velocity
            lhs = (np.sum(b * rt.grad(t, xs), axis=1)
                   + rt.time_derivative(t, xs))
            rhs = rt.lookahead_value_and_grad(t, xs, False).terminal
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst <= 1e-4
    print(f"criterion 2: max transport residual {worst:.2e}")


@pytest.mark.parametrize("chi,scheme,mode", [
    ("default", "simplified", "flowmap_exact"),
    ("tilted_score", "ito", "naive"),
    ("local_tilt", "ito", "naive"),
    ("base", "ito", "naive"),
])
def test_criterion_3_unbiased_tilted_mean(chi, scheme, mode):
    path = std_path_1d(eta_offset=0.05)
    flow = (FlowMapEvaluator(path, rel_tol=1e-7, abs_tol=1e-9)
            if mode.startswith("flowmap") else None)
    rt = TimeDependentReward(LinearReward([0.5]), mode, path, flow)
    means = []
    for s in range(16):
        cfg = RunConfig(n_particles=128, n_steps=200, chi=chi,
                        weight_scheme=scheme, seed=100 + s)
        res = run(cfg, path, rt)
        means.append(weighted_expectation(res.ensemble, lambda x: x[:, 0]))
    mean = float(np.mean(means))
    stderr = float(np.std(means, ddof=1) / np.sqrt(16))
    z = abs(mean - 0.5) / stderr
    print(f"criterion 3 ({chi}): mean {mean:.4f} +/- {stderr:.4f}, z {z:.2f}")
    assert z < 3.0


def test_criterion_4_two_mode_tilted_mass():
    path, target = two_mode_2d()
    reward = LogResponsibilityReward(target, 1, 0.1)
    flow = FlowMapEvaluator(path, rel_tol=1e-7, abs_tol=1e-9)
    rt = TimeDependentReward(reward, "flowmap_exact", path, flow)
    cfg = RunConfig(n_particles=128, n_steps=200, chi="default",
                    weight_scheme="simplified", seed=7)
    res = run(cfg, path, rt)
    smc = mode2_mass(target, res.ensemble.positions, res.ensemble.logweights)
    logw = res.ensemble.logweights
    w = np.exp(logw - logw.max())
    w /= w.sum()
    h = (target.log_responsibilities(res.ensemble.positions)[:, 1]
         > np.log(0.5)).astype(float)
    smc_stderr = float(np.sqrt(np.sum(w**2 * (h - smc) ** 2)))

    oracle = snis_tilted_expectation(
        target, reward,
        lambda x: (target.log_responsibilities(x)[:, 1] > np.log(0.5)).astype(float),
        10**6, np.random.default_rng(99))
    combined = np.sqrt(smc_stderr**2 + oracle.stderr**2)
    z = abs(smc - oracle.estimate) / combined
    print(f"criterion 4: smc {smc:.4f} +/- {smc_stderr:.4f}, "
          f"oracle {oracle.estimate:.4f} +/- {oracle.stderr:.4f}, z {z:.2f}")
    assert z < 3.0


def test_criterion_5_flowmap_lookahead_has_lowest_discrepancy():
    path, target = two_mode_2d()
    reward = LogResponsibilityReward(target, 1, 0.1)
    flow = FlowMapEvaluator(path, rel_tol=1e-6, abs_tol=1e-8)
    rts = {
        "flowmap": TimeDependentReward(reward, "flowmap_exact", path, flow),
        "naive": TimeDependentReward(reward, "naive", path),
        "denoiser": TimeDependentReward(reward, "denoiser", path),
    }
    stats = {name: {"d": [], "lam": []} for name in rts}
    for s in range(16):
        for name, rt in rts.items():
            cfg = RunConfig(n_particles=64, n_steps=200, chi="default",
                            weight_scheme="laplacian", seed=8000 + s,
                            resampling={"kind": "never"})
            tr = trace_from_run(run(cfg, path, rt))
            stats[name]["d"].append(total_discrepancy(tr))
            stats[name]["lam"].append(thermodynamic_length(tr).total)
    for rival in ("naive", "denoiser"):
        for key in ("d", "lam"):
            wins = sum(f < r for f, r in zip(stats["flowmap"][key],
                                             stats[rival][key]))
            # one-sided sign test over 16 paired seeds at p < 0.05
            print(f"criterion 5: flowmap beats {rival} on {key} "
                  f"in {wins}/16 seeds")
            assert wins >= 12


def test_criterion_6_diagnostics_exactness():
    path = std_path_1d()
    rt = TimeDependentReward(ZeroReward(), "naive", path)
    cfg = RunConfig(n_particles=64, n_steps=50, weight_scheme="ito", seed=0)
    tr = trace_from_run(run(cfg, path, rt))
    assert abs(total_discrepancy(tr)) <= 1e-10
    assert thermodynamic_length(tr).total <= 1e-10

    d = incremental_discrepancy(np.array([1.0, 1.0]), np.array([1.0, 3.0]))
    assert abs(d - np.log(1.25)) <= 1e-12

    rng = np.random.default_rng(2)
    for _ in range(50):
        dk = rng.uniform(0.0, 1.0, rng.integers(2, 30))
        tr = DiscrepancyTrace(dk, np.linspace(0, 1, dk.shape[0] + 1))
        q = quality_ratio(tr)
        assert 0.0 < q <= 1.0
        lam = thermodynamic_length(tr).total
        assert lam <= np.sqrt(tr.n_steps * total_discrepancy(tr)) + 1e-12
    print(f"criterion 6: zero-reward D {total_discrepancy(trace_from_run(run(cfg, path, rt))):.1e}, "
          f"example residual {abs(d - np.log(1.25)):.1e}")


def test_criterion_7_schedule_refinement():
    target = GaussianMixture([1.0], [[3.0]], [[[0.04]]])
    sched = InterpolantSchedule.linear(eta_offset=0.05)
    path = MixturePath(standard_normal(1), target, sched)
    rt = TimeDependentReward(LinearReward([0.5]), "naive", path)

    def d_total(seed, times):
        cfg = RunConfig(n_particles=128, n_steps=200, chi="local_tilt",
                        weight_scheme="laplacian", seed=seed,
                        schedule_times=times, resampling={"kind": "never"})
        return total_discrepancy(trace_from_run(run(cfg, path, rt)))

    wins = 0
    for s in range(10):
        seed = 3000 + s
        cfg = RunConfig(n_particles=128, n_steps=200, chi="local_tilt",
                        weight_scheme="laplacian", seed=seed,
                        resampling={"kind": "never"})
        profile = thermodynamic_length(trace_from_run(run(cfg, path, rt)))
        refined = refine_schedule(profile, 200)
        assert not refined.flat
        if d_total(seed + 500, refined.times) < d_total(seed + 500, None):
            wins += 1
    print(f"criterion 7: refined schedule wins {wins}/10 seed pairs")
    assert wins >= 8

    ts = np.linspace(0.0, 1.0, 201)
    flat_profile = BarrierProfile(ts, 0.3 * ts)
    assert np.array_equal(refine_schedule(flat_profile, 200).times, ts)


def test_criterion_8_search_beats_baseline():
    path, target = two_mode_2d()
    rt = TimeDependentReward(LogResponsibilityReward(target, 1, 0.1),
                             "denoiser", path)

    def entropy(positions):
        resp = np.exp(target.log_responsibilities(positions))
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(resp > 0, resp * np.log(resp), 0.0)
        return float(np.mean(-np.sum(terms, axis=1)))

    reward_wins = entropy_wins = 0
    for s in range(16):
        seed = 5000 + s
        search_cfg = RunConfig(n_particles=64, n_steps=200, clones=2,
                               mode="searching", chi="tilted_score",
                               weight_scheme="ito", seed=seed,
                               resampling={"kind": "at_steps", "steps": [100]})
        base_cfg = RunConfig(n_particles=128, n_steps=200, chi="tilted_score",
                             weight_scheme="ito", seed=seed,
                             resampling={"kind": "never"})
        search = run(search_cfg, path, rt)
        base = run(base_cfg, path, rt)
        sr = float(np.mean(rt.value(1.0, search.ensemble.positions)))
        br = float(np.mean(rt.value(1.0, base.ensemble.positions)))
        reward_wins += sr > br
        entropy_wins += entropy(search.ensemble.positions) < entropy(
            base.ensemble.positions)
    print(f"criterion 8: reward wins {reward_wins}/16, "
          f"entropy wins {entropy_wins}/16")
    # one-sided sign test over 16 paired seeds at p < 0.05
    assert reward_wins >= 12
    assert entropy_wins >= 12


def test_criterion_9_weight_scheme_consistency():
    path = std_path_1d()
    flow = FlowMapEvaluator(path, rel_tol=1e-7, abs_tol=1e-9)
    rt = TimeDependentReward(LinearReward([0.5]), "flowmap_exact", path, flow)

    def gap(k):
        finals = []
        for scheme in ("simplified", "laplacian", "expectation"):
            cfg = RunConfig(n_particles=64, n_steps=k, chi="default",
                            weight_scheme=scheme, seed=77,
                            resampling={"kind": "never"})
            finals.append(float(np.mean(run(cfg, path, rt).ensemble.logweights)))
        return max(finals) - min(finals)

    g100, g200, g400 = gap(100), gap(200), gap(400)
    print(f"criterion 9: scheme gaps {g100:.2e} -> {g200:.2e} -> {g400:.2e}")
    assert g400 < g200 < g100
    # first-order convergence: quartering the step size shrinks the gap by
    # at least half of the ideal factor 4
    assert g400 <= 2.0 * g100 / 4.0


def test_criterion_10_hutchinson_laplacian():
    path = MixturePath(standard_normal(2), standard_normal(2))
    rt = TimeDependentReward(QuadraticReward(1.0), "naive", path)
    x = np.zeros((1, 2))
    est = hutchinson_laplacian(rt, 1.0, x, 1000, 1e-3, np.random.default_rng(0))
    assert abs(est[0] + 2.0) < 0.2

    def spread(m, seeds):
        vals = [hutchinson_laplacian(rt, 1.0, np.array([[0.4, -0.3]]), m, 1e-3,
                                     np.random.default_rng(s))[0]
                for s in seeds]
        return float(np.std(vals, ddof=1))

    s1000 = spread(1000, range(30))
    s4000 = spread(4000, range(30, 60))
    print(f"criterion 10: estimate {est[0]:.3f}, spread {s1000:.3e} -> {s4000:.3e}")
    assert s4000 < 0.7 * s1000


@pytest.mark.parametrize("check", [check for checks in SUITES.values() for check in checks],
                         ids=lambda check: check.__name__)
def test_criterion_11_full_invariant_suite(check):
    ok, detail = check()
    print(f"criterion 11: {check.__name__}: {detail}")
    assert ok, detail
