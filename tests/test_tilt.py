from dataclasses import replace

import numpy as np
import pytest

from fmtt import rewards
from fmtt import (FlowMapEvaluator, GaussianMixture, InterpolantSchedule,
                  LinearReward, LogResponsibilityReward,
                  MixturePath, QuadraticReward, SchemeCompatibilityError, StepInput,
                  TimeDependentReward, ZeroReward, coordinate_laplacian, position_step,
                  standard_normal, weight_step_expectation, weight_step_ito,
                  weight_step_laplacian, weight_step_simplified)
from fmtt.mixtures import _logsumexp
from fmtt.rewards import STACK_ELEMENTS


def std_path(epsilon="one_minus_t", eta_offset=0.0):
    sched = InterpolantSchedule.linear(epsilon=epsilon, eta_offset=eta_offset)
    return MixturePath(standard_normal(1), standard_normal(1), sched)


def shifted_path():
    target = GaussianMixture([1.0], [[1.0]], [[[1.0]]])
    return MixturePath(standard_normal(1), target)


def step_input(x, logweight, t, t_next, noise, rt, path, grad=True):
    """A StepInput with the look-ahead record (grad r_t when ``grad``) and
    the path dynamics at (t, x)."""
    return StepInput(x, logweight, t, t_next, noise,
                     rt.lookahead_value_and_grad(t, x, grad), path.dynamics(t, x))


def test_chi_choices():
    sched = InterpolantSchedule.linear(eta_offset=0.05)
    t = 0.25
    assert sched.chi("default", t) == 0.0
    assert sched.chi("tilted_score", t) == pytest.approx(2.625)
    assert sched.chi("local_tilt", t) == pytest.approx(0.75)
    assert sched.chi("base", t) == pytest.approx(-0.75)
    with pytest.raises(ValueError):
        sched.chi("sideways", t)


def test_step_input_validation():
    path = std_path()
    rt = TimeDependentReward(LinearReward([0.5]), "naive", path)
    with pytest.raises(ValueError):
        step_input(np.zeros((2, 1)), np.zeros(2), 0.5, 0.5, np.zeros((2, 1)), rt, path)
    with pytest.raises(ValueError):
        step_input(np.zeros((2, 1)), np.zeros(2), 0.1, 0.2, np.zeros((2, 2)), rt, path)
    with pytest.raises(ValueError):
        step_input(np.zeros((2, 1)), np.zeros(3), 0.1, 0.2, np.zeros((2, 1)), rt, path)
    # A record or dynamics of another batch must not broadcast over this one.
    x = np.linspace(-1.0, 1.0, 4).reshape(-1, 1)
    inp = step_input(x, np.zeros(4), 0.3, 0.31, np.zeros((4, 1)), rt, path)
    look, dyn = rt.lookahead_value_and_grad(0.3, x[:1]), path.dynamics(0.3, x[:1])
    for bad in ({"dynamics": dyn},
                {"dynamics": replace(inp.dynamics, score=dyn.score)},
                {"lookahead": look},
                {"lookahead": replace(inp.lookahead, grad=look.grad)},
                {"lookahead": replace(inp.lookahead, terminal=look.terminal)}):
        with pytest.raises(ValueError):
            replace(inp, **bad)


def test_position_step_drift_only_example():
    path = std_path(epsilon="zero")
    rt = TimeDependentReward(ZeroReward(), "naive", path)
    inp = step_input(np.array([[1.0]]), np.zeros(1), 0.0, 0.1, np.zeros((1, 1)), rt, path)
    out = position_step(inp, "default", path)
    assert out[0, 0] == pytest.approx(0.9, abs=1e-14)


def test_zero_reward_chi_independent():
    path = std_path(eta_offset=0.05)
    rt = TimeDependentReward(ZeroReward(), "naive", path)
    rng = np.random.default_rng(1)
    inp = step_input(rng.normal(size=(8, 1)), np.zeros(8), 0.3, 0.31,
                     rng.normal(size=(8, 1)), rt, path)
    outs = [position_step(inp, c, path)
            for c in ("default", "tilted_score", "local_tilt", "base")]
    for o in outs[1:]:
        assert np.array_equal(outs[0], o)


def test_base_chi_matches_reward_free_bitwise():
    path = std_path()
    rt = TimeDependentReward(LinearReward([0.9]), "naive", path)
    rt0 = TimeDependentReward(ZeroReward(), "naive", path)
    rng = np.random.default_rng(2)
    x, noise = rng.normal(size=(16, 1)), rng.normal(size=(16, 1))
    a = position_step(step_input(x, np.zeros(16), 0.4, 0.41, noise, rt, path), "base", path)
    b = position_step(step_input(x, np.zeros(16), 0.4, 0.41, noise, rt0, path), "default",
                      path)
    assert np.array_equal(a, b)


def test_simplified_requires_flowmap_mode():
    path = std_path()
    rt = TimeDependentReward(LinearReward([1.0]), "naive", path)
    inp = step_input(np.zeros((1, 1)), np.zeros(1), 0.0, 0.1, np.zeros((1, 1)), rt, path,
                     grad=False)
    with pytest.raises(SchemeCompatibilityError):
        weight_step_simplified(inp, rt)


def test_simplified_examples():
    path = shifted_path()
    rt = TimeDependentReward(LinearReward([0.5]), "flowmap_exact", path,
                             FlowMapEvaluator(path, rel_tol=1e-10, abs_tol=1e-12))
    x, noise = np.array([[0.0]]), np.zeros((1, 1))
    inp = step_input(x, np.array([2.0]), 0.0, 0.01, noise, rt, path, grad=False)
    out = weight_step_simplified(inp, rt)
    assert out[0] == pytest.approx(2.005, abs=1e-9)
    zr = TimeDependentReward(ZeroReward(), "flowmap_exact", path)
    inp = step_input(x, np.array([2.0]), 0.0, 0.01, noise, zr, path, grad=False)
    assert weight_step_simplified(inp, zr)[0] == 2.0


def test_laplacian_flowmap_example():
    path = std_path()
    rt = TimeDependentReward(LinearReward([1.0]), "flowmap_exact", path,
                             FlowMapEvaluator(path, rel_tol=1e-10, abs_tol=1e-12))
    inp = step_input(np.array([[2.0]]), np.zeros(1), 0.25, 0.26, np.zeros((1, 1)), rt, path)
    out = weight_step_laplacian(inp, "default", rt, path)
    lookahead = 2.0 * np.sqrt(1.0 / 0.625)
    assert out[0] == pytest.approx(0.01 * lookahead, abs=1e-8)


def test_laplacian_zero_reward_noop():
    path = std_path()
    rt = TimeDependentReward(ZeroReward(), "naive", path)
    inp = step_input(np.array([[1.0]]), np.array([0.7]), 0.3, 0.31, np.zeros((1, 1)), rt, path)
    for chi in ("default", "local_tilt"):
        out = weight_step_laplacian(inp, chi, rt, path)
        assert out[0] == pytest.approx(0.7, abs=1e-12)


def test_laplacian_bracket_matches_symbolic_quadratic():
    # chi = eps_t, naive mode, quadratic reward: every bracket term is
    # analytic, so the update can be checked against a direct evaluation.
    path = std_path()
    gamma, t, dt, xv = 0.8, 0.5, 0.01, 1.3
    rt = TimeDependentReward(QuadraticReward(gamma), "naive", path)
    inp = step_input(np.array([[xv]]), np.zeros(1), t, t + dt, np.zeros((1, 1)), rt, path)
    out = weight_step_laplacian(inp, "local_tilt", rt, path)
    d = path.dynamics(t, np.array([[xv]]))
    grad = -gamma * t * xv
    bracket = (float(d.velocity[0, 0]) * grad - 0.5 * gamma * xv * xv
               + (1 - t) * (grad * grad - gamma * t + grad * float(d.score[0, 0])))
    assert out[0] == pytest.approx(dt * bracket, abs=2e-4)


@pytest.mark.parametrize("mode", ["naive", "denoiser", "flowmap_ksteps", "flowmap_exact"])
def test_laplacian_transport_term_is_b_dot_grad_plus_time_derivative(mode):
    # At chi = 0 the laplacian increment is the transport term D alone, which
    # must equal b . grad r_t + d/dt r_t in every mode; only the exact flow
    # map may read it as r(X_{t,1}), so the k-step map must not.
    target = GaussianMixture.isotropic([0.5, 0.5], [[-2.0, 0.0], [2.0, 0.0]], 0.25)
    path = MixturePath(standard_normal(2), target, InterpolantSchedule.linear(eta_offset=0.05))
    flow = FlowMapEvaluator(path, rel_tol=1e-10, abs_tol=1e-12)
    rt = TimeDependentReward(LogResponsibilityReward(target, 1, 0.1), mode, path, flow)
    x = np.random.default_rng(4).normal(size=(32, 2))
    dt = 0.01
    for t in (0.2, 0.5):
        inp = step_input(x, np.zeros(32), t, t + dt, np.zeros_like(x), rt, path)
        incr = weight_step_laplacian(inp, "default", rt, path) / dt
        b = path.dynamics(t, x).velocity
        expected = np.sum(b * rt.grad(t, x), axis=1) + rt.time_derivative(t, x)
        assert np.max(np.abs(incr - expected)) < 1e-5, (mode, t)


def wide_laplacian_step(n=64, d=8):
    """A step input, look-ahead and path of a naive log-responsibility reward
    on a 16-component target in d dimensions."""
    rng = np.random.default_rng(d)
    target = GaussianMixture.isotropic(np.full(16, 1.0 / 16), 2.0 * rng.normal(size=(16, d)), 0.5)
    path = MixturePath(standard_normal(d), target, InterpolantSchedule.linear(eta_offset=0.05))
    rt = TimeDependentReward(LogResponsibilityReward(target, 0, 2.0), "naive", path)
    x = rng.normal(scale=1.5, size=(n, d))
    return step_input(x, rng.normal(size=n), 0.4, 0.41, np.zeros_like(x), rt, path), rt, path


def reference_laplacian_step(inp, c, lap):
    """The naive-mode laplacian weight step written out, with the Laplacian lap."""
    grad, dyn = inp.lookahead.grad, inp.dynamics
    incr = np.einsum("ni,ni->n", dyn.velocity, grad) + inp.lookahead.terminal
    incr = incr + c * (np.einsum("ni,ni->n", grad, grad) + lap
                       + np.einsum("ni,ni->n", grad, dyn.score))
    return inp.logweight + inp.dt * incr


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
def test_laplacian_step_takes_the_exact_trace(eps):
    inp, rt, path = wide_laplacian_step()
    out = weight_step_laplacian(inp, "local_tilt", rt, path, eps)
    lap = coordinate_laplacian(rt, inp.t, inp.x, eps)
    assert np.array_equal(out, reference_laplacian_step(inp, path.schedule.chi("local_tilt", 0.4),
                                                        lap))


def test_ito_noise_free_reduces_to_drift():
    path = std_path()
    rt = TimeDependentReward(LinearReward([1.0]), "flowmap_exact", path,
                             FlowMapEvaluator(path, rel_tol=1e-10, abs_tol=1e-12))
    inp = step_input(np.array([[2.0]]), np.zeros(1), 0.25, 0.26, np.zeros((1, 1)), rt, path)
    x_next = position_step(inp, "default", path)
    out = weight_step_ito(inp, "default", rt, path,
                          rt.lookahead_value_and_grad(0.26, x_next))
    ref = weight_step_laplacian(inp, "default", rt, path)
    assert out[0] == pytest.approx(ref[0], abs=1e-12)


def test_ito_matches_hand_rolled_formula():
    path = std_path(eta_offset=0.05)
    lam, t, t2 = 0.5, 0.4, 0.41
    rt = TimeDependentReward(LinearReward([lam]), "naive", path)
    chi = "tilted_score"
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 1))
    noise = rng.normal(size=(4, 1))
    inp = step_input(x, np.zeros(4), t, t2, noise, rt, path)
    x_next = position_step(inp, chi, path)
    out = weight_step_ito(inp, chi, rt, path, rt.lookahead_value_and_grad(t2, x_next))

    dt = t2 - t
    sched = path.schedule
    c_t, c_t2 = sched.chi(chi, t), sched.chi(chi, t2)
    d = path.dynamics(t, x)
    g_t = lam * t
    g_t2 = lam * t2
    drift = (d.velocity[:, 0] * g_t + lam * x[:, 0]
             + c_t * (g_t**2 + g_t * d.score[:, 0]))
    stoch = (c_t2 * np.sqrt(dt / (2 * sched.epsilon(t2))) * g_t2 * noise[:, 0]
             - c_t * np.sqrt(dt / (2 * sched.epsilon(t))) * g_t * noise[:, 0])
    expected = dt * drift + stoch
    assert np.max(np.abs(out - expected)) < 1e-8


def test_ito_refuses_a_next_record_of_another_batch():
    path = std_path(eta_offset=0.05)
    rt = TimeDependentReward(LinearReward([0.5]), "naive", path)
    x = np.linspace(-1.0, 1.0, 4).reshape(-1, 1)
    inp = step_input(x, np.zeros(4), 0.4, 0.41, np.ones((4, 1)), rt, path)
    with pytest.raises(ValueError, match="batch"):
        weight_step_ito(inp, "tilted_score", rt, path,
                        rt.lookahead_value_and_grad(0.41, x[:1]))


def test_ito_rejects_zero_diffusion_with_nonzero_chi():
    path = std_path(epsilon="zero")
    rt = TimeDependentReward(LinearReward([1.0]), "naive", path)
    inp = step_input(np.array([[1.0]]), np.zeros(1), 0.3, 0.31, np.ones((1, 1)), rt, path)
    with pytest.raises(SchemeCompatibilityError):
        weight_step_ito(inp, "tilted_score", rt, path,
                        rt.lookahead_value_and_grad(0.31, np.array([[1.0]])))


def test_ito_allows_zero_diffusion_when_chi_zero():
    path = std_path(epsilon="zero")
    rt = TimeDependentReward(LinearReward([1.0]), "naive", path)
    inp = step_input(np.array([[1.0]]), np.zeros(1), 0.3, 0.31, np.ones((1, 1)), rt, path)
    out = weight_step_ito(inp, "default", rt, path,
                          rt.lookahead_value_and_grad(0.31, np.array([[1.0]])))
    assert np.isfinite(out[0])


def test_expectation_zero_reward_noop():
    path = std_path()
    rt = TimeDependentReward(ZeroReward(), "naive", path)
    inp = step_input(np.array([[0.5]]), np.array([1.2]), 0.3, 0.31, np.zeros((1, 1)), rt, path,
                     grad=False)
    for chi in ("default", "local_tilt", "base"):
        out = weight_step_expectation(inp, chi, rt, path, 8,
                                      np.random.default_rng(0))
        assert out[0] == pytest.approx(1.2, abs=1e-12)


def test_expectation_chi_zero_example():
    path = shifted_path()
    rt = TimeDependentReward(LinearReward([0.5]), "flowmap_exact", path,
                             FlowMapEvaluator(path, rel_tol=1e-10, abs_tol=1e-12))
    inp = step_input(np.array([[0.0]]), np.zeros(1), 0.0, 0.01, np.zeros((1, 1)), rt, path,
                     grad=False)
    out = weight_step_expectation(inp, "default", rt, path)
    assert out[0] == pytest.approx(0.005, abs=2e-5)


def test_expectation_paper_literal_adds_raw_average():
    path = std_path(eta_offset=0.05)
    rt = TimeDependentReward(LinearReward([0.5]), "naive", path)
    inp = step_input(np.array([[0.4]]), np.zeros(1), 0.3, 0.31, np.zeros((1, 1)), rt, path,
                     grad=False)
    chi = "local_tilt"
    log_form = weight_step_expectation(inp, chi, rt, path, 64, np.random.default_rng(5))
    literal = weight_step_expectation(inp, chi, rt, path, 64, np.random.default_rng(5),
                                      paper_literal=True)
    assert literal[0] == pytest.approx(np.exp(log_form[0]), abs=1e-12)


def test_expectation_consistent_with_laplacian_at_chi_zero():
    # Both discretize the same weight dynamics; per-step increments must
    # agree to O(dt^2) when chi = 0.
    path = std_path()
    flow = FlowMapEvaluator(path, rel_tol=1e-10, abs_tol=1e-12)
    rt = TimeDependentReward(LinearReward([1.0]), "flowmap_exact", path, flow)
    gaps = []
    for dt in (0.02, 0.01):
        args = np.array([[1.2]]), np.zeros(1), 0.4, 0.4 + dt, np.zeros((1, 1)), rt, path
        lap = weight_step_laplacian(step_input(*args), "default", rt, path)
        exp = weight_step_expectation(step_input(*args, grad=False), "default",
                                      rt, path)
        gaps.append(abs(lap[0] - exp[0]))
    assert gaps[1] < 0.4 * gaps[0]


def test_softmax_invariance_under_reward_shift():
    from fmtt import CustomReward
    path = std_path()
    ev = FlowMapEvaluator(path)
    x = np.linspace(-1.5, 1.5, 6).reshape(-1, 1)
    weights = []
    for c in (0.0, 5.0):
        rw = CustomReward(fn=lambda z, c=c: 0.8 * z[:, 0] + c,
                          grad_fn=lambda z: np.full_like(z, 0.8))
        rt = TimeDependentReward(rw, "flowmap_exact", path, ev)
        inp = step_input(x, np.zeros(6), 0.3, 0.32, np.zeros((6, 1)), rt, path, grad=False)
        a = weight_step_simplified(inp, rt)
        w = np.exp(a - a.max())
        weights.append(w / w.sum())
    assert np.max(np.abs(weights[0] - weights[1])) < 1e-10


def test_local_tilt_mean_shift():
    path = std_path()
    rt = TimeDependentReward(LinearReward([1.0]), "naive", path)
    rng = np.random.default_rng(6)
    for dt in (1e-2, 1e-3):
        x = np.zeros((2000, 1))
        noise = rng.normal(size=(2000, 1))
        inp = step_input(x, np.zeros(2000), 0.5, 0.5 + dt, noise, rt, path)
        tilted = position_step(inp, "local_tilt", path)
        plain = position_step(inp, "default", path)
        shift = float(np.mean(tilted - plain))
        assert shift == pytest.approx(dt * 0.5 * 0.5, abs=1e-12)


@pytest.mark.parametrize("m_samples", [4.0, True])
def test_expectation_refuses_a_non_integer_sample_count(m_samples):
    path = std_path()
    rt = TimeDependentReward(LinearReward([0.5]), "naive", path)
    inp = step_input(np.array([[0.4]]), np.zeros(1), 0.3, 0.31, np.zeros((1, 1)), rt, path,
                     grad=False)
    with pytest.raises(ValueError, match="m_samples"):
        weight_step_expectation(inp, "local_tilt", rt, path, m_samples)


def test_expectation_takes_a_numpy_integer_sample_count():
    path = std_path(eta_offset=0.05)
    rt = TimeDependentReward(LinearReward([0.5]), "naive", path)
    inp = step_input(np.array([[0.4], [-1.0]]), np.zeros(2), 0.3, 0.31, np.zeros((2, 1)), rt,
                     path, grad=False)
    out = [weight_step_expectation(inp, "local_tilt", rt, path, m, np.random.default_rng(5))
           for m in (6, np.int64(6))]
    assert np.array_equal(*out)


def reference_expectation(inp, chi, rt, path, m, rng):
    """The expectation weights with one look-ahead call per sample."""
    c = path.schedule.chi(chi, inp.t)
    dyn, r_here = inp.dynamics, inp.lookahead.value
    mean = inp.x + inp.dt * (dyn.velocity + abs(c) * dyn.score)
    scale = np.sqrt(2.0 * abs(c) * inp.dt)
    deltas = np.stack([rt.value(inp.t_next, mean + scale * rng.standard_normal(inp.x.shape))
                       - r_here for _ in range(m)])
    log_g = _logsumexp(deltas) - np.log(m)
    if c > 0.0:
        return inp.logweight + log_g
    drift_only = rt.value(inp.t_next, inp.x + inp.dt * dyn.velocity) - r_here
    return inp.logweight + 2.0 * drift_only - log_g


def two_mode_lookahead(mode):
    target = GaussianMixture.isotropic([0.5, 0.5], [[-2.0, 0.0], [2.0, 0.0]], 0.25)
    path = MixturePath(standard_normal(2), target, InterpolantSchedule.linear(eta_offset=0.05))
    return TimeDependentReward(LogResponsibilityReward(target, 1, 0.5), mode, path), path


@pytest.mark.parametrize("mode", ["naive", "denoiser", "flowmap_ksteps"])
def test_stacked_samples_match_one_sample_per_call(mode):
    rt, path = two_mode_lookahead(mode)
    # Chunks of 4 samples, with 11 samples in 3 chunks; then chunks of 1 sample.
    for n, m in ((STACK_ELEMENTS // (2 * 4), 11), (STACK_ELEMENTS // 2 + 1, 3)):
        x = np.random.default_rng(n).normal(scale=2.0, size=(n, 2))
        inp = step_input(x, np.zeros(n), 0.4, 0.42, np.zeros((n, 2)), rt, path, grad=False)
        for chi in ("local_tilt", "base"):
            out = weight_step_expectation(inp, chi, rt, path, m, np.random.default_rng(7))
            ref = reference_expectation(inp, chi, rt, path, m, np.random.default_rng(7))
            assert np.array_equal(out, ref)


def test_stacked_samples_match_one_sample_per_call_with_the_exact_map(monkeypatch):
    rt, path = two_mode_lookahead("flowmap_exact")
    x = np.random.default_rng(8).normal(scale=2.0, size=(6, 2))
    inp = step_input(x, np.zeros(6), 0.4, 0.42, np.zeros((6, 2)), rt, path, grad=False)
    monkeypatch.setattr(rewards, "STACK_ELEMENTS", 6 * 2 * 3)
    out = weight_step_expectation(inp, "local_tilt", rt, path, 7, np.random.default_rng(9))
    ref = reference_expectation(inp, "local_tilt", rt, path, 7, np.random.default_rng(9))
    assert np.max(np.abs(out - ref)) <= 1e-5 * np.max(np.abs(ref))


class CountingLookahead(TimeDependentReward):
    """A look-ahead that records the shape of every value call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.shapes = []

    def value(self, t, x):
        self.shapes.append(np.shape(x))
        return super().value(t, x)


@pytest.mark.parametrize("n, m", [(3, 16), (256, 64), (5000, 7), (STACK_ELEMENTS, 3)])
def test_sample_calls_stay_within_the_element_bound(n, m):
    path = std_path(eta_offset=0.05)
    rt = CountingLookahead(LinearReward([0.5]), "naive", path)
    x = np.random.default_rng(0).normal(size=(n, 1))
    inp = step_input(x, np.zeros(n), 0.3, 0.31, np.zeros((n, 1)), rt, path, grad=False)
    weight_step_expectation(inp, "local_tilt", rt, path, m, np.random.default_rng(1))
    per_call = max(1, STACK_ELEMENTS // n)
    assert len(rt.shapes) == -(-m // per_call)
    assert sum(rows for rows, _ in rt.shapes) == n * m
    assert all(rows <= max(STACK_ELEMENTS, n) for rows, _ in rt.shapes)
