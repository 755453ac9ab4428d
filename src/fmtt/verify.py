"""Invariant-verification suites for every module, run by ``fmtt verify``.

Each check is a small pure function returning (passed, detail).  Checks use
fixed seeds so the report is reproducible, and every numerical claim is
verified against an independent oracle (closed forms, finite differences,
or brute-force Monte Carlo), not against the code under test.
"""

from __future__ import annotations

import numpy as np

from . import diagnostics as dg
from . import oracles
from .errors import DiagnosticsUndefinedError, ScheduleDomainError
from .flowmap import FlowMapEvaluator, gaussian_pair_closed_form
from .mixtures import GaussianMixture, MixturePath, standard_normal
from .rewards import (CustomReward, LinearReward, QuadraticReward,
                      TimeDependentReward, ZeroReward, coordinate_laplacian,
                      hutchinson_laplacian)
from .schedule import InterpolantSchedule
from .smc import (ParticleEnsemble, RunConfig, ess, resample, run,
                  top_n_select, weighted_expectation)
from .tilt import (StepInput, position_step, weight_step_expectation,
                   weight_step_simplified)


def _std_path(dim: int = 1, epsilon="one_minus_t") -> MixturePath:
    return MixturePath(standard_normal(dim), standard_normal(dim),
                       InterpolantSchedule.linear(epsilon=epsilon))


def _shifted_path() -> MixturePath:
    target = GaussianMixture(np.ones(1), np.ones((1, 1)), np.eye(1)[None])
    return MixturePath(standard_normal(1), target)


def _two_mode_path() -> MixturePath:
    target = GaussianMixture.isotropic([0.5, 0.5], [[-2.0, 0.0], [2.0, 0.0]], 0.25)
    return MixturePath(standard_normal(2), target)


# --- interpolant-core ---------------------------------------------------


def check_schedule_eta():
    sched = InterpolantSchedule.linear()
    offs = InterpolantSchedule.linear(eta_offset=0.05)
    ok = (abs(sched.eta(0.25) - 3.0) < 1e-12
          and abs(offs.eta(0.25) - 1.05 * 0.75 / 0.30) < 1e-12
          and sched.eta(1.0) == 0.0)
    try:
        sched.eta(0.0)
        ok = False
    except ScheduleDomainError:
        pass
    return ok, "eta(0.25)=3, offset variant 2.625, eta(1)=0, domain error at 0"


def check_dynamics_closed_form():
    path = _std_path()
    dyn = path.dynamics(0.25, np.array([2.0]))
    kappa = 2 * 0.25**2 - 2 * 0.25 + 1
    errs = [abs(dyn.velocity[0] - (2 * 0.25 - 1) * 2 / kappa),
            abs(dyn.score[0] + 2 / kappa),
            abs(dyn.denoiser[0] - 0.25 * 2 / kappa)]
    return max(errs) < 1e-12, f"b,s,D closed-form errors {max(errs):.2e}"


def check_score_velocity_identity():
    path = MixturePath(standard_normal(1),
                       GaussianMixture.isotropic([0.4, 0.6], [[-1.0], [2.0]], 0.5))
    worst = 0.0
    for t in np.linspace(0.0, 0.99, 12):
        for x in np.linspace(-3, 3, 9):
            d = path.dynamics(t, np.array([x]))
            worst = max(worst, abs(d.score[0] - (t * d.velocity[0] - x) / (1 - t)))
    return worst < 1e-10, f"max |s - (t b - x)/(1-t)| = {worst:.2e}"


def check_interpolation_identity():
    path = _two_mode_path()
    rng = np.random.default_rng(3)
    x = rng.normal(size=(32, 2)) * 2
    worst = 0.0
    for t in (0.1, 0.5, 0.9):
        a, b = path.schedule.alpha(t), path.schedule.beta(t)
        e0, e1 = path.conditional_means(t, x)
        worst = max(worst, float(np.max(np.abs(a * e0 + b * e1 - x))))
    return worst < 1e-10, f"max |alpha E0 + beta E1 - x| = {worst:.2e}"


def check_score_is_grad_logdensity():
    path = _two_mode_path()
    worst = 0.0
    for t in (0.3, 0.7):
        for pt in ([0.5, -0.3], [-1.0, 0.2]):
            s = path.dynamics(t, np.array(pt)).score
            fd = oracles.finite_diff_grad(
                lambda z: path.dynamics(t, z).log_density, np.array(pt), 1e-5)
            worst = max(worst, float(np.max(np.abs(s - fd))))
    return worst < 1e-6, f"max |score - FD grad log rho| = {worst:.2e}"


def check_continuity_equation():
    path = MixturePath(standard_normal(1),
                       GaussianMixture.isotropic([0.5, 0.5], [[-1.0], [1.0]], 0.5))
    h = 1e-5
    worst = 0.0
    for t in (0.3, 0.5, 0.7):
        for x in np.linspace(-2, 2, 7):
            pt = np.array([x])
            dlog_dt = (path.dynamics(t + h, pt).log_density
                       - path.dynamics(t - h, pt).log_density) / (2 * h)
            div_b = (path.dynamics(t, pt + h).velocity[0]
                     - path.dynamics(t, pt - h).velocity[0]) / (2 * h)
            d = path.dynamics(t, pt)
            worst = max(worst, abs(dlog_dt + div_b + d.velocity[0] * d.score[0]))
    return worst < 1e-4, f"max continuity residual = {worst:.2e}"


def check_sampling_moments():
    rng = np.random.default_rng(7)
    x = standard_normal(1).sample(10**6, rng)
    ok = abs(float(x.mean())) < 4e-3 and abs(float(x.var()) - 1) < 0.01
    return ok, f"mean {float(x.mean()):.4f}, var {float(x.var()):.4f}"


# --- flowmap ------------------------------------------------------------


def check_flowmap_oracle_value():
    ev = FlowMapEvaluator(_std_path(), rel_tol=1e-10, abs_tol=1e-12)
    val = ev.flow_map(0.0, 0.5, np.array([1.0]))[0]
    return abs(val - np.sqrt(0.5)) < 1e-8, f"|X_(0,0.5)(1) - sqrt(0.5)| = {abs(val - np.sqrt(0.5)):.2e}"


def check_semigroup_inverse():
    path = _shifted_path()
    ev = FlowMapEvaluator(path, rel_tol=1e-10, abs_tol=1e-12)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        s, t, u = np.sort(rng.uniform(0, 1, 3))
        x = rng.normal(size=(1,))
        via = ev.flow_map(t, u, ev.flow_map(s, t, x))
        direct = ev.flow_map(s, u, x)
        worst = max(worst, float(np.max(np.abs(via - direct))))
        back = ev.flow_map(t, s, ev.flow_map(s, t, x))
        worst = max(worst, float(np.max(np.abs(back - x))))
    return worst < 1e-6, f"max semigroup/inverse residual = {worst:.2e}"


def check_tangent_identity():
    path = _std_path()
    ev = FlowMapEvaluator(path)
    t, x = 0.3, np.array([1.2])
    b = path.dynamics(t, x).velocity[0]
    errs = []
    for h in (1e-3, 5e-4):
        errs.append(abs((ev.flow_map(t, t + h, x)[0] - x[0]) / h - b))
    ok = errs[1] < 0.75 * errs[0] and errs[0] < 1e-2
    return ok, f"tangent errors {errs[0]:.2e} -> {errs[1]:.2e} under halving"


def check_eulerian_identity():
    path = _shifted_path()
    ev = FlowMapEvaluator(path, rel_tol=1e-10, abs_tol=1e-12)
    h = 1e-5
    worst = 0.0
    for s in (0.2, 0.5, 0.8):
        for x in np.linspace(-1.5, 1.5, 5):
            pt = np.array([x])
            ds = (ev.flow_map(s + h, 1.0, pt)[0] - ev.flow_map(s - h, 1.0, pt)[0]) / (2 * h)
            jac = ev.flow_map_jacobian(s, 1.0, pt).jacobian[0, 0]
            b = path.dynamics(s, pt).velocity[0]
            worst = max(worst, abs(ds + jac * b))
    return worst < 1e-4, f"max Eulerian residual = {worst:.2e}"


def check_flowmap_vs_closed_form():
    path = _shifted_path()
    ev = FlowMapEvaluator(path, rel_tol=1e-10, abs_tol=1e-12)
    worst = 0.0
    for s, t in ((0.0, 1.0), (0.25, 1.0), (0.1, 0.6), (0.9, 0.2)):
        for x in (-1.0, 0.3, 2.0):
            num = ev.flow_map(s, t, np.array([x]))[0]
            exact = gaussian_pair_closed_form(path, s, t, np.array([x]))[0]
            worst = max(worst, abs(num - exact))
    return worst < 1e-8, f"max |numerical - closed form| = {worst:.2e}"


def check_k_step_examples():
    ev = FlowMapEvaluator(_std_path())
    e1 = ev.k_step_map(0.0, 1.0, np.array([1.0]), 1, "euler")[0]
    h1 = ev.k_step_map(0.0, 1.0, np.array([1.0]), 1, "heun")[0]
    big = ev.k_step_map(0.0, 1.0, np.array([1.0]), 4096, "heun")[0]
    exact = ev.flow_map(0.0, 1.0, np.array([1.0]))[0]
    ok = abs(e1) < 1e-12 and abs(h1 - 0.5) < 1e-12 and abs(big - exact) < 1e-5
    return ok, f"euler1={e1:.3f}, heun1={h1:.3f}, heun4096 err {abs(big - exact):.2e}"


# --- rewards ------------------------------------------------------------


def check_reward_transport_identity():
    path = _shifted_path()
    rt = TimeDependentReward(LinearReward([1.0]), "flowmap_exact", path,
                             FlowMapEvaluator(path, rel_tol=1e-10, abs_tol=1e-12))
    worst = 0.0
    for t in np.linspace(0.05, 0.95, 7):
        for x in np.linspace(-2, 2, 7):
            pt = np.array([x])
            b = path.dynamics(t, pt).velocity
            lhs = float(b @ rt.grad(t, pt)[0]) + float(rt.time_derivative(t, pt)[0])
            rhs = float(rt.lookahead_value_and_grad(t, pt, False).terminal[0])
            worst = max(worst, abs(lhs - rhs))
    return worst < 1e-4, f"max |b . grad r_t + dr_t/dt - r(endpoint)| = {worst:.2e}"


def check_reward_modes_at_one():
    path = _two_mode_path()
    base = QuadraticReward(0.7)
    x = np.array([[0.4, -1.1], [1.0, 0.2]])
    vals = []
    for mode in ("naive", "denoiser", "flowmap_exact"):
        rt = TimeDependentReward(base, mode, path)
        vals.append(rt.value(1.0, x))
    ref = base.value(x)
    worst = max(float(np.max(np.abs(v - ref))) for v in vals)
    return worst < 1e-9, f"max mode disagreement at t=1: {worst:.2e}"


def check_k_step_mode_convergence():
    path = _std_path()
    base = LinearReward([1.0])
    exact = TimeDependentReward(base, "flowmap_exact", path)
    x = np.array([[1.5]])
    ref = exact.value(0.25, x)[0]
    errs = [abs(TimeDependentReward(base, "flowmap_ksteps", path, k=k).value(0.25, x)[0]
                - ref) for k in (1, 4, 16)]
    ok = errs[0] > errs[1] > errs[2]
    return ok, f"k-step errors {errs[0]:.2e} > {errs[1]:.2e} > {errs[2]:.2e}"


def check_reward_gradients_fd():
    path = _two_mode_path()
    rewards = [LinearReward([0.5, -0.2]), QuadraticReward(0.8)]
    worst = 0.0
    for rw in rewards:
        for mode in ("naive", "denoiser", "flowmap_exact"):
            rt = TimeDependentReward(rw, mode, path)
            pt = np.array([0.7, -0.4])
            g = rt.grad(0.6, pt)[0]
            fd = oracles.finite_diff_grad(lambda z: rt.value(0.6, z)[0], pt, 1e-5)
            worst = max(worst, float(np.max(np.abs(g - fd))))
    return worst < 1e-6, f"max |grad - FD| over rewards and modes = {worst:.2e}"


def check_hutchinson():
    path = _std_path(2)
    rt = TimeDependentReward(QuadraticReward(1.0), "naive", path)
    est = hutchinson_laplacian(rt, 1.0, np.zeros((1, 2)), 1000, 1e-3,
                               np.random.default_rng(5))
    lin = TimeDependentReward(LinearReward([1.0, 2.0]), "naive", path)
    zero = hutchinson_laplacian(lin, 1.0, np.zeros((1, 2)), 200, 1e-3,
                                np.random.default_rng(6))
    ok = abs(est[0] + 2.0) < 0.2 and abs(zero[0]) < 1e-6
    return ok, f"quadratic Laplacian {est[0]:.3f} (target -2), linear {zero[0]:.1e}"


def check_coordinate_laplacian():
    worst = 0.0
    for d in (1, 2, 8):
        rt = TimeDependentReward(QuadraticReward(0.7), "naive", _std_path(d))
        x = np.random.default_rng(d).normal(size=(16, d))
        worst = max(worst, float(np.max(np.abs(coordinate_laplacian(rt, 0.6, x) + 0.6 * 0.7 * d))))
    # Between single Gaussians X_{t,1}(x) = mu(1) + A (x - mu(t)), so the
    # Laplacian of r_t = -t gamma ||X_{t,1}||^2 / 2 is -t gamma ||A||_F^2.
    target = GaussianMixture(np.ones(1), np.array([[1.0, -0.5]]), np.diag([0.5, 2.0])[None])
    path = MixturePath(standard_normal(2), target)
    rt = TimeDependentReward(QuadraticReward(0.7), "flowmap_exact", path,
                             FlowMapEvaluator(path, rel_tol=1e-10, abs_tol=1e-12))
    a = (gaussian_pair_closed_form(path, 0.4, 1.0, np.eye(2))
         - gaussian_pair_closed_form(path, 0.4, 1.0, np.zeros(2)))
    est = coordinate_laplacian(rt, 0.4, np.random.default_rng(3).normal(size=(4, 2)))
    flow = float(np.max(np.abs(est + 0.4 * 0.7 * np.sum(a**2))))
    return worst < 1e-6 and flow < 1e-8, (
        f"naive quadratic max error {worst:.1e} (d = 1, 2, 8); "
        f"Gaussian-pair flow map max error {flow:.1e}")


# --- tilt ---------------------------------------------------------------


def _step_input(x, t, t_next, noise, rt, path, grad=True) -> StepInput:
    """A StepInput at zero log-weight with the look-ahead record (grad r_t
    when ``grad``) and the path dynamics at (t, x)."""
    return StepInput(x, np.zeros(x.shape[0]), t, t_next, noise,
                     rt.lookahead_value_and_grad(t, x, grad), path.dynamics(t, x))


def check_position_step_example():
    path = _std_path(epsilon="zero")
    rt = TimeDependentReward(ZeroReward(), "naive", path)
    inp = _step_input(np.array([[1.0]]), 0.0, 0.1, np.zeros((1, 1)), rt, path)
    out = position_step(inp, "default", path)
    return abs(out[0, 0] - 0.9) < 1e-12, f"Euler drift step gives {out[0, 0]:.6f}"


def check_base_dynamics_neutral():
    path = _std_path()
    rt = TimeDependentReward(LinearReward([0.7]), "naive", path)
    rt0 = TimeDependentReward(ZeroReward(), "naive", path)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(16, 1))
    noise = rng.normal(size=(16, 1))
    a = position_step(_step_input(x, 0.3, 0.31, noise, rt, path), "base", path)
    b = position_step(_step_input(x, 0.3, 0.31, noise, rt0, path), "default", path)
    return bool(np.array_equal(a, b)), "base-chi step bitwise equals reward-free step"


def check_softmax_shift_invariance():
    path = _std_path()
    ev = FlowMapEvaluator(path)
    x = np.linspace(-1, 1, 8).reshape(-1, 1)
    outs = []
    for c in (0.0, 3.0):
        shifted = CustomReward(fn=lambda z, c=c: 0.5 * z[:, 0] + c,
                               grad_fn=lambda z: np.full_like(z, 0.5))
        rt = TimeDependentReward(shifted, "flowmap_exact", path, ev)
        inp = _step_input(x, 0.2, 0.21, np.zeros((8, 1)), rt, path, grad=False)
        a = weight_step_simplified(inp, rt)
        w = np.exp(a - a.max())
        outs.append(w / w.sum())
    worst = float(np.max(np.abs(outs[0] - outs[1])))
    return worst < 1e-10, f"normalized-weight shift sensitivity = {worst:.2e}"


def check_local_tilt_mean_shift():
    path = _std_path()
    rt = TimeDependentReward(LinearReward([1.0]), "naive", path)
    rng = np.random.default_rng(21)
    ok = True
    details = []
    for dt in (1e-2, 1e-3):
        x = np.zeros((4000, 1))
        noise = rng.normal(size=(4000, 1))
        inp = _step_input(x, 0.5, 0.5 + dt, noise, rt, path)
        tilted = position_step(inp, "local_tilt", path)
        plain = position_step(inp, "default", path)
        shift = float(np.mean(tilted - plain))
        eps = path.schedule.epsilon(0.5)
        expected = dt * eps * 0.5  # grad r_t = t * 1 at t=0.5
        ok = ok and abs(shift - expected) < 1e-12
        details.append(f"dt={dt}: shift {shift:.3e} vs {expected:.3e}")
    return ok, "; ".join(details)


def check_expectation_scheme_example():
    path = _shifted_path()
    rt = TimeDependentReward(LinearReward([0.5]), "flowmap_exact", path,
                             FlowMapEvaluator(path, rel_tol=1e-10, abs_tol=1e-12))
    inp = _step_input(np.array([[0.0]]), 0.0, 0.01, np.zeros((1, 1)), rt, path, grad=False)
    a = weight_step_expectation(inp, "default", rt, path)
    return abs(a[0] - 0.005) < 2e-5, f"chi=0 expectation increment {a[0]:.7f} (target ~0.0050)"


def check_simplified_example():
    path = _shifted_path()
    rt = TimeDependentReward(LinearReward([0.5]), "flowmap_exact", path,
                             FlowMapEvaluator(path, rel_tol=1e-10, abs_tol=1e-12))
    inp = _step_input(np.array([[0.0]]), 0.0, 0.01, np.zeros((1, 1)), rt, path, grad=False)
    a = weight_step_simplified(inp, rt)
    return abs(a[0] - 0.005) < 1e-9, f"simplified increment {a[0]:.7f} (target 0.005)"


# --- smc ----------------------------------------------------------------


def check_ess_examples():
    vals = [ess(np.zeros(4)), ess(np.array([0.0, -np.inf, -np.inf, -np.inf])),
            ess(np.array([np.log(2), np.log(2), 0.0, 0.0]))]
    ok = (abs(vals[0] - 4) < 1e-12 and abs(vals[1] - 1) < 1e-12
          and abs(vals[2] - 3.6) < 1e-12)
    return ok, f"ESS examples -> {[round(v, 4) for v in vals]}"


def check_systematic_uniform():
    ens = ParticleEnsemble(np.arange(8.0).reshape(-1, 1), np.zeros(8), 8)
    out = resample(ens, np.random.default_rng(2), "systematic")
    ok = bool(np.array_equal(np.sort(out.positions[:, 0]), np.arange(8.0)))
    return ok, "systematic resampling at uniform weights is a permutation"


def check_top_n():
    ens = ParticleEnsemble(np.array([[0.0], [1.0], [2.0]]), np.zeros(3), 3)
    out = top_n_select(ens, np.array([3.0, 1.0, 2.0]), 2)
    ok = bool(np.array_equal(np.sort(out.positions[:, 0]), np.array([0.0, 2.0])))
    tie = top_n_select(ens, np.ones(3), 2)
    ok = ok and bool(np.array_equal(tie.positions[:, 0], np.array([0.0, 1.0])))
    return ok, "top-n keeps argmax set; ties break to lower index"


def check_weighted_expectation_examples():
    v1 = weighted_expectation(np.zeros(2), lambda p: p[:, 0], np.array([[0.0], [2.0]]))
    v2 = weighted_expectation(np.array([1.0, 0.0]), lambda p: p[:, 0],
                              np.array([[1.0], [0.0]]))
    ok = abs(v1 - 1.0) < 1e-12 and abs(v2 - np.e / (np.e + 1)) < 1e-12
    return ok, f"expectation examples {v1:.4f}, {v2:.7f}"


def check_zero_reward_run():
    path = _std_path()
    rt = TimeDependentReward(ZeroReward(), "flowmap_exact", path)
    cfg = RunConfig(n_particles=512, n_steps=50, weight_scheme="simplified", seed=3)
    res = run(cfg, path, rt)
    x = res.ensemble.positions[:, 0]
    ok = (abs(float(x.mean())) < 4 / np.sqrt(512) * 1.5
          and abs(float(x.var()) - 1) < 0.2
          and np.all(np.abs(res.ess_history - 512) < 1e-9)
          and len(res.resample_steps) == 0)
    return ok, f"terminal mean {float(x.mean()):.3f}, var {float(x.var()):.3f}, no resampling"


def check_run_determinism():
    path = _std_path()
    rt = TimeDependentReward(LinearReward([0.5]), "flowmap_exact", path)
    cfg = RunConfig(n_particles=64, n_steps=20, seed=12)
    a = run(cfg, path, rt)
    b = run(cfg, path, rt)
    ok = (np.array_equal(a.ensemble.positions, b.ensemble.positions)
          and np.array_equal(a.ensemble.logweights, b.ensemble.logweights))
    return ok, "same seed reproduces positions and weights bit-for-bit"


# --- diagnostics --------------------------------------------------------


def check_discrepancy_example():
    d = dg.incremental_discrepancy(np.array([1.0, 1.0]), np.array([1.0, 3.0]))
    return abs(d - np.log(1.25)) < 1e-12, f"D-hat example = {d:.7f} (log 1.25)"


def check_zero_reward_diagnostics():
    path = _std_path()
    rt = TimeDependentReward(ZeroReward(), "flowmap_exact", path)
    res = run(RunConfig(n_particles=64, n_steps=30, seed=4), path, rt)
    trace = dg.trace_from_run(res)
    total = dg.total_discrepancy(trace)
    lam = dg.thermodynamic_length(trace).total
    ok = abs(total) < 1e-10 and lam < 1e-10
    try:
        dg.quality_ratio(trace)
        ok = False
    except DiagnosticsUndefinedError:
        pass
    return ok, f"zero reward: D_total={total:.1e}, Lambda={lam:.1e}, ratio undefined"


def check_quality_ratio_examples():
    t3 = np.array([0.0, 0.5, 1.0])
    q1 = dg.quality_ratio(dg.DiscrepancyTrace(np.array([0.04, 0.09]), t3))
    q2 = dg.quality_ratio(dg.DiscrepancyTrace(np.array([0.25, 0.0]), t3))
    q3 = dg.quality_ratio(dg.DiscrepancyTrace(np.array([0.07, 0.07]), t3))
    ok = abs(q1 - 0.25 / 0.26) < 1e-12 and abs(q2 - 0.5) < 1e-12 and abs(q3 - 1) < 1e-12
    return ok, f"quality ratios {q1:.4f}, {q2:.4f}, {q3:.4f}"


def check_length_bound():
    rng = np.random.default_rng(17)
    ok = True
    for _ in range(20):
        k = rng.integers(2, 30)
        d = rng.exponential(0.1, size=k)
        trace = dg.DiscrepancyTrace(d, np.linspace(0, 1, k + 1))
        lam = dg.thermodynamic_length(trace).total
        ok = ok and lam <= np.sqrt(k * d.sum()) + 1e-12
        q = dg.quality_ratio(trace)
        ok = ok and 0 < q <= 1 + 1e-12
    return ok, "Lambda <= sqrt(K sum D) and quality ratio in (0,1] on random traces"


def check_refinement_example():
    prof = dg.thermodynamic_length(
        dg.DiscrepancyTrace(np.array([0.09, 0.01]), np.array([0.0, 0.5, 1.0])))
    new = dg.refine_schedule(prof, 2)
    ok = abs(new.times[1] - 1.0 / 3.0) < 1e-12 and not new.flat
    const = dg.thermodynamic_length(
        dg.DiscrepancyTrace(np.array([0.04, 0.04]), np.array([0.0, 0.5, 1.0])))
    unchanged = dg.refine_schedule(const, 2)
    ok = ok and bool(np.array_equal(unchanged.times, np.array([0.0, 0.5, 1.0])))
    flat = dg.refine_schedule(dg.BarrierProfile(np.array([0.0, 0.5, 1.0]), np.zeros(3)), 2)
    ok = ok and flat.flat
    return ok, f"refined knot {new.times[1]:.6f} (target 1/3); constant and flat cases handled"


def check_var_model():
    v = dg.var_model(0.2, 2.0, 10)
    mono = dg.var_model(5.0, 2.0, 10) < dg.var_model(50.0, 2.0, 10)
    return abs(v + 0.9789663) < 1e-6 and mono, f"literal model value {v:.7f}"


def check_lognormal_consistency():
    rng = np.random.default_rng(23)
    sigma2 = 0.09
    g = np.exp(rng.normal(0.0, np.sqrt(sigma2), size=200000))
    d = dg.incremental_discrepancy(np.ones_like(g), g)
    return abs(d - sigma2) < 5e-3, f"lognormal D-hat {d:.4f} vs sigma^2 = {sigma2}"


# --- oracles ------------------------------------------------------------


def check_snis_linear():
    est = oracles.snis_tilted_expectation(standard_normal(1), LinearReward([0.5]),
                                          lambda x: x[:, 0], 200000,
                                          np.random.default_rng(31))
    return abs(est.estimate - 0.5) < 3 * est.stderr, \
        f"SNIS linear tilt mean {est.estimate:.4f} +- {est.stderr:.4f}"


def check_snis_quadratic():
    est = oracles.snis_tilted_expectation(standard_normal(1), QuadraticReward(1.0),
                                          lambda x: x[:, 0] ** 2, 200000,
                                          np.random.default_rng(37))
    return abs(est.estimate - 0.5) < 3 * est.stderr, \
        f"SNIS tilted second moment {est.estimate:.4f} +- {est.stderr:.4f}"


def check_closed_form_examples():
    log_z_lin, lin = oracles.tilted_mixture(standard_normal(1), LinearReward([0.5]))
    log_z_quad, quad = oracles.tilted_mixture(standard_normal(1), QuadraticReward(1.0))
    ok = (abs(lin.means[0, 0] - 0.5) < 1e-15 and abs(log_z_lin - 0.125) < 1e-15
          and abs(quad.covariances[0, 0, 0] - 0.5) < 1e-15
          and abs(log_z_quad + 0.5 * np.log(2)) < 1e-15)
    return ok, "linear and quadratic complete-the-square values"


def check_normalizer_consistency():
    # Z = E[exp(r)], the expectation by 1D quadrature.
    from scipy.integrate import quad
    target = GaussianMixture([1.0], [[0.3]], [[[0.7]]])
    for kind, reward in (("linear", LinearReward([0.4])), ("quadratic", QuadraticReward(0.9))):
        log_z, _ = oracles.tilted_mixture(target, reward)

        def integrand(x, kind=kind):
            dens = np.exp(-0.5 * (x - 0.3) ** 2 / 0.7) / np.sqrt(2 * np.pi * 0.7)
            r = 0.4 * x if kind == "linear" else -0.45 * x**2
            return dens * np.exp(r)
        val, _ = quad(integrand, -20, 20)
        if abs(np.exp(-log_z) * val - 1.0) > 1e-8:
            return False, f"{kind} normalizer off: {np.exp(-log_z) * val}"
    return True, "exp(-log Z) * E[exp(r)] = 1 by quadrature for both tilts"


def check_tilted_mixture_vs_snis():
    target = _two_mode_path().target
    linear, quadratic = LinearReward([0.5, 0.25]), QuadraticReward(0.5)
    _, lin = oracles.tilted_mixture(target, linear)
    _, quad = oracles.tilted_mixture(target, quadratic)
    cases = (("linear E[x0]", linear, lambda x: x[:, 0], lin.weights @ lin.means[:, 0], 41),
             ("quadratic E[x0^2]", quadratic, lambda x: x[:, 0] ** 2,
              quad.weights @ (quad.means[:, 0] ** 2 + quad.covariances[:, 0, 0]), 43))
    details = []
    for name, reward, h, exact, seed in cases:
        est = oracles.snis_tilted_expectation(target, reward, h, 200000,
                                              np.random.default_rng(seed))
        details.append(f"{name} {exact:.4f} vs SNIS {est.estimate:.4f} +- {est.stderr:.4f}")
        if not abs(est.estimate - exact) < 3 * est.stderr:
            return False, details[-1]
    return True, "; ".join(details)


def check_finite_diff():
    g = oracles.finite_diff_grad(lambda z: -0.5 * float(z @ z), np.array([1.0, 2.0]))
    ok = np.max(np.abs(g - [-1.0, -2.0])) < 1e-8
    g2 = oracles.finite_diff_grad(lambda z: 0.7 * z[0], np.array([5.0]))
    ok = ok and abs(g2[0] - 0.7) < 1e-10
    return bool(ok), "central differences match analytic gradients"


SUITES = {
    "interpolant": [check_schedule_eta, check_dynamics_closed_form,
                    check_score_velocity_identity, check_interpolation_identity,
                    check_score_is_grad_logdensity, check_continuity_equation,
                    check_sampling_moments],
    "flowmap": [check_flowmap_oracle_value, check_semigroup_inverse,
                check_tangent_identity, check_eulerian_identity,
                check_flowmap_vs_closed_form, check_k_step_examples],
    "rewards": [check_reward_transport_identity, check_reward_modes_at_one,
                check_k_step_mode_convergence, check_reward_gradients_fd,
                check_hutchinson, check_coordinate_laplacian],
    "tilt": [check_position_step_example, check_base_dynamics_neutral,
             check_softmax_shift_invariance, check_local_tilt_mean_shift,
             check_expectation_scheme_example, check_simplified_example],
    "smc": [check_ess_examples, check_systematic_uniform, check_top_n,
            check_weighted_expectation_examples, check_zero_reward_run,
            check_run_determinism],
    "diagnostics": [check_discrepancy_example, check_zero_reward_diagnostics,
                    check_quality_ratio_examples, check_length_bound,
                    check_refinement_example, check_var_model,
                    check_lognormal_consistency],
    "oracles": [check_snis_linear, check_snis_quadratic, check_closed_form_examples,
                check_normalizer_consistency, check_tilted_mixture_vs_snis,
                check_finite_diff],
}


def run_suites(only: str | None = None):
    """Run the invariant suites; returns a list of (module, name, ok, detail)."""
    if only is not None and only not in SUITES:
        raise ValueError(f"unknown module {only!r}; choose from {sorted(SUITES)}")
    report = []
    for module, checks in SUITES.items():
        if only is not None and module != only:
            continue
        for fn in checks:
            try:
                ok, detail = fn()
            except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            report.append((module, fn.__name__, bool(ok), detail))
    return report
