import numpy as np
import pytest

from fmtt import (CustomReward, FlowMapEvaluator, GaussianMixture, LinearReward,
                  LogResponsibilityReward, MixturePath, QuadraticReward,
                  TimeDependentReward, ZeroReward, coordinate_laplacian, finite_diff_grad,
                  gaussian_pair_closed_form, hutchinson_laplacian, standard_normal)
from fmtt import rewards
from fmtt.rewards import MODES, STACK_ELEMENTS


def std_path():
    return MixturePath(standard_normal(1), standard_normal(1))


def two_mode():
    return GaussianMixture.isotropic([0.5, 0.5], [[-2.0, 0.0], [2.0, 0.0]], 0.25)


def kappa(t):
    return 2 * t * t - 2 * t + 1


def test_linear_reward_and_grad():
    r = LinearReward([0.5, -1.0])
    x = np.array([[2.0, 1.0]])
    assert r.value(x)[0] == pytest.approx(0.0)
    assert np.allclose(r.grad(x), [[0.5, -1.0]])


def test_quadratic_reward_and_grad():
    r = QuadraticReward(2.0)
    x = np.array([[1.0, 2.0]])
    assert r.value(x)[0] == pytest.approx(-5.0)
    assert np.allclose(r.grad(x), [[-2.0, -4.0]])


def test_log_responsibility_reward_matches_posterior():
    gm = two_mode()
    r = LogResponsibilityReward(gm, 1, 0.1)
    x = np.array([[2.0, 0.0]])
    assert r.value(x)[0] == pytest.approx(0.1 * gm.log_responsibilities(x)[0, 1])


def test_log_responsibility_grad_matches_fd():
    gm = two_mode()
    r = LogResponsibilityReward(gm, 1, 0.1)
    for pt in ([0.3, -0.2], [-1.0, 0.5]):
        g = r.grad(np.array([pt]))[0]
        fd = finite_diff_grad(lambda z: r.value(z[None, :])[0], np.array(pt))
        assert np.max(np.abs(g - fd)) < 1e-6


def test_value_and_grad_is_value_and_grad_bitwise():
    x = np.array([[0.3, -0.2], [-1.0, 0.5], [9.0, 4.0]])
    for r in (LogResponsibilityReward(two_mode(), 1, 0.1), QuadraticReward(0.3)):
        value, grad = r.value_and_grad(x)
        assert np.array_equal(value, r.value(x))
        assert np.array_equal(grad, r.grad(x))


def test_custom_reward_without_grad_fn_is_value_only():
    quad = QuadraticReward(0.7)
    x = np.random.default_rng(4).normal(size=(5, 3))
    custom = CustomReward(quad.value)
    assert not custom.has_grad
    assert np.array_equal(custom.value(x), quad.value(x))
    for call in (custom.grad, custom.value_and_grad):
        with pytest.raises(ValueError, match="grad_fn"):
            call(x)
    target = GaussianMixture.isotropic([0.3, 0.7], [[-1.0, 0.5, 0.0], [1.5, 0.0, -1.0]], 0.4)
    rt = TimeDependentReward(custom, "denoiser", MixturePath(standard_normal(3), target))
    with pytest.raises(ValueError, match="grad_fn"):
        rt.grad(0.6, x)
    assert np.array_equal(rt.value(0.6, x),
                          TimeDependentReward(quad, "denoiser", rt.path).value(0.6, x))


def test_has_grad_is_computed_and_cannot_be_set():
    for reward in _rewards_in(2):
        assert reward.has_grad, reward
        with pytest.raises(AttributeError):
            reward.has_grad = False
    custom = CustomReward(QuadraticReward(0.7).value)
    assert not custom.has_grad
    with pytest.raises(AttributeError):
        custom.has_grad = True


@pytest.mark.parametrize("fn,grad_fn,call,got", [
    (lambda x: x, None, "value", (4, 1)),
    (lambda x: x[:, 0], lambda x: x[:, 0], "grad", (4,)),
    (lambda x: x[:, 0], lambda x: np.ones((4, 2)), "grad", (4, 2)),
], ids=["fn-column", "grad_fn-vector", "grad_fn-wide"])
def test_custom_reward_refuses_misshapen_outputs(fn, grad_fn, call, got):
    x = np.zeros((4, 1))
    name = "fn" if call == "value" else "grad_fn"
    want = (4,) if call == "value" else (4, 1)
    with pytest.raises(ValueError) as info:
        getattr(CustomReward(fn, grad_fn), call)(x)
    assert f"CustomReward.{name} returned shape {got}" in str(info.value)
    assert f"expected {want}" in str(info.value)


def test_log_responsibility_component_range():
    with pytest.raises(ValueError):
        LogResponsibilityReward(two_mode(), 5)


def test_rt_eval_examples():
    path = std_path()
    naive = TimeDependentReward(LinearReward([1.0]), "naive", path)
    assert naive.value(0.25, np.array([[2.0]]))[0] == pytest.approx(0.5)
    den = TimeDependentReward(LinearReward([1.0]), "denoiser", path)
    assert den.value(0.25, np.array([[2.0]]))[0] == pytest.approx(0.25 * 0.8)
    flow = TimeDependentReward(LinearReward([1.0]), "flowmap_exact", path)
    expected = 0.25 * 2.0 * np.sqrt(1.0 / kappa(0.25))
    assert flow.value(0.25, np.array([[2.0]]))[0] == pytest.approx(expected, abs=1e-6)


def test_rt_grad_examples():
    path = std_path()
    naive = TimeDependentReward(LinearReward([0.5]), "naive", path)
    assert naive.grad(0.5, np.array([[3.0]]))[0, 0] == pytest.approx(0.25)
    flow = TimeDependentReward(LinearReward([1.0]), "flowmap_exact", path)
    assert np.allclose(flow.grad(0.0, np.array([[1.7]])), 0.0)
    g = flow.grad(0.25, np.array([[2.0]]))[0, 0]
    assert g == pytest.approx(0.25 * np.sqrt(1.0 / kappa(0.25)), abs=1e-6)


def test_r0_zero_and_r1_identity_in_every_mode():
    path = MixturePath(standard_normal(2), two_mode())
    base = QuadraticReward(0.3)
    x = np.array([[0.5, -1.0], [2.0, 0.0]])
    for mode in ("naive", "denoiser", "flowmap_exact", "flowmap_ksteps"):
        rt = TimeDependentReward(base, mode, path)
        assert np.allclose(rt.value(0.0, x), 0.0)
        assert np.allclose(rt.value(1.0, x), base.value(x), atol=1e-9)


@pytest.mark.parametrize("mode", MODES)
def test_views_read_the_lookahead_record(mode):
    path = MixturePath(standard_normal(2), two_mode())
    rt = TimeDependentReward(LogResponsibilityReward(two_mode(), 1, 0.1), mode, path)
    x = np.array([[0.5, -1.0], [2.0, 0.3]])
    for t in (0.0, 0.4, 1.0):
        plain = rt.lookahead_value_and_grad(t, x, grad=False)
        assert plain.grad is None
        assert np.array_equal(rt.value(t, x), plain.value)
        assert np.array_equal(rt.grad(t, x), rt.lookahead_value_and_grad(t, x).grad)


def test_time_derivative_examples():
    path = std_path()
    naive = TimeDependentReward(LinearReward([1.0]), "naive", path)
    d = naive.time_derivative(0.4, np.array([[2.0]]), 1e-4)
    assert d[0] == pytest.approx(2.0, abs=1e-8)
    zero = TimeDependentReward(ZeroReward(), "naive", path)
    assert zero.time_derivative(0.4, np.array([[2.0]]))[0] == 0.0


def test_time_derivative_one_sided_at_boundary():
    path = std_path()
    naive = TimeDependentReward(LinearReward([1.0]), "naive", path)
    assert naive.time_derivative(1.0, np.array([[2.0]]), 1e-4)[0] == pytest.approx(2.0, abs=1e-8)


def test_transport_identity_flowmap_mode():
    path = std_path()
    rt = TimeDependentReward(LinearReward([1.0]), "flowmap_exact", path,
                             FlowMapEvaluator(path, rel_tol=1e-10, abs_tol=1e-12))
    for t in (0.1, 0.5, 0.9):
        for x in (-1.0, 0.5, 2.0):
            pt = np.array([x])
            b = path.dynamics(t, pt).velocity
            lhs = float(b @ rt.grad(t, pt)[0]) + float(rt.time_derivative(t, pt)[0])
            terminal = rt.lookahead_value_and_grad(t, pt, False).terminal
            assert lhs == pytest.approx(float(terminal[0]), abs=1e-4)


def test_grad_matches_fd_across_modes():
    path = MixturePath(standard_normal(2), two_mode())
    base = LinearReward([0.4, -0.1])
    for mode in ("naive", "denoiser", "flowmap_exact", "flowmap_ksteps"):
        rt = TimeDependentReward(base, mode, path)
        pt = np.array([0.6, -0.3])
        g = rt.grad(0.7, pt)[0]
        fd = finite_diff_grad(lambda z: rt.value(0.7, z[None, :])[0], pt)
        assert np.max(np.abs(g - fd)) < 1e-5


def test_k_step_mode_error_decreases_with_k():
    path = std_path()
    base = LinearReward([1.0])
    exact = TimeDependentReward(base, "flowmap_exact", path).value(0.3, np.array([[1.5]]))[0]
    errs = [abs(TimeDependentReward(base, "flowmap_ksteps", path, k=k)
                .value(0.3, np.array([[1.5]]))[0] - exact) for k in (1, 4, 16)]
    assert errs[0] > errs[1] > errs[2]


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        TimeDependentReward(ZeroReward(), "psychic", std_path())
    for k, scheme in ((0, "euler"), (2.5, "euler"), (True, "euler"), ("2", "euler"),
                      (4, "rk4")):
        with pytest.raises(ValueError):
            TimeDependentReward(ZeroReward(), "flowmap_ksteps", std_path(), k=k,
                                k_scheme=scheme)
    TimeDependentReward(ZeroReward(), "flowmap_ksteps", std_path(), k=np.int64(2))


def test_flow_of_another_path_rejected():
    path = std_path()
    with pytest.raises(ValueError, match="own path"):
        TimeDependentReward(LinearReward([1.0]), "flowmap_exact", path,
                            FlowMapEvaluator(std_path()))
    TimeDependentReward(LinearReward([1.0]), "flowmap_exact", path, FlowMapEvaluator(path))


def test_hutchinson_quadratic():
    path = MixturePath(standard_normal(2), standard_normal(2))
    rt = TimeDependentReward(QuadraticReward(1.0), "naive", path)
    est = hutchinson_laplacian(rt, 1.0, np.zeros((1, 2)), 1000, 1e-3,
                               np.random.default_rng(8))
    assert est[0] == pytest.approx(-2.0, abs=0.2)


def test_hutchinson_affine_is_zero():
    path = std_path()
    rt = TimeDependentReward(LinearReward([2.0]), "naive", path)
    est = hutchinson_laplacian(rt, 0.5, np.zeros((1, 1)), 100, 1e-3,
                               np.random.default_rng(9), "rademacher")
    assert abs(est[0]) < 1e-8


def test_hutchinson_stderr_scaling():
    path = MixturePath(standard_normal(2), standard_normal(2))
    rt = TimeDependentReward(QuadraticReward(1.0), "flowmap_ksteps", path, k=2)
    x = np.array([[0.5, -0.5]])

    def spread(m, seeds):
        vals = [hutchinson_laplacian(rt, 0.5, x, m, 1e-3,
                                     np.random.default_rng(s))[0] for s in seeds]
        return np.std(vals, ddof=1)

    s1 = spread(50, range(20))
    s4 = spread(200, range(20, 40))
    assert s4 < 0.75 * s1


def test_hutchinson_validates_inputs():
    path = std_path()
    rt = TimeDependentReward(ZeroReward(), "naive", path)
    with pytest.raises(ValueError):
        hutchinson_laplacian(rt, 0.5, np.zeros((1, 1)), 0)
    with pytest.raises(ValueError):
        hutchinson_laplacian(rt, 0.5, np.zeros((1, 1)), 4, eps=0.0)
    with pytest.raises(ValueError):
        coordinate_laplacian(rt, 0.5, np.zeros((1, 1)), eps=0.0)


@pytest.mark.parametrize("m_probes", [4.0, True])
def test_hutchinson_refuses_a_non_integer_probe_count(m_probes):
    rt = TimeDependentReward(ZeroReward(), "naive", std_path())
    with pytest.raises(ValueError, match="m_probes"):
        hutchinson_laplacian(rt, 0.5, np.zeros((1, 1)), m_probes)


def test_hutchinson_takes_a_numpy_integer_probe_count():
    rt = TimeDependentReward(QuadraticReward(1.0), "naive", std_path())
    x = np.array([[0.3], [-1.2]])
    est = [hutchinson_laplacian(rt, 0.5, x, m, 1e-3, np.random.default_rng(2))
           for m in (5, np.int64(5))]
    assert np.array_equal(*est)


def reference_laplacian(rt, t, x, m, eps, rng, probe):
    """The Hutchinson estimate with one probe per pair of gradient calls."""
    n, d = x.shape
    total = np.zeros(n)
    for _ in range(m):
        if probe == "gaussian":
            z = rng.standard_normal((n, d))
        else:
            z = rng.integers(0, 2, size=(n, d)) * 2.0 - 1.0
        total += np.einsum("ni,ni->n", z, rt.grad(t, x + eps * z) - rt.grad(t, x - eps * z))
    return total / (2.0 * m * eps)


def lookahead_in(mode, d):
    target = GaussianMixture.isotropic([0.5, 0.5], [[-2.0, 0.5][:d], [1.5, -1.0][:d]], 0.4)
    path = MixturePath(standard_normal(d), target)
    return TimeDependentReward(LogResponsibilityReward(target, 1, 0.5), mode, path)


@pytest.mark.parametrize("probe", ["gaussian", "rademacher"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("mode", ["naive", "denoiser", "flowmap_ksteps"])
def test_stacked_probes_match_one_probe_per_call(mode, d, probe):
    rt = lookahead_in(mode, d)
    # Chunks of 5 probes, with 12 probes in 3 chunks; then chunks of 1 probe.
    for n, m in ((STACK_ELEMENTS // (2 * d * 5), 12), (STACK_ELEMENTS // (2 * d) + 1, 3)):
        x = np.random.default_rng(n).normal(scale=1.5, size=(n, d))
        est = hutchinson_laplacian(rt, 0.6, x, m, 1e-3, np.random.default_rng(4), probe)
        ref = reference_laplacian(rt, 0.6, x, m, 1e-3, np.random.default_rng(4), probe)
        # Every look-ahead here is row-invariant, so stacking its probes
        # changes no bit.
        assert np.array_equal(est, ref)


def test_stacked_probes_of_one_state_add_up_in_turn():
    # Over a (m, 1) array of probe terms numpy's sum adds pairwise, so the
    # estimate would differ from the loop's running total.
    rt = lookahead_in("naive", 2)
    x = np.array([[0.4, -0.3]])
    est = hutchinson_laplacian(rt, 0.6, x, 100, 1e-3, np.random.default_rng(3))
    assert np.array_equal(est, reference_laplacian(rt, 0.6, x, 100, 1e-3,
                                                   np.random.default_rng(3), "gaussian"))


def test_stacked_probes_match_one_probe_per_call_with_the_exact_map(monkeypatch):
    # The RK45 solve adapts its steps to the whole batch, so the estimate
    # moves at the solver's tolerance.
    rt = lookahead_in("flowmap_exact", 2)
    x = np.random.default_rng(5).normal(scale=1.5, size=(6, 2))
    monkeypatch.setattr(rewards, "STACK_ELEMENTS", 2 * 6 * 2 * 3)
    for probe in ("gaussian", "rademacher"):
        est = hutchinson_laplacian(rt, 0.6, x, 7, 1e-3, np.random.default_rng(6), probe)
        ref = reference_laplacian(rt, 0.6, x, 7, 1e-3, np.random.default_rng(6), probe)
        assert np.max(np.abs(est - ref)) <= 1e-5 * np.max(np.abs(ref))


class CountingLookahead(TimeDependentReward):
    """A look-ahead that records the shape of every gradient call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.shapes = []

    def grad(self, t, x):
        self.shapes.append(np.shape(x))
        return super().grad(t, x)


@pytest.mark.parametrize("n, d, m", [(3, 2, 64), (256, 1, 64), (1000, 2, 5),
                                     (STACK_ELEMENTS, 1, 3), (100, 3, 1)])
def test_probe_calls_stay_within_the_element_bound(n, d, m):
    rt = CountingLookahead(QuadraticReward(1.0), "naive",
                           MixturePath(standard_normal(d), standard_normal(d)))
    x = np.random.default_rng(0).normal(size=(n, d))
    hutchinson_laplacian(rt, 0.5, x, m, 1e-3, np.random.default_rng(1))
    per_call = max(1, STACK_ELEMENTS // (2 * n * d))
    assert len(rt.shapes) == -(-m // per_call)
    assert sum(rows for rows, _ in rt.shapes) == 2 * n * m
    assert all(rows * d <= max(STACK_ELEMENTS, 2 * n * d) for rows, _ in rt.shapes)


@pytest.mark.parametrize("d", [1, 2, 8])
def test_coordinate_laplacian_of_a_quadratic(d):
    # r_t = -t gamma ||x||^2 / 2 in naive mode: Laplacian -t gamma d everywhere.
    path = MixturePath(standard_normal(d), standard_normal(d))
    rt = TimeDependentReward(QuadraticReward(0.7), "naive", path)
    x = np.random.default_rng(d).normal(scale=2.0, size=(50, d))
    for t in (0.3, 1.0):
        est = coordinate_laplacian(rt, t, x)
        assert np.max(np.abs(est + t * 0.7 * d)) < 1e-6, t


def test_coordinate_laplacian_through_the_gaussian_pair_flow_map():
    # Between single Gaussians the flow map is affine, X_{t,1}(x) = mu(1) +
    # A (x - mu(t)) with A = L(1) L(t)^{-1}, so r_t = -t gamma ||X_{t,1}||^2 / 2
    # has the Laplacian -t gamma ||A||_F^2.
    target = GaussianMixture([1.0], [[1.0, -0.5, 0.3]], [np.diag([0.5, 2.0, 1.5])])
    path = MixturePath(standard_normal(3), target)
    rt = TimeDependentReward(QuadraticReward(0.7), "flowmap_exact", path,
                             FlowMapEvaluator(path, rel_tol=1e-10, abs_tol=1e-12))
    x = np.random.default_rng(3).normal(size=(8, 3))
    for t in (0.2, 0.6):
        a_t = (gaussian_pair_closed_form(path, t, 1.0, np.eye(3))
               - gaussian_pair_closed_form(path, t, 1.0, np.zeros(3))).T
        est = coordinate_laplacian(rt, t, x)
        assert np.max(np.abs(est + t * 0.7 * np.sum(a_t**2))) < 1e-8, t


def reference_coordinate_laplacian(rt, t, x, eps):
    """The coordinate trace with one pair of gradient calls per coordinate."""
    n, d = x.shape
    total = np.zeros(n)
    for i, e in enumerate(np.eye(d)):
        total += (rt.grad(t, x + eps * e) - rt.grad(t, x - eps * e))[:, i]
    return total / (2.0 * eps)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("mode", ["naive", "denoiser", "flowmap_ksteps"])
def test_stacked_coordinates_match_one_coordinate_per_call(mode, d):
    rt = lookahead_in(mode, d)
    # All coordinates in one chunk; then one coordinate per chunk.
    for n in (STACK_ELEMENTS // (2 * d * d), STACK_ELEMENTS // (2 * d) + 1):
        x = np.random.default_rng(n).normal(scale=1.5, size=(n, d))
        est = coordinate_laplacian(rt, 0.6, x)
        assert np.array_equal(est, reference_coordinate_laplacian(rt, 0.6, x, 1e-3))


@pytest.mark.parametrize("n, d", [(3, 2), (256, 1), (512, 8), (1000, 3), (STACK_ELEMENTS, 1)])
def test_coordinate_calls_stay_within_the_element_bound(n, d):
    rt = CountingLookahead(QuadraticReward(1.0), "naive",
                           MixturePath(standard_normal(d), standard_normal(d)))
    x = np.random.default_rng(0).normal(size=(n, d))
    coordinate_laplacian(rt, 0.5, x)
    per_call = max(1, STACK_ELEMENTS // (2 * n * d))
    assert len(rt.shapes) == -(-d // per_call)
    assert sum(rows for rows, _ in rt.shapes) == 2 * n * d
    assert all(rows * d <= max(STACK_ELEMENTS, 2 * n * d) for rows, _ in rt.shapes)


def _rewards_in(d):
    """Every kind of reward at dimension d; the mixture has 16 components."""
    rng = np.random.default_rng(d)
    gm = GaussianMixture(rng.dirichlet(np.ones(16)), 2 * rng.normal(size=(16, d)),
                         np.broadcast_to(0.3 * np.eye(d), (16, d, d)))
    quad = QuadraticReward(0.7)
    return [LinearReward(rng.normal(size=d)), quad, LogResponsibilityReward(gm, 3, 0.4),
            ZeroReward(), CustomReward(quad.value, quad.grad)]


@pytest.mark.parametrize("d", [1, 2, 8])
def test_reward_rows_do_not_depend_on_their_batch(d):
    # value_and_grad of each row is bitwise that row of a 600-row call,
    # wherever it sits in the batch, a single row included.
    x = np.random.default_rng(20).normal(scale=2.0, size=(600, d))
    for reward in _rewards_in(d):
        full = reward.value_and_grad(x)
        for n in (1, 2, 3, 15, 37, 128, 599):
            for start in (0, 600 - n):
                part = reward.value_and_grad(x[start:start + n])
                for got, want in zip(part, full):
                    assert np.array_equal(got, want[start:start + n]), (reward, n, start)
