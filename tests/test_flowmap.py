import numpy as np
import pytest

from fmtt import (FlowMapEvaluator, GaussianMixture, MixturePath,
                  ToleranceError, gaussian_pair_closed_form, standard_normal)


def std_path():
    return MixturePath(standard_normal(1), standard_normal(1))


def shifted_path():
    target = GaussianMixture([1.0], [[1.0]], [[[1.0]]])
    return MixturePath(standard_normal(1), target)


def kappa(t):
    return 2 * t * t - 2 * t + 1


def test_identity_at_equal_times():
    ev = FlowMapEvaluator(std_path())
    x = np.array([0.37])
    assert np.array_equal(ev.flow_map(0.7, 0.7, x), x)
    res = ev.flow_map_jacobian(0.7, 0.7, x)
    assert res.jacobian[0, 0] == 1.0


def test_std_pair_closed_form_value():
    ev = FlowMapEvaluator(std_path(), rel_tol=1e-10, abs_tol=1e-12)
    out = ev.flow_map(0.0, 0.5, np.array([1.0]))
    assert out[0] == pytest.approx(np.sqrt(0.5), abs=1e-8)


def test_shifted_pair_endpoint():
    ev = FlowMapEvaluator(shifted_path(), rel_tol=1e-10, abs_tol=1e-12)
    out = ev.flow_map(0.0, 1.0, np.array([0.3]))
    assert out[0] == pytest.approx(1.3, abs=1e-8)


def test_backward_integration():
    ev = FlowMapEvaluator(std_path(), rel_tol=1e-10, abs_tol=1e-12)
    fwd = ev.flow_map(0.2, 0.8, np.array([1.1]))
    back = ev.flow_map(0.8, 0.2, fwd)
    assert back[0] == pytest.approx(1.1, abs=1e-8)


def test_jacobian_linear_map():
    ev = FlowMapEvaluator(std_path(), rel_tol=1e-10, abs_tol=1e-12)
    res = ev.flow_map_jacobian(0.0, 0.5, np.array([1.0]))
    assert res.jacobian[0, 0] == pytest.approx(np.sqrt(0.5), abs=1e-8)


def test_jacobian_isotropic_2d():
    path = MixturePath(standard_normal(2), standard_normal(2))
    ev = FlowMapEvaluator(path, rel_tol=1e-10, abs_tol=1e-12)
    res = ev.flow_map_jacobian(0.1, 0.6, np.array([0.5, -1.0]))
    jac = res.jacobian
    assert abs(jac[0, 1]) < 1e-9 and abs(jac[1, 0]) < 1e-9
    assert jac[0, 0] == pytest.approx(jac[1, 1], abs=1e-9)


def test_semigroup_and_inverse():
    ev = FlowMapEvaluator(shifted_path(), rel_tol=1e-10, abs_tol=1e-12)
    rng = np.random.default_rng(4)
    for _ in range(25):
        s, t, u = np.sort(rng.uniform(0, 1, 3))
        x = rng.normal(size=(1,))
        two_leg = ev.flow_map(t, u, ev.flow_map(s, t, x))
        direct = ev.flow_map(s, u, x)
        assert np.max(np.abs(two_leg - direct)) < 1e-7
        assert np.max(np.abs(ev.flow_map(t, s, ev.flow_map(s, t, x)) - x)) < 1e-7


def test_tolerance_error_carries_partial_time():
    ev = FlowMapEvaluator(std_path(), max_steps=2)
    with pytest.raises(ToleranceError) as err:
        ev.flow_map(0.0, 1.0, np.linspace(-3, 3, 64).reshape(-1, 1))
    assert 0.0 <= err.value.partial_time < 1.0


def test_tightening_tolerance_does_not_hurt():
    x = np.array([1.7])
    exact = gaussian_pair_closed_form(std_path(), 0.1, 0.9, x)[0]
    errs = []
    for rt in (1e-6, 1e-10):
        ev = FlowMapEvaluator(std_path(), rel_tol=rt, abs_tol=rt * 1e-2)
        errs.append(abs(ev.flow_map(0.1, 0.9, x)[0] - exact))
    assert errs[1] <= errs[0] + 1e-14


def test_k_step_euler_and_heun_examples():
    ev = FlowMapEvaluator(std_path())
    assert ev.k_step_map(0.0, 1.0, np.array([1.0]), 1, "euler")[0] == pytest.approx(0.0, abs=1e-14)
    assert ev.k_step_map(0.0, 1.0, np.array([1.0]), 1, "heun")[0] == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("k", [0, 2.5, 2.0, True, "2"])
def test_k_step_count_must_be_an_integer_of_at_least_one(k):
    ev = FlowMapEvaluator(std_path())
    with pytest.raises(ValueError, match="k must be"):
        ev.k_step_map(0.0, 1.0, np.array([1.0]), k)
    with pytest.raises(ValueError, match="k must be"):
        ev.k_step_map_jacobian(0.0, 1.0, np.array([1.0]), k)


def test_k_step_count_may_be_a_numpy_integer():
    ev = FlowMapEvaluator(std_path())
    x = np.array([1.0])
    assert np.array_equal(ev.k_step_map(0.0, 1.0, x, np.int64(4)), ev.k_step_map(0.0, 1.0, x, 4))


def test_k_step_converges_to_flow_map():
    ev = FlowMapEvaluator(std_path(), rel_tol=1e-10, abs_tol=1e-12)
    exact = ev.flow_map(0.0, 1.0, np.array([1.0]))[0]
    errs = [abs(ev.k_step_map(0.0, 1.0, np.array([1.0]), k, "heun")[0] - exact)
            for k in (8, 32, 128)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-5


def test_k_step_jacobian_matches_fd():
    path = shifted_path()
    ev = FlowMapEvaluator(path)
    x = np.array([0.4])
    for scheme in ("euler", "heun"):
        jac = ev.k_step_map_jacobian(0.2, 1.0, x, 4, scheme).jacobian[0, 0]
        h = 1e-6
        fd = (ev.k_step_map(0.2, 1.0, x + h, 4, scheme)[0]
              - ev.k_step_map(0.2, 1.0, x - h, 4, scheme)[0]) / (2 * h)
        assert jac == pytest.approx(fd, abs=1e-7)


def test_closed_form_examples():
    path = std_path()
    x = np.array([2.0])
    assert gaussian_pair_closed_form(path, 0.0, 1.0, x)[0] == pytest.approx(2.0, abs=1e-14)
    expected = 2.0 * np.sqrt(kappa(1.0) / kappa(0.25))
    assert gaussian_pair_closed_form(path, 0.25, 1.0, x)[0] == pytest.approx(expected, abs=1e-12)
    assert gaussian_pair_closed_form(path, 0.4, 0.4, x)[0] == pytest.approx(2.0, abs=1e-14)


def test_closed_form_rejects_mixtures():
    target = GaussianMixture.isotropic([0.5, 0.5], [[-1.0], [1.0]], 0.5)
    path = MixturePath(standard_normal(1), target)
    with pytest.raises(ValueError):
        gaussian_pair_closed_form(path, 0.0, 1.0, np.array([0.0]))


def test_numerical_matches_closed_form():
    path = shifted_path()
    ev = FlowMapEvaluator(path, rel_tol=1e-10, abs_tol=1e-12)
    for s, t in ((0.0, 0.5), (0.3, 0.9), (0.8, 0.1)):
        for x in (-1.5, 0.2, 2.4):
            num = ev.flow_map(s, t, np.array([x]))[0]
            exact = gaussian_pair_closed_form(path, s, t, np.array([x]))[0]
            assert num == pytest.approx(exact, abs=1e-8)


def test_batched_matches_single():
    ev = FlowMapEvaluator(std_path(), rel_tol=1e-10, abs_tol=1e-12)
    xs = np.array([[0.5], [-1.0], [2.0]])
    batch = ev.flow_map(0.0, 0.7, xs)
    for i in range(3):
        single = ev.flow_map(0.0, 0.7, xs[i])
        assert np.max(np.abs(batch[i] - single)) < 1e-9
