import numpy as np
import pytest
from scipy.integrate import quad

from fmtt import (CustomReward, GaussianMixture, LinearReward, LogResponsibilityReward,
                  QuadraticReward, ZeroReward, finite_diff_grad, snis_tilted_expectation,
                  standard_normal, tilted_mixture)


def test_snis_zero_reward_is_plain_mean():
    est = snis_tilted_expectation(standard_normal(1), ZeroReward(),
                                  lambda x: x[:, 0], 10**5,
                                  np.random.default_rng(0))
    assert abs(est.estimate) < 4 * est.stderr
    assert est.stderr == pytest.approx(1.0 / np.sqrt(10**5), rel=0.05)


def test_snis_linear_tilt_matches_closed_form():
    est = snis_tilted_expectation(standard_normal(1), LinearReward([0.5]),
                                  lambda x: x[:, 0], 10**6,
                                  np.random.default_rng(1))
    assert abs(est.estimate - 0.5) < 3 * est.stderr


def test_snis_quadratic_tilt_matches_closed_form():
    est = snis_tilted_expectation(standard_normal(1), QuadraticReward(1.0),
                                  lambda x: x[:, 0] ** 2, 10**6,
                                  np.random.default_rng(2))
    assert abs(est.estimate - 0.5) < 3 * est.stderr


def test_snis_stderr_shrinks_with_samples():
    def spread(m, seed):
        return snis_tilted_expectation(standard_normal(1), LinearReward([0.5]),
                                       lambda x: x[:, 0], m,
                                       np.random.default_rng(seed)).stderr

    assert spread(4 * 10**4, 3) == pytest.approx(0.5 * spread(10**4, 4), rel=0.1)


def test_snis_validates_inputs():
    with pytest.raises(ValueError):
        snis_tilted_expectation(standard_normal(1), ZeroReward(),
                                lambda x: x[:, 0], 50, np.random.default_rng(0))


def test_closed_form_linear_examples():
    log_z, tilt = tilted_mixture(standard_normal(1), LinearReward([0.5]))
    assert tilt.means[0, 0] == pytest.approx(0.5)
    assert tilt.covariances[0, 0, 0] == pytest.approx(1.0)
    assert log_z == pytest.approx(0.125)
    log_z, ident = tilted_mixture(standard_normal(1), LinearReward([0.0]))
    assert ident.means[0, 0] == 0.0 and log_z == 0.0


def test_closed_form_quadratic_examples():
    log_z, tilt = tilted_mixture(standard_normal(1), QuadraticReward(1.0))
    assert tilt.covariances[0, 0, 0] == pytest.approx(0.5)
    assert log_z == pytest.approx(-0.5 * np.log(2.0))
    _, shifted = tilted_mixture(GaussianMixture([1.0], [[1.5]], [[[2.0]]]),
                                QuadraticReward(0.5))
    assert shifted.covariances[0, 0, 0] == pytest.approx(1.0)
    assert shifted.means[0, 0] == pytest.approx(0.75)


def test_closed_form_rejects_improper_tilt():
    with pytest.raises(ValueError, match="not positive definite"):
        tilted_mixture(standard_normal(1), QuadraticReward(-1.5))
    # One improper component is enough.
    two = GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[[1.0]], [[0.5]]])
    with pytest.raises(ValueError, match="not positive definite"):
        tilted_mixture(two, QuadraticReward(-1.5))
    tilted_mixture(two, QuadraticReward(-0.9))


def test_tilted_mixture_refuses_rewards_without_closed_form():
    two = GaussianMixture([0.3, 0.7], [[-1.0], [1.0]], [[[1.0]], [[0.5]]])
    other = GaussianMixture([0.3, 0.7], [[-1.0], [1.5]], [[[1.0]], [[0.5]]])
    for reward in (CustomReward(lambda x: x[:, 0]),
                   LogResponsibilityReward(two, 1, scale=0.5),
                   LogResponsibilityReward(other, 1),
                   LinearReward([1.0, 2.0])):
        with pytest.raises(ValueError):
            tilted_mixture(two, reward)


def test_zero_reward_tilt_is_the_target():
    two = GaussianMixture([0.3, 0.7], [[-1.0], [1.0]], [[[1.0]], [[0.5]]])
    log_z, tilt = tilted_mixture(two, ZeroReward())
    assert log_z == 0.0 and tilt is two


def test_log_responsibility_tilt_is_its_component():
    target = GaussianMixture([0.2, 0.3, 0.5], [[-1.0, 0.0], [1.0, 2.0], [0.0, -1.0]],
                             [np.eye(2), [[2.0, 0.5], [0.5, 1.0]], 0.5 * np.eye(2)])
    log_z, tilt = tilted_mixture(target, LogResponsibilityReward(target, 1))
    assert log_z == np.log(0.3)
    assert tilt.weights.tolist() == [1.0]
    assert np.array_equal(tilt.means, target.means[1:2])
    assert np.array_equal(tilt.covariances, target.covariances[1:2])


def test_log_normalizer_matches_quadrature():
    for mu, var, lam, gam in ((0.3, 1.2, 0.7, None),
                              (-0.5, 0.8, None, 0.9),
                              (1.0, 0.5, -0.4, None)):
        reward = LinearReward([lam]) if lam is not None else QuadraticReward(gam)
        log_z, _ = tilted_mixture(GaussianMixture([1.0], [[mu]], [[[var]]]), reward)

        def integrand(x):
            dens = np.exp(-0.5 * (x - mu) ** 2 / var) / np.sqrt(2 * np.pi * var)
            r = lam * x if lam is not None else -0.5 * gam * x * x
            return dens * np.exp(r)

        z, _ = quad(integrand, -30, 30)
        assert log_z == pytest.approx(np.log(z), abs=1e-8)


def test_tilted_moments_match_snis():
    mu, var, gam = 0.4, 1.5, 0.6
    target = GaussianMixture([1.0], [[mu]], [[[var]]])
    _, tilt = tilted_mixture(target, QuadraticReward(gam))
    est = snis_tilted_expectation(target, QuadraticReward(gam),
                                  lambda x: x[:, 0], 10**6,
                                  np.random.default_rng(5))
    assert abs(est.estimate - tilt.means[0, 0]) < 3 * est.stderr


# naive-wide's d=8 target: 16 equal components of variance 0.25.
WIDE = GaussianMixture.isotropic(np.full(16, 1.0 / 16),
                                 np.random.default_rng(3).normal(scale=1.5, size=(16, 8)),
                                 0.25)


@pytest.mark.parametrize("reward,log_z,mean,seed", [
    (QuadraticReward(0.5), -3.51587, 0.25459, 6),
    (LinearReward(0.5 * np.eye(8)[0]), 0.47943, 1.63850, 7)], ids=["quadratic", "linear"])
def test_d8_tilt_matches_snis(reward, log_z, mean, seed):
    got_log_z, tilt = tilted_mixture(WIDE, reward)
    exact = tilt.weights @ tilt.means[:, 0]
    assert got_log_z == pytest.approx(log_z, abs=1e-4)
    assert exact == pytest.approx(mean, abs=1e-4)
    est = snis_tilted_expectation(WIDE, reward, lambda x: x[:, 0], 10**6,
                                  np.random.default_rng(seed))
    assert abs(est.estimate - exact) < 3 * est.stderr


def test_finite_diff_grad():
    f = lambda z: float(np.sin(z[0]) + z[0] * z[1] ** 2)
    x = np.array([0.3, -0.7])
    g = finite_diff_grad(f, x)
    assert g[0] == pytest.approx(np.cos(0.3) + 0.49, abs=1e-8)
    assert g[1] == pytest.approx(2 * 0.3 * -0.7, abs=1e-8)
