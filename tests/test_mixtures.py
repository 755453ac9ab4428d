import numpy as np
import pytest
import yaml

from fmtt import (GaussianMixture, InterpolantSchedule, MixturePath,
                  finite_diff_grad, standard_normal)


def two_mode_1d():
    return GaussianMixture.isotropic([0.5, 0.5], [[-2.0], [2.0]], 0.25)


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        GaussianMixture([0.5, 0.4], [[-1.0], [1.0]], np.ones((2, 1, 1)))


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        GaussianMixture([1.0, 0.0], [[-1.0], [1.0]], np.ones((2, 1, 1)))


def test_covariance_must_be_spd():
    with pytest.raises(Exception):
        GaussianMixture([1.0], [[0.0]], [[[-1.0]]])
    with pytest.raises(ValueError):
        GaussianMixture([1.0], [[0.0, 0.0]], [np.array([[1.0, 0.5], [0.4, 1.0]])])


@pytest.mark.parametrize("weights,means,cov", [
    ([np.nan, 0.5], [[-1.0], [1.0]], 1.0),
    ([0.5, 0.5], [[np.nan], [1.0]], 1.0),
    ([0.5, 0.5], [[-1.0], [np.inf]], 1.0),
    ([0.5, 0.5], [[-1.0], [1.0]], np.inf),
], ids=["nan-weight", "nan-mean", "inf-mean", "inf-covariance"])
def test_non_finite_parameters_rejected(weights, means, cov):
    with pytest.raises(ValueError, match="finite"):
        GaussianMixture(weights, means, np.full((2, 1, 1), cov))


def test_sampling_moments_match_law():
    rng = np.random.default_rng(0)
    x = standard_normal(1).sample(10**6, rng)
    assert abs(float(x.mean())) < 4e-3
    assert abs(float(x.var()) - 1.0) < 0.01


def test_sampling_degenerate_covariance_concentrates():
    gm = GaussianMixture([1.0], [[2.0]], [[[1e-12]]])
    x = gm.sample(1000, np.random.default_rng(1))
    assert np.all(np.abs(x - 2.0) < 1e-5)


def test_sampling_is_deterministic_per_seed():
    gm = two_mode_1d()
    a = gm.sample(100, np.random.default_rng(5))
    b = gm.sample(100, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_sample_rejects_zero_count():
    with pytest.raises(ValueError):
        standard_normal(1).sample(0, np.random.default_rng(0))


def test_yaml_roundtrip():
    gm = two_mode_1d()
    back = GaussianMixture.from_dict(yaml.safe_load(yaml.safe_dump(gm.to_dict())))
    assert np.allclose(back.means, gm.means)
    assert np.allclose(back.covariances, gm.covariances)


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError):
        GaussianMixture.from_dict({"weights": [1.0], "means": [[0.0]],
                                   "covariances": [[[1.0]]], "bogus": 1})


def test_dynamics_closed_form_point():
    path = MixturePath(standard_normal(1), standard_normal(1))
    d = path.dynamics(0.25, np.array([2.0]))
    kappa = 2 * 0.0625 - 0.5 + 1
    assert d.velocity[0] == pytest.approx(-1.6, abs=1e-12)
    assert d.score[0] == pytest.approx(-3.2, abs=1e-12)
    assert d.denoiser[0] == pytest.approx(0.8, abs=1e-12)
    assert kappa == 0.625


def test_score_velocity_identity_linear_schedule():
    path = MixturePath(standard_normal(1), two_mode_1d())
    for t in np.linspace(0.0, 0.99, 15):
        for x in np.linspace(-3, 3, 7):
            d = path.dynamics(t, np.array([x]))
            assert d.score[0] == pytest.approx((t * d.velocity[0] - x) / (1 - t),
                                               abs=1e-10)


def test_symmetric_point_has_zero_drift():
    path = MixturePath(standard_normal(1), two_mode_1d())
    d = path.dynamics(0.5, np.array([0.0]))
    assert abs(d.velocity[0]) < 1e-14


def test_dynamics_rejects_non_finite():
    path = MixturePath(standard_normal(1), standard_normal(1))
    with pytest.raises(ValueError):
        path.dynamics(0.5, np.array([np.nan]))


def test_interpolation_identity():
    target = GaussianMixture.isotropic([0.3, 0.7], [[-1.0, 0.5], [2.0, -0.5]], 0.4)
    path = MixturePath(standard_normal(2), target)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(20, 2))
    for t in (0.2, 0.6, 0.95):
        a, b = path.schedule.alpha(t), path.schedule.beta(t)
        e0, e1 = path.conditional_means(t, x)
        assert np.max(np.abs(a * e0 + b * e1 - x)) < 1e-10


def test_score_matches_fd_gradient_of_log_density():
    path = MixturePath(standard_normal(1), two_mode_1d())
    for t in (0.3, 0.8):
        for x in (-1.2, 0.4, 2.1):
            s = path.dynamics(t, np.array([x])).score[0]
            fd = finite_diff_grad(lambda z: path.dynamics(t, z).log_density, np.array([x]))
            assert s == pytest.approx(fd[0], abs=1e-6)


def test_velocity_jacobian_matches_fd():
    target = GaussianMixture.isotropic([0.4, 0.6], [[-1.0, 0.0], [1.5, 1.0]], 0.3)
    path = MixturePath(standard_normal(2), target)
    x = np.array([0.3, -0.7])
    jac = path.dynamics(0.6, x, jacobian="velocity").jacobian
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (path.dynamics(0.6, x + e).velocity - path.dynamics(0.6, x - e).velocity) / (2 * h)
        assert np.max(np.abs(jac[:, i] - fd)) < 1e-6


def test_denoiser_jacobian_matches_fd():
    path = MixturePath(standard_normal(1), two_mode_1d())
    x = np.array([0.4])
    jac = path.dynamics(0.5, x, jacobian="denoiser").jacobian
    h = 1e-6
    fd = (path.dynamics(0.5, x + h).denoiser - path.dynamics(0.5, x - h).denoiser) / (2 * h)
    assert jac[0, 0] == pytest.approx(fd[0], abs=1e-6)


def test_continuity_equation_residual():
    path = MixturePath(standard_normal(1), two_mode_1d())
    h = 1e-5
    for t in (0.25, 0.5, 0.75):
        for x in np.linspace(-2, 2, 9):
            pt = np.array([x])
            dlog = (path.dynamics(t + h, pt).log_density
                    - path.dynamics(t - h, pt).log_density) / (2 * h)
            div = (path.dynamics(t, pt + h).velocity[0]
                   - path.dynamics(t, pt - h).velocity[0]) / (2 * h)
            d = path.dynamics(t, pt)
            assert abs(dlog + div + d.velocity[0] * d.score[0]) < 1e-4


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        MixturePath(standard_normal(1), standard_normal(2))


def _random_spd(rng, k, d):
    a = rng.normal(size=(k, d, d))
    return a @ np.swapaxes(a, 1, 2) / d + 0.3 * np.eye(d)


def _random_path(kb, kt, d, seed):
    """Full, mutually non-commuting covariances on both sides."""
    rng = np.random.default_rng(seed)
    base = GaussianMixture(rng.dirichlet(np.ones(kb) * 3), rng.normal(size=(kb, d)),
                           _random_spd(rng, kb, d))
    target = GaussianMixture(rng.dirichlet(np.ones(kt) * 3), 2 * rng.normal(size=(kt, d)),
                             _random_spd(rng, kt, d))
    x = np.concatenate([rng.normal(size=(12, d)) * 1.5,
                        rng.normal(size=(4, d)) * 25.0])  # far-tail rows
    return MixturePath(base, target), x


def _near_degenerate_path(kt, d, seed):
    """A base whose covariance diag(1, ..., 1, 1e-8) has condition number
    1e8, and rows in the bulk of its support: their last coordinate is the
    base mean's.  Off the support, or far in its tails, the fields at t = 0
    are themselves ill-conditioned (C^{-1} amplifies the rounding of x by
    1e8), so no two kernels need agree there."""
    rng = np.random.default_rng(seed)
    cov = np.diag(np.r_[np.ones(d - 1), 1e-8])
    base = GaussianMixture([1.0], rng.normal(size=(1, d)), cov[None])
    target = GaussianMixture(rng.dirichlet(np.ones(kt) * 3), 2 * rng.normal(size=(kt, d)),
                             _random_spd(rng, kt, d))
    x = rng.normal(size=(16, d)) * 1.5
    x[:, -1] = base.means[0, -1]
    return MixturePath(base, target), x


def _per_pair_reference(path, t, x):
    """The per-pair loop the batched kernel replaced, one np.linalg.solve per
    pair: velocity, score, denoiser, log-density and both Jacobians."""
    from scipy.special import logsumexp

    # The linear interpolant I_t = (1 - t) x0 + t x1, whose velocity is
    # E[x1 - x0 | I_t = x].
    a, b = 1.0 - t, t
    base, target = path.base, path.target
    n, d = x.shape
    logjoint, us, vs, e1s, ms, bss = [], [], [], [], [], []
    for i in range(base.n_components):
        for j in range(target.n_components):
            C, S = base.covariances[i], target.covariances[j]
            cov = a * a * C + b * b * S
            diff = x - (a * base.means[i] + b * target.means[j])
            u = np.linalg.solve(cov, diff.T).T
            logdet = np.linalg.slogdet(cov)[1]
            logjoint.append(np.log(base.weights[i] * target.weights[j])
                            - 0.5 * (d * np.log(2 * np.pi) + logdet + np.sum(diff * u, axis=1)))
            e1 = target.means[j] + b * (S @ u.T).T
            e0 = base.means[i] + a * (C @ u.T).T
            us.append(u)
            e1s.append(e1)
            vs.append(e1 - e0)
            ms.append(np.linalg.solve(cov.T, (b * S - a * C).T).T)
            bss.append(np.linalg.solve(cov.T, (b * S).T).T)
    logjoint = np.stack(logjoint, axis=1)
    log_density = logsumexp(logjoint, axis=1)
    r = np.exp(logjoint - log_density[:, None])
    u, v, e1 = (np.stack(z, axis=1) for z in (us, vs, e1s))
    score = -np.einsum("np,npi->ni", r, u)
    g = -u - score[:, None, :]

    def jac(mats, f):
        return (np.einsum("np,pij->nij", r, np.stack(mats))
                + np.einsum("np,npi,npj->nij", r, f, g))

    return {"velocity": np.einsum("np,npi->ni", r, v), "score": score,
            "denoiser": np.einsum("np,npi->ni", r, e1), "log_density": log_density,
            "velocity_jacobian": jac(ms, v), "denoiser_jacobian": jac(bss, e1)}


def _assert_agrees(new, old):
    scale = np.max(np.abs(old))
    assert np.max(np.abs(new - old)) <= 1e-11 * scale


@pytest.mark.parametrize("kb,kt,d,base_cond", [
    pytest.param(1, 2, 1, None, id="1-2-1"),
    pytest.param(2, 2, 2, None, id="2-2-2"),
    pytest.param(2, 8, 8, None, id="2-8-8"),
    # Factoring each pair once on its base covariance alone loses ~1e-8
    # here at t = 0.37.
    pytest.param(1, 2, 8, 1e8, id="1-2-8-cond1e8"),
])
@pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
def test_batched_kernel_matches_per_pair_loop(kb, kt, d, base_cond, t):
    seed = kb * 100 + kt * 10 + d
    path, x = (_random_path(kb, kt, d, seed) if base_cond is None
               else _near_degenerate_path(kt, d, seed))
    if base_cond is not None:
        assert np.linalg.cond(path.base.covariances[0]) == pytest.approx(base_cond)
    ref = _per_pair_reference(path, t, x)
    dyn = path.dynamics(t, x)
    for name in ("velocity", "score", "denoiser", "log_density"):
        _assert_agrees(getattr(dyn, name), ref[name])
    with_velocity = path.dynamics(t, x, jacobian="velocity")
    _assert_agrees(with_velocity.jacobian, ref["velocity_jacobian"])
    denoiser_jacobian = path.dynamics(t, x, jacobian="denoiser").jacobian
    if t == 0.0:
        # beta = 0: the denoiser is constant in x, so its Jacobian is zero in
        # exact arithmetic and both kernels return rounding noise.
        assert np.max(np.abs(denoiser_jacobian)) <= 1e-11
    else:
        _assert_agrees(denoiser_jacobian, ref["denoiser_jacobian"])
    assert np.array_equal(with_velocity.velocity, dyn.velocity)
    assert dyn.jacobian is None


@pytest.mark.parametrize("k,d", [(2, 1), (4, 2), (16, 8)])
def test_batched_mixture_matches_per_component_loop(k, d):
    from fmtt import LogResponsibilityReward
    from scipy.special import logsumexp

    path, x = _random_path(1, k, d, seed=k + d)
    gm = path.target
    logjoint, us = [], []
    for j in range(k):
        diff = x - gm.means[j]
        u = np.linalg.solve(gm.covariances[j], diff.T).T
        logdet = np.linalg.slogdet(gm.covariances[j])[1]
        logjoint.append(np.log(gm.weights[j])
                        - 0.5 * (d * np.log(2 * np.pi) + logdet + np.sum(diff * u, axis=1)))
        us.append(u)
    logjoint, u = np.stack(logjoint, axis=1), np.stack(us, axis=1)
    log_density = logsumexp(logjoint, axis=1)
    resp = np.exp(logjoint - log_density[:, None])
    _assert_agrees(gm.log_density(x), log_density)
    _assert_agrees(gm.log_responsibilities(x), logjoint - log_density[:, None])
    reward = LogResponsibilityReward(gm, component=k - 1, scale=0.3)
    _assert_agrees(reward.grad(x), 0.3 * (-u[:, k - 1] + np.einsum("nk,nki->ni", resp, u)))


def test_dynamics_rejects_unknown_jacobian():
    path = MixturePath(standard_normal(1), two_mode_1d())
    with pytest.raises(ValueError):
        path.dynamics(0.5, np.array([0.0]), jacobian="score")


def test_logsumexp_matches_scipy_including_non_finite_inputs():
    from scipy.special import logsumexp

    from fmtt.mixtures import _logsumexp

    rng = np.random.default_rng(5)
    inf = np.inf
    rows = [rng.normal(scale=50.0, size=7), [1.0, np.nan, 2.0], [1.0, inf, -inf],
            [-inf, -inf, -inf], [np.nan, inf, 0.0], [-inf, 3.0, -inf]]
    with np.errstate(divide="ignore"):
        for row in rows:
            row = np.asarray(row, dtype=float)
            assert np.allclose(_logsumexp(row), logsumexp(row), rtol=1e-15, atol=0,
                               equal_nan=True), row
        a = rng.normal(scale=50.0, size=(4, 6))
        for axis in (0, 1):
            assert np.allclose(_logsumexp(a, axis), logsumexp(a, axis=axis),
                               rtol=1e-15, atol=0)


def test_path_kernel_makes_no_cholesky_or_inverse(monkeypatch):
    # The mixtures factor their covariances when built, and a path
    # diagonalizes its pairs once, at its first kernel pass; no call after
    # that factors, inverts or diagonalizes a matrix.
    path, x = _random_path(2, 8, 8, seed=3)

    def refuse(*args, **kwargs):
        raise AssertionError("the path kernel factored a matrix")

    for refused in (("cholesky", "inv"), ("cholesky", "inv", "eigh", "solve")):
        for name in refused:
            monkeypatch.setattr(np.linalg, name, refuse)
        for t in (0.0, 0.37, 1.0):
            for jacobian in (None, "velocity", "denoiser"):
                path.dynamics(t, x, jacobian=jacobian)
            path.conditional_means(t, x)


ROW_PATHS = [(2, 8, 1), (2, 8, 2), (2, 8, 8)]
ROW_BATCHES = (1, 2, 3, 15, 37, 128, 599)


def _fields(path, t, x):
    dyn = [path.dynamics(t, x, jacobian=j) for j in (None, "velocity", "denoiser")]
    return ([getattr(dyn[0], f) for f in ("velocity", "score", "denoiser", "log_density")]
            + [dyn[1].jacobian, dyn[2].jacobian, *path.conditional_means(t, x)])


@pytest.mark.parametrize("kb,kt,d", ROW_PATHS)
@pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
def test_kernel_rows_do_not_depend_on_their_batch(kb, kt, d, t):
    # Each row of every field, both Jacobians included, is bitwise that row
    # of a larger call, wherever it sits in the batch.
    path, _ = _random_path(kb, kt, d, seed=11)
    x = np.random.default_rng(12).normal(scale=2.0, size=(600, d))
    full = _fields(path, t, x)
    for n in ROW_BATCHES:
        for start in (0, 600 - n):
            for got, want in zip(_fields(path, t, x[start:start + n]), full):
                assert np.array_equal(got, want[start:start + n]), (n, start)
    # A 1-D state gives the fields of that row.
    for got, want in zip(_fields(path, t, x[5]), full):
        assert np.array_equal(got, want[5])


@pytest.mark.parametrize("d", [1, 2, 8])
def test_mixture_rows_do_not_depend_on_their_batch(d):
    path, _ = _random_path(1, 16, d, seed=13)
    gm = path.target
    x = np.random.default_rng(14).normal(scale=2.0, size=(600, d))
    full = gm.log_density(x), gm.log_responsibilities(x)
    for n in ROW_BATCHES:
        for start in (0, 600 - n):
            assert np.array_equal(gm.log_density(x[start:start + n]), full[0][start:start + n])
            assert np.array_equal(gm.log_responsibilities(x[start:start + n]),
                                  full[1][start:start + n])
