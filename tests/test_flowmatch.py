import warnings

import numpy as np
import pytest

from latentflow import autodiff as ad
from latentflow.exceptions import NumericalError, ValidationError
from latentflow.flowmatch import (
    GaussianTransportSpec,
    OptimizerConfig,
    cfm_loss,
    gaussian_flow_map,
    interpolate,
    target_velocity,
    train_cfm,
    wasserstein1_sorted,
)
from latentflow.odesolver import SolverConfig, solve
from latentflow.oracles import conditional_velocity_variance, gaussian_oracle_velocity, loss_floor
from latentflow.vectorfield import VectorFieldConfig, VelocityField


def test_interpolate_endpoints():
    zp = np.array([[1.0, 2.0]])
    zq = np.array([[5.0, -2.0]])
    np.testing.assert_array_equal(interpolate(zp, zq, 0.0), zp)
    np.testing.assert_array_equal(interpolate(zp, zq, 1.0), zq)
    assert interpolate(np.array(0.0), np.array(2.0), 0.25) == pytest.approx(0.5)


def test_interpolate_validates():
    with pytest.raises(ValidationError, match="shape"):
        interpolate(np.zeros((2, 3)), np.zeros((3, 2)), 0.5)
    for t in (1.5, np.nan, [0.5, np.nan], []):
        with pytest.raises(ValidationError, match="interpolate: t must"):
            interpolate(np.zeros(2), np.zeros(2), t)


def test_interpolate_is_affine():
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((2, 4, 6))
    alpha = 2.7
    np.testing.assert_allclose(
        interpolate(alpha * x, alpha * y, 0.37), alpha * interpolate(x, y, 0.37), rtol=1e-12
    )


def test_time_derivative_of_path_is_target_velocity():
    rng = np.random.default_rng(1)
    zp, zq = rng.standard_normal((2, 3, 5))
    h = 1e-6
    t = 0.42
    fd = (interpolate(zp, zq, t + h) - interpolate(zp, zq, t - h)) / (2 * h)
    np.testing.assert_allclose(fd, target_velocity(zp, zq), atol=1e-8)


def test_target_velocity_antisymmetric():
    zp = np.array([1.0])
    zq = np.array([3.0])
    np.testing.assert_array_equal(target_velocity(zp, zq), [2.0])
    np.testing.assert_array_equal(target_velocity(zq, zp), [-2.0])
    np.testing.assert_array_equal(target_velocity(zp, zp), [0.0])


class _StubField:
    """Minimal stand-in obeying the VelocityField call signature."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, z, t, cond=None, train=False, rng=None):
        zv = z.data if isinstance(z, ad.Tensor) else np.asarray(z)
        return ad.Tensor(self.fn(zv, t))


def test_cfm_loss_zero_when_field_equals_target():
    rng = np.random.default_rng(2)
    zp, zq = rng.standard_normal((2, 8, 4, 1))
    u = zq - zp
    field = _StubField(lambda z, t: u)
    loss = cfm_loss(field, zp, zq, rng.random(8))
    assert loss.item() == pytest.approx(0.0, abs=1e-15)


def test_cfm_loss_constant_gap():
    zp = np.zeros((4, 2, 1))
    zq = np.full((4, 2, 1), 3.0)
    field = _StubField(lambda z, t: np.zeros_like(z))
    loss = cfm_loss(field, zp, zq, np.full(4, 0.5))
    assert loss.item() == pytest.approx(9.0)


def test_cfm_loss_monte_carlo_matches_expected_gap():
    rng = np.random.default_rng(3)
    n = 100_000
    zp = rng.standard_normal((n, 1, 1))
    zq = rng.standard_normal((n, 1, 1))
    field = _StubField(lambda z, t: np.zeros_like(z))
    loss = cfm_loss(field, zp, zq, rng.random(n)).item()
    assert abs(loss - 2.0) / 2.0 < 0.03  # E||z_q - z_p||^2 = 2 per coordinate


def _toy_field(seed=0):
    cfg = VectorFieldConfig(latent_channels=8, hidden=32, cond_channels=0, dropout_p=0.0)
    store = ad.ParamStore()
    return VelocityField(cfg, store, np.random.default_rng(seed)), store


def test_train_cfm_zero_steps_leaves_params():
    field, store = _toy_field()
    before = store.state_dict()
    spec = GaussianTransportSpec()
    losses = train_cfm(lambda r, n: (*spec.sample_pair(r, n, 8), None), field, store, 0, 16, np.random.default_rng(0))
    assert losses == []
    after = store.state_dict()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_train_cfm_deterministic_under_seed():
    def run():
        field, store = _toy_field(11)
        spec = GaussianTransportSpec()
        train_cfm(
            lambda r, n: (*spec.sample_pair(r, n, 8), None),
            field,
            store,
            steps=20,
            batch_size=8,
            opt=OptimizerConfig(lr=1e-3),
            rng=np.random.default_rng(5),
        )
        return store.state_dict()

    a, b = run(), run()
    assert all(np.array_equal(a[k], b[k]) for k in a)
    field, store = _toy_field(11)
    with pytest.raises(TypeError, match="rng"):  # no hidden default seed
        train_cfm(lambda r, n: (*GaussianTransportSpec().sample_pair(r, n, 8), None), field, store, 20, 8)


@pytest.fixture(scope="module")
def trained_gaussian_field():
    spec = GaussianTransportSpec(a=0.0, s=1.0, b=3.0, r=0.5)
    field, store = _toy_field(0)
    losses = train_cfm(
        lambda r, n: (*spec.sample_pair(r, n, 8), None),
        field,
        store,
        steps=5000,
        batch_size=128,
        opt=OptimizerConfig(lr=3e-3, lr_final=1e-4),
        rng=np.random.default_rng(1),
    )
    return spec, field, losses


def test_trained_loss_reaches_conditional_variance_floor(trained_gaussian_field):
    spec, _, losses = trained_gaussian_field
    floor = loss_floor(spec)
    tail = float(np.mean(losses[-100:]))
    assert abs(tail - floor) / floor < 0.10


def test_trained_field_matches_oracle_on_grid(trained_gaussian_field):
    spec, field, _ = trained_gaussian_field
    preds, oracs = [], []
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        mu, sig = spec.path_mean(t), np.sqrt(spec.path_var(t))
        for c in range(8):
            Z = np.full((21, 8, 1), mu)
            Z[:, c, 0] = mu + np.linspace(-3, 3, 21) * sig
            preds.append(field(Z, np.full(21, t)).data.ravel())
            oracs.append(gaussian_oracle_velocity(spec, t, Z).ravel())
    preds, oracs = np.concatenate(preds), np.concatenate(oracs)
    mse = np.mean((preds - oracs) ** 2)
    assert mse <= 0.05 * np.var(oracs)


def test_transported_samples_match_posterior_moments(trained_gaussian_field):
    spec, field, _ = trained_gaussian_field
    z0 = spec.a + spec.s * np.random.default_rng(2).standard_normal((2000, 8, 1))
    z1, _ = solve(lambda z, t: field(z, t).data, z0, cfg=SolverConfig())
    mean, std = float(z1.mean()), float(z1.std())
    assert abs(mean - spec.b) <= 0.10 * abs(spec.b)
    assert abs(std - spec.r) <= 0.10 * spec.r


def test_default_solver_budget_on_trained_field(trained_gaussian_field):
    # NFE and solver error at tolerance 3e-4 with max step 0.5, the
    # SolverConfig defaults while the time embedding's top frequency was
    # 1000; the error taken against a 1e-7 solve of the same 100 samples
    # (which is within W1 2.4e-5 of a 1e-8 solve). At that frequency,
    # samples from seeds 2 to 5 took NFE 31-43, solver W1 0.0041-0.0078 and
    # max-abs 0.038-0.050, against a fit W1 to the oracle of 0.008-0.010;
    # with frequencies geometric on [1, 300] they took NFE 19-37, solver W1
    # 0.0033-0.0086 and max-abs 0.029-0.071. With today's harmonics up to 12
    # they take NFE 13 (two steps), solver W1 0.0089-0.0096 and max-abs
    # 0.051-0.059, against a fit W1 of 0.0072-0.0084. The defaults before
    # all of those (tolerance 1e-5, max step 0.1) took 361-367 NFE.
    spec, field, _ = trained_gaussian_field
    z0 = spec.a + spec.s * np.random.default_rng(2).standard_normal((100, 8, 1))
    rhs = lambda z, t: field(z, t).data
    z1, stats = solve(rhs, z0, cfg=SolverConfig(tol=3e-4, max_step=0.5))
    ref, _ = solve(rhs, z0, cfg=SolverConfig(tol=1e-7, max_step=1.0))
    assert stats.rhs_evals <= 50
    assert wasserstein1_sorted(z1.ravel(), ref.ravel()) <= 0.01
    assert np.max(np.abs(z1 - ref)) <= 0.065


def test_solver_budget_at_the_defaults_on_trained_field(trained_gaussian_field):
    # The same measurement at the SolverConfig defaults (tolerance 5e-4,
    # max step 0.34). Samples from seeds 2 to 5 take NFE 19 (three steps),
    # solver W1 0.0031-0.0036 and max-abs 0.024-0.029, against a fit W1 to
    # the oracle of 0.007-0.008. The error bounds leave about 20% margin.
    # With the former time embedding (frequencies geometric on [1, 300])
    # they took NFE 19, solver W1 0.0066-0.0069 and max-abs 0.039-0.043,
    # outside these bounds, and at max step 0.5 NFE 13-19, solver W1
    # 0.0109-0.0119 and max-abs 0.058-0.063.
    spec, field, _ = trained_gaussian_field
    z0 = spec.a + spec.s * np.random.default_rng(2).standard_normal((100, 8, 1))
    rhs = lambda z, t: field(z, t).data
    z1, stats = solve(rhs, z0)
    ref, _ = solve(rhs, z0, cfg=SolverConfig(tol=1e-7, max_step=1.0))
    assert stats.rhs_evals <= 23
    assert wasserstein1_sorted(z1.ravel(), ref.ravel()) <= 0.0043
    assert np.max(np.abs(z1 - ref)) <= 0.035


def test_trained_field_is_smooth_in_t_along_the_oracle_path(trained_gaussian_field):
    # How fast the fitted field varies in t, not the solver, sets the NFE,
    # and the time embedding's top frequency bounds it. Central differences
    # in t at fixed z, at 50 times on the oracle path of 100 samples: rms
    # dv/dt over rms v is 1.09 with today's harmonics up to 12, against 4.6
    # and 1.76 with frequencies geometric on [1, 1000] and [1, 300]. The
    # bound leaves 20% margin.
    spec, field, _ = trained_gaussian_field
    h = 1e-5
    z0 = spec.a + spec.s * np.random.default_rng(3).standard_normal((100, 8, 1))
    v, dv = [], []
    for t in np.linspace(h, 1.0 - h, 50):
        z = gaussian_flow_map(spec, z0, t)
        v.append(field(z, t).data)
        dv.append((field(z, t + h).data - field(z, t - h).data) / (2 * h))
    assert np.sqrt(np.mean(np.square(dv)) / np.mean(np.square(v))) <= 1.3


def test_oracle_velocity_symmetric_stds_at_half():
    spec = GaussianTransportSpec(a=-1.0, s=0.7, b=2.0, r=0.7)
    z = np.linspace(-5, 5, 11)
    v = gaussian_oracle_velocity(spec, 0.5, z)
    np.testing.assert_allclose(v, spec.b - spec.a, atol=1e-12)


def test_oracle_velocity_point_mass_limit():
    spec = GaussianTransportSpec(a=1.0, s=1e-6, b=4.0, r=1e-6)
    for t in (0.1, 0.5, 0.9):
        v = gaussian_oracle_velocity(spec, t, np.array(spec.path_mean(t)))
        assert float(v) == pytest.approx(spec.b - spec.a, abs=1e-9)


def test_oracle_velocity_value_at_t0():
    spec = GaussianTransportSpec(a=0.0, s=1.0, b=2.0, r=1.0)
    assert float(gaussian_oracle_velocity(spec, 0.0, np.array(1.0))) == pytest.approx(1.0)


def test_oracle_velocity_monte_carlo_regression_at_t0():
    # E[z_q - z_p | z_p near z] estimated by binning
    spec = GaussianTransportSpec(a=0.0, s=1.0, b=2.0, r=1.0)
    rng = np.random.default_rng(4)
    zp = spec.a + spec.s * rng.standard_normal(200_000)
    zq = spec.b + spec.r * rng.standard_normal(200_000)
    z = 1.0
    mask = np.abs(zp - z) < 0.05
    empirical = float(np.mean(zq[mask] - zp[mask]))
    assert empirical == pytest.approx(float(gaussian_oracle_velocity(spec, 0.0, np.array(z))), abs=0.05)


def test_conditional_velocity_variance_is_the_oracle_residual():
    # at t = 0 the path point is z_p, so only z_q is unknown, and at t = 1 only z_p
    spec = GaussianTransportSpec(a=0.5, s=1.2, b=-1.0, r=0.4)
    assert conditional_velocity_variance(spec, 0.0) == pytest.approx(spec.r**2)
    assert conditional_velocity_variance(spec, 1.0) == pytest.approx(spec.s**2)
    zp, zq = spec.sample_pair(np.random.default_rng(7), 200_000, 1)
    for t in (0.25, 0.5, 0.75):
        resid = (zq - zp) - gaussian_oracle_velocity(spec, t, interpolate(zp, zq, t))
        assert np.mean(resid**2) == pytest.approx(conditional_velocity_variance(spec, t), rel=0.02)


def test_oracle_flow_map_consistent_with_integration():
    spec = GaussianTransportSpec(a=0.5, s=1.2, b=-1.0, r=0.4)
    z0 = np.array([-0.7, 0.5, 1.7])
    z1, _ = solve(
        lambda z, t: gaussian_oracle_velocity(spec, t, z), z0,
        cfg=SolverConfig(tol=1e-5, max_step=0.1),
    )
    np.testing.assert_allclose(z1, gaussian_flow_map(spec, z0, 1.0), atol=1e-4)


def test_train_cfm_aborts_on_nan():
    field, store = _toy_field(3)

    def bad_sampler(rng, n):
        z = rng.standard_normal((n, 8, 1))
        return z, z + np.nan, None

    with pytest.raises(NumericalError, match="step 0"):
        train_cfm(bad_sampler, field, store, steps=3, batch_size=4, rng=np.random.default_rng(0))


def test_wasserstein_sorted_estimate():
    a = np.array([0.0, 1.0, 2.0])
    b = np.array([1.0, 2.0, 3.0])
    assert wasserstein1_sorted(a, b) == pytest.approx(1.0)
    assert wasserstein1_sorted(b, a) == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_wasserstein_sorted_rejects_non_finite_samples(bad):
    a = np.array([0.0, 1.0, 2.0])
    for x, y in ((a, np.array([1.0, bad, 3.0])), (np.array([bad, 1.0, 2.0]), a)):
        with pytest.raises(ValidationError, match="^wasserstein1_sorted: samples must be finite"):
            wasserstein1_sorted(x, y)


def test_wasserstein_sorted_rejects_empty_samples():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # it warned "Mean of empty slice" and returned NaN
        with pytest.raises(ValidationError, match="wasserstein1_sorted"):
            wasserstein1_sorted(np.array([]), np.array([]))
    with pytest.raises(ValidationError, match="wasserstein1_sorted: sample sizes 2 and 3"):
        wasserstein1_sorted(np.zeros(2), np.zeros(3))
