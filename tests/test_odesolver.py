import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from latentflow.exceptions import NumericalError
from latentflow.flowmatch import GaussianTransportSpec
from latentflow.odesolver import _A, _C, _E, SolverConfig, dopri5_step, solve
from latentflow.oracles import gaussian_oracle_velocity

# The tolerance and step cap that the bounds of the accuracy tests below
# were set for; they are tighter than the defaults.
FINE = SolverConfig(tol=1e-5, max_step=0.1)


def test_step_zero_rhs_is_exact():
    z = np.array([1.0, -2.0])
    z5, err, _ = dopri5_step(lambda z, t: np.zeros_like(z), z, 0.0, 0.1, np.zeros_like(z))
    np.testing.assert_array_equal(z5, z)
    np.testing.assert_array_equal(err, 0.0)


def test_step_constant_rhs_is_exact():
    c = np.array([2.0, -0.5])
    z = np.zeros(2)
    z5, err, _ = dopri5_step(lambda z, t: c, z, 0.0, 0.25, c)
    np.testing.assert_allclose(z5, 0.25 * c, rtol=0, atol=1e-15)
    np.testing.assert_allclose(err, 0.0, atol=1e-16)


def test_step_matches_analytic_exponential():
    z5, _, _ = dopri5_step(lambda z, t: -z, np.array(1.0), 0.0, 0.1, np.array(-1.0))
    assert abs(float(z5) - np.exp(-0.1)) <= 1e-9
    assert abs(float(z5) - 0.9048374) <= 1e-7


def test_step_reports_non_finite_stage():
    def rhs(z, t):
        return np.full_like(z, np.nan) if t > 0.0 else np.zeros_like(z)

    with pytest.raises(NumericalError, match="stage"):
        dopri5_step(rhs, np.array([1.0]), 0.0, 0.1, np.zeros(1))


def test_solve_zero_rhs_bit_exact_with_step_cap():
    z0 = np.array([0.25, -1.5, 3.75])
    z1, stats = solve(lambda z, t: np.zeros_like(z), z0, cfg=FINE)
    assert np.array_equal(z0, z1)
    assert stats.accepted == 10  # max step 0.1 over the unit interval


def test_solve_exponential_decay_meets_tolerance():
    z1, stats = solve(lambda z, t: -z, np.array(1.0), cfg=FINE)
    assert abs(float(z1) - np.exp(-1.0)) <= 1e-6
    assert abs(float(z1) - 0.3678794) <= 1e-6
    assert stats.accepted >= 10


def test_accepted_steps_at_least_interval_over_max_step():
    for rhs in (lambda z, t: np.zeros_like(z), lambda z, t: -z, lambda z, t: np.sin(10 * t) * z):
        _, stats = solve(rhs, np.array(1.0), cfg=SolverConfig(max_step=0.1))
        assert stats.accepted >= 10
        # the mean accepted step lies in the reported range, under the cap;
        # after nine steps of 0.1, 1 - t is 0.10000000000000009, and the
        # last step stays at the cap
        assert 0 < stats.h_min <= 1.0 / stats.accepted <= stats.h_max <= 0.1


def test_halving_tolerances_never_increases_error():
    errors = []
    tol = 1e-3
    while tol >= 1e-7:
        cfg = SolverConfig(tol=tol, max_step=1.0)
        z1, _ = solve(lambda z, t: -z, np.array(1.0), cfg=cfg)
        errors.append(abs(float(z1) - np.exp(-1.0)))
        tol /= 2.0
    assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))


def test_global_error_scales_with_tolerance():
    errs = []
    for tol in (1e-3, 1e-5, 1e-7):
        cfg = SolverConfig(tol=tol, max_step=1.0)
        z1, _ = solve(lambda z, t: -z, np.array(1.0), cfg=cfg)
        errs.append(abs(float(z1) - np.exp(-1.0)))
    assert errs[0] > errs[1] > errs[2]


def test_gaussian_oracle_flow_maps_prior_quantiles_to_posterior():
    spec = GaussianTransportSpec(a=0.0, s=1.0, b=3.0, r=1.0)
    rhs = lambda z, t: gaussian_oracle_velocity(spec, t, z)
    for k in (0.0, 1.0, 2.0):
        for sign in (1.0, -1.0):
            z0 = np.array(spec.a + sign * k * spec.s)
            z1, _ = solve(rhs, z0)
            target = spec.b + sign * k * spec.r
            assert abs(float(z1) - target) <= 1e-3


def test_solve_nan_state_reports_last_t():
    # every stage is finite, but the second accepted step overflows the state
    def rhs(z, t):
        return np.full_like(z, 1e308)

    with pytest.raises(NumericalError, match=r"solve: NaN in state after accepted step; last accepted t=0\.5$"):
        solve(rhs, np.array(1.5e308), cfg=SolverConfig(max_step=0.25))


def test_exploding_rhs_reports_the_stage_and_its_t():
    outputs = []

    def rhs(z, t):
        outputs.append(np.full_like(z, 1e4) * z)  # explodes
        return outputs[-1]

    with pytest.raises(NumericalError, match=r"dopri5_step: non-finite value in stage 5 at t=0\.0698173$"):
        solve(rhs, np.array(1.0), cfg=SolverConfig(tol=3e-4, max_step=0.5))
    # the step stops at its first non-finite stage: no rhs call follows it
    assert not np.isfinite(outputs[-1]) and np.all(np.isfinite(outputs[:-1]))


def test_solve_gives_up_after_20_consecutive_rejections():
    # a jump at t = 0 that no step size resolves: the error norm stays near
    # |e . k| / (tol * |b . k|) however small the step
    def rhs(z, t):
        return np.full_like(z, 1e300 if t > 0 else 0.0)

    with pytest.raises(NumericalError, match="21 consecutive rejected steps at t=0"):
        solve(rhs, np.array(1.0))


def test_solve_calls_rhs_once_at_the_start_and_six_times_a_step():
    """The first stage is evaluated once, before the first step; after a
    rejected step the retry reuses it, and every later step reuses the last
    accepted stage (FSAL)."""
    ts = []

    def rhs(z, t):
        ts.append(t)
        return np.sin(40.0 * t) * z

    _, stats = solve(rhs, np.array(1.0), cfg=SolverConfig(tol=1e-6, max_step=1.0))
    assert stats.rejected > 0
    assert ts[0] == 0.0 and ts.count(0.0) == 1
    assert len(ts) == stats.rhs_evals == 1 + 6 * (stats.accepted + stats.rejected)


def test_final_step_lands_exactly_on_t1():
    _, stats = solve(lambda z, t: -z, np.array(1.0), cfg=SolverConfig(max_step=0.3))
    # three full steps, then the last one truncated to what is left of [0, 1]
    assert stats.accepted == 4 and stats.h_max == 0.3
    assert 3 * stats.h_max + stats.h_min == pytest.approx(1.0, abs=1e-12)


@st.composite
def _linear_systems(draw):
    d = draw(st.integers(1, 4))
    entries = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    return draw(hnp.arrays(np.float64, (d, d), elements=entries)), draw(hnp.arrays(np.float64, d, elements=entries))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_linear_systems())
@example((np.ones((4, 4)), np.ones(4)))  # the largest growth the bounds allow: e^4
def test_solve_linear_system_matches_matrix_exponential(system):
    # The allowed global error, 1e-5 * (1 + |exact|) elementwise, uses the
    # solve's tolerance (1e-5, absolute and relative). The worst case measured
    # is the e^4 example, at 0.52 of it (2.9e-4 absolute on values of 54.6).
    a, z0 = system
    z1, _ = solve(lambda z, t: a @ z, z0, cfg=FINE)
    exact = expm(a) @ z0
    np.testing.assert_array_less(np.abs(z1 - exact), 1e-5 * (1.0 + np.abs(exact)))


def _dopri5_step_per_stage(rhs, z, t, h, k1):
    """The reference step: each stage's argument, the 5th-order increment
    and the error estimate summed one weighted stage at a time."""
    b5 = np.append(_A[6], 0.0)
    ks = [k1]
    for s in range(1, 7):
        acc = _A[s][0] * ks[0]
        for j in range(1, s):
            acc = acc + _A[s][j] * ks[j]
        ks.append(rhs(z + h * acc, t + _C[s] * h))
    increment, err = b5[0] * ks[0], _E[0] * ks[0]
    for s in range(1, 7):
        increment = increment + b5[s] * ks[s]
        err = err + _E[s] * ks[s]
    return z + h * increment, h * err, ks


@pytest.mark.parametrize("offset_k1", [False, True])
def test_stacked_step_matches_the_per_stage_loop(offset_k1):
    """Only the summation order differs, so z5, the error estimate and every
    stage agree with the per-stage loop to 1e-14 relative to the terms
    summed: elementwise |z| + h * sum |b5_s k_s| for z5, h * sum |e_s k_s|
    for the error estimate, whose terms cancel to about 1e-6 of their size
    here, and the largest |k| for each stage."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    z, t, h = rng.standard_normal((6, 5)), 0.3, 0.17

    def rhs(z, t):
        return np.tanh(a @ z) * (1.0 + t)

    k1 = rhs(z, t) + (0.5 if offset_k1 else 0.0)  # a k1 unlike rhs(z, t) shows it is used
    z5, err, ks = dopri5_step(rhs, z, t, h, k1=k1)
    z5_ref, err_ref, ks_ref = _dopri5_step_per_stage(rhs, z, t, h, k1=k1)
    assert len(ks) == 7 and z5.shape == err.shape == z.shape
    size = np.abs(np.asarray(ks_ref))
    for got, ref, scale in ((z5, z5_ref, np.abs(z) + h * np.tensordot(np.abs(_A[6]), size[:6], 1)),
                            (err, err_ref, h * np.tensordot(np.abs(_E), size, 1)),
                            *((k, k_ref, np.abs(k_ref).max()) for k, k_ref in zip(ks, ks_ref))):
        assert np.all(np.abs(got - ref) <= 1e-14 * scale)
