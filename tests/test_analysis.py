from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import svpark as sv
from svpark.exceptions import LadderTooShort, RankDeficient, StatisticallyInconclusive

from conftest import random_states


X0 = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.zeros(3))


def test_slope_fit_recovers_synthetic_order():
    hs = np.array([2.0**-k for k in range(3, 9)])
    for p in (0.5, 1.0, 1.5, 2.0):
        errors = 0.37 * hs**p
        slope, stderr = sv.fit_loglog_slope(hs, errors)
        assert abs(slope - p) <= 1e-10
        assert stderr <= 1e-6


def test_slope_fit_is_bitwise_scipy_linregress():
    from scipy.stats import linregress

    rng = np.random.default_rng(2024)
    for n in range(3, 9):
        for _ in range(50):
            first = rng.integers(0, 6)
            hs = 2.0 ** -np.arange(first, first + n)
            errors = rng.uniform(0.1, 3.0) * hs ** rng.uniform(0.3, 2.5)
            errors *= np.exp(rng.normal(0.0, 0.3, n))
            fit = linregress(np.log2(hs), np.log2(errors))
            assert sv.fit_loglog_slope(hs, errors) == (float(fit.slope), float(fit.stderr))


def test_slope_fit_degenerate_ladders_follow_scipy():
    hs = 2.0 ** -np.arange(2, 7)
    assert sv.fit_loglog_slope(hs[:2], [0.3, 0.2])[1] == 0.0
    assert sv.fit_loglog_slope(hs, hs**2) == (2.0, 0.0)
    slope, stderr = sv.fit_loglog_slope(hs, np.full(5, 0.25))
    assert slope == 0.0 and np.isnan(stderr)
    with pytest.raises(ValueError):
        sv.fit_loglog_slope(np.full(5, 0.25), hs)


def test_slope_fit_reports_the_larger_stderr():
    hs = 2.0 ** -np.arange(2, 7)
    errors = hs * np.array([1.0, 1.1, 0.9, 1.05, 1.0])
    slope, residual = sv.fit_loglog_slope(hs, errors)
    tiny = sv.fit_loglog_slope(hs, errors, point_stderr=1e-9 * errors)
    large = sv.fit_loglog_slope(hs, errors, point_stderr=0.5 * errors)
    assert tiny == (slope, residual)
    assert large[0] == slope and large[1] > residual


def test_report_requires_three_points():
    with pytest.raises(LadderTooShort):
        sv.ConvergenceReport.from_errors([0.1, 0.05], [1.0, 0.5], 1)


def test_report_with_zero_error_has_undefined_slope():
    report = sv.ConvergenceReport.from_errors([0.1, 0.05, 0.025], [1.0, 0.5, 0.0], 1)
    assert np.isnan(report.slope)


def test_strong_study_rejects_coincident_reference(pendulum):
    paths = sv.generate(1, 4, 3, 2**5, horizon=(0.0, 1.0))
    with pytest.raises(LadderTooShort):
        sv.strong_error_study(
            pendulum, "stochastic_variational_euler", X0, paths,
            [2.0**-3, 2.0**-4, 2.0**-5], ref_refine=1,
        )


def test_strong_study_rejects_non_dyadic_ladder(pendulum):
    paths = sv.generate(1, 4, 3, 2**5, horizon=(0.0, 1.0))
    with pytest.raises(ValueError):
        sv.strong_error_study(
            pendulum, "stochastic_variational_euler", X0, paths,
            [0.3, 0.15, 0.075], ref_refine=2,
        )


def test_strong_study_blocking_is_invariant(pendulum):
    ladder = [2.0**-2, 2.0**-3, 2.0**-4]
    paths = sv.generate(6, 24, 3, 2**8, horizon=(0.0, 1.0))
    a = sv.strong_error_study(
        pendulum, "stochastic_variational_euler", X0, paths, ladder,
        ref_refine=16, block_size=24,
    )
    b = sv.strong_error_study(
        pendulum, "stochastic_variational_euler", X0, paths, ladder,
        ref_refine=16, block_size=7,
    )
    assert np.array_equal(a.position.errors, b.position.errors)
    assert np.array_equal(a.momentum.errors, b.momentum.errors)
    assert np.array_equal(a.pooled_stderr, b.pooled_stderr)
    assert (a.position.slope, a.momentum.slope) == (b.position.slope, b.momentum.slope)


SMALL_LADDER = [2.0**-2, 2.0**-3, 2.0**-4]


def strong_bits(pendulum, paths, block_size):
    result = sv.strong_error_study(
        pendulum, "stochastic_variational_euler", X0, paths, SMALL_LADDER,
        ref_refine=4, block_size=block_size,
    )
    reports = (result.position, result.momentum)
    return np.concatenate(
        [result.pooled_stderr, *(np.append(r.errors, [r.slope, r.slope_stderr]) for r in reports)]
    ).tobytes()


def weak_bits(pendulum, paths, block_size):
    # A few paths rarely resolve the weak error; the refusal's numbers count too.
    try:
        result = sv.weak_error_study(
            pendulum, "stochastic_variational_euler", X0, paths, SMALL_LADDER,
            lambda q, p: q[..., 2], ref_refine=4, block_size=block_size,
        )
    except StatisticallyInconclusive as err:
        return np.append(err.errors, err.mc_stderrs).tobytes()
    report = result.report
    return np.append(report.errors, [*result.mc_stderr, report.slope, report.slope_stderr]).tobytes()


@settings(max_examples=4, deadline=None, database=None)
@given(seed=st.integers(0, 2**16), num_paths=st.integers(2, 8), data=st.data())
def test_studies_give_the_same_bits_for_every_block_size(pendulum, seed, num_paths, data):
    paths = sv.generate(seed, num_paths, 3, 2**6)
    block_size = data.draw(st.integers(1, num_paths), label="block_size")
    for bits in (strong_bits, weak_bits):
        assert bits(pendulum, paths, block_size) == bits(pendulum, paths, num_paths)


def test_weak_study_rejects_an_observable_without_one_value_per_path(pendulum):
    paths = sv.generate(3, 8, 3, 2**6)
    with pytest.raises(ValueError, match="observable must return shape"):
        sv.weak_error_study(
            pendulum, "stochastic_variational_euler", X0, paths, SMALL_LADDER,
            lambda q, p: float(np.mean(q[..., 2])), ref_refine=4,
        )


def test_studies_are_bitwise_deterministic(pendulum):
    ladder = [2.0**-2, 2.0**-3, 2.0**-4]
    results = []
    for _ in range(2):
        paths = sv.generate(6, 16, 3, 2**8, horizon=(0.0, 1.0))
        results.append(
            sv.strong_error_study(
                pendulum, "stochastic_variational_euler", X0, paths, ladder,
                ref_refine=16,
            )
        )
    assert np.array_equal(results[0].position.errors, results[1].position.errors)
    assert np.array_equal(results[0].momentum.errors, results[1].momentum.errors)
    assert results[0].position.slope == results[1].position.slope


def test_strong_study_deterministic_method_order_two(pendulum_quiet):
    # A deterministic method inside the strong harness: every path gives
    # the same error, and the fitted order is the scheme's global order.
    ladder = [2.0**-3, 2.0**-4, 2.0**-5]
    paths = sv.generate(2, 2, 0, 2**11, horizon=(0.0, 1.0))
    res = sv.strong_error_study(pendulum_quiet, "rattle", X0, paths, ladder)
    assert 1.8 <= res.position.slope <= 2.2
    assert 1.8 <= res.momentum.slope <= 2.2


def test_weak_study_constant_observable_gives_zero_errors(pendulum):
    paths = sv.generate(3, 16, 3, 2**7, horizon=(0.0, 1.0))
    res = sv.weak_error_study(
        pendulum, "stochastic_variational_euler", X0, paths,
        [2.0**-3, 2.0**-4, 2.0**-5], lambda q, p: np.ones(q.shape[:-1]),
        ref_refine=4,
    )
    assert np.all(res.report.errors == 0.0)
    assert np.isnan(res.report.slope)
    assert np.all(res.mc_stderr == 0.0)


def test_weak_study_deterministic_energy_matches_strong_order(pendulum_quiet):
    paths = sv.generate(2, 2, 0, 2**11, horizon=(0.0, 1.0))
    x0 = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 0.4, 0.0]))
    res = sv.weak_error_study(
        pendulum_quiet, "euler_b", x0, paths, [2.0**-3, 2.0**-4, 2.0**-5],
        lambda q, p: sv.energy(pendulum_quiet, q, p=p),
    )
    assert 0.8 <= res.report.slope <= 1.2
    assert np.all(res.mc_stderr == 0.0)


def test_weak_study_flags_noise_dominated_measurement(pendulum):
    # Two paths cannot resolve the weak error of a strongly fluctuating
    # observable; the study must refuse to fit a slope.
    paths = sv.generate(14, 2, 3, 2**7, horizon=(0.0, 1.0))
    with pytest.raises(StatisticallyInconclusive) as info:
        sv.weak_error_study(
            pendulum, "stochastic_variational_euler", X0, paths,
            [2.0**-3, 2.0**-4, 2.0**-5],
            lambda q, p: p[..., 1] ** 3,
            ref_refine=4,
        )
    assert info.value.errors is not None


def test_symplecticity_identity_map(pendulum):
    x = sv.project_state(pendulum, np.array([0.2, -0.4, 0.9]), np.array([0.1, 0.0, 0.3]))
    residual = sv.symplecticity_check(
        pendulum, lambda s, state, h, dW: state, x, 1e-3
    )
    assert residual <= 1e-9


def test_symplecticity_rattle_and_stochastic_euler(pendulum):
    rng = np.random.default_rng(31)
    h = 1e-3
    for state in random_states(pendulum, 3, rng):
        assert sv.symplecticity_check(pendulum, "rattle", state, h) <= 1e-5
        dW = rng.standard_normal(3) * np.sqrt(h)
        assert (
            sv.symplecticity_check(
                pendulum, "stochastic_variational_euler", state, h, dW=dW
            )
            <= 1e-5
        )


def test_symplecticity_stochastic_vprk(pendulum):
    # The two-stage stochastic scheme is also a variational map for frozen
    # increments; its residual sits at the differencing floor.
    rng = np.random.default_rng(47)
    h = 1e-3
    state = random_states(pendulum, 1, rng)[0]
    dW = rng.standard_normal(3) * np.sqrt(h)
    method = {"method": "stochastic_vprk", "tableau": "rattle_trapezoidal"}
    assert sv.symplecticity_check(pendulum, method, state, h, dW=dW) <= 1e-5


def test_symplecticity_negative_control(pendulum_quiet):
    # The explicit reference scheme is not symplectic; at an energetic
    # state its defect is far above the tolerance of the variational maps.
    x = sv.project_state(pendulum_quiet, np.array([1.0, 0.0, 0.0]), np.array([0.0, 2.0, 2.0]))
    residual = sv.symplecticity_check(pendulum_quiet, "euler_maruyama_ref", x, 1e-2)
    assert residual >= 1e-3


def test_symplecticity_rejects_off_manifold_start(pendulum):
    with pytest.raises(ValueError):
        sv.symplecticity_check(
            pendulum, "rattle", sv.State(q=np.array([1.1, 0.0, 0.0]), p=np.zeros(3)), 1e-3
        )


def test_symplecticity_rejects_a_degenerate_constraint_linearization(pendulum):
    # g = (|q|^2 - 1)^2 has the unit sphere as its zero set, but its gradient
    # vanishes there, so the constraints do not cut out a tangent space.
    def excess(q):
        return np.sum(q * q, axis=-1) - 1.0

    squared = replace(
        pendulum,
        constraint=lambda q: (excess(q) ** 2)[..., None],
        dg_dq=lambda q: (4.0 * excess(q))[..., None, None] * q[..., None, :],
        d2g_dq2_vv=lambda q, v: (8.0 * np.sum(q * v, axis=-1) ** 2
                                 + 4.0 * excess(q) * np.sum(v * v, axis=-1))[..., None],
    )
    x = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 0.3, 0.0]))
    with pytest.raises(RankDeficient, match="constraint linearization is rank deficient"):
        sv.symplecticity_check(squared, "rattle", x, 1e-3)


def test_symplecticity_rejects_a_batch_of_states(pendulum):
    x = sv.State(q=np.tile([1.0, 0.0, 0.0], (2, 1)), p=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="takes one state"):
        sv.symplecticity_check(pendulum, "rattle", x, 1e-3)


def test_symplecticity_projects_and_steps_once(pendulum, monkeypatch):
    # All perturbed states go through one projection and one step-map call.
    projections, steps = [], []
    project_state = sv.analysis.project_state

    def counted_projection(*args, **kwargs):
        projections.append(args[1].shape)
        return project_state(*args, **kwargs)

    def identity(system, state, h, dW):
        steps.append(state.q.shape)
        return state

    monkeypatch.setattr(sv.analysis, "project_state", counted_projection)
    x = sv.project_state(pendulum, np.array([0.2, -0.4, 0.9]), np.array([0.1, 0.0, 0.3]))
    sv.symplecticity_check(pendulum, identity, x, 1e-3)
    sv.symplecticity_check(pendulum, "rattle", x, 1e-3)
    # The tangent space of the sphere's phase manifold has dimension 4.
    assert projections == [(8, 3), (8, 3)]
    assert steps == [(8, 3)]


def test_drift_metrics_equilibrium_energy(pendulum):
    # At the hanging equilibrium the energy is the potential alone,
    # q . e3 = -1, and stays exactly constant.
    x0 = sv.State(q=np.array([0.0, 0.0, -1.0]), p=np.zeros(3))
    traj = sv.simulate_path(sv.without_noise(pendulum), "rattle", x0, h=0.01, num_steps=100)
    assert np.allclose(traj.energy, -1.0, atol=1e-12)
    assert traj.constraint.max() <= 1e-12


def test_drift_metrics_long_rattle_run(pendulum_quiet):
    x0 = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 0.2, 0.0]))
    traj = sv.simulate_path(pendulum_quiet, "rattle", x0, h=1e-3, num_steps=10_000)
    assert traj.constraint.max() <= 1e-9
    assert traj.hidden.max() <= 1e-9
    # no secular energy trend: linear fit slope per step below 1e-8
    steps = np.arange(traj.energy.size)
    slope = np.polyfit(steps, traj.energy, 1)[0]
    assert abs(slope) <= 1e-8


def test_em_constraint_drift_exceeds_variational(pendulum_quiet):
    x0 = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 0.5, 0.0]))
    em = sv.simulate_path(pendulum_quiet, "euler_maruyama_ref", x0, h=2.0**-7, num_steps=2**7)
    ra = sv.simulate_path(pendulum_quiet, "rattle", x0, h=2.0**-7, num_steps=2**7)
    assert em.constraint.max() > 100 * ra.constraint.max()


def test_convergence_report_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="equal length"):
        sv.ConvergenceReport.from_errors([0.25, 0.125, 0.0625], [1e-2, 5e-3], num_paths=4)
