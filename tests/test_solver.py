import warnings

import numpy as np
import pytest

import svpark as sv
from svpark.exceptions import NoConvergence, RankDeficient, SingularJacobian


def test_scalar_root():
    res = sv.newton_solve(lambda x: x * x - 4.0, np.array([3.0]))
    assert abs(res.x[0] - 2.0) <= 1e-12


def test_identity_converges_immediately():
    res = sv.newton_solve(lambda x: x, np.array([0.0]))
    assert res.iterations <= 1
    assert res.residual <= 1e-12


def test_affine_system_one_iteration():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    b = rng.standard_normal(4)
    res = sv.newton_solve(
        lambda x: (A @ x) - b,
        rng.standard_normal(4),
        jacobian=lambda x: A,
    )
    assert res.iterations == 1
    assert np.max(np.abs(A @ res.x - b)) <= 1e-12


def test_affine_system_fd_jacobian_still_fast():
    # Finite differencing of a linear residual is exact up to cancellation
    # noise, so a second polishing iteration may be needed.
    rng = np.random.default_rng(6)
    A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    b = rng.standard_normal(4)
    res = sv.newton_solve(lambda x: (A @ x) - b, rng.standard_normal(4))
    assert res.iterations <= 2
    assert np.max(np.abs(A @ res.x - b)) <= 1e-12


def test_rattle_equilibrium_warm_start_is_fixed_point(pendulum):
    # Cross-reference of the equilibrium example: with the exact stage
    # velocities and balancing multiplier as initial guess, the residual of
    # the trapezoidal step system is already below tolerance.
    h = 0.01
    q = np.array([0.0, 0.0, -1.0])
    p = np.zeros(3)
    # force balance: dL_dq + dg_dq^T lam = 0 at the south pole
    G = pendulum.dg_dq(q)
    lam_balance = np.linalg.lstsq(G.T, -pendulum.dL_dq(q, p), rcond=None)[0]

    def residual(u):
        V1, V2, lam = u[:3], u[3:6], u[6:]
        q_next = q + 0.5 * h * (V1 + V2)
        P1 = pendulum.dL_dv(q, V1)
        r1 = P1 - p - 0.5 * h * (pendulum.dL_dq(q, V1) + G.T @ lam)
        r2 = pendulum.dL_dv(q_next, V2) - P1
        r3 = pendulum.constraint(q_next)
        return np.concatenate([r1, r2, r3])

    warm = np.concatenate([np.zeros(6), lam_balance])
    res = sv.newton_solve(residual, warm)
    assert res.iterations <= 2
    assert res.residual <= 1e-12


def test_no_convergence_reports_residual():
    # x^3 has a triple root: Newton contracts only linearly (factor 2/3),
    # far too slowly for a 5-iteration budget at tolerance 1e-12.
    with pytest.raises(NoConvergence) as info:
        sv.newton_solve(
            lambda x: x**3, np.array([1.0]), sv.NewtonConfig(max_iter=5)
        )
    assert info.value.last_residual > 1e-12
    assert info.value.iterations == 5


def test_singular_jacobian_detected():
    with pytest.raises(SingularJacobian):
        sv.newton_solve(
            lambda x: np.stack([x[..., 0] + x[..., 1], x[..., 0] + x[..., 1]], axis=-1),
            np.array([1.0, 2.0]),
        )


def test_one_unknown_with_infinite_residual_and_slope_is_quietly_singular():
    # inf / inf in the 1x1 division: like LAPACK's solve, no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularJacobian, match="non-finite update"):
            sv.newton_solve(
                lambda x: np.full_like(x, np.inf),
                np.ones(1),
                jacobian=lambda x: np.full(x.shape + (1,), np.inf),
            )


def test_batched_solution_matches_single():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((4, 4)) + 4 * np.eye(4)

    def F(x):
        return np.einsum("ij,...j->...i", A, x) + np.sin(x)

    x0 = rng.standard_normal((6, 4))
    batched = sv.newton_solve(F, x0)
    for i in range(6):
        single = sv.newton_solve(F, x0[i])
        assert np.max(np.abs(batched.x[i] - single.x)) <= 1e-12


def test_schur_direct_elimination_example():
    M = np.eye(3)
    G = np.array([[0.0, 0.0, 2.0]])
    x, lam = sv.schur_multiplier_solve(M, G, np.array([0.0, 0.0, 1.0]), np.array([0.0]))
    assert np.allclose(x, 0.0, atol=1e-14)
    assert abs(lam[0] - 0.5) <= 1e-14


def test_schur_zero_rhs():
    M = np.eye(3)
    G = np.array([[1.0, 1.0, 0.0]])
    x, lam = sv.schur_multiplier_solve(M, G, np.zeros(3), np.zeros(1))
    assert np.allclose(x, 0.0, atol=1e-15)
    assert np.allclose(lam, 0.0, atol=1e-15)


def test_schur_random_instances_verify_by_substitution():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = rng.integers(2, 8)
        k = rng.integers(1, n)
        Q = rng.standard_normal((n, n))
        M = Q @ Q.T + n * np.eye(n)
        G = rng.standard_normal((k, n))
        rp = rng.standard_normal(n)
        rc = rng.standard_normal(k)
        x, lam = sv.schur_multiplier_solve(M, G, rp, rc)
        scale = 1.0 + max(np.linalg.norm(rp), np.linalg.norm(rc))
        assert np.linalg.norm(M @ x + G.T @ lam - rp) <= 1e-10 * scale
        assert np.linalg.norm(G @ x - rc) <= 1e-10 * scale


def test_schur_rank_deficient_raises():
    M = np.eye(3)
    G = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(RankDeficient):
        sv.schur_multiplier_solve(M, G, np.zeros(3), np.zeros(2))


def test_newton_config_validation():
    with pytest.raises(ValueError):
        sv.NewtonConfig(tol_residual=0.0)
    with pytest.raises(ValueError):
        sv.NewtonConfig(max_iter=0)


@pytest.mark.parametrize("k", [1, 2])
def test_schur_non_finite_raises_rank_deficient(k):
    G = np.eye(3)[:k].copy()
    G[0, 1] = np.nan
    with pytest.raises(RankDeficient):
        sv.schur_multiplier_solve(np.eye(3), G, np.zeros(3), np.zeros(k))


@pytest.mark.parametrize("stacked_fd", [False, True])
def test_fd_jacobian_calls_F_stacked_only_when_declared(stacked_fd):
    # By default F may accept only x0's own shape (here a (5, 4) batch);
    # stacked_fd=True declares that it also takes the 4 perturbed columns
    # at once, and the Jacobian, hence the iterates, stay bitwise the same.
    rng = np.random.default_rng(8)
    A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    x0 = rng.standard_normal((5, 4))
    shapes = []

    def F(x):
        shapes.append(x.shape)
        return np.einsum("ij,...j->...i", A, x) + np.sin(x)

    res = sv.newton_solve(F, x0, stacked_fd=stacked_fd)
    reference = sv.newton_solve(lambda x: np.einsum("ij,...j->...i", A, x) + np.sin(x), x0)
    assert np.array_equal(res.x, reference.x)
    stacked = [shape for shape in shapes if shape != x0.shape]
    assert stacked == ([(4, 5, 4)] * res.iterations if stacked_fd else [])


def _vprk_step_inputs(shape, noisy):
    rng = np.random.default_rng(17)
    q = rng.standard_normal(shape + (3,))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    v = rng.standard_normal(shape + (3,))
    v -= np.sum(v * q, axis=-1, keepdims=True) * q
    dW = 0.3 * rng.standard_normal(shape + (3,)) if noisy else None
    return sv.State(q=q, p=v), dW


@pytest.mark.parametrize("tableau", ["rattle_trapezoidal", "lobatto_iiia_3"])
@pytest.mark.parametrize("shape", [(), (1,), (32,), (4, 8)], ids=str)
@pytest.mark.parametrize("noisy", [False, True], ids=["vprk", "stochastic_vprk"])
def test_vprk_stacked_fd_jacobian_is_bitwise_the_per_column_one(
    pendulum, monkeypatch, tableau, shape, noisy
):
    from svpark import deterministic, solver

    tab = sv.builtin_tableaux()[tableau]
    x, dW = _vprk_step_inputs(shape, noisy)

    def step():
        if noisy:
            return sv.stochastic_vprk_step(pendulum, tab, None, x, dW, 0.125)
        return sv.vprk_step(pendulum, tab, x, 0.125)

    stacked = step()
    calls = []

    def per_column(F, x0, config=None, jacobian=None, *, stacked_fd=False):
        assert stacked_fd and jacobian is None
        sol = solver.newton_solve(F, x0, config)
        calls.append((F, x0, sol.x))
        return sol

    monkeypatch.setattr(deterministic, "newton_solve", per_column)
    columns = step()
    (F, x0, converged), = calls
    for u in (x0, converged):
        Fu = F(u)
        assert np.array_equal(
            solver._fd_jacobian(F, u, Fu, stacked=True), solver._fd_jacobian(F, u, Fu)
        )
    assert stacked.newton_iters == columns.newton_iters
    for a, b in [
        (stacked.state.q, columns.state.q), (stacked.state.p, columns.state.p),
        (stacked.stages.Q, columns.stages.Q), (stacked.stages.V, columns.stages.V),
        (stacked.stages.Lambda, columns.stages.Lambda), (stacked.velocity, columns.velocity),
    ]:
        assert a.shape == b.shape and np.array_equal(a, b)


def test_batched_no_convergence_names_the_worst_element():
    # One iteration of Newton on x^3 = c from x = 1: the element whose root
    # lies farthest away is left with the largest residual.
    c = np.array([1.5, 0.2, 3.0, 0.9])
    config = sv.NewtonConfig(max_iter=1)
    singles = []
    for ci in c:
        with pytest.raises(NoConvergence) as info:
            sv.newton_solve(lambda x: x**3 - ci, np.ones(1), config)
        singles.append(info.value.last_residual)
        assert "batch index" not in str(info.value)
    with pytest.raises(NoConvergence) as info:
        sv.newton_solve(lambda x: x**3 - c[:, None], np.ones((4, 1)), config)
    worst = int(np.argmax(singles))
    assert info.value.last_residual == singles[worst]
    assert f"(residual {singles[worst]:.3e} at batch index {worst})" in str(info.value)


def test_singular_jacobian_names_a_batch_element():
    # F(x) = a x - b with a zero slope in element (1, 0) of a (2, 2) batch.
    a = np.array([[1.0, 2.0], [0.0, 3.0]])[..., None]
    b = np.array([[1.0, 1.0], [5.0, 1.0]])[..., None]
    with pytest.raises(SingularJacobian, match="residual 5.000e[+]00 at batch index 1, 0"):
        sv.newton_solve(lambda x: a * x - b, np.zeros((2, 2, 1)), jacobian=lambda x: a[..., None])


def _bits_up_to_zero_sign(a):
    # +0.0 for both zeros, every other value (NaN included) as its bit pattern.
    return np.where(a == 0.0, 0.0, a).view(np.uint64)


@pytest.mark.parametrize("batch", [(), (1,), (7,), (4, 5)], ids=str)
@pytest.mark.parametrize("unbatched_mat", [False, True], ids=["batched", "shared"])
def test_apply_one_column_is_bitwise_matmul_up_to_the_sign_of_zero(batch, unbatched_mat):
    from svpark.solver import _apply

    rng = np.random.default_rng(41)
    mat = rng.standard_normal((3, 1) if unbatched_mat else batch + (3, 1))
    vec = rng.standard_normal(batch + (1,))
    # Exact zeros of both signs, infinities and NaN among the entries.
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    for a, every in ((mat, 2), (vec, 3)):
        a.flat[::every] = special[rng.integers(0, 5, a.flat[::every].size)]
    with np.errstate(invalid="ignore"):
        expected = (mat @ vec[..., None])[..., 0]
        got = _apply(mat, vec)
    assert got.shape == expected.shape
    assert np.array_equal(_bits_up_to_zero_sign(got), _bits_up_to_zero_sign(expected))


def test_apply_warns_like_matmul_on_inf_times_zero():
    from svpark.solver import _apply

    mat = np.array([[[np.inf], [1.0]]] * 7)
    vec = np.zeros((7, 1))
    for product in (lambda: _apply(mat, vec), lambda: (mat @ vec[..., None])[..., 0]):
        with pytest.warns(RuntimeWarning, match="invalid value"):
            product()


def test_apply_with_several_columns_is_matmul():
    from svpark.solver import _apply

    rng = np.random.default_rng(43)
    mat, vec = rng.standard_normal((4, 5, 3, 2)), rng.standard_normal((4, 5, 2))
    assert np.array_equal(_apply(mat, vec), (mat @ vec[..., None])[..., 0])


def _dense_saddle_solve(M, G, rp, rc):
    """Reference: one dense solve of [[M, G^T], [G, 0]] per batch element."""
    n, k = G.shape[-1], G.shape[-2]
    batch = np.broadcast_shapes(M.shape[:-2], G.shape[:-2], rp.shape[:-1], rc.shape[:-1])
    M, G = np.broadcast_to(M, batch + (n, n)), np.broadcast_to(G, batch + (k, n))
    K = np.zeros(batch + (n + k, n + k))
    K[..., :n, :n], K[..., :n, n:], K[..., n:, :n] = M, np.swapaxes(G, -1, -2), G
    rhs = np.concatenate(
        [np.broadcast_to(rp, batch + (n,)), np.broadcast_to(rc, batch + (k,))], axis=-1
    )
    u = np.linalg.solve(K, rhs[..., None])[..., 0]
    return u[..., :n], u[..., n:]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "M_batch, G_batch, rhs_batch",
    [((), (), (2,)), ((2,), (), (2,)), ((), (2,), ())],
    ids=["shared-G-unbatched-M", "shared-G-batched-M", "batched-G-shared-rhs"],
)
def test_schur_multiplier_solve_broadcasts_mixed_batch_shapes(M_batch, G_batch, rhs_batch, k):
    # A shared G against batched right-hand sides (with M unbatched or
    # batched), and a batched G against shared right-hand sides.
    rng = np.random.default_rng(11)
    A = rng.standard_normal(M_batch + (3, 3))
    M = A @ np.swapaxes(A, -1, -2) + 3.0 * np.eye(3)
    G = rng.standard_normal(G_batch + (k, 3))
    rp = rng.standard_normal(rhs_batch + (3,))
    rc = rng.standard_normal(rhs_batch + (k,))
    x, lam = sv.schur_multiplier_solve(M, G, rp, rc)
    x_ref, lam_ref = _dense_saddle_solve(M, G, rp, rc)
    assert x.shape == (2, 3) and lam.shape == (2, k)
    assert np.allclose(x, x_ref, rtol=0.0, atol=1e-12)
    assert np.allclose(lam, lam_ref, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "x0, F, match",
    [
        (np.float64(1.0), lambda x: x, "at least one dimension"),
        (np.zeros(2), lambda x: x[..., :1], r"F returned shape \(1,\), expected \(2,\)"),
    ],
    ids=["0-d-x0", "F-wrong-shape"],
)
def test_newton_rejects_malformed_problems(x0, F, match):
    with pytest.raises(ValueError, match=match):
        sv.newton_solve(F, x0)


@pytest.mark.parametrize("rhs_batch", [(), (4,)], ids=["unbatched", "batched-rhs"])
def test_schur_singular_mass_raises_rank_deficient(rhs_batch):
    M = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(RankDeficient, match="primal block not invertible"):
        sv.schur_multiplier_solve(M, np.eye(3)[:1], np.zeros(rhs_batch + (3,)),
                                  np.zeros(rhs_batch + (1,)))
