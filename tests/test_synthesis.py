import numpy as np
import pytest

from lurestab.families import eval_controller
from lurestab.lure import LtiPlant, max_contraction_rate
from lurestab.synthesis import (
    EXAMPLE2_ETA,
    EXAMPLE2_GAIN,
    CareError,
    LqrWeights,
    build_cbf_system,
    build_saturation_system,
    care_residual,
    example1_setup,
    example2_blocking_equilibrium,
    example2_grid,
    example2_h,
    example2_system,
    hurwitz_check,
    solve_care,
    solve_lyapunov,
)


def test_lyapunov_identity_cases():
    assert np.allclose(solve_lyapunov(-np.eye(2), 2.0 * np.eye(2)), np.eye(2))
    assert np.allclose(solve_lyapunov([[-3.0]], [[6.0]]), [[1.0]])
    # anti-stable A still solves the equation; sign checking is the caller's job
    q = np.array([[2.0, 1.0], [1.0, 4.0]])
    x = solve_lyapunov(np.eye(2), q)
    assert np.allclose(x, -q / 2.0)


def test_lyapunov_rejects_singular_pairing():
    # eigenvalues +1 and -1 sum to zero
    with pytest.raises(ValueError):
        solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))


def test_care_scalar_known_solutions():
    w = LqrWeights(q=[[1.0]], r=[[1.0]])
    sol = solve_care([[0.0]], [[1.0]], w)
    assert abs(sol.x[0, 0] - 1.0) <= 1e-10
    assert abs(sol.k[0, 0] + 1.0) <= 1e-10
    sol = solve_care([[-1.0]], [[1.0]], w)
    assert abs(sol.x[0, 0] - (np.sqrt(2.0) - 1.0)) <= 1e-10
    assert abs(sol.k[0, 0] - (1.0 - np.sqrt(2.0))) <= 1e-10


def test_care_scalar_closed_form_random():
    # x = (a + sqrt(a^2 + b^2 q / r)) r / b^2
    rng = np.random.default_rng(31)
    for _ in range(50):
        a = float(rng.uniform(-2.0, 2.0))
        b = float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
        q = float(rng.uniform(0.1, 3.0))
        r = float(rng.uniform(0.1, 3.0))
        sol = solve_care([[a]], [[b]], LqrWeights(q=[[q]], r=[[r]]))
        expected = (a + np.sqrt(a * a + b * b * q / r)) * r / (b * b)
        assert abs(sol.x[0, 0] - expected) <= 1e-10 * (1.0 + expected)


def test_care_no_control_authority():
    w = LqrWeights(q=np.eye(3), r=np.eye(2))
    sol = solve_care(-np.eye(3), np.zeros((3, 2)), w)
    assert np.allclose(sol.k, np.zeros((2, 3)))
    assert np.allclose(sol.x, solve_lyapunov(-np.eye(3), np.eye(3)))


def test_care_residual_and_gain_invariants():
    rng = np.random.default_rng(37)
    for _ in range(10):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, m))
        if not hurwitz_check(a)[0] and np.linalg.matrix_rank(
                np.hstack([b] + [np.linalg.matrix_power(a, i) @ b for i in range(1, n)])) < n:
            continue
        w = LqrWeights(q=np.eye(n), r=np.eye(m))
        try:
            sol = solve_care(a, b, w)
        except CareError:
            continue
        assert sol.residual <= 1e-8 * (1.0 + np.linalg.norm(sol.x))
        k_recomputed = -np.linalg.solve(w.r, b.T @ sol.x)
        assert np.abs(k_recomputed - sol.k).max() <= 1e-10
        assert hurwitz_check(a + b @ sol.k)[0]


def test_care_residual_history_is_final_residual():
    # one subspace solve, so the history is the recomputed final residual,
    # at roundoff level for an unstable scalar and for example 1
    ex1 = example1_setup(42)
    cases = [([[0.5]], [[1.0]], LqrWeights(q=[[1.0]], r=[[1.0]])),
             (ex1.a, ex1.b, LqrWeights(q=np.eye(3), r=np.eye(2)))]
    for a, b, w in cases:
        sol = solve_care(a, b, w)
        assert sol.residual_history == (sol.residual,)
        assert sol.residual == care_residual(np.asarray(a), np.asarray(b), sol.x, w)
        assert sol.residual <= 1e-12 * (1.0 + np.linalg.norm(sol.x))


def test_care_uncontrollable_unstable_mode_raises():
    w = LqrWeights(q=np.eye(2), r=np.eye(1))
    with pytest.raises(CareError):
        solve_care([[1.0, 0.0], [0.0, -1.0]], [[0.0], [1.0]], w)


def test_lqr_weights_validation():
    with pytest.raises(ValueError):
        LqrWeights(q=np.eye(2), r=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        LqrWeights(q=-np.eye(2), r=np.eye(2))


def test_hurwitz_check_cases():
    ok, absc = hurwitz_check(-np.eye(3))
    assert ok and np.isclose(absc, -1.0)
    ok, absc = hurwitz_check([[0.0, 1.0], [-1.0, 0.0]])
    assert not ok and abs(absc) <= 1e-12


def test_saturation_system_matches_clamp():
    ex1 = example1_setup(42)
    sys = build_saturation_system(ex1.a, ex1.b, ex1.k, ex1.bound)
    rng = np.random.default_rng(41)
    for _ in range(10_000):
        x = rng.standard_normal(3) * 3.0
        v = ex1.bound(x)
        expected = np.maximum(-v, np.minimum(v, ex1.k @ x))
        got = eval_controller(sys.controller, x).u
        assert np.abs(got - expected).max() == 0.0


def test_saturation_inactive_equals_linear():
    a = -np.eye(2)
    b = np.eye(2)
    k = -0.5 * np.eye(2)
    sys = build_saturation_system(a, b, k, lambda x: 1e6 * np.ones(2))
    x = np.array([3.0, -2.0])
    assert np.allclose(eval_controller(sys.controller, x).u, k @ x)


def test_saturation_huge_state_clamps_to_tiny_bound():
    ex1 = example1_setup(42)
    sys = build_saturation_system(ex1.a, ex1.b, ex1.k, ex1.bound)
    x = np.full(3, 10.0)
    u = eval_controller(sys.controller, x).u
    assert np.abs(u).max() <= ex1.bound(x)[0]


def test_cbf_system_wiring():
    sys = example2_system()
    assert np.allclose(sys.plant.a, np.zeros((2, 2)))
    assert np.allclose(sys.plant.b, np.eye(2))
    # far from the obstacle with the nominal command feasible: u* = K x
    x = np.array([0.2, 0.5])
    assert np.allclose(eval_controller(sys.controller, x).u, EXAMPLE2_GAIN @ x,
                       atol=1e-12)


def test_cbf_validates_alpha_and_bound():
    with pytest.raises(ValueError):
        build_cbf_system(example2_h, lambda x: np.zeros(2), lambda r: r,
                         EXAMPLE2_GAIN, u_bar=0.0)
    with pytest.raises(ValueError):
        build_cbf_system(example2_h, lambda x: np.zeros(2), lambda r: r + 1.0,
                         EXAMPLE2_GAIN, u_bar=1.0)


def test_example2_rate_from_gain_eigenvalues():
    eigs = np.linalg.eigvalsh(EXAMPLE2_GAIN)
    assert np.isclose(eigs[-1], -EXAMPLE2_ETA)
    assert np.isclose(EXAMPLE2_ETA, (3.0 - np.sqrt(2.0)) / 2.0)
    assert abs(EXAMPLE2_ETA - 0.79289) <= 1e-5


def test_example2_blocking_equilibrium_properties():
    x_eq, v_s = example2_blocking_equilibrium()
    assert abs(example2_h(x_eq)) <= 1e-12
    # nominal command anti-parallel to the barrier gradient
    kx = EXAMPLE2_GAIN @ x_eq
    grad = np.array([2.0 * x_eq[0], 2.0 * (x_eq[1] - 4.0)])
    cross = kx[0] * grad[1] - kx[1] * grad[0]
    assert abs(cross) <= 1e-9
    assert kx @ grad < 0
    assert np.isclose(np.linalg.norm(v_s), 1.0)


def test_example2_grid_inside_safe_set():
    grid = example2_grid()
    assert grid.shape == (12, 2)
    assert all(example2_h(x) > 0 for x in grid)


def test_example1_setup_deterministic():
    first = example1_setup(42)
    second = example1_setup(42)
    assert np.array_equal(first.a, second.a)
    assert np.array_equal(first.k, second.k)
    assert first.seed_used == second.seed_used


def test_example1_structure():
    ex1 = example1_setup(42)
    assert np.array_equal(ex1.b, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(ex1.bound(np.zeros(3)), np.ones(2))
    assert hurwitz_check(ex1.a)[0]
    assert hurwitz_check(ex1.a + ex1.b @ ex1.k)[0]
    assert care_residual(ex1.a, ex1.b,
                         solve_care(ex1.a, ex1.b, LqrWeights(q=np.eye(3), r=np.eye(2))).x,
                         LqrWeights(q=np.eye(3), r=np.eye(2))) <= 1e-8


def test_example1_is_certifiable():
    ex1 = example1_setup(42)
    res = max_contraction_rate(LtiPlant(a=ex1.a, b=ex1.b), ex1.k, rho=1.0)
    assert res.status == "feasible"
    assert res.eta_star > 0
