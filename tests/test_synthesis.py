import numpy as np
import pytest

from lurestab.families import (
    _halfspace_data,
    make_controller_evaluator,
    project_feasible,
    strictly_feasible,
)
from lurestab.linalg import RiccatiError, solve_lyapunov
from lurestab.lure import LtiPlant, max_contraction_rate
from lurestab.synthesis import (
    EXAMPLE2_CENTER,
    EXAMPLE2_ETA,
    EXAMPLE2_GAIN,
    EXAMPLE2_U_BAR,
    CareError,
    LqrWeights,
    build_cbf_system,
    build_saturation_system,
    care_residual,
    example1_setup,
    example2_barrier,
    example2_blocking_equilibrium,
    example2_grid,
    example2_h,
    example2_system,
    hurwitz_check,
    solve_care,
)


def test_lyapunov_identity_cases():
    assert np.allclose(solve_lyapunov(-np.eye(2), 2.0 * np.eye(2)), np.eye(2))
    assert np.allclose(solve_lyapunov([[-3.0]], [[6.0]]), [[1.0]])
    # the solve is the Riccati kernel's with R = 0, so it needs a Hurwitz A:
    # an anti-stable A has no stabilizing solution
    with pytest.raises(RiccatiError):
        solve_lyapunov(np.eye(2), np.array([[2.0, 1.0], [1.0, 4.0]]))


def test_lyapunov_rejects_singular_pairing():
    # eigenvalues +1 and -1 sum to zero, as do 0 and 0; neither A is Hurwitz
    with pytest.raises(RiccatiError):
        solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(RiccatiError):
        solve_lyapunov([[0.0]], [[1.0]])


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
    # one subspace solve, so the residual is the recomputed final residual,
    # at roundoff level for an unstable scalar and for example 1
    ex1 = example1_setup(42)
    cases = [([[0.5]], [[1.0]], LqrWeights(q=[[1.0]], r=[[1.0]])),
             (ex1.a, ex1.b, LqrWeights(q=np.eye(3), r=np.eye(2)))]
    for a, b, w in cases:
        sol = solve_care(a, b, w)
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
        v = ex1.bound(x[None, :])[0]
        expected = np.maximum(-v, np.minimum(v, ex1.k @ x))
        got = project_feasible(sys.controller.family, x, sys.controller.gain @ x).u
        assert np.abs(got - expected).max() == 0.0


def test_example1_bound_matches_one_state_expression():
    # the stacked bound gives, row by row, the bits of the one-state
    # exp(-x @ x / 2) (1, 1) it replaced
    ex1 = example1_setup(42)
    rng = np.random.default_rng(71)
    for count in (1, 2, 8, 64, 5000):
        for scale in (0.1, 1.0, 3.0):
            xs = scale * rng.standard_normal((count, 3))
            expected = np.array([np.exp(-0.5 * float(x @ x)) * np.ones(2) for x in xs])
            got = ex1.bound(xs)
            assert got.shape == (count, 2)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_saturation_inactive_equals_linear():
    a = -np.eye(2)
    b = np.eye(2)
    k = -0.5 * np.eye(2)
    sys = build_saturation_system(a, b, k, lambda xs: 1e6 * np.ones((len(xs), 2)))
    x = np.array([3.0, -2.0])
    assert np.allclose(project_feasible(sys.controller.family, x, k @ x).u, k @ x)
    with pytest.raises(ValueError):
        build_saturation_system(a, b, k[:1], lambda xs: np.ones((len(xs), 2)))


def test_saturation_huge_state_clamps_to_tiny_bound():
    ex1 = example1_setup(42)
    sys = build_saturation_system(ex1.a, ex1.b, ex1.k, ex1.bound)
    x = np.full(3, 10.0)
    u = project_feasible(sys.controller.family, x, sys.controller.gain @ x).u
    assert np.abs(u).max() <= ex1.bound(x[None, :])[0, 0]


def test_cbf_system_wiring():
    sys = example2_system()
    assert np.allclose(sys.plant.a, np.zeros((2, 2)))
    assert np.allclose(sys.plant.b, np.eye(2))
    # far from the obstacle with the nominal command feasible: u* = K x
    x = np.array([0.2, 0.5])
    assert np.allclose(project_feasible(sys.controller.family, x, EXAMPLE2_GAIN @ x).u,
                       EXAMPLE2_GAIN @ x, atol=1e-12)


def test_cbf_validates_alpha_and_bound():
    with pytest.raises(ValueError):
        build_cbf_system(example2_barrier, lambda r: r, EXAMPLE2_GAIN, u_bar=0.0)
    with pytest.raises(ValueError):
        build_cbf_system(example2_barrier, lambda r: r + 1.0, EXAMPLE2_GAIN, u_bar=1.0)
    with pytest.raises(ValueError):  # a single integrator needs a square gain
        build_cbf_system(example2_barrier, lambda r: r, EXAMPLE2_GAIN[:1], u_bar=1.0)


def separate_example2_data(xs):
    """Example 2's halfspace data as the separate normal and offset callables gave it.

    They were -asarray(grad_h(X)) and alpha(asarray(h(X))), with alpha the
    identity and grad_h(X) = 2.0 (X - center), each taking x - center afresh.
    """
    def grad_h(x):
        return 2.0 * (np.asarray(x, dtype=float) - EXAMPLE2_CENTER)

    normal = lambda x: -np.asarray(grad_h(x), dtype=float)  # noqa: E731
    offset = lambda x: (lambda r: r)(np.asarray(example2_h(x), dtype=float))  # noqa: E731
    return normal(xs), offset(xs)


def test_example2_fused_data_matches_separate_callables_bit_for_bit():
    family = example2_system().controller.family
    # example2_system fuses the barrier and alpha of this build into one callable
    built = build_cbf_system(example2_barrier, lambda r: r, EXAMPLE2_GAIN, EXAMPLE2_U_BAR)
    assert built.controller.family.box_bound == family.box_bound
    assert np.array_equal(built.controller.gain, example2_system().controller.gain)
    rng = np.random.default_rng(71)
    special = np.array([
        EXAMPLE2_CENTER, [0.0, 0.0], [0.0, 6.0], [2.0, 4.0],   # centre, origin, boundary
        [1e8, -1e8], [-3e100, 2e100], [5e-300, 4.0], [-0.0, 4.0],  # far and tiny offsets
    ])
    for count in (1, 2, 4096):
        for scale in (0.5, 3.0, 1e6):
            xs = EXAMPLE2_CENTER + scale * rng.standard_normal((count, 2))
            xs[:min(count, len(special))] = special[:count]
            expected_a, expected_b = separate_example2_data(xs)
            for a, b in (family.data(xs), _halfspace_data(family, xs, 2),
                         built.controller.family.data(xs)):
                assert a.shape == (count, 2) and b.shape == (count,)
                assert np.array_equal(np.asarray(a).view(np.int64), expected_a.view(np.int64))
                assert np.array_equal(np.asarray(b).view(np.int64), expected_b.view(np.int64))
            # example2_barrier's values are example2_h's, which the safety check reads
            h, grad = example2_barrier(xs)
            assert np.array_equal(h.view(np.int64), example2_h(xs).view(np.int64))
            assert np.array_equal(grad.view(np.int64), (-expected_a).view(np.int64))


def test_cbf_barrier_must_follow_the_stacked_contract():
    x = np.array([0.3, 0.2])

    def evaluate(barrier, xs):
        sys = build_cbf_system(barrier, lambda r: r, EXAMPLE2_GAIN, 1.0)
        return make_controller_evaluator(sys.controller)(xs)

    # a one-state barrier reads x[1] of a one-row stack, or makes a float of a row
    one_state = lambda x: (x[0] ** 2 + (x[1] - 4.0) ** 2 - 4.0,  # noqa: E731
                           2.0 * np.array([x[0], x[1] - 4.0]))
    with pytest.raises(ValueError, match=r"\(N, n\) stack of states") as err:
        strictly_feasible(build_cbf_system(one_state, lambda r: r, EXAMPLE2_GAIN,
                                           1.0).controller.family, x)
    assert isinstance(err.value.__cause__, IndexError)
    as_float = lambda x: (float(x[0]) ** 2 - 4.0, np.zeros((len(x), 2)))  # noqa: E731
    with pytest.raises(ValueError, match=r"\(N, n\) stack of states") as err:
        evaluate(as_float, np.tile(x, (3, 1)))
    assert isinstance(err.value.__cause__, TypeError)
    # stacked, but of the wrong shapes
    wide = lambda xs: (example2_h(xs), np.zeros((len(xs), 3)))  # noqa: E731
    with pytest.raises(ValueError, match=r"data returned A of shape \(3, 3\)"):
        evaluate(wide, np.tile(x, (3, 1)))
    column = lambda xs: (example2_h(xs)[:, None], 2.0 * (xs - EXAMPLE2_CENTER))  # noqa: E731
    with pytest.raises(ValueError, match=r"data returned b of shape \(3, 1\)"):
        evaluate(column, np.tile(x, (3, 1)))


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
    assert np.allclose(ex1.bound(np.zeros((1, 3))), np.ones((1, 2)))
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
