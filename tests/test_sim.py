import math
import warnings

import numpy as np
import pytest

from lurestab import families, sim
from lurestab.families import (
    ROUNDING_SLACK,
    AffineInequalities,
    HalfspacePlusBox,
    InfeasibleStateError,
    ProjectionController,
    StateBox,
    project_feasible,
    strictly_feasible,
)
from lurestab.lure import LtiPlant, max_contraction_rate
from lurestab.rng import RandomSource
from lurestab.sim import (
    CSV_BLOCK_VALUES,
    ClosedLoopSystem,
    LyapunovReport,
    SimConfig,
    Termination,
    Trajectory,
    batch_simulate,
    check_decay_envelope,
    check_lyapunov_decrease,
    check_safety,
    detect_equilibrium,
    fit_semiglobal_rate,
    frozen_constraint_field,
    integrate,
    projected_samples,
    trajectory_csv_lines,
    weighted_norms,
    write_trajectory_csv,
    _blowup_square,
    _decimal_digits,
    _format_rows,
)
from lurestab.synthesis import (
    LqrWeights,
    build_saturation_system,
    example1_setup,
    example2_grid,
    example2_h,
    example2_system,
    solve_care,
)


def linear_decay_system(rate: float = 1.0, dim: int = 2) -> ClosedLoopSystem:
    plant = LtiPlant(a=-rate * np.eye(dim), b=np.zeros((dim, 1)))
    ctrl = ProjectionController(gain=np.zeros((1, dim)),
                                family=StateBox(bound=lambda xs: np.ones((len(xs), 1))))
    return ClosedLoopSystem(plant=plant, controller=ctrl)


def single_integrator_box(dim: int = 2, bound: float = 1.0) -> ClosedLoopSystem:
    plant = LtiPlant(a=np.zeros((dim, dim)), b=np.eye(dim))
    ctrl = ProjectionController(gain=-np.eye(dim),
                                family=StateBox(bound=lambda xs: bound * np.ones((len(xs), dim))))
    return ClosedLoopSystem(plant=plant, controller=ctrl)


def test_integrate_linear_decay_matches_exact():
    traj = integrate(linear_decay_system(), [1.0, 0.0], SimConfig(dt=1e-3, horizon=2.0))
    assert traj.termination is Termination.COMPLETED
    exact = np.exp(-traj.times)[:, None] * np.array([1.0, 0.0])
    assert np.abs(traj.states - exact).max() <= 1e-12


def test_integrate_single_integrator_unconstrained_ray():
    # |x| <= 1 along the whole ray, so the box never activates and dx/dt = -x
    traj = integrate(single_integrator_box(), [0.5, 0.0], SimConfig(dt=1e-3, horizon=2.0))
    exact = np.exp(-traj.times)[:, None] * np.array([0.5, 0.0])
    assert np.abs(traj.states - exact).max() <= 1e-12


def test_integrate_step_refinement_fourth_order():
    errs = []
    for dt in (0.02, 0.01):
        traj = integrate(linear_decay_system(), [1.0, 0.0],
                         SimConfig(dt=dt, horizon=1.0))
        errs.append(abs(traj.states[-1][0] - np.exp(-1.0)))
    ratio = errs[0] / errs[1]
    assert 4.0 <= ratio <= 64.0


def test_integrate_deterministic():
    cfg = SimConfig(dt=1e-3, horizon=1.0)
    t1 = integrate(example2_system(), [0.0, 8.0], cfg)
    t2 = integrate(example2_system(), [0.0, 8.0], cfg)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.inputs, t2.inputs)


def test_integrate_rejects_bad_x0():
    with pytest.raises(ValueError):
        integrate(linear_decay_system(), [np.nan, 0.0], SimConfig())
    family = HalfspacePlusBox(data=lambda xs: (np.ones((len(xs), 1)), np.full(len(xs), -1.0)),
                              box_bound=1.0)
    plant = LtiPlant(a=np.zeros((1, 1)), b=np.eye(1))
    sys = ClosedLoopSystem(plant=plant,
                           controller=ProjectionController(gain=-np.eye(1), family=family))
    with pytest.raises(ValueError):
        integrate(sys, [0.0], SimConfig())


def test_integrate_blowup_detection():
    plant = LtiPlant(a=[[1.0]], b=[[0.0]])
    ctrl = ProjectionController(gain=np.zeros((1, 1)),
                                family=StateBox(bound=lambda xs: np.ones((len(xs), 1))))
    sys = ClosedLoopSystem(plant=plant, controller=ctrl)
    traj = integrate(sys, [1.0], SimConfig(dt=1e-2, horizon=20.0, blowup_norm=1e3))
    assert traj.termination is Termination.NUMERICAL_BLOWUP
    assert np.all(np.isfinite(traj.states))


def test_integrate_left_feasible_region():
    # halfspace offset 1 - x shrinks to nothing as the state drifts past 1
    family = HalfspacePlusBox(data=lambda xs: (np.zeros((len(xs), 1)), 1.0 - xs[:, 0]),
                              box_bound=1.0)
    plant = LtiPlant(a=np.zeros((1, 1)), b=np.eye(1))
    ctrl = ProjectionController(gain=0.5 * np.eye(1), family=family)
    sys = ClosedLoopSystem(plant=plant, controller=ctrl)
    traj = integrate(sys, [0.5], SimConfig(dt=1e-2, horizon=20.0))
    assert traj.termination is Termination.LEFT_FEASIBLE_REGION
    assert traj.states[-1][0] < 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.01, horizon=0.001)
    for dt, horizon in ((np.nan, 1.0), (0.1, np.nan), (0.0, 1.0), (0.1, -1.0)):
        with pytest.raises(ValueError, match="dt and horizon must be positive"):
            SimConfig(dt=dt, horizon=horizon)
    # a bound no state passes would stop every run after one step
    for blowup_norm in (0.0, -1.0, -np.inf, np.nan):
        with pytest.raises(ValueError, match="blowup_norm must be positive"):
            SimConfig(blowup_norm=blowup_norm)


def test_config_refuses_more_steps_than_max():
    # samples are preallocated for the horizon, so an absurd step count is
    # refused up front instead of failing to allocate
    SimConfig(dt=1e-6, horizon=10.0)
    with pytest.raises(ValueError, match="steps"):
        SimConfig(dt=1e-300, horizon=0.05)


def test_envelope_pass_and_fail():
    traj = integrate(linear_decay_system(), [1.0, 2.0], SimConfig(dt=1e-3, horizon=3.0))
    good = check_decay_envelope(traj, np.eye(2), eta=1.0, slack=1e-6)
    assert good.passed and good.first_violation_time is None
    bad = check_decay_envelope(traj, np.eye(2), eta=2.0, slack=1e-6)
    assert not bad.passed
    assert bad.max_violation > 0
    assert bad.first_violation_time is not None


def test_lyapunov_decrease_pass_and_fail():
    # dx/dt = -x with P = I: V' + 2 V is 0 in every term, and at eta = 1.5,
    # V' + 3 V = |x|^2 equals the size of its terms at every sample
    sys = linear_decay_system()
    traj = integrate(sys, [1.0, 0.5], SimConfig(dt=1e-3, horizon=2.0))
    assert check_lyapunov_decrease(traj, sys.plant, np.eye(2), 1.0) == LyapunovReport(
        passed=True, worst_slack=0.0)
    assert check_lyapunov_decrease(traj, sys.plant, np.eye(2), 1.5) == LyapunovReport(
        passed=False, worst_slack=1.0)
    plant = LtiPlant(a=np.eye(1), b=np.zeros((1, 1)))
    ctrl = ProjectionController(gain=np.zeros((1, 1)),
                                family=StateBox(bound=lambda xs: np.ones((len(xs), 1))))
    expanding = integrate(ClosedLoopSystem(plant=plant, controller=ctrl), [0.1],
                          SimConfig(dt=1e-3, horizon=1.0))
    assert not check_lyapunov_decrease(expanding, plant, np.eye(1), 1.0).passed


def test_lyapunov_decrease_checks_every_sample_of_any_run(monkeypatch):
    # dx/dt = x + u with P = I and eta = 1: V' + 2 V = 2 x (2 x + u), over
    # the size 2 |x| (2 |x| + |u|)
    plant = LtiPlant(a=np.eye(1), b=np.eye(1))

    def check(states, inputs):
        traj = Trajectory(times=0.1 * np.arange(len(states)), states=np.array(states),
                          inputs=np.array(inputs), termination=Termination.COMPLETED)
        return check_lyapunov_decrease(traj, plant, np.eye(1), 1.0)

    # a one-sample run is checked; a sample at x = 0 counts as 0, whatever u
    assert check([[1.0]], [[-4.0]]) == LyapunovReport(passed=True, worst_slack=-1 / 3)
    assert check([[0.0]], [[5.0]]) == LyapunovReport(passed=True, worst_slack=0.0)
    x = [[1.0], [-2.0], [0.5]]
    assert check(x, [[-4.0], [6.0], [-1.5]]) == LyapunovReport(passed=True, worst_slack=-0.2)
    # the last sample alone breaks the bound, in blocks of every size
    for block_values in (1, 2, 3, 4, 6, 100):
        monkeypatch.setattr(sim, "MAX_BLOCK_FLOATS", block_values)
        assert check(x, [[-4.0], [6.0], [1.0]]) == LyapunovReport(passed=False, worst_slack=1.0)
    # a size past float range fails the check, with a NaN figure
    report = check([[1.0], [1e200]], [[-4.0], [-4e200]])
    assert not report.passed and np.isnan(report.worst_slack)


def test_detect_equilibrium_origin():
    sys = single_integrator_box()
    traj = integrate(sys, [0.5, 0.2], SimConfig(dt=1e-3, horizon=20.0))
    eq = detect_equilibrium(traj, tol=1e-6)
    assert eq is not None and eq.is_origin


def test_detect_equilibrium_transient_returns_none():
    sys = single_integrator_box()
    traj = integrate(sys, [0.5, 0.2], SimConfig(dt=1e-3, horizon=1.0))
    assert detect_equilibrium(traj, tol=1e-6) is None


def test_detect_equilibrium_requires_completed():
    plant = LtiPlant(a=[[1.0]], b=[[0.0]])
    ctrl = ProjectionController(gain=np.zeros((1, 1)),
                                family=StateBox(bound=lambda xs: np.ones((len(xs), 1))))
    traj = integrate(ClosedLoopSystem(plant=plant, controller=ctrl), [1.0],
                     SimConfig(dt=1e-2, horizon=30.0, blowup_norm=1e3))
    with pytest.raises(ValueError):
        detect_equilibrium(traj, tol=1e-6)


def test_detect_equilibrium_reads_the_recorded_input():
    # settled states; only the last recorded input decides, and is not recomputed
    states = np.tile([0.5, 0.0], (20, 1))
    inputs = np.zeros((20, 2))
    inputs[:-1] = 1.0

    def settled(last_input):
        inputs[-1] = last_input
        return Trajectory(times=0.1 * np.arange(20), states=states, inputs=inputs.copy(),
                          termination=Termination.COMPLETED)

    eq = detect_equilibrium(settled([3e-7, 4e-7]), tol=1e-6)
    assert eq is not None and not eq.is_origin
    assert eq.controller_norm == float(np.linalg.norm([3e-7, 4e-7]))
    assert np.array_equal(eq.point, states[-1])
    assert detect_equilibrium(settled([0.0, 2e-6]), tol=1e-6) is None


def test_family_callable_raising_at_x0_propagates():
    def broken(xs):
        raise RuntimeError("bound failed")

    plant = LtiPlant(a=-np.eye(1), b=np.eye(1))
    sys = ClosedLoopSystem(plant=plant, controller=ProjectionController(
        gain=-np.eye(1), family=StateBox(bound=broken)))
    with pytest.raises(RuntimeError, match="bound failed"):
        batch_simulate(sys, [[0.1]], SimConfig(dt=0.1, horizon=1.0))


def test_fit_semiglobal_rate_exact_and_overdamped():
    eta = 0.8
    traj = integrate(linear_decay_system(rate=eta), [1.0, 0.0],
                     SimConfig(dt=1e-3, horizon=12.0))
    fit = fit_semiglobal_rate(traj, eta, origin_tol=1e-3)
    assert abs(fit.m_fit - 1.0) <= 1e-9
    faster = integrate(linear_decay_system(rate=2 * eta), [1.0, 0.0],
                       SimConfig(dt=1e-3, horizon=12.0))
    fit = fit_semiglobal_rate(faster, eta, origin_tol=1e-3)
    assert abs(fit.m_fit - 1.0) <= 1e-9


def test_fit_semiglobal_rate_in_log_space():
    # samples at the origin bound nothing, and M past float range is inf;
    # neither may warn
    times = np.array([0.0, 1.0, 2.0, 3.0])
    states = np.array([[1.0, 0.0], [0.5, 0.0], [0.0, 0.0], [1e-9, 0.0]])
    traj = Trajectory(times=times, states=states, inputs=np.zeros((4, 1)),
                      termination=Termination.COMPLETED)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(fit_semiglobal_rate(traj, 1.0).m_fit - 0.5 * np.e) <= 1e-15
        assert fit_semiglobal_rate(traj, 300.0).m_fit == np.inf
        assert np.isfinite(fit_semiglobal_rate(traj, 200.0).m_fit)


def test_fit_semiglobal_rate_rejects_non_origin():
    traj = integrate(linear_decay_system(), [1.0, 0.0], SimConfig(dt=1e-2, horizon=0.5))
    with pytest.raises(ValueError):
        fit_semiglobal_rate(traj, 1.0, origin_tol=1e-6)


def test_check_safety():
    sys = single_integrator_box()
    traj = integrate(sys, [0.5, 0.2], SimConfig(dt=1e-2, horizon=1.0))
    rep = check_safety(traj, example2_h, tol=1e-6)
    assert rep.passed and rep.min_h > 0
    # straight line through the disk
    times = np.linspace(0.0, 1.0, 50)
    states = np.linspace([0.0, 8.0], [0.0, 0.0], 50)
    fake = Trajectory(times=times, states=states, inputs=np.zeros((50, 2)),
                      termination=Termination.COMPLETED)
    rep = check_safety(fake, example2_h, tol=1e-6)
    assert not rep.passed and rep.min_h < 0


def test_batch_simulate_collects_errors():
    assert batch_simulate(single_integrator_box(), [], SimConfig()) == []
    family = HalfspacePlusBox(data=lambda xs: (np.ones((len(xs), 2)), xs[:, 1]),
                              box_bound=1.0)
    plant = LtiPlant(a=np.zeros((2, 2)), b=np.eye(2))
    sys = ClosedLoopSystem(plant=plant,
                           controller=ProjectionController(gain=-np.eye(2), family=family))
    cfg = SimConfig(dt=1e-2, horizon=0.5)
    results = batch_simulate(sys, [np.array([0.1, 1.0]), np.array([0.0, -5.0]),
                                   np.array([0.2, 2.0])], cfg)
    assert isinstance(results[0], Trajectory)
    assert isinstance(results[1], Exception)
    assert isinstance(results[2], Trajectory)


def test_single_integrator_gain_energy_monotone():
    # V(x) = -x^T K x / 2 never increases along single-integrator runs
    sys = example2_system()
    k = sys.controller.gain
    for x0 in ([0.0, 8.0], [2.0, 7.0], [-3.0, 5.0], [2.5, 0.5]):
        traj = integrate(sys, x0, SimConfig(dt=1e-3, horizon=5.0))
        v = -0.5 * np.einsum("ti,ij,tj->t", traj.states, k, traj.states)
        increments = np.diff(v)
        assert increments.max() <= 1e-9 * (1.0 + np.abs(v[:-1]).max())


def test_trajectory_csv_format():
    sys = single_integrator_box()
    traj = integrate(sys, [0.5, 0.2], SimConfig(dt=0.25, horizon=0.5))
    lines = trajectory_csv_lines(traj)
    assert lines[0] == "t,x1,x2,u1,u2"
    assert len(lines) == 1 + len(traj.times)
    with_extras = trajectory_csv_lines(traj, p=np.eye(2), h=[example2_h(x) for x in traj.states])
    assert with_extras[0] == "t,x1,x2,u1,u2,norm_P,h"
    # deterministic serialization
    assert trajectory_csv_lines(traj) == trajectory_csv_lines(traj)
    assert "0.5" in lines[1].split(",")[1]


def shrinking_region_system() -> ClosedLoopSystem:
    # x1 is clamped toward the origin by |u| <= 1 - x2, while x2 grows
    # freely as exp(t / 2): a row leaves the region when x2 reaches 1 and
    # blows up when a saturated x1 runs away (x1' = x1 - 1 - x2 above 1)
    plant = LtiPlant(a=np.diag([1.0, 0.5]), b=np.array([[1.0], [0.0]]))
    ctrl = ProjectionController(gain=np.array([[-2.0, 0.0]]),
                                family=StateBox(bound=lambda xs: 1.0 - xs[:, 1:2]))
    return ClosedLoopSystem(plant=plant, controller=ctrl)


def reference_rollout(sys, x0, cfg):
    """The per-trajectory RK4 loop the stacked one replaced, on project_feasible."""
    a, b, ctrl = sys.plant.a, sys.plant.b, sys.controller

    def control(x):
        if not strictly_feasible(ctrl.family, x):
            return None
        return project_feasible(ctrl.family, x, ctrl.gain @ x).u

    x = np.asarray(x0, dtype=float)
    n_steps = int(round(cfg.horizon / cfg.dt))
    times, states, inputs = [], [], []
    for step in range(n_steps + 1):
        u = control(x)
        if u is None:
            return times, states, inputs, Termination.LEFT_FEASIBLE_REGION
        times.append(step * cfg.dt)
        states.append(x)
        inputs.append(u)
        if step == n_steps:
            break
        slopes = [a @ x + b @ u]
        for coeff in (0.5, 0.5, 1.0):
            probe = x + coeff * cfg.dt * slopes[-1]
            u_probe = control(probe)
            if u_probe is None:
                return times, states, inputs, Termination.LEFT_FEASIBLE_REGION
            slopes.append(a @ probe + b @ u_probe)
        k1, k2, k3, k4 = slopes
        x = x + (cfg.dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > cfg.blowup_norm:
            return times, states, inputs, Termination.NUMERICAL_BLOWUP
    return times, states, inputs, Termination.COMPLETED


def assert_matches_reference(sys, x0, cfg, traj):
    times, states, inputs, termination = reference_rollout(sys, x0, cfg)
    assert traj.termination is termination
    assert np.array_equal(traj.times, times)
    for got, want in ((traj.states, np.array(states)), (traj.inputs, np.array(inputs))):
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


def assert_same_rollout(batched, alone):
    assert batched.termination is alone.termination
    assert len(batched.times) == len(alone.times)
    assert np.array_equal(batched.times, alone.times)
    for got, want in ((batched.states, alone.states), (batched.inputs, alone.inputs)):
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


def test_batch_rows_match_single_runs():
    sys = shrinking_region_system()
    cfg = SimConfig(dt=1e-2, horizon=5.0, blowup_norm=50.0)
    x0s = [[0.1, 0.0],          # settles: completed
           [0.0, 0.5],          # x2 reaches 1 at t = 2 ln 2
           [np.nan, 0.0],       # non-finite x0
           [0.0, 0.2],          # x2 reaches 1 at t = 2 ln 5
           [0.0, 2.0],          # outside the region: bound 1 - x2 < 0
           [5.0, 0.0]]          # saturated, x1 = 1 + 4 exp(t) passes 50
    results = batch_simulate(sys, x0s, cfg)
    assert isinstance(results[2], ValueError) and "non-finite" in str(results[2])
    assert isinstance(results[4], ValueError) and "outside" in str(results[4])
    valid = [0, 1, 3, 5]
    for i in valid:
        assert_same_rollout(results[i], integrate(sys, x0s[i], cfg))
        assert_matches_reference(sys, x0s[i], cfg, results[i])
    stops = [results[i].termination for i in valid]
    assert stops == [Termination.COMPLETED, Termination.LEFT_FEASIBLE_REGION,
                     Termination.LEFT_FEASIBLE_REGION, Termination.NUMERICAL_BLOWUP]
    steps = [len(results[i].times) for i in valid]
    assert steps[0] == 501 and steps[1] < steps[3] < steps[0] and steps[2] < steps[0]
    assert abs(results[1].times[-1] - 2.0 * np.log(2.0)) <= 2e-2
    assert abs(results[3].times[-1] - 2.0 * np.log(5.0)) <= 2e-2


def test_linear_block_leaves_the_region_where_the_loop_does():
    # the projection is inactive all the way (x1 stays 0), so blocks run up
    # to the exit at x2 = 1; their speculative probes pass x2 = 1.5, where
    # the bound raises, and that may only discard the block
    def bound(xs):
        if (xs[:, 1] > 1.5).any():
            raise ValueError("bound undefined past x2 = 1.5")
        return 1.0 - xs[:, 1:2]

    plant = LtiPlant(a=np.diag([1.0, 0.5]), b=np.array([[1.0], [0.0]]))
    sys = ClosedLoopSystem(plant=plant, controller=ProjectionController(
        gain=np.array([[-2.0, 0.0]]), family=StateBox(bound=bound)))
    cfg = SimConfig(dt=1e-2, horizon=5.0)
    traj = integrate(sys, [0.0, 0.5], cfg)
    assert traj.termination is Termination.LEFT_FEASIBLE_REGION
    assert len(traj.times) == 139 and traj.linear_steps > 100
    assert_matches_reference(sys, [0.0, 0.5], cfg, traj)


@pytest.mark.parametrize("rate, blowup_norm", [(0.5, 1e3), (700.0, 1e308)],
                         ids=["past_the_bound", "overflow"])
def test_linear_block_blows_up_where_the_loop_does(rate, blowup_norm):
    # u = K x = 0 is never projected; the unstable x1 passes the bound (or
    # overflows, with inf and NaN probes) inside a block of 64 steps or more
    plant = LtiPlant(a=np.diag([rate, -1.0]), b=np.array([[1.0], [0.0]]))
    sys = ClosedLoopSystem(plant=plant, controller=ProjectionController(
        gain=np.zeros((1, 2)), family=StateBox(bound=lambda xs: np.ones((len(xs), 1)))))
    cfg = SimConfig(dt=1e-2, horizon=20.0, blowup_norm=blowup_norm)
    traj = integrate(sys, [1.0, 1.0], cfg)
    assert traj.termination is Termination.NUMERICAL_BLOWUP
    assert traj.linear_steps == len(traj.times) - 1 > 63
    with np.errstate(over="ignore"):
        assert_matches_reference(sys, [1.0, 1.0], cfg, traj)


def test_linear_blocks_on_a_chattering_loop():
    # a lightly damped oscillator whose input saturates while |x2| > 0.5:
    # the loop enters and leaves the inactive region twice per swing
    plant = LtiPlant(a=np.array([[0.0, 1.0], [-1.0, 0.0]]), b=np.array([[0.0], [1.0]]))
    sys = ClosedLoopSystem(plant=plant, controller=ProjectionController(
        gain=np.array([[0.0, -0.2]]), family=StateBox(bound=lambda xs: np.full((len(xs), 1), 0.1))))
    cfg = SimConfig(dt=1e-2, horizon=20.0)
    for x0 in ([2.0, 0.0], [0.0, -2.5]):
        traj = integrate(sys, x0, cfg)
        assert_matches_reference(sys, x0, cfg, traj)
        projected = (traj.inputs != traj.states @ sys.controller.gain.T).ravel()
        assert np.count_nonzero(np.diff(projected.astype(int))) >= 10
        # each block step starts at its own sample, so more block steps than
        # unprojected samples means some started saturated, with u held at
        # the bound: the saturated stretches are affine blocks too
        assert np.count_nonzero(~projected[:-1]) < traj.linear_steps < len(traj.times) - 1


def test_linear_blocks_over_a_long_horizon():
    ex1 = example1_setup(42)
    sys = build_saturation_system(ex1.a, ex1.b, ex1.k, ex1.bound)
    cfg = SimConfig(dt=1e-3, horizon=15.0)
    traj = integrate(sys, [-3.0, 1.0, 2.0], cfg)
    assert traj.termination is Termination.COMPLETED
    assert_matches_reference(sys, [-3.0, 1.0, 2.0], cfg, traj)
    # the state-dependent bound moves at every sample, so no saturated input
    # keeps its value: every block starts at an all-free sample, and the
    # count is the one blocks on u = K x alone take
    nominal = traj.states @ ex1.k.T
    held = (traj.inputs[1:] == traj.inputs[:-1]) & (traj.inputs[1:] != nominal[1:])
    assert not held.any()
    assert traj.linear_steps == 13943


@pytest.mark.parametrize("row, horizon, linear, projected", [
    (0, 30.0, 26176, 6754),   # slides along the obstacle, then runs in blocks
    (11, 3.5, 0, 3501),       # the saddle row: step by step at every sample
])
def test_example2_sliding_counts_over_long_horizons(row, horizon, linear, projected):
    # the block counts rest on bitwise u == K x tests at every sample, so any
    # change to the rounding of a step or of an evaluation moves them
    sys = example2_system()
    traj = integrate(sys, example2_grid()[row], SimConfig(dt=1e-3, horizon=horizon))
    assert traj.termination is Termination.COMPLETED
    assert len(traj.times) == int(round(horizon / 1e-3)) + 1
    assert traj.linear_steps == linear
    assert projected_samples(traj, sys.controller.gain) == projected


def sqrt_blowup_test(sums, blowup_norm):
    """The blow-up verdict as batch_simulate took it before _blowup_square: a root per row."""
    return np.sqrt(sums) <= min(blowup_norm, np.finfo(float).max)


@pytest.mark.parametrize("blowup_norm", [50.0, 1e8, 1e300, np.finfo(float).max,
                                         0.0, 1e-200, 1.3407807929942596e154, np.inf])
def test_blowup_square_keeps_the_verdicts_of_the_root(blowup_norm):
    # Python floats: their products overflow to inf without a warning
    bound = float(min(blowup_norm, np.finfo(float).max))
    top = _blowup_square(bound)
    # the floats next to the threshold, next to the square of the floats
    # next to the bound, and the ends of the range
    near = [top] + [b * b for b in (math.nextafter(bound, -math.inf), bound,
                                    math.nextafter(bound, math.inf))]
    sums = [0.0, 5e-324, np.finfo(float).max, np.inf, np.nan]
    for s in near:
        if not math.isfinite(s):
            continue
        up = down = s
        for _ in range(64):
            up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
            sums += [up, down]
        sums.append(s)
    sums = np.array(sums)
    # sums of squares are never negative, and every one passes or fails as its root does
    assert np.array_equal(sums <= top, sqrt_blowup_test(sums, blowup_norm))
    assert (sums <= top).any() and not (sums <= top).all()


def test_blowup_square_is_the_largest_passing_sum():
    rng = np.random.default_rng(29)
    bounds = (10.0 ** rng.uniform(-300.0, 308.0, 2000)).tolist()
    bounds += [1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 5e-324]
    for bound in bounds:
        top = _blowup_square(bound)
        assert math.sqrt(top) <= bound, bound
        assert top == np.finfo(float).max or math.sqrt(math.nextafter(top, math.inf)) > bound


def test_blowup_square_without_a_passing_sum():
    for blowup_norm in (-1.0, np.nan):
        sums = np.array([0.0, 1.0, np.inf, np.nan])
        assert not sqrt_blowup_test(sums, blowup_norm).any()
        assert not (sums <= _blowup_square(blowup_norm)).any()


def frozen_saturated_system(dim: int) -> ClosedLoopSystem:
    """A = 0 and B = 0, so an RK4 step returns the state bit for bit; the gain
    saturates the input of every state with a positive entry, so the first
    step is taken step by step."""
    plant = LtiPlant(a=np.zeros((dim, dim)), b=np.zeros((dim, 1)))
    ctrl = ProjectionController(gain=np.full((1, dim), 1e3),
                                family=StateBox(bound=lambda xs: np.full((len(xs), 1), 1e-3)))
    return ClosedLoopSystem(plant=plant, controller=ctrl)


def ulps_around(value: float, count: int = 3) -> list[float]:
    below, above = [value], [value]
    for _ in range(count):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    return below[1:] + above


def assert_blowup_verdicts_match_the_root(sys, x0s, cfg, new_states):
    """One step from each x0, in stacks of 1, 2, 17 and SCAN_MAX_FLOATS + 1
    rows (past the Python-float test at every n): a row blows up, with its
    one sample, exactly where sqrt_blowup_test fails on its new state."""
    with np.errstate(over="ignore", invalid="ignore"):  # squares past float range are inf
        sums = np.add.reduce(new_states * new_states, axis=1)
    passes = sqrt_blowup_test(sums, cfg.blowup_norm).tolist()
    for size in (1, 2, 17, families.SCAN_MAX_FLOATS + 1):
        # the last stack wraps around, so that every stack has size rows
        rows = [i % len(x0s) for i in range(-(-len(x0s) // size) * size)]
        for start in range(0, len(rows), size):
            stack = rows[start:start + size]
            for i, traj in zip(stack, batch_simulate(sys, [x0s[i] for i in stack], cfg)):
                expected = ((Termination.COMPLETED, 2) if passes[i]
                            else (Termination.NUMERICAL_BLOWUP, 1))
                assert (traj.termination, len(traj.times)) == expected, (size, x0s[i])
    return passes


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("blowup_norm", [50.0, 1e8, 1.3407807929942596e154,
                                         np.finfo(float).max])
def test_blowup_verdicts_at_the_per_entry_bound(blowup_norm, dim):
    # a stack of at most SCAN_MAX_FLOATS entries passes the test where every
    # entry's square is at most _blowup_square / (2 n), and takes the exact
    # sum otherwise: states whose
    # entries straddle that bound and whose sums straddle _blowup_square
    # must stop exactly where the root says
    top = _blowup_square(min(blowup_norm, np.finfo(float).max))
    entry = math.sqrt(top / (2 * dim))
    rest = [0.0] * (dim - 1)
    x0s = [[e] * dim for e in ulps_around(entry)]
    x0s += [[e] + rest for e in ulps_around(entry)]
    x0s += [[e] * dim for e in ulps_around(math.sqrt(top / dim), 6)]
    x0s += [[e] + rest for e in ulps_around(math.sqrt(top), 6)]
    x0s += [[entry * 1.1] * dim, [1.0] * dim, [entry * 1.5] + rest]
    x0s = np.array(x0s)
    cfg = SimConfig(dt=1e-3, horizon=1e-3, blowup_norm=blowup_norm)
    passes = assert_blowup_verdicts_match_the_root(frozen_saturated_system(dim), x0s, cfg, x0s)
    assert any(passes) and not all(passes)


def test_non_finite_states_blow_up_in_small_and_large_stacks():
    # dt A = 1e80 overflows the one-state RK4 map to inf: a step sends a
    # positive x0 to inf, a negative one to -inf and 0 to NaN (0 inf)
    plant = LtiPlant(a=np.array([[1e83]]), b=np.zeros((1, 1)))
    ctrl = ProjectionController(gain=np.zeros((1, 1)),
                                family=StateBox(bound=lambda xs: np.ones((len(xs), 1))))
    x0s = np.array([[1.0], [-1.0], [0.0], [1e-300]])
    new_states = np.array([[np.inf], [-np.inf], [np.nan], [np.inf]])
    cfg = SimConfig(dt=1e-3, horizon=1e-3, blowup_norm=1e8)
    passes = assert_blowup_verdicts_match_the_root(
        ClosedLoopSystem(plant=plant, controller=ctrl), x0s, cfg, new_states)
    assert not any(passes)


@pytest.mark.parametrize("rows", [1, 2, 11, 40])
def test_scan_switch_keeps_every_trajectory_bit(monkeypatch, rows):
    # the box, blow-up and affinity checks run on Python floats up to
    # SCAN_MAX_FLOATS floats read and as array ops past it; both forms, and
    # the split at the default, give the same samples, terminations and
    # block steps (x0 scale 2 saturates example 1 step by step and 0.05 runs
    # it in blocks; the constant box holds inputs at the bound, in blocks
    # too; the shrinking region has blocks, rows leaving it, blow-ups and
    # x0s outside it)
    ex1 = example1_setup(42)
    saturation = build_saturation_system(ex1.a, ex1.b, ex1.k, ex1.bound)
    held = ClosedLoopSystem(plant=LtiPlant(a=0.1 * np.eye(2), b=np.eye(2)),
                            controller=ProjectionController(
                                gain=-5.0 * np.eye(2),
                                family=StateBox(bound=lambda xs: np.ones((len(xs), 2)))))
    cases = [(saturation, 3, 2.0, SimConfig(dt=1e-3, horizon=0.5)),
             (saturation, 3, 0.05, SimConfig(dt=1e-3, horizon=0.5)),
             (held, 2, 1.5, SimConfig(dt=1e-2, horizon=3.0))]
    cases += [(shrinking_region_system(), 2, scale,
               SimConfig(dt=1e-2, horizon=5.0, blowup_norm=50.0)) for scale in (0.5, 2.0)]
    rng = np.random.default_rng(rows)
    for sys, dim, scale, cfg in cases:
        x0s = scale * rng.standard_normal((rows, dim))
        if sys is held:  # every input starts saturated
            x0s = np.copysign(0.5 + np.abs(x0s), x0s)
        runs = []
        for switch in (-1, None, 10**9):
            with monkeypatch.context() as patch:
                if switch is not None:
                    patch.setattr(sim, "SCAN_MAX_FLOATS", switch)
                    patch.setattr(families, "SCAN_MAX_FLOATS", switch)
                runs.append([str(t) if isinstance(t, Exception) else
                             (t.termination, t.linear_steps, t.states.tobytes(),
                              t.inputs.tobytes()) for t in batch_simulate(sys, x0s, cfg)])
        assert runs[0] == runs[1] == runs[2]


def test_plant_without_states_is_refused():
    plant = LtiPlant(a=np.zeros((0, 0)), b=np.zeros((0, 1)))
    ctrl = ProjectionController(gain=np.zeros((1, 0)),
                                family=StateBox(bound=lambda xs: np.ones((len(xs), 1))))
    with pytest.raises(ValueError, match="at least one state"):
        ClosedLoopSystem(plant=plant, controller=ctrl)


def test_affine_blocks_over_example2_saturated_start():
    # from (0, 8) both inputs start at the box bound, -1, and u2 stays there
    # until the halfspace activates: affine stretches with every input held,
    # then with u1 free
    sys = example2_system()
    cfg = SimConfig(dt=1e-3, horizon=3.0)
    traj = integrate(sys, [0.0, 8.0], cfg)
    assert_matches_reference(sys, [0.0, 8.0], cfg, traj)
    nominal = traj.states @ sys.controller.gain.T
    u_bar = sys.controller.family.box_bound
    active = int(np.argmax((traj.inputs != np.clip(nominal, -u_bar, u_bar)).any(axis=1)))
    assert active > 1000 and (traj.inputs[:active, 1] != nominal[:active, 1]).all()
    head = integrate(sys, [0.0, 8.0], SimConfig(dt=cfg.dt, horizon=traj.times[active]))
    assert head.linear_steps > active // 2


def test_affine_block_cuts_where_a_held_input_changes():
    # u1 is held at -1 while x1 > 1, then at -0.5 while x1 > 0.5, and is free
    # below; u2 = -x2 is free all along.  A block holding u1 at -1 must stop
    # at the step whose probes meet the lower bound, as the loop does
    def bound(xs):
        return np.column_stack((np.where(xs[:, 0] > 1.0, 1.0, 0.5), np.full(len(xs), 10.0)))

    plant = LtiPlant(a=np.zeros((2, 2)), b=np.eye(2))
    sys = ClosedLoopSystem(plant=plant, controller=ProjectionController(
        gain=-np.eye(2), family=StateBox(bound=bound)))
    cfg = SimConfig(dt=1e-2, horizon=5.0)
    # x1 passes 1 and 0.5 at least 8e-4 away from every sample and midpoint
    traj = integrate(sys, [3.0075, 2.0], cfg)
    assert_matches_reference(sys, [3.0075, 2.0], cfg, traj)
    assert {-1.0, -0.5} <= set(traj.inputs[:, 0].tolist())
    # blocks take every step but four: step 0, with no sample to hold from,
    # the two steps whose probes meet a change of u1, and the step from the
    # first sample at -0.5, where u1 is new
    assert traj.linear_steps == len(traj.times) - 1 - 4


def test_batch_rows_match_single_runs_halfspace_box():
    # the per-row scalar KKT path of the halfspace-plus-box evaluator
    sys = example2_system()
    cfg = SimConfig(dt=1e-3, horizon=1.0)
    x0s = [[0.0, 8.0], [0.0, 4.0], [2.0, 7.0], [-3.0, 5.0], [2.5, 0.5]]
    results = batch_simulate(sys, x0s, cfg)
    assert isinstance(results[1], ValueError)
    for i in (0, 2, 3, 4):
        assert_same_rollout(results[i], integrate(sys, x0s[i], cfg))
        assert_matches_reference(sys, x0s[i], cfg, results[i])
        assert results[i].termination is Termination.COMPLETED


def generic_family_system() -> ClosedLoopSystem:
    # -1 <= u <= 1 - x2 as general rows: no interior once x2 reaches 2
    family = AffineInequalities(
        matrix=lambda x: np.array([[1.0], [-1.0]]),
        bound=lambda x: np.array([1.0 - x[1], 1.0]))
    plant = LtiPlant(a=np.diag([1.0, 0.5]), b=np.array([[1.0], [0.0]]))
    return ClosedLoopSystem(plant=plant, controller=ProjectionController(
        gain=np.array([[-2.0, 0.0]]), family=family))


def test_batch_rows_match_single_runs_generic_family():
    # the generic evaluator: strict feasibility and projection row by row
    sys = generic_family_system()
    cfg = SimConfig(dt=2e-2, horizon=3.0, blowup_norm=50.0)
    x0s = [[0.1, 0.0], [0.0, 1.5], [4.0, 0.0], [0.0, 3.0]]
    results = batch_simulate(sys, x0s, cfg)
    assert isinstance(results[3], ValueError)
    for i in (0, 1, 2):
        assert_same_rollout(results[i], integrate(sys, x0s[i], cfg))
        assert_matches_reference(sys, x0s[i], cfg, results[i])
    assert [results[i].termination for i in (0, 1, 2)] == [
        Termination.COMPLETED, Termination.LEFT_FEASIBLE_REGION, Termination.NUMERICAL_BLOWUP]


def test_csv_rows_match_per_value_formatting():
    # the row template must give the bytes of formatting each value alone
    times = np.array([0.0, 0.25, 0.5])
    states = np.array([[-0.0, 5e-324, 4.0], [1.0, -2.0, 3.0], [1 / 3, np.pi, -1e-310]])
    inputs = np.array([[1e300, -0.0], [2.5e-8, 7.0], [1e16, -1e16]])
    traj = Trajectory(times=times, states=states, inputs=inputs,
                      termination=Termination.COMPLETED)
    p = np.diag([1.0, 2.0, 3.0])
    norms = weighted_norms(states, p)
    h_vals = [float(x[0] - x[1]) for x in states]
    expected = ["t,x1,x2,x3,u1,u2,norm_P,h"] + [
        ",".join(f"{v:.17g}" for v in [times[i], *states[i], *inputs[i], norms[i], h_vals[i]])
        for i in range(3)
    ]
    lines = trajectory_csv_lines(traj, p=p, h=h_vals)
    assert lines == expected
    assert lines[1] == "0,-0,4.9406564584124654e-324,4,1.0000000000000001e+300,-0,{:.17g},{}".format(
        norms[0], "-4.9406564584124654e-324")
    assert lines[2] == "0.25,1,-2,3,2.4999999999999999e-08,7,6,3"


def assert_rows_format_like_python(table):
    # the kernel's bytes against formatting each value alone, 4096 rows at a time
    table = np.asarray(table, dtype=float)
    for start in range(0, len(table), 4096):
        block = table[start:start + 4096]
        got = _format_rows(block).decode("ascii").split("\n")[:-1]
        expected = [",".join([format(v, ".17g") for v in row]) for row in block.tolist()]
        wrong = [(start + i, a, b) for i, (a, b) in enumerate(zip(got, expected)) if a != b]
        assert len(got) == len(expected) and not wrong, wrong[:5]


def test_csv_kernel_formats_random_bit_patterns_like_python():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2 ** 64, 2 ** 20, dtype=np.uint64)
    special = np.array([
        0, 1 << 63,                                       # +0, -0
        0x7FF0000000000000, 0xFFF0000000000000,           # +inf, -inf
        0x7FF8000000000000, 0xFFF8000000000000,           # quiet NaNs
        0x7FF0000000000001, 0x7FF4000000000000, 0xFFFFFFFFFFFFFFFF,  # NaN payloads
        1, 2, 0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF,     # subnormals
        0x0010000000000000, 0x8010000000000000,           # smallest normals
        0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,           # largest finite
    ], dtype=np.uint64)
    values = np.concatenate([bits, special]).view(np.float64)
    # every value near 1e+-308, subnormals of every size
    values = np.concatenate([
        values,
        np.nextafter(1e308, np.inf) * rng.uniform(0.5, 1.7, 1000),
        1e-308 * rng.uniform(0.01, 100.0, 1000),
        rng.integers(1, 2 ** 52, 1000).astype(np.uint64).view(np.float64),
    ])
    assert len(values) >= 10 ** 6
    assert_rows_format_like_python(values[:len(values) // 8 * 8].reshape(-1, 8))
    assert_rows_format_like_python(values[len(values) // 8 * 8:, None])


def test_csv_kernel_formats_powers_of_ten_like_python():
    powers = np.array([float(f"1e{p}") for p in range(-325, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_rows_format_like_python(np.stack([values, -values], axis=1))


def test_csv_kernel_formats_integers_and_dyadic_halves_like_python():
    rng = np.random.default_rng(12)
    twos = 2.0 ** np.arange(61)
    ints = np.concatenate([np.arange(2 ** 16, dtype=float), twos, twos - 1.0, twos + 1.0,
                           rng.integers(0, 2 ** 60, 10 ** 5).astype(float)])
    halves = np.concatenate([ints[ints < 2 ** 52] + 0.5, twos / 2 ** 61 + 0.5,
                             2.0 ** 50 + 0.25 * np.arange(4000)])
    assert_rows_format_like_python(np.concatenate([ints, halves])[:, None])


def test_csv_kernel_formats_the_time_grid_like_python():
    # the samples' times, as batch_simulate makes them
    assert_rows_format_like_python((np.arange(30001) * 1e-3)[:, None])
    assert_rows_format_like_python((np.arange(30001) * 2e-2)[:, None])


def test_csv_kernel_falls_back_to_python_on_ties_and_out_of_range_values():
    rng = np.random.default_rng(13)
    ties = 2.0 ** 50 + 0.25 + 0.5 * np.arange(50)    # 17 digits and then exactly 5
    out_of_range = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2e-310,
                    1e281, -1.7976931348623157e308, 1e-281]
    # doubles between 1e9 and 1e16 can end exactly in a 5 at the 18th digit;
    # none of these do
    ordinary = rng.standard_normal(900) * 10.0 ** rng.choice(np.r_[-270:8, 17:270], 900)
    # log10 rounds these up to the next power: the kernel moves k down by one
    below_powers = np.nextafter(10.0 ** np.r_[-270:8, 17:270], 0.0)
    values = np.concatenate([ties, out_of_range, ordinary, below_powers])
    rng.shuffle(values)
    assert int((~_decimal_digits(values)[2]).sum()) == len(ties) + len(out_of_range)
    assert_rows_format_like_python(values[:, None])


def per_row_template_csv(traj, p=None, h=None) -> bytes:
    """The file the per-row %-template writer wrote: the kernel's reference."""
    n = traj.states.shape[1]
    m = traj.inputs.shape[1]
    header = ["t"] + [f"x{i+1}" for i in range(n)] + [f"u{i+1}" for i in range(m)]
    columns = [traj.times, traj.states, traj.inputs]
    if p is not None:
        columns.append(weighted_norms(traj.states, p))
        header.append("norm_P")
    if h is not None:
        columns.append(np.asarray(h, dtype=float))
        header.append("h")
    table = np.column_stack(columns)
    row_format = ",".join(["%.17g"] * table.shape[1])
    lines = [",".join(header)] + [row_format % tuple(row) for row in table.tolist()]
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_written_csv_is_the_per_row_template_output(tmp_path):
    ex1 = example1_setup(42)
    cert = max_contraction_rate(LtiPlant(a=ex1.a, b=ex1.b), ex1.k, rho=1.0).certificate
    saturation = build_saturation_system(ex1.a, ex1.b, ex1.k, ex1.bound)
    runs = [(traj, {"p": cert.p}) for traj in batch_simulate(
        saturation, [[-3.0, 1.0, 2.0], [0.5, -4.0, 1.5]], SimConfig(dt=1e-3, horizon=5.0))]
    obstacle = example2_system()
    runs += [(traj, {"h": check_safety(traj, example2_h).values}) for traj in batch_simulate(
        obstacle, example2_grid()[[0, 5, 11]], SimConfig(dt=1e-3, horizon=3.5))]
    runs += [(traj, {}) for traj in batch_simulate(
        shrinking_region_system(), [[0.1, 0.0], [0.0, 0.5], [5.0, 0.0]],
        SimConfig(dt=1e-2, horizon=5.0, blowup_norm=50.0))]
    assert [traj.termination for traj, _ in runs[-3:]] == [
        Termination.COMPLETED, Termination.LEFT_FEASIBLE_REGION, Termination.NUMERICAL_BLOWUP]
    # the longest run spans more than two blocks of its width
    assert max(len(traj.times) / (CSV_BLOCK_VALUES // csv_width(traj, extra))
               for traj, extra in runs) > 2
    for i, (traj, extra) in enumerate(runs):
        path = tmp_path / f"traj_{i}.csv"
        write_trajectory_csv(traj, path, **extra)
        assert path.read_bytes() == per_row_template_csv(traj, **extra), i


def csv_width(traj, extra) -> int:
    return 1 + traj.states.shape[1] + traj.inputs.shape[1] + len(extra)


def fallback_table_trajectory():
    """24 rows that mix ordinary values with those the kernel leaves to
    Python: every time is a decimal tie, and the states, inputs and h
    hold +-inf, NaN, subnormals and -0 on about half of their entries."""
    rng = np.random.default_rng(14)
    specials = np.array([np.inf, -np.inf, np.nan, 5e-324, -2e-310, -0.0, 0.0,
                         2.0 ** 50 + 0.75, 1e281, -1e-281])
    table = rng.standard_normal((24, 6)) * 10.0 ** rng.integers(-20, 20, (24, 6))
    hit = rng.random(table.shape) < 0.5
    table[hit] = rng.choice(specials, int(hit.sum()))
    traj = Trajectory(times=2.0 ** 50 + 0.25 + 0.5 * np.arange(24), states=table[:, :3],
                      inputs=table[:, 3:5], termination=Termination.COMPLETED)
    return traj, {"h": table[:, 5]}


@pytest.mark.parametrize("rows", ["budget", 1, 6, 23, 24, 25],
                         ids=["budget", "one-row", "divides-the-length",
                              "one-row-past-a-multiple", "the-length", "past-the-length"])
def test_csv_bytes_do_not_depend_on_where_blocks_begin(tmp_path, monkeypatch, rows):
    # the same 24-row bytes at any block size: the default budget, a
    # boundary after every row, blocks that divide the length (24 = 4 x 6),
    # a last block of one row (24 = 23 + 1), and one block, exactly full or
    # not; the fallback table puts Python-formatted values on both sides
    # of every boundary
    ex1 = example1_setup(42)
    cert = max_contraction_rate(LtiPlant(a=ex1.a, b=ex1.b), ex1.k, rho=1.0).certificate
    saturation = build_saturation_system(ex1.a, ex1.b, ex1.k, ex1.bound)
    ex1_traj = batch_simulate(saturation, [[-3.0, 1.0, 2.0]], SimConfig(dt=1e-3, horizon=0.023))[0]
    assert len(ex1_traj.times) == 24
    for i, (traj, extra) in enumerate([(ex1_traj, {"p": cert.p}), fallback_table_trajectory()]):
        width = csv_width(traj, extra)
        if rows != "budget":
            # a budget below the width still gives one row
            monkeypatch.setattr(sim, "CSV_BLOCK_VALUES", rows * width if rows > 1 else 1)
        block_rows = max(1, sim.CSV_BLOCK_VALUES // width)
        assert rows == "budget" or block_rows == rows
        blocks = list(sim._csv_blocks(traj, **extra))
        assert len(blocks) == 1 + -(-len(traj.times) // block_rows)
        path = tmp_path / f"traj_{i}.csv"
        write_trajectory_csv(traj, path, **extra)
        expected = per_row_template_csv(traj, **extra)
        assert path.read_bytes() == b"".join(blocks) == expected, i


@pytest.mark.parametrize("make_system, inside, outside", [
    (shrinking_region_system, [[0.3, 0.2], [-1.0, 0.9]], [0.0, 1.0]),
    (example2_system, [[0.0, 6.5], [1.0, 1.0]], [0.0, 4.0]),
    (generic_family_system, [[0.5, 0.5], [-2.0, 1.9]], [0.0, 2.5]),
], ids=["box", "halfspace_box", "polyhedron"])
def test_frozen_constraint_field_is_the_one_state_projection(make_system, inside, outside):
    # the field runs the stacked projector; it gives the bits of the
    # one-state projection at interior frozen states and refuses the others
    sys = make_system()
    a, b, k = sys.plant.a, sys.plant.b, sys.controller.gain
    rng = np.random.default_rng(5)
    for z in inside:
        field = frozen_constraint_field(sys, z)
        for y in 3.0 * rng.standard_normal((50, sys.plant.state_dim)):
            expected = a @ y + b @ project_feasible(sys.controller.family, z, k @ y).u
            assert np.array_equal(field(y), expected)
    with pytest.raises(InfeasibleStateError):
        frozen_constraint_field(sys, outside)


def _certificate_slacks(plant, k, cert, traj):
    """Per-sample (V' + 2 eta V) / (|V'| + 2 eta V) and s over the size of its terms.

    V = x^T P x, V' = 2 x^T P (A x + B u) and s = u^T K x - rho |u|^2, all
    read from the recorded (x, u) alone.  The certificate block applied to
    (x, u) gives V' + 2 eta V <= -2 lambda s, and 0 in Gamma(x) gives s >= 0.
    """
    x, u = traj.states, traj.inputs
    px = x @ cert.p
    v = np.einsum("ti,ti->t", px, x)
    v_dot = 2.0 * np.einsum("ti,ti->t", px, x @ plant.a.T + u @ plant.b.T)
    decay = v_dot + 2.0 * cert.eta * v
    s = np.einsum("ti,ti->t", u, x @ k.T) - cert.rho * np.einsum("ti,ti->t", u, u)
    s_size = (np.einsum("ti,ij,tj->t", np.abs(u), np.abs(k), np.abs(x))
              + cert.rho * np.einsum("ti,ti->t", u, u))
    return decay / (np.abs(v_dot) + 2.0 * cert.eta * v), s, s_size


def certified_random_loops(rng, draw_family) -> int:
    """Check the certificate at every sample of 12 seeded certified loops.

    Each loop has a Hurwitz A, n <= 3, m <= 2 and, every other loop, an
    LQR gain; draw_family(rng, n, m) gives its family, with 0 in Gamma(x).
    The certificate's inequality must hold on every recorded sample, up to
    rounding sized as ROUNDING_SLACK is, by _certificate_slacks and by
    check_lyapunov_decrease.  A random gain that leaves no
    certifiable rate (A + B K unstable) is drawn again.  Returns the
    number of projected samples.
    """
    cfg = SimConfig(dt=1e-3, horizon=3.0)
    loops = samples = projected = 0
    for _ in range(40):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        a = rng.standard_normal((n, n))
        a -= (np.linalg.eigvals(a).real.max() + rng.uniform(0.2, 1.5)) * np.eye(n)
        b = rng.standard_normal((n, m))
        if loops % 2:
            k = solve_care(a, b, LqrWeights(q=np.eye(n), r=np.eye(m))).k
        else:
            k = 0.5 * rng.standard_normal((m, n))
        plant = LtiPlant(a=a, b=b)
        res = max_contraction_rate(plant, k, rho=1.0)
        if res.status == "infeasible":
            continue
        assert res.status == "feasible", (loops, res.status)
        ctrl = ProjectionController(gain=k, family=draw_family(rng, n, m))
        x0s = [3.0 * rng.standard_normal(n) for _ in range(2)]
        for traj in batch_simulate(ClosedLoopSystem(plant=plant, controller=ctrl), x0s, cfg):
            assert traj.termination is Termination.COMPLETED
            ratio, s, s_size = _certificate_slacks(plant, k, res.certificate, traj)
            assert ratio.max() <= ROUNDING_SLACK, (loops, ratio.max())
            assert (s >= -ROUNDING_SLACK * s_size).all(), (loops, (s / s_size).min())
            lyap = check_lyapunov_decrease(traj, plant, res.certificate.p, res.certificate.eta)
            assert lyap.passed, (loops, lyap)
            samples += len(traj.times)
            projected += projected_samples(traj, k)
        loops += 1
        if loops == 12:
            break
    assert loops == 12 and samples == 12 * 2 * 3001
    return projected


def test_certified_random_loops_hold_the_certificate_at_every_sample():
    # constant box bounds in [0.2, 1.5]
    def box(rng, n, m):
        bounds = rng.uniform(0.2, 1.5, m)
        return StateBox(bound=lambda xs: np.tile(bounds, (len(xs), 1)))

    projected = certified_random_loops(np.random.default_rng(2024), box)
    assert projected > 0  # the bounds bind on part of the run, not only K x


def test_certified_random_halfspace_box_loops_hold_the_certificate_at_every_sample():
    # state-dependent halfspace a(x)^T u <= b(x), a(x) = c + W x and
    # b(x) = b0 + 0.1 |x|^2 with b0 in [0, 0.5], so 0 is in Gamma(x), cut by
    # a box with a bound in [0.2, 1.5]
    def halfspace_box(rng, n, m):
        c, w = rng.standard_normal(m), rng.standard_normal((m, n))
        b0, bound = rng.uniform(0.0, 0.5), rng.uniform(0.2, 1.5)
        return HalfspacePlusBox(
            data=lambda xs: (c + xs @ w.T, b0 + 0.1 * np.einsum("ti,ti->t", xs, xs)),
            box_bound=bound)

    projected = certified_random_loops(np.random.default_rng(2024), halfspace_box)
    assert projected > 0  # the halfspace or the box binds on part of the run


def test_certificate_fails_only_where_zero_is_outside_the_set():
    # negative control: Gamma = {u1 + u2 <= -0.5} cut by the box [-1, 1]^2
    # excludes 0, so s < 0 on part of the run; V' + 2 eta V exceeds 0 only
    # there, and the loop settles at (-0.25, -0.25), not at 0
    plant, k = LtiPlant(a=-np.eye(2), b=np.eye(2)), -np.eye(2)
    res = max_contraction_rate(plant, k, rho=1.0)
    assert res.status == "feasible"
    family = HalfspacePlusBox(
        data=lambda xs: (np.ones((len(xs), 2)), np.full(len(xs), -0.5)), box_bound=1.0)
    system = ClosedLoopSystem(plant=plant, controller=ProjectionController(gain=k, family=family))
    for traj in batch_simulate(system, [[1.0, 1.0], [-2.0, 0.5]], SimConfig(dt=1e-3, horizon=10.0)):
        ratio, s, _ = _certificate_slacks(plant, k, res.certificate, traj)
        exceeds = ratio > ROUNDING_SLACK
        assert exceeds.any() and (s[exceeds] < 0.0).all()
        assert not check_lyapunov_decrease(traj, plant, res.certificate.p,
                                           res.certificate.eta).passed
        assert np.abs(traj.states[-1] - [-0.25, -0.25]).max() <= 1e-3


@pytest.mark.parametrize("horizon", [15.0, 1e-3], ids=["15s", "two-sample"])
def test_example1_lyapunov_check_fails_half_again_above_the_certified_rate(horizon):
    # criterion 4's rows hold the certificate at every sample, and not at
    # 1.5 eta: on the 15 s runs and on their first step alone
    ex1 = example1_setup(42)
    plant = LtiPlant(a=ex1.a, b=ex1.b)
    cert = max_contraction_rate(plant, ex1.k, rho=1.0).certificate
    src = RandomSource(4242)
    x0s = [2.0 * src.normals(3) for _ in range(10)]
    system = build_saturation_system(ex1.a, ex1.b, ex1.k, ex1.bound)
    for traj in batch_simulate(system, x0s, SimConfig(dt=1e-3, horizon=horizon)):
        assert len(traj.times) == int(round(horizon / 1e-3)) + 1
        assert check_lyapunov_decrease(traj, plant, cert.p, cert.eta).passed
        assert not check_lyapunov_decrease(traj, plant, cert.p, 1.5 * cert.eta).passed
