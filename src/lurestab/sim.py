"""Closed-loop integration and trajectory-level guarantee checks.

The integrator is classical fixed-step RK4 with the projection controller
evaluated at every stage point, so the recorded solution tracks the
continuous-time model rather than a zero-order-hold approximation.  Leaving
the strict-feasibility region or blowing up numerically are first-class
termination reasons, not errors: the theory only promises anything while
the state stays where the feasible set has an interior.

batch_simulate is the one integration loop: it advances all initial
conditions as an (N, n) stack into preallocated (steps + 1, N, .) sample
arrays, each row stopping on its own.  integrate is its one-row call.
It and frozen_constraint_field evaluate the controller only through
families.stacked_projector; the checks read the recorded samples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .families import (
    InfeasibleStateError,
    ProjectionController,
    make_controller_evaluator,
    stacked_projector,
)
from .linalg import cholesky
from .lure import LtiPlant


# samples are preallocated for the whole horizon, (n + m) floats per step and row
MAX_STEPS = 10 ** 7


class Termination(enum.Enum):
    COMPLETED = "completed"
    LEFT_FEASIBLE_REGION = "left_feasible_region"
    NUMERICAL_BLOWUP = "numerical_blowup"


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Plant dx/dt = A x + B u*(x) closed through a projection controller."""

    plant: LtiPlant
    controller: ProjectionController

    def __post_init__(self):
        gain = np.asarray(self.controller.gain)
        if gain.shape != (self.plant.input_dim, self.plant.state_dim):
            raise ValueError(
                f"controller gain shape {gain.shape} does not match plant "
                f"({self.plant.input_dim},{self.plant.state_dim})"
            )


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    horizon: float = 15.0
    blowup_norm: float = 1e8

    def __post_init__(self):
        if self.dt <= 0 or self.horizon <= 0:
            raise ValueError("dt and horizon must be positive")
        if self.dt > self.horizon:
            raise ValueError("dt must not exceed the horizon")
        if self.horizon / self.dt > MAX_STEPS:
            raise ValueError(f"horizon / dt must not exceed {MAX_STEPS:.0e} steps")


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    termination: Termination

    def __post_init__(self):
        if not (len(self.times) == len(self.states) == len(self.inputs)):
            raise ValueError("times, states, inputs must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")


@dataclass(frozen=True)
class EnvelopeReport:
    eta: float
    max_violation: float
    first_violation_time: float | None
    passed: bool


@dataclass(frozen=True)
class LyapunovReport:
    passed: bool
    worst_slack: float


@dataclass(frozen=True)
class EquilibriumReport:
    point: np.ndarray
    is_origin: bool
    controller_norm: float


@dataclass(frozen=True)
class RateFit:
    eta_assumed: float
    m_fit: float


@dataclass(frozen=True)
class SafetyReport:
    """Verdict of check_safety; values holds h at every sample."""

    passed: bool
    min_h: float
    values: np.ndarray = field(repr=False, compare=False)


def frozen_constraint_field(sys: ClosedLoopSystem, z) -> Callable[[np.ndarray], np.ndarray]:
    """Time-frozen virtual field y -> A y + B proj onto Gamma(z) of K y.

    Freezing the constraint state turns the loop into a standard Lur'e
    system whose nonlinearity is a fixed projection; certified (P, eta)
    must make this field contract for every choice of z in the region.
    A z outside that region, where the certificate says nothing, raises
    InfeasibleStateError.
    """
    a, b = sys.plant.a, sys.plant.b
    gain = np.asarray(sys.controller.gain, dtype=float)
    project = stacked_projector(sys.controller.family)
    zs = np.asarray(z, dtype=float)[None, :]
    if project(zs, zs @ gain.T)[1]:
        raise InfeasibleStateError("frozen state is outside the strict-feasibility region")

    def field(y):
        u = project(zs, (gain @ y)[None, :])[0][0]
        return a @ y + b @ u

    return field


def _initial_state(sys: ClosedLoopSystem, x0) -> np.ndarray:
    """x0 as a finite float (n,) vector, else ValueError."""
    x = np.asarray(x0, dtype=float).copy()
    n = sys.plant.state_dim
    if x.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 has non-finite entries")
    return x


def integrate(sys: ClosedLoopSystem, x0, cfg: SimConfig) -> Trajectory:
    """Fixed-step RK4 rollout of the closed loop from x0: batch_simulate on one row.

    Raises the ValueError that batch_simulate records for an invalid x0.
    """
    (result,) = batch_simulate(sys, [x0], cfg)
    if isinstance(result, Exception):
        raise result
    return result


@np.errstate(over="ignore")  # overflow is the blow-up each row records
def batch_simulate(sys: ClosedLoopSystem, x0_list, cfg: SimConfig) -> list:
    """Fixed-step RK4 rollouts from every valid x0, integrated as one (N, n) stack.

    The controller is evaluated at all four stage points.  Each row
    records one sample per step and stops on its own: at the step where a
    stage state leaves the strict-feasibility region, or where the new
    state is non-finite or its norm passes cfg.blowup_norm; the other rows
    go on.  An x0 that is malformed, non-finite or, at step 0, outside the
    region is returned as a ValueError in place of the trajectory; the
    family's own exceptions propagate.  A row's
    samples and termination do not depend on the other rows, but its last
    digits can: a matrix product on the stack need not round like the
    product for one row.
    """
    results: list = []
    starts = []
    for x0 in x0_list:
        try:
            starts.append(_initial_state(sys, x0))
        except Exception as exc:  # noqa: BLE001 - failures are data here
            results.append(exc)
        else:
            results.append(None)
    if not starts:
        return results

    a_t, b_t = sys.plant.a.T, sys.plant.b.T
    evaluate = make_controller_evaluator(sys.controller)
    # an overflowing norm is inf, which passes any finite bound
    dt, blowup = cfg.dt, min(cfg.blowup_norm, np.finfo(float).max)
    n_steps = int(round(cfg.horizon / dt))
    x = np.array(starts)
    count = len(starts)
    states = np.empty((n_steps + 1, count, x.shape[1]))
    inputs = np.empty((n_steps + 1, count, sys.controller.input_dim))
    samples = [n_steps + 1] * count
    stops = [Termination.COMPLETED] * count
    live = np.arange(count)  # the batch row of each stack row

    def stop(left, n_samples, reason):
        for row in live[left].tolist():
            samples[row], stops[row] = n_samples, reason
        return np.delete(live, left)

    for step in range(n_steps + 1):
        u, left = evaluate(x)
        if left:
            live = stop(left, step, Termination.LEFT_FEASIBLE_REGION)
            if not live.size:
                break
            x, u = np.delete(x, left, axis=0), np.delete(u, left, axis=0)
        where = slice(None) if len(live) == count else live
        states[step, where] = x
        inputs[step, where] = u
        if step == n_steps:
            break

        slopes = [x @ a_t + u @ b_t]
        for coeff in (0.5 * dt, 0.5 * dt, dt):
            probe = x + coeff * slopes[-1]
            stage_u, left = evaluate(probe)
            if left:
                live = stop(left, step + 1, Termination.LEFT_FEASIBLE_REGION)
                if not live.size:
                    break
                x, probe, stage_u = (np.delete(v, left, axis=0) for v in (x, probe, stage_u))
                slopes = [np.delete(k, left, axis=0) for k in slopes]
            slopes.append(probe @ a_t + stage_u @ b_t)
        if not live.size:
            break
        k1, k2, k3, k4 = slopes
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # NaN compares false, so non-finite rows fail the bound too
        ok = np.sqrt((x * x).sum(axis=1)) <= blowup
        if False in ok.tolist():
            live = stop(np.flatnonzero(~ok), step + 1, Termination.NUMERICAL_BLOWUP)
            if not live.size:
                break
            x = x[ok]

    # a row stopped with no sample left the region at x0
    trajectories = iter([
        Trajectory(times=np.arange(k) * dt, states=states[:k, row],
                   inputs=inputs[:k, row], termination=stops[row])
        if k else ValueError("x0 is outside the strict-feasibility region")
        for row, k in enumerate(samples)
    ])
    return [next(trajectories) if r is None else r for r in results]


def weighted_norms(states: np.ndarray, p) -> np.ndarray:
    """Row-wise P-weighted norms of a stack of states."""
    factor = cholesky(p)
    if factor is None:
        raise ValueError("P must be positive definite")
    # a norm past float range is inf, which the checks report as null
    with np.errstate(over="ignore"):
        return np.sqrt(np.maximum(((states @ factor) ** 2).sum(axis=1), 0.0))


def check_decay_envelope(traj: Trajectory, p, eta: float,
                         slack: float = 1e-6) -> EnvelopeReport:
    """Check |x(t)|_P <= exp(-eta t) |x0|_P up to slack * |x0|_P."""
    norms = weighted_norms(traj.states, p)
    bound = np.exp(-eta * traj.times) * norms[0]
    violations = norms - bound
    max_violation = float(violations.max())
    threshold = slack * norms[0]
    over = np.nonzero(violations > threshold)[0]
    first = float(traj.times[over[0]]) if over.size else None
    return EnvelopeReport(
        eta=eta,
        max_violation=max_violation,
        first_violation_time=first,
        passed=max_violation <= threshold,
    )


def check_lyapunov_decrease(traj: Trajectory, p, eta: float,
                            fd_tol: float) -> LyapunovReport:
    """Central-difference check of dV/dt <= -2 eta V + fd_tol (1 + V), V = x^T P x."""
    if len(traj.times) < 3:
        raise ValueError("need at least 3 samples for central differences")
    t = traj.times
    # past float range V is inf and the slack inf or NaN, which fail the
    # check and are reported as null
    with np.errstate(over="ignore", invalid="ignore"):
        v = weighted_norms(traj.states, p) ** 2
        dv = (v[2:] - v[:-2]) / (t[2:] - t[:-2])
        residual = dv + 2.0 * eta * v[1:-1] - fd_tol * (1.0 + v[1:-1])
    worst = float(residual.max())
    return LyapunovReport(passed=worst <= 0.0, worst_slack=worst)


def detect_equilibrium(traj: Trajectory, tol: float = 1e-6) -> EquilibriumReport | None:
    """Detect settling onto the equilibrium set (controller output vanishes).

    Returns the final state when u*(x_final) is tol-small and the last 10%
    of samples moved by at most 10 tol; None while still transient.
    u*(x_final) is the last recorded input.
    """
    if traj.termination is not Termination.COMPLETED:
        raise ValueError("equilibrium detection needs a completed trajectory")
    x_final = traj.states[-1]
    window = max(1, len(traj.times) // 10)
    drift = np.linalg.norm(traj.states[-window:] - x_final, axis=1).max()
    if drift > 10.0 * tol:
        return None
    u_norm = float(np.linalg.norm(traj.inputs[-1]))
    if u_norm > tol:
        return None
    return EquilibriumReport(
        point=x_final.copy(),
        is_origin=bool(np.linalg.norm(x_final) <= tol),
        controller_norm=u_norm,
    )


def fit_semiglobal_rate(traj: Trajectory, eta: float,
                        origin_tol: float = 1e-3) -> RateFit:
    """Minimal M with |x(t)| <= M exp(-eta t) |x0| over the recorded samples.

    Only meaningful for trajectories that converged to the origin; the fit
    refuses runs whose final state is not origin_tol-small relative to x0.
    """
    norms = np.linalg.norm(traj.states, axis=1)
    x0_norm = norms[0]
    if x0_norm == 0.0:
        raise ValueError("x0 is the origin; nothing to fit")
    if norms[-1] > origin_tol * max(1.0, x0_norm):
        raise ValueError(
            f"trajectory did not converge to the origin (final norm {norms[-1]:.3e})"
        )
    # log M = max_t (log|x(t)| + eta t) - log|x0|; samples at the origin
    # bound nothing, and M is inf only where log M is beyond float range
    moving = norms > 0.0
    log_m = float((np.log(norms[moving]) + eta * traj.times[moving]).max()) - np.log(x0_norm)
    m_fit = float(np.exp(log_m)) if log_m < np.log(np.finfo(float).max) else np.inf
    return RateFit(eta_assumed=eta, m_fit=m_fit)


def check_safety(traj: Trajectory, h, tol: float = 0.0) -> SafetyReport:
    """min_t h(x(t)) >= -tol along the recorded samples.

    h takes one state and is called once per sample; the report keeps the
    values for the CSV's h column (trajectory_csv_lines).
    """
    values = np.array([float(h(x)) for x in traj.states])
    min_h = float(values.min())
    return SafetyReport(passed=min_h >= -tol, min_h=min_h, values=values)


def trajectory_csv_lines(traj: Trajectory, p=None, h=None) -> list[str]:
    """CSV serialization: t,x1..xn,u1..um[,norm_P][,h], 17 significant digits.

    h holds the barrier's value at each sample, as check_safety's
    report.values does, so the column costs no second evaluation.
    """
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
    # one %-template per row formats each value as f"{v:.17g}" would; rows
    # become Python floats a block at a time, not the whole table at once
    row_format = ",".join(["%.17g"] * table.shape[1])
    lines = [",".join(header)]
    for start in range(0, len(table), 1024):
        lines += [row_format % tuple(row) for row in table[start:start + 1024].tolist()]
    return lines


def write_trajectory_csv(traj: Trajectory, path, p=None, h=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(trajectory_csv_lines(traj, p=p, h=h)) + "\n")
