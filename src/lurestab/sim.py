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
A step-by-step RK4 step makes one matrix product per stage, on x and the
stage inputs so far (_stage_increments), which one stage buffer holds
while no row stops; the new state's blow-up test compares its sum of
squares with _blowup_square, the verdicts of the norm with no square
root.  Where each input component is either free, u_i = (K x)_i, on
every row, or held at its previous sample's value on every row, the
loop is affine, and linear once the
held values ride along as constant coordinates; an RK4 step of it is
one matrix product (_LinearSteps of the free mask in use).  After such a
sample the stack advances by a block of those steps, and one evaluator
call on all of the block's stage probes keeps the steps before the
first one that leaves the region, changes a held input, projects a free
one or blows up.  That step, and everything after it, the step-by-step
loop takes, so terminations and sample counts come from it.  A block
step rounds differently: CSV digits can differ from a step-by-step run
by about 1e-14 relative to the state, up to about 4e-13 after long held
stretches, while identical configs still give identical bytes.
batch_simulate and frozen_constraint_field evaluate the controller only
through families.stacked_projector; the checks read the recorded
samples.

A trajectory's CSV has one writer: _format_rows turns a block of table
rows into bytes with array operations, each value exactly as f"{v:.17g}"
writes it (see the comment above _K_MIN), and write_trajectory_csv
streams those blocks into the file, each of about CSV_BLOCK_VALUES values
whatever the table's width, so that the kernel's temporaries stay in
cache; trajectory_csv_lines decodes the same bytes.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .families import (
    ROUNDING_SLACK,
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
    # steps taken in affine RK4 blocks (batch_simulate), not step by step
    linear_steps: int = 0

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
    zs = np.asarray(z, dtype=float)[None, :]
    # every call projects at the one-row stack zs, so the set is Gamma(z)
    project = stacked_projector(sys.controller.family)
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


def _stage_increments(a_t, b_t, dt):
    """Row-form increment maps of one RK4 step on w = [x, u1, u2, u3, u4].

    u_s is the input at stage s.  With incs = _stage_increments(...), the
    probe of stage s + 1 is x + w[:, :n + s m] @ incs[s - 1] (s = 1, 2, 3)
    and the new state x + w @ incs[3]: one product per stage, whose
    rounding stays relative to the increment, not to the state.
    """
    n, m = len(a_t), len(b_t)
    # stage s's slope is w[:, :n + s m] @ slopes[s - 1]: its probe's
    # increment times A^T, plus x A^T + u_s B^T
    slopes = [np.vstack((a_t, b_t))]
    incs = []
    for coeff in (0.5 * dt, 0.5 * dt, dt):
        incs.append(coeff * slopes[-1])
        slope = np.vstack((incs[-1] @ a_t, b_t))
        slope[:n] += a_t
        slopes.append(slope)
    total = np.zeros((n + 4 * m, n))
    for weight, slope in zip((1.0, 2.0, 2.0, 1.0), slopes):
        total[:len(slope)] += weight * slope
    incs.append((dt / 6.0) * total)
    return incs


class _LinearSteps:
    """Row-form RK4 maps of the loop where each input is free or held.

    Free inputs equal their nominal command, u_i = (K x)_i; held ones stay
    at the constant value c_i they had at the block's start.  The loop is
    then affine, dx/dt = A x + B (D K x + (I - D) c) with D = diag(free),
    and linear in w = [x, c], whose h held coordinates are constant: the
    field is w M^T with M^T = [[A^T + K^T D B^T, 0], [B_held^T, 0]] of
    width n + h.  One RK4 step is w -> w Phi, Phi = R(dt M)^T, R(z) = 1 + z
    + z^2/2 + z^3/6 + z^4/24, with stage probes w S2, w S3 and w S4.
    maps(j)[i] holds the state columns of [Phi^(i+1), Phi^i S2, Phi^i S3,
    Phi^i S4] - I side by side, so that x + w @ maps(j)[i] gives, from w,
    step i's new state and its last three stage probes.  The powers are
    kept as D_i = Phi^i - I, the maps' first n columns, and extended by
    doubling, D_(k+i) = D_k + D_i + D_i D_k, so that their rounding stays
    relative to the increment, not to the state.  With every input free,
    w = x and M = A + B K.
    """

    def __init__(self, a_t, b_t, gain_t, dt, free):
        n = self._n = len(a_t)
        self.held = ~free
        self.width = n + int(self.held.sum())
        mt = np.zeros((self.width, self.width))
        mt[:n, :n] = a_t + (gain_t * free) @ b_t
        mt[n:, :n] = b_t[self.held]
        t2 = 0.5 * dt * mt
        t3 = 0.5 * dt * (mt + t2 @ mt)
        t4 = dt * (mt + t3 @ mt)
        step = dt * mt + (dt / 6.0) * ((2.0 * t2 + 2.0 * t3 + t4) @ mt)
        self._stages = np.concatenate((t2[:, :n], t3[:, :n], t4[:, :n]), axis=1)
        self._maps = self._stack(np.zeros((1, self.width, n)), step[None, :, :n])

    def _stack(self, d, powers):
        """The maps of the steps from powers d (D_i) to powers (D_(i+1)), state columns.

        The held coordinates are constant, so the other columns of D_i are
        zero, and a product with D_i reads only the state rows of the other
        factor.
        """
        stages = np.tile(d, 3) + self._stages + d @ self._stages[:self._n]
        return np.concatenate((powers, stages), axis=2)

    def maps(self, j: int) -> np.ndarray:
        while len(self._maps) < j:
            powers = self._maps[:, :, :self._n]  # D_1 .. D_k
            last = powers[-1]
            doubled = last + powers + powers @ last[:self._n]  # D_(k+1) .. D_(2k)
            d = np.concatenate((last[None], doubled[:-1]))
            self._maps = np.concatenate((self._maps, self._stack(d, doubled)))
        return self._maps[:j]


# caps a block's length j: its probes and maps hold 4 j n (N + w) floats, w
# the block's width n + h
MAX_BLOCK_FLOATS = 2 ** 15


def _blowup_square(blowup: float) -> float:
    """The largest finite float s with sqrt(s) <= blowup, or NaN where there is none.

    sqrt rounds correctly, so it is monotone: for a finite blowup, a sum
    of squares s passes s <= _blowup_square(blowup) exactly where it
    passes sqrt(s) <= blowup, and NaN and inf fail both.  The blow-up test
    takes the first, which needs no square root.
    """
    blowup = float(blowup)  # Python floats overflow to inf without a warning
    if not blowup >= 0.0:
        return math.nan
    top = float(np.finfo(float).max)
    s = min(blowup * blowup, top)
    while math.sqrt(s) > blowup:
        s = math.nextafter(s, -math.inf)
    while s < top and math.sqrt(up := math.nextafter(s, math.inf)) <= blowup:
        s = up
    return s


# overflow, and inf - inf after it, is the blow-up each row records; a step
# too large for A (say dt A = -1e297) makes the RK4 maps themselves NaN
@np.errstate(over="ignore", invalid="ignore")
def batch_simulate(sys: ClosedLoopSystem, x0_list, cfg: SimConfig) -> list:
    """Fixed-step RK4 rollouts from every valid x0, integrated as one (N, n) stack.

    The controller is evaluated at all four stage points.  Each row
    records one sample per step and stops on its own: at the step where a
    stage state leaves the strict-feasibility region, or where the new
    state is non-finite or its norm passes cfg.blowup_norm; the other rows
    go on.  An x0 that is malformed, non-finite or, at step 0, outside the
    region is returned as a ValueError in place of the trajectory; the
    family's own exceptions propagate.

    After a sample where every input component is free (u_i = (K x)_i)
    on every row or, on every row, held (u_i equal to the previous
    sample's u_i), the stack advances by a block of j affine RK4 steps
    (_LinearSteps of that free mask, built again when the stack returns
    to a mask it left) whose 4 j N stage probes go to the evaluator in
    one call.  A probe passes when its row is inside the region and its
    input is K x where free and the held value where held, bit for bit.
    The steps before the first one with a failing probe or a new state
    that fails the blow-up test are kept, and the step-by-step loop
    takes that step.  j starts at 1 and doubles after
    each block kept whole, up to MAX_BLOCK_FLOATS floats of probes and
    maps; an exception or a non-finite value inside a block only
    discards it.  A row's samples and termination do not depend on the
    other rows, but its last digits can: a matrix product on the stack
    need not round like the product for one row, and a block step rounds
    like neither.
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
    gain_t = np.asarray(sys.controller.gain, dtype=float).T
    evaluate = make_controller_evaluator(sys.controller)
    # an overflowing norm is inf, which passes any finite bound; the test
    # compares the sum of squares with the largest one whose root passes
    dt = cfg.dt
    blowup_sq = _blowup_square(min(cfg.blowup_norm, np.finfo(float).max))
    n_steps = int(round(cfg.horizon / dt))
    x = np.array(starts)
    count, n = x.shape
    m = sys.controller.input_dim
    states = np.empty((n_steps + 1, count, n))
    inputs = np.empty((n_steps + 1, count, m))
    samples = [n_steps + 1] * count
    stops = [Termination.COMPLETED] * count
    linear_steps = np.zeros(count, dtype=int)
    live = np.arange(count)  # the batch row of each stack row
    mask = affine = None  # the free mask in use and its _LinearSteps
    incs = _stage_increments(a_t, b_t, dt)

    def stage_views(w):
        """The columns of x and of each stage input u_s in the stage buffer w,
        and its first n + s m columns, which stage s + 1's probe reads."""
        cols = [w[:, :n]] + [w[:, n + s * m:n + (s + 1) * m] for s in range(4)]
        return cols, [w[:, :n + s * m] for s in (1, 2, 3)]

    # the stage buffer, a row [x, u1, u2, u3, u4] per live row, is reused
    # while no row stops, and so are its views
    w = np.empty((count, n + 4 * m))
    cols, heads = stage_views(w)

    def stop(left, n_samples, reason):
        for row in live[left].tolist():
            samples[row], stops[row] = n_samples, reason
        return np.delete(live, left)

    def affine_block(x, c, affine, j):
        """(steps kept, the new states, their inputs) of a block of j affine steps from x.

        c holds each row's held inputs, the evaluator's output at x.
        """
        with np.errstate(all="ignore"):
            w = np.concatenate((x, c), axis=1)
            probes = (w @ affine.maps(j)).reshape(j, len(x), 4, n) + x[:, None, :]
            flat = probes.reshape(-1, n)
            try:
                u, left = evaluate(flat)
            except Exception:  # noqa: BLE001 - the step-by-step loop meets it again
                return 0, None, None
            predicted = flat @ gain_t
            predicted.reshape(j, len(x), 4, m)[..., affine.held] = c[:, None, :]
            bad = (u != predicted).any(axis=1)
            bad[left] = True
            bad = bad.reshape(j, len(x), 4).any(axis=1)
            # step i fails on its last three stages, on its first one (step
            # i - 1's new state) and on its new state's blow-up test
            cut = bad[:, 1:].any(axis=1)
            cut[1:] |= bad[:-1, 0]
            new = probes[:, :, 0]
            # NaN compares false, so non-finite rows fail the bound too
            cut |= ~(np.add.reduce(new * new, axis=2) <= blowup_sq).all(axis=1)
        kept = int(cut.argmax()) if cut.any() else j
        return kept, new, u.reshape(j, len(x), 4, m)[:, :, 0]

    step, span = 0, 1
    while True:
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

        # span == 0: the last block stopped short of this step, which is not
        # affine; otherwise it is when each input is free on every row or,
        # on every row, held at its value of the previous sample (at step 0
        # there is none, so an input can only be free)
        if span:
            nominal = u == x @ gain_t
            held = u == inputs[step - 1, where] if step else nominal
            # every entry free or held is needed, and on a step-by-step
            # stretch it fails at once (bool bytes are 0 or 1, and this
            # scan costs less than a reduction); the per-input mask comes after
            if (b"\0" not in (nominal | held).tobytes()
                    and (held | (free := nominal.all(axis=0))).all()):
                key = free.tobytes()
                if key != mask:
                    mask, affine = key, _LinearSteps(a_t, b_t, gain_t, dt, free)
                j = min(span, n_steps - step)
                kept, new, new_u = affine_block(x, u[:, affine.held], affine, j)
                if kept < j:
                    span = 0
                elif 8 * span * n * (len(x) + affine.width) <= MAX_BLOCK_FLOATS:
                    span *= 2
                if kept:
                    states[step + 1:step + kept, where] = new[:kept - 1]
                    inputs[step + 1:step + kept, where] = new_u[:kept - 1]
                    linear_steps[live] += kept
                    step += kept
                    x = new[kept - 1]
                    continue

        # one product per stage: w holds x and the stage inputs so far
        if len(w) != len(x):
            w = np.empty((len(x), n + 4 * m))
            cols, heads = stage_views(w)
        cols[0][...] = x
        cols[1][...] = u
        for s in range(3):
            stage_u, left = evaluate(x + heads[s] @ incs[s])
            if left:
                live = stop(left, step + 1, Termination.LEFT_FEASIBLE_REGION)
                if not live.size:
                    break
                x, w, stage_u = (np.delete(v, left, axis=0) for v in (x, w, stage_u))
                cols, heads = stage_views(w)
            cols[s + 2][...] = stage_u
        if not live.size:
            break
        x = x + w @ incs[3]
        # NaN compares false, so non-finite rows fail the bound too
        ok = np.add.reduce(x * x, axis=1) <= blowup_sq
        if False in ok.tolist():
            live = stop(np.flatnonzero(~ok), step + 1, Termination.NUMERICAL_BLOWUP)
            if not live.size:
                break
            x = x[ok]
        step += 1
        span = 1

    # a row stopped with no sample left the region at x0
    trajectories = iter([
        Trajectory(times=np.arange(k) * dt, states=states[:k, row],
                   inputs=inputs[:k, row], termination=stops[row],
                   linear_steps=int(linear_steps[row]))
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


def check_lyapunov_decrease(traj: Trajectory, plant: LtiPlant, p,
                            eta: float) -> LyapunovReport:
    """Check V' + 2 eta V <= 0, V = x^T P x, exactly at every recorded sample.

    V' + 2 eta V = 2 x^T P ((A + eta I) x + B u), read from the plant and
    the recorded (x, u) alone, is at most -2 lambda (u^T K x - rho |u|^2)
    by the certificate, and so at most 0 where 0 is in Gamma(x).
    worst_slack is its largest ratio to the size of its terms, 2 |x|^T |P|
    (|A + eta I| |x| + |B| |u|): 0 at x = 0, NaN where a size overflows.
    The run passes where worst_slack is at most ROUNDING_SLACK: rounding only.
    """
    n = plant.state_dim
    # halved, by P's symmetry: w . (w maps P) and |x| . (|w| |maps| |P|), w = (x, u)
    maps = np.vstack((plant.a.T + eta * np.eye(n), plant.b.T))
    g, g_abs = maps @ p, np.abs(maps) @ np.abs(p)
    # blocks of at most MAX_BLOCK_FLOATS values, as an RK4 block holds, bound the temporaries
    rows = max(1, MAX_BLOCK_FLOATS // (n + plant.input_dim))
    worsts = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(traj.times), rows):
            w = np.concatenate((traj.states[i:i + rows], traj.inputs[i:i + rows]), axis=1)
            value = np.einsum("ti,ti->t", w[:, :n], w @ g)
            np.abs(w, out=w)
            size = np.einsum("ti,ti->t", w[:, :n], w @ g_abs)
            # where the size is 0, so is every term of the value
            np.divide(value, size, out=value, where=size > 0.0)
            worsts.append(value.max() if np.isfinite(size.max()) else np.nan)
    worst = float(np.max(worsts))
    return LyapunovReport(passed=bool(worst <= ROUNDING_SLACK), worst_slack=worst)


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


def projected_samples(traj: Trajectory, gain) -> int:
    """How many samples record an input that differs from K x in some component.

    The test is batch_simulate's for a free input, u == x K^T bit for bit,
    so a sample counts where the projection moved the nominal command: the
    trajectory's active-constraint count.
    """
    differs = traj.inputs != traj.states @ np.asarray(gain, dtype=float).T
    # the columns are OR-ed one by one: any(axis=1) over the short rows of
    # a long trajectory is about ten times slower
    return int(np.count_nonzero(functools.reduce(np.logical_or, differs.T)))


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

    h is called once, on the (T, n) stack of samples, and maps it to the
    (T,) array of their values; the report keeps the values for the CSV's
    h column (trajectory_csv_lines).
    """
    values = np.asarray(h(traj.states), dtype=float)
    if values.shape != traj.times.shape:
        raise ValueError(f"h must map the {traj.states.shape} stack of samples to "
                         f"{traj.times.shape} values, got shape {values.shape}")
    min_h = float(values.min())
    return SafetyReport(passed=min_h >= -tol, min_h=min_h, values=values)


# %.17g in array operations: each finite |v| with k = floor(log10|v|) in
# [_K_MIN, _K_MAX] is scaled to X = |v| 10**(16 - k) in [1e16, 1e17),
# a double-double product (Dekker 1971) with a relative error near 2**-100,
# so its rounding to the 17-digit integer D is decided unless the fraction
# of X lies within 2**-40 of one half.  Those values, and every value out of
# that range (inf, NaN, |v| < 1e-280 with the subnormals, |v| >= 1e281),
# are formatted by Python, which rounds correctly (Gay 1990), so the bytes
# are always those of f"{v:.17g}"; +0 and -0 are written as "0" and "-0".
_K_MIN, _K_MAX = -280, 280
# values formatted and written at a time, as max(1, CSV_BLOCK_VALUES //
# columns) rows: the kernel holds about 240 bytes of temporaries per value,
# so a block (about 1 MB) stays in a 2 MB per-core L2 cache, and memory grows
# with neither the horizon nor the table's width
CSV_BLOCK_VALUES = 4096
_SPLIT = 134217729.0        # 2**27 + 1, Dekker's splitting constant
_Q_MIN = 16 - (_K_MAX + 1)  # the table's smallest power of ten
_K_LOW = _K_MIN - 1         # the smallest exponent a slot shows
# a value's slot is six little-endian 64-bit words: the sign and the
# "0.000" lead, then 17 digit/dot byte pairs from byte 8, the "e+XXX"
# suffix from byte 42 and the separator in byte 47; unused bytes are NUL
_SLOT = 48
_WORD = np.dtype("<u8")
# the slots of +0 and -0, in the order of their sign bits
_ZERO_SLOTS = np.frombuffer(b"0".ljust(_SLOT, b"\0") + b"-0".ljust(_SLOT, b"\0"),
                            np.uint8).reshape(2, _SLOT)


@functools.cache
def _csv_tables():
    """Tables the formatting kernel reads, built on its first call.

    pow10[q - _Q_MIN] is 10**q as hi + lo, with hi split into its top 26
    bits and the rest (Dekker's split); int / int true division rounds
    correctly, so hi and lo are the correctly rounded doubles of what
    they stand for.  affix[2 (k - _K_LOW)
    + s] holds the first word and the suffix bits of the last for the
    exponent k and sign bit s, and masks[c 18 + nd] keeps the digits and
    the dot shown for c = clip(k, -5, 17) + 5 and nd significant digits.
    """
    pow10 = []
    for q in range(_Q_MIN, 16 - _K_LOW + 1):
        if q >= 0:
            hi = float(10 ** q)
            lo = float(10 ** q - int(hi))
        else:
            den = 10 ** -q
            hi = 1 / den
            num, two = hi.as_integer_ratio()
            lo = (two - num * den) / (two * den)
        t = hi * _SPLIT
        top = t - (t - hi)
        pow10.append((top, hi - top, lo))
    ks = range(_K_LOW, _K_MAX + 3)
    affix = np.zeros((len(ks), 2, 16), np.uint8)
    for row, k in zip(affix, ks):
        fixed = -4 <= k < 17
        lead = b"0." + b"0" * (-k - 1) if fixed and k < 0 else b""
        suffix = b"" if fixed else b"e%+03d" % k
        row[:, 1:1 + len(lead)] = list(lead)
        row[:, 10:10 + len(suffix)] = list(suffix)
        row[1, 0] = ord("-")
    masks = np.zeros((23, 18, _SLOT), np.uint8)
    for c in range(23):
        k = c - 5
        for nd in range(1, 18):
            if 0 <= k < 17:  # digits up to the units, a dot before any fraction
                shown, dot = max(nd, k + 1), (k if nd > k + 1 else None)
            else:  # 0.000ddd, or d.ddde+XX
                shown, dot = nd, (0 if not -4 <= k < 0 and nd > 1 else None)
            masks[c, nd, 8:8 + 2 * shown:2] = 0xFF
            if dot is not None:
                masks[c, nd, 9 + 2 * dot] = 0xFF
    return (np.array(pow10), affix.view(_WORD).reshape(-1, 2),
            masks.view(_WORD).reshape(23 * 18, 6))


def _scaled(a, k, pow10):
    """a 10**(16 - k) as the unevaluated sum p + e of two doubles."""
    bh, bl, lo = np.take(pow10, 16 - k - _Q_MIN, axis=0).T
    p = a * (bh + bl)
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo


def _decimal_digits(v):
    """The 17-digit rounding D 10**(k - 16) of each |v| in a flat array.

    Returns (D, k, exact), int64, int64 and bool; where exact is false the
    value lies out of the kernel's range or too near a rounding tie, and
    D and k are meaningless.
    """
    pow10 = _csv_tables()[0]
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):  # log10 of 0, inf, NaN
        x = np.floor(np.log10(a))
    exact = (x >= _K_MIN) & (x <= _K_MAX)
    a[~exact] = 1.0
    x[~exact] = 0.0
    k = x.astype(np.int64)
    p, e = _scaled(a, k, pow10)
    # floor(X) where p >= 2**53, an integer; below, X < 1e16 all the same
    whole = np.floor(e)
    ip = p.astype(np.int64) + whole.astype(np.int64)
    # log10 can miss by one next to a power of ten
    shift = (ip >= 10 ** 17).astype(np.int64) - (ip < 10 ** 16)
    moved = np.flatnonzero(shift)
    if moved.size:
        k[moved] += shift[moved]
        p_moved, e[moved] = _scaled(a[moved], k[moved], pow10)
        whole[moved] = np.floor(e[moved])
        ip[moved] = p_moved.astype(np.int64) + whole[moved].astype(np.int64)
    frac = e - whole
    exact &= (np.abs(frac - 0.5) >= 2.0 ** -40) & (ip >= 10 ** 16) & (ip < 10 ** 17)
    d = ip + (frac > 0.5)
    carry = d == 10 ** 17  # 99999999999999999.5 and up round to 1e17
    d[carry] = 10 ** 16
    return d, k + carry, exact


def _format_rows(table) -> bytes:
    """The CSV rows of a 2-D float table, each value as f"{v:.17g}"."""
    _, affix, masks = _csv_tables()
    rows, cols = table.shape
    v = np.ascontiguousarray(table, dtype=float).ravel()
    d, k, exact = _decimal_digits(v)
    # the 17 digits, through two uint32 halves of D, each under its dot:
    # byte pairs 4-20 of the slot
    pairs = np.empty((len(v), _SLOT // 2), np.dtype("<u2"))
    for half, places in (((d % 10 ** 8).astype(np.uint32), range(20, 12, -1)),
                         ((d // 10 ** 8).astype(np.uint32), range(12, 3, -1))):
        for j in places:
            rest = half // 10
            pairs[:, j] = half - rest * 10
            half = rest
    pairs |= 0x2E30  # "0" + digit, then "."
    significant = 17 - np.argmax(pairs[:, 20:3:-1] != 0x2E30, axis=1)
    words = np.take(masks, (np.clip(k, -5, 17) + 5) * 18 + significant, axis=0)
    words &= pairs.view(_WORD)
    lead_suffix = np.take(affix, 2 * (k - _K_LOW) + np.signbit(v), axis=0)
    words[:, 0] = lead_suffix[:, 0]
    words[:, 5] |= lead_suffix[:, 1]
    out = words.view(np.uint8)
    zero = v == 0.0
    out[zero] = _ZERO_SLOTS[np.signbit(v[zero]).astype(np.intp)]
    rest = np.flatnonzero(~(exact | zero))
    if rest.size:
        texts = b"".join((b"%.17g" % x).ljust(_SLOT, b"\0") for x in v[rest].tolist())
        out[rest] = np.frombuffer(texts, np.uint8).reshape(-1, _SLOT)
    out = out.reshape(rows, cols, _SLOT)
    out[:, :-1, -1] = ord(",")
    out[:, -1, -1] = ord("\n")
    return out.tobytes().translate(None, b"\0")


def _csv_blocks(traj: Trajectory, p=None, h=None):
    """The CSV as bytes: the header line, then blocks of at most CSV_BLOCK_VALUES
    values (at least one row)."""
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
    yield (",".join(header) + "\n").encode()
    rows = max(1, CSV_BLOCK_VALUES // len(header))
    for start in range(0, len(traj.times), rows):
        yield _format_rows(np.column_stack([c[start:start + rows] for c in columns]))


def trajectory_csv_lines(traj: Trajectory, p=None, h=None) -> list[str]:
    """CSV serialization: t,x1..xn,u1..um[,norm_P][,h], 17 significant digits.

    h holds the barrier's value at each sample, as check_safety's
    report.values does, so the column costs no second evaluation.  The
    lines are those write_trajectory_csv writes.
    """
    return b"".join(_csv_blocks(traj, p=p, h=h)).decode("ascii").split("\n")[:-1]


def write_trajectory_csv(traj: Trajectory, path, p=None, h=None) -> None:
    """Write the CSV of trajectory_csv_lines, a block of rows at a time."""
    with open(path, "wb") as fh:
        fh.writelines(_csv_blocks(traj, p=p, h=h))
