"""Parametric projection controllers u*(x) = proj onto the feasible set of Kx.

Three concrete constraint families are supported, each describing a
state-dependent feasible control set as affine inequality rows in u:

  * StateBox           -v(x) <= u <= v(x), with v(x) > 0 entrywise
  * HalfspacePlusBox   a(x)^T u <= b(x) together with -u_bar <= u <= u_bar
  * AffineInequalities A(x) u <= b(x) with arbitrary rows

Each family has one projection kernel and one interior test, which
stacked_projector, the program's one evaluation path, runs where the set
has interior; project_feasible is its one-row call, but for general rows.
Boxes clamp entrywise and have interior where v(x) > 0; halfspace plus
box has a closed-form interior test and a scalar KKT solve in two passes
(_halfspace_box_walk, Kiwiel 2008), exact up to ROUNDING_SLACK whatever m;
general rows go through an exact dual active-set solve (Goldfarb &
Idnani 1983, identity Hessian), whose emptiness verdict on the rows
pulled in by a margin also decides their interior (_polyhedron_interior).
Only general rows are read as rows (constraint_rows); box bounds and
halfspace-plus-box data are callables on stacks of states.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable, Union

import numpy as np

PROJ_TOL = 1e-12
PROJ_MAX_ITER = 10_000
ACTIVE_MULTIPLIER_TOL = 1e-8
STRICT_MARGIN = 1e-12
# row slack below this share of the row's term sizes is rounding, not interior
ROUNDING_SLACK = 64 * np.finfo(float).eps
# a row whose normal keeps less than this fraction of its length outside the
# span of the working normals counts as dependent on them
DEPENDENT_ROW_TOL = 1e-10
# a halfspace-plus-box stack of at least this many rows is screened with array
# ops, and only its rows that need projection run the scalar kernel; smaller
# stacks loop over all rows, where the screen's fixed cost does not pay
SCREEN_MIN_ROWS = 16


class InfeasibleSetError(ValueError):
    """The requested feasible set is empty or degenerate."""


class InfeasibleStateError(ValueError):
    """The state left the region where the feasible set has an interior."""


class ProjectionConvergenceError(RuntimeError):
    """The active-set solve hit its cap on working-set changes; carries the violation reached."""

    def __init__(self, primal_violation: float, iterations: int):
        self.primal_violation = primal_violation
        self.iterations = iterations
        super().__init__(
            f"projection did not converge in {iterations} working-set changes "
            f"(primal violation {primal_violation:.3e})"
        )


@dataclass(frozen=True)
class StateBox:
    """Actuation bounds -v(x) <= u <= v(x), evaluated on stacks of states.

    bound(X) maps an (N, n) stack of states to the finite (N, m) stack of
    their bounds v(x), row by row; a state has interior where its row is
    positive.  The integrator then makes one call per RK4 stage, or per
    linear block, for all of its trajectories, and the one-state helpers
    pass x[None, :].
    """

    bound: Callable[[np.ndarray], np.ndarray]


def _box_bounds(family: StateBox, xs, m: int | None = None) -> np.ndarray:
    """family.bound(xs) on an (N, n) stack; anything but a finite (N, m) array raises.

    An IndexError or TypeError from the callable (a one-state bound reading
    x[1] of a one-row stack) is raised as the same contract ValueError.
    """
    try:
        v = np.asarray(family.bound(xs), dtype=float)
    except (IndexError, TypeError) as exc:
        raise _bound_contract_error(len(xs), f"raised {type(exc).__name__}: {exc}") from exc
    shaped = v.ndim == 2 and v.shape[0] == len(xs) and m in (None, v.shape[1])
    if not (shaped and np.isfinite(v).all()):
        raise _bound_contract_error(len(xs), f"returned shape {v.shape}" if not shaped
                                    else "returned non-finite entries")
    return v


def _bound_contract_error(count: int, what: str) -> ValueError:
    return ValueError("StateBox.bound must map an (N, n) stack of states to a finite "
                      f"(N, m) array; for {count} states it {what}")


@dataclass(frozen=True)
class HalfspacePlusBox:
    """One state-dependent halfspace a(x)^T u <= b(x) plus the fixed box |u| <= box_bound.

    data(X) maps an (N, n) stack of states to the pair (A, b) of the (N, m)
    stack of their normals a(x) and the (N,) array of their offsets b(x),
    row by row, as StateBox.bound does; anything else raises ValueError
    (_halfspace_data).  One callable gives both, so that the two can share
    their work on the states, such as a barrier's x - center.  A row with a
    NaN entry has no interior.
    """

    data: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    box_bound: float


def _halfspace_data(family: HalfspacePlusBox, xs, m: int | None = None):
    """family.data(xs) on an (N, n) stack as (N, m) and (N,) float arrays.

    Any other shape, or an IndexError or TypeError from the callable (a
    one-state callable reading x[1] of a one-row stack) or from taking
    its result apart, raises the contract ValueError.
    """
    try:
        a, b = family.data(xs)
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
    except (IndexError, TypeError) as exc:
        raise _halfspace_contract_error(len(xs), f"raised {type(exc).__name__}: {exc}") from exc
    count = len(xs)
    if a.ndim != 2 or a.shape[0] != count or m is not None and a.shape[1] != m:
        raise _halfspace_contract_error(count, f"data returned A of shape {a.shape}")
    if b.shape != (count,):
        raise _halfspace_contract_error(count, f"data returned b of shape {b.shape}")
    return a, b


def _halfspace_contract_error(count: int, what: str) -> ValueError:
    return ValueError("HalfspacePlusBox.data must map an (N, n) stack of states to a pair "
                      f"(A, b) of an (N, m) and an (N,) array; for {count} states {what}")


@dataclass(frozen=True)
class AffineInequalities:
    """General affine rows matrix(x) @ u <= bound(x)."""

    matrix: Callable[[np.ndarray], np.ndarray]
    bound: Callable[[np.ndarray], np.ndarray]


ConstraintFamily = Union[StateBox, HalfspacePlusBox, AffineInequalities]


@dataclass(frozen=True)
class ProjectionController:
    """Nominal linear gain composed with projection onto the family's feasible set."""

    gain: np.ndarray
    family: ConstraintFamily

    @property
    def input_dim(self) -> int:
        return self.gain.shape[0]


@dataclass(frozen=True)
class ProjResult:
    """A projection u, the rows it meets (active_constraints) and its solve's figures.

    General rows: the given row order (multiplier above ACTIVE_MULTIPLIER_TOL),
    the working-set changes (iterations), the largest violation (kkt_residual).
    Boxes and halfspace plus box: project_feasible's row order; iterations is
    0 where u is z and 1 where it moved; kkt_residual is 0.0.
    """

    u: np.ndarray
    kkt_residual: float
    active_constraints: tuple[int, ...]
    iterations: int


def _add_row(pinv, null, r, d):
    """Pseudo-inverse and null-space projector after appending a normal.

    r = pinv @ a and d = null @ a for the new normal a, with d != 0
    (Greville's column update).
    """
    c = d / float(d @ d)
    return (np.concatenate((pinv - np.multiply.outer(r, c), c[None, :])),
            null - np.multiply.outer(d, c))


def _drop_row(pinv, null, j):
    """Pseudo-inverse and null-space projector after removing working normal j."""
    k = pinv[j]
    c = k / float(k @ k)
    rest = np.delete(pinv, j, axis=0)
    return rest - np.multiply.outer(rest @ k, c), null + np.multiply.outer(k, c)


def _dual_active_set(z, a, b, tol, max_iter):
    """Goldfarb-Idnani solve of min |u - z|^2 / 2 s.t. a u <= b, rows of a of unit length.

    Starts from u = z with no working rows and keeps u = z - a[work]^T lam
    with every working row on its face and lam >= 0.  Adding the most
    violated row p raises its multiplier t: u moves along d, the part of
    a_p outside the span of the working normals, and the working
    multipliers along -r, the coefficients of a_p in them.  When a working
    multiplier reaches zero first (always, when d = 0) that row is dropped
    and p is added again; with d = 0 and no row to drop the set is empty.
    The working normals stay independent; pinv is their pseudo-inverse and
    null the projector onto their orthogonal complement.  Each step along d
    disturbs the working rows by its rounding, which a long step (nearly
    parallel rows meeting far off) magnifies; so at the end u takes the
    least-norm move back onto the working faces, pinv^T (a[work] u - b[work]),
    and lam the matching pinv pinv^T shift.  A stop with a row still
    violated, by at most tol, is solved again with tol = ROUNDING_SLACK,
    whose point is dropped: a set empty by less than tol then raises too.
    Returns (u, lam, work, changes).
    """
    m = z.shape[0]
    work, lam, u = [], [], z.copy()
    pinv, null = np.zeros((0, m)), np.eye(m)
    b_scale = 1.0 + float(np.abs(b).max())
    changes = 0
    while True:
        excess = a @ u - b
        excess[work] = 0.0
        p = int(np.argmax(excess))
        if excess[p] <= tol * (b_scale + float(np.sqrt(u @ u))):
            if work:
                move = (a[work] @ u - b[work]) @ pinv
                shift = pinv @ move
                u = u - move
                lam = [lj + sj for lj, sj in zip(lam, shift.tolist())]
            if excess[p] > 0.0 and tol > ROUNDING_SLACK:
                # a row still violated, by less than tol, may hide a set empty
                # by less than tol: solved again to rounding, such a set
                # raises; a nonempty one keeps this solve's point
                try:
                    _dual_active_set(z, a, b, ROUNDING_SLACK, max_iter)
                except ProjectionConvergenceError:
                    pass
            return u, lam, work, changes
        ap = a[p]
        lam_p = 0.0
        while True:
            if changes >= max_iter:
                raise ProjectionConvergenceError(float((a @ u - b).max()), changes)
            r = (pinv @ ap).tolist()
            d = null @ ap
            dd = float(d @ d)
            independent = dd > DEPENDENT_ROW_TOL ** 2
            full = (float(ap @ u) - b[p]) / dd if independent else np.inf
            partial, drop = np.inf, -1
            for j, rj in enumerate(r):
                if rj > 0.0 and lam[j] / rj < partial:
                    partial, drop = lam[j] / rj, j
            if drop < 0 and not independent:
                raise InfeasibleSetError(
                    f"row {p} contradicts the working rows {work}; feasible set is empty"
                )
            step = min(full, partial)
            if independent:
                u = u - step * d
            lam = [lj - step * rj for lj, rj in zip(lam, r)]
            lam_p += step
            changes += 1
            if partial < full:
                pinv, null = _drop_row(pinv, null, drop)
                del work[drop], lam[drop]
                continue
            pinv, null = _add_row(pinv, null, r, d)
            work.append(p)
            lam.append(lam_p)
            break


def proj_polyhedron(z, a_ineq, b_ineq, tol: float = PROJ_TOL,
                    max_iter: int = PROJ_MAX_ITER) -> ProjResult:
    """Euclidean projection of z onto {u : A u <= b} by an exact dual active-set solve.

    The solve (Goldfarb & Idnani 1983, identity Hessian) starts from u = z,
    adds violated rows one at a time and drops rows whose multipliers
    reach zero; it stops when no row lies farther than
    tol (1 + |u| + max_i |b_i| / |a_i|) on its wrong side.  Zero rows with
    nonnegative bound are dropped; a zero row with negative bound, or a
    violated row that contradicts the working rows, certifies emptiness
    (InfeasibleSetError), as does a set empty by less than that tolerance
    but more than rounding.  max_iter caps the working-set changes; reaching
    it raises ProjectionConvergenceError.  `iterations` counts the
    working-set changes and `kkt_residual` is the largest row violation,
    since stationarity, dual feasibility and complementarity hold by
    construction.
    """
    z = np.asarray(z, dtype=float)
    a = np.atleast_2d(np.asarray(a_ineq, dtype=float))
    b = np.atleast_1d(np.asarray(b_ineq, dtype=float))
    if a.shape[0] != b.shape[0] or a.shape[1] != z.shape[0]:
        raise ValueError(
            f"inconsistent shapes: A {a.shape}, b {b.shape}, z {z.shape}"
        )
    norms = np.sqrt(np.einsum("ij,ij->i", a, a))
    keep = np.arange(a.shape[0])
    if not norms.all():
        bad = np.flatnonzero((norms == 0.0) & (b < 0.0))
        if bad.size:
            raise InfeasibleSetError(f"row {bad[0]} is zero with negative bound {b[bad[0]]}")
        keep = np.flatnonzero(norms)
        if not keep.size:
            return ProjResult(u=z.copy(), kkt_residual=0.0, active_constraints=(),
                              iterations=0)
        a, b, norms = a[keep], b[keep], norms[keep]

    u, lam, work, changes = _dual_active_set(z, a / norms[:, None], b / norms, tol, max_iter)
    active = tuple(sorted(int(keep[i]) for i, mi in zip(work, lam)
                          if mi / norms[i] > ACTIVE_MULTIPLIER_TOL))
    return ProjResult(u=u, kkt_residual=max(0.0, float((a @ u - b).max())),
                      active_constraints=active, iterations=changes)


def _halfspace_box_interior(a, b0: float, u_bar: float) -> bool:
    """Closed-form interior test for {a^T u <= b0} intersect [-u_bar, u_bar]^m.

    a is a list of floats.  The lowest value of a^T u over the box is
    -u_bar |a|_1, so the set has interior iff u_bar > 0 and that value
    lies more than STRICT_MARGIN below b0.
    """
    abs_sum = 0.0
    for c in a:  # a Python loop beats sum(map(abs, a)) on a few entries
        abs_sum += c if c >= 0.0 else -c
    return u_bar > 0.0 and -u_bar * abs_sum < b0 - STRICT_MARGIN


def _halfspace_box_walk(z, a, b0: float, u_bar: float):
    """Projection of z onto {a^T u <= b0} intersect [-u_bar, u_bar]^m, exact up to rounding.

    z and a are lists of floats; the interior test has found the set
    nonempty and not a face of the box.  The KKT system reduces to
    u = clip(z - theta a) with one multiplier theta >= 0.  g(t) =
    a^T clip(z - t a) is piecewise linear and nonincreasing, with slope
    -sum a_j^2 over the components free (strictly inside their bounds) at
    t, which changes only at the breakpoints where a component enters or
    leaves its bound (Kiwiel 2008).  One pass over j sums g(0) in j order
    and lists the breakpoints after 0 and the slope just after 0; where
    g(0) <= b0, theta = 0 and z itself (the same list) comes back when it
    lies in the box, else its clamp, which covers a zero normal.  Else the
    walk sorts the breakpoints and stops at the first one, t_k, where g,
    run on from t at its slope, is at most b0, or at the last one, and
    solves theta = t + (g(t) - b0) / slope on [t, t_k]; at each
    breakpoint it crosses it takes g and the slope afresh, in one pass, so
    theta carries the rounding of one pass, and a projected u has
    a^T u - b0 at most ROUNDING_SLACK (|b0| + sum_j |a_j| (|z_j| +
    theta |a_j|)), whatever m; the box holds exactly.  Crossing k
    breakpoints costs k passes of m terms.  An infinite entry of z is
    taken at its box clamp, where z - t a would hold inf - inf; a NaN
    entry raises InfeasibleSetError.  Returns (u, theta,
    breakpoints_scanned).
    """
    low = -u_bar
    # g = g(0), summed as _screened_halfspace_box sums it, and for each
    # component its entry of z, inf taken at its clamp, and the t where it
    # enters and leaves its bound
    g, inside, slope = 0.0, True, 0.0
    spans, points = [], []
    for aj, zj in zip(a, z):
        if zj > u_bar:
            if zj == inf:
                zj = u_bar
            g += aj * u_bar
            inside = False
        elif zj < low:
            if zj == -inf:
                zj = low
            g += aj * low
            inside = False
        else:
            g += aj * zj
        if aj > 0.0:
            enter, leave = (zj - u_bar) / aj, (zj + u_bar) / aj
        elif aj < 0.0:
            enter, leave = (zj + u_bar) / aj, (zj - u_bar) / aj
        else:
            enter = leave = -inf  # never free, no breakpoints
        spans.append((zj, enter, leave))
        if leave > 0.0:
            if enter > 0.0:
                points.append(enter)
            else:
                slope += aj * aj
            points.append(leave)
    if g <= b0:
        if inside:
            return z, 0.0, 0
        return [u_bar if zj > u_bar else low if zj < low else zj for zj in z], 0.0, 0
    if g != g:
        raise InfeasibleSetError(f"command {z} has a NaN entry; it has no projection")
    if not points:  # g stays at -u_bar |a|_1, above b0 by rounding: a face of the box
        raise InfeasibleSetError("halfspace misses the box")

    points.sort()
    t, k = 0.0, 0
    while k + 1 < len(points) and g - slope * (points[k] - t) > b0:
        # cross t_k: take g and the slope just after it afresh
        t, k, g, slope = points[k], k + 1, 0.0, 0.0
        for aj, (zj, enter, leave) in zip(a, spans):
            c = zj - t * aj
            g += aj * (u_bar if c > u_bar else low if c < low else c)
            if enter <= t < leave:
                slope += aj * aj
    # past the last breakpoint g is -u_bar |a|_1 < b0, so theta <= t_k
    tk = points[k]
    if g <= b0:
        theta = t
    elif slope > 0.0:
        theta = min(t + (g - b0) / slope, tk)
    else:
        theta = tk
    u = []
    for aj, (zj, _, _) in zip(a, spans):  # a loop beats a list comprehension on a few entries
        c = zj - theta * aj
        u.append(u_bar if c > u_bar else low if c < low else c)
    return u, theta, k + 1


def _polyhedron_interior(a, b) -> bool:
    """Does {u : a u <= b} contain a point that satisfies every row strictly?

    Projects the origin onto the rows pulled in by a margin (exactly, at
    tol = 0) and accepts the projection only if it clears every original
    row.  Where the set has no interior the pulled-in rows are empty and
    the solve raises, or its point misses a row: a row and its exact
    negation round to opposite values, so a face is never accepted.  The
    margin starts at STRICT_MARGIN; when the projection's slack is lost to
    rounding, the margin is raised once to ROUNDING_SLACK times the size
    of the projection's terms and the solve repeated.
    """
    margin = STRICT_MARGIN
    for _ in range(2):
        try:
            u = proj_polyhedron(np.zeros(a.shape[1]), a, b - margin, tol=0.0).u
        except InfeasibleSetError:
            return False
        # every row sums its terms in one order, so a row and its negation
        # give opposite sums (a @ u need not)
        terms = a * u
        if np.all(terms.sum(axis=1) < b):
            return True
        floor = ROUNDING_SLACK * float((np.abs(terms).sum(axis=1) + np.abs(b)).max())
        if floor <= margin:
            return False
        margin = floor
    return False


def constraint_rows(family: AffineInequalities, x) -> tuple[np.ndarray, np.ndarray]:
    """General rows (A, b) with Gamma(x) = {u : A u <= b}; other families raise TypeError."""
    if not isinstance(family, AffineInequalities):
        raise TypeError(f"constraint_rows reads AffineInequalities, not {type(family).__name__}")
    x = np.asarray(x, dtype=float)
    return (np.atleast_2d(np.asarray(family.matrix(x), dtype=float)),
            np.atleast_1d(np.asarray(family.bound(x), dtype=float)))


def strictly_feasible(family: ConstraintFamily, x) -> bool:
    """Does Gamma(x) have nonempty interior (x inside the strict-feasibility region)?

    Boxes need v(x) > 0 entrywise, the halfspace-plus-box family takes its
    closed-form test and general rows take _polyhedron_interior.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(family, StateBox):
        return bool(np.all(_box_bounds(family, x[None, :]) > 0.0))
    if isinstance(family, HalfspacePlusBox):
        a, b0 = _halfspace_data(family, x[None, :])
        return _halfspace_box_interior(a[0].tolist(), float(b0[0]), float(family.box_bound))
    return _polyhedron_interior(*constraint_rows(family, x))


def project_feasible(family: ConstraintFamily, x, z) -> ProjResult:
    """Project z onto Gamma(x) for the given family.

    Boxes and halfspace plus box run stacked_projector on the one-row
    stack (x, z): they project where strictly_feasible accepts x, bit for
    bit as the evaluator does, and raise InfeasibleSetError where it leaves
    the row (some v_j <= 0; -u_bar |a|_1 >= b0 - STRICT_MARGIN).  Active
    rows are read from (z, u): for boxes j (u_j <= v_j) where u_j < z_j and
    m + j (-u_j <= v_j) where u_j > z_j; for halfspace plus box 0
    (a^T u <= b0) where u differs from clip(z), j + 1 (u_j <= u_bar) and
    m + j + 1 (-u_j <= u_bar) where u_j reaches the bound.  General rows go
    straight to proj_polyhedron wherever Gamma(x) is nonempty, faces
    included: a one-row stacked call would add _polyhedron_interior's solve
    to every projection and hide the solve's working-set count.
    """
    x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
    if not isinstance(family, (StateBox, HalfspacePlusBox)):
        return proj_polyhedron(z, *constraint_rows(family, x))
    u, left = stacked_projector(family)(x[None, :], z[None, :].copy())
    if left:
        raise InfeasibleSetError(f"the feasible set at x = {x} has no interior")
    u = u[0]
    # Python floats: a numpy read costs more than the projection
    zs, us = z.tolist(), u.tolist()
    m = len(zs)
    if isinstance(family, StateBox):
        active = [j for j in range(m) if us[j] < zs[j]]
        active += [m + j for j in range(m) if us[j] > zs[j]]
    else:
        u_bar = float(family.box_bound)
        clipped = [u_bar if zj > u_bar else -u_bar if zj < -u_bar else zj for zj in zs]
        active = [0] if us != clipped else []
        active += [j + 1 for j in range(m) if us[j] >= u_bar]
        active += [m + j + 1 for j in range(m) if us[j] <= -u_bar]
    return ProjResult(u=u, kkt_residual=0.0, active_constraints=tuple(active),
                      iterations=int(us != zs))


def stacked_projector(family: ConstraintFamily):
    """Low-overhead closure projecting nominal commands on a stack of states.

    Returns project(X, Z) -> (U, left) for states X (N, n) and nominal
    commands Z (N, m): U (N, m) holds the projection of Z's row onto the
    feasible set at X's row, and left lists, in increasing order, the rows
    whose state is outside the strict-feasibility region (U's row there is
    meaningless); it is empty, and false, when every row is inside.  U may
    be Z itself, written over.  Each row runs the family's own kernels, the
    ones strictly_feasible calls, so left agrees with it row by row.
    Boxes make one call of their stacked bound and clamp the whole stack
    at once.  Halfspace plus box makes one call of its stacked data; a
    stack of at least SCREEN_MIN_ROWS rows is screened with array ops
    (_screened_halfspace_box), which take the box clamp where it satisfies
    the halfspace, and smaller stacks run the interior test on every row;
    both project the other rows with interior by _halfspace_box_walk.
    General rows run the polyhedral solve per row.
    """
    if isinstance(family, StateBox):

        def project_box(xs, zs):
            v = _box_bounds(family, xs, zs.shape[1])
            u = np.minimum(np.maximum(zs, -v), v)
            if v.min() > 0.0:
                return u, []
            return u, np.flatnonzero(~(v > 0.0).all(axis=1)).tolist()

        return project_box

    if isinstance(family, HalfspacePlusBox):
        u_bar = float(family.box_bound)

        def project_halfspace_box(xs, zs):
            a, b = _halfspace_data(family, xs, zs.shape[1])
            if len(xs) >= SCREEN_MIN_ROWS:
                return _screened_halfspace_box(a, b, zs, u_bar)
            left = []
            for i, (a_i, b0, z) in enumerate(zip(a.tolist(), b.tolist(), zs.tolist())):
                if not _halfspace_box_interior(a_i, b0, u_bar):
                    left.append(i)
                    continue
                u = _halfspace_box_walk(z, a_i, b0, u_bar)[0]
                if u is not z:  # most rows are feasible and need no write-back
                    zs[i] = u
            return zs, left

        return project_halfspace_box

    def project_rows(xs, zs):
        left = []
        for i in range(len(xs)):
            rows, bounds = constraint_rows(family, xs[i])
            if _polyhedron_interior(rows, bounds):
                zs[i] = proj_polyhedron(zs[i], rows, bounds).u
            else:
                left.append(i)
        return zs, left

    return project_rows


# NaN and inf data compare false or saturate here, silently, as in the
# kernels' Python float arithmetic
@np.errstate(invalid="ignore", over="ignore")
def _screened_halfspace_box(a, b, zs, u_bar: float):
    """stacked_projector's halfspace-plus-box step on a stack of rows a, b, zs.

    Array ops redo _halfspace_box_interior, summing |a| column by column
    in its order, and the walk's pass 1 in array form: g = a^T clip(z),
    summed column by column from 0.0 in the walk's order, and where it is
    at most b the row takes what the walk returns there, z itself where z
    lies in the box and clip(z) where it does not.  Only the other rows
    with interior, NaN commands among them, run the walk, so U and left
    are those of the per-row loop, bit for bit.
    """
    clamped = np.minimum(np.maximum(zs, -u_bar), u_bar)
    abs_sum = np.zeros(len(a))
    g = np.zeros(len(a))
    mags = np.abs(a)
    for j in range(a.shape[1]):
        abs_sum += mags[:, j]
        g += a[:, j] * clamped[:, j]
    interior = (-u_bar * abs_sum < b - STRICT_MARGIN) & (u_bar > 0.0)
    left = np.flatnonzero(~interior)
    if left.size:  # U keeps the commands of rows without interior
        clamped[left] = zs[left]
    rows = np.flatnonzero(interior & ~(g <= b))
    if rows.size:
        clamped[rows] = [_halfspace_box_walk(z, a_i, b0, u_bar)[0] for z, a_i, b0 in
                         zip(zs[rows].tolist(), a[rows].tolist(), b[rows].tolist())]
    return clamped, left.tolist()


def make_controller_evaluator(ctrl: ProjectionController):
    """evaluate(X) -> (U, left): stacked_projector on the nominal commands X K^T."""
    gain_t = np.asarray(ctrl.gain, dtype=float).T
    project = stacked_projector(ctrl.family)
    return lambda xs: project(xs, xs @ gain_t)
