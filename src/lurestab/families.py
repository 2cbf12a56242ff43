"""Parametric projection controllers u*(x) = proj onto the feasible set of Kx.

Three concrete constraint families are supported, each describing a
state-dependent feasible control set as affine inequality rows in u:

  * StateBox           -v(x) <= u <= v(x), with v(x) > 0 entrywise
  * HalfspacePlusBox   a(x)^T u <= b(x) together with -u_bar <= u <= u_bar
  * AffineInequalities A(x) u <= b(x) with arbitrary rows

Projections onto boxes are exact clamps and the halfspace-plus-box family
has an exact scalar KKT solve; general polyhedral projections run an exact
dual active-set solve (Goldfarb & Idnani 1983 with identity Hessian).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

PROJ_TOL = 1e-12
PROJ_MAX_ITER = 10_000
ACTIVE_MULTIPLIER_TOL = 1e-8
STRICT_MARGIN = 1e-12
# a row whose normal keeps less than this fraction of its length outside the
# span of the working normals counts as dependent on them
DEPENDENT_ROW_TOL = 1e-10


class InfeasibleSetError(ValueError):
    """The requested feasible set is empty or degenerate."""


class InfeasibleStateError(ValueError):
    """The state left the region where the feasible set has an interior."""


class ProjectionConvergenceError(RuntimeError):
    """The active-set solve hit its cap on working-set changes; carries the residuals reached."""

    def __init__(self, primal_violation: float, comp_slack: float, iterations: int):
        self.primal_violation = primal_violation
        self.comp_slack = comp_slack
        self.iterations = iterations
        super().__init__(
            f"projection did not converge in {iterations} working-set changes "
            f"(primal violation {primal_violation:.3e}, "
            f"complementarity slack {comp_slack:.3e})"
        )


@dataclass(frozen=True)
class StateBox:
    """Actuation bounds -v(x) <= u <= v(x); bound(x) must be positive entrywise."""

    bound: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class HalfspacePlusBox:
    """One state-dependent halfspace a(x)^T u <= b(x) plus the fixed box |u| <= box_bound."""

    normal: Callable[[np.ndarray], np.ndarray]
    offset: Callable[[np.ndarray], float]
    box_bound: float


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
    u: np.ndarray
    kkt_residual: float
    active_constraints: tuple[int, ...]
    iterations: int


def proj_box(z, lo, hi) -> np.ndarray:
    """Entrywise clamp of z to [lo, hi]; unique Euclidean projection onto the box."""
    z = np.asarray(z, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise ValueError("box is empty: lo > hi in some entry")
    return np.minimum(np.maximum(z, lo), hi)


def proj_halfspace(z, a, b: float) -> np.ndarray:
    """Euclidean projection of z onto {u : a^T u <= b}."""
    z = np.asarray(z, dtype=float)
    a = np.asarray(a, dtype=float)
    norm2 = float(a @ a)
    if norm2 == 0.0:
        if b < 0:
            raise InfeasibleSetError("zero normal with negative offset")
        return z.copy()
    excess = float(a @ z) - b
    if excess <= 0.0:
        return z.copy()
    return z - (excess / norm2) * a


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


def _dual_active_set(z, a, b, tol, max_iter, seed):
    """Goldfarb-Idnani solve of min |u - z|^2 / 2 s.t. a u <= b, rows of a of unit length.

    Keeps u = z - a[work]^T lam with every working row on its face and
    lam >= 0.  Adding the most violated row p raises its multiplier t:
    u moves along d, the part of a_p outside the span of the working
    normals, and the working multipliers along -r, the coefficients of a_p
    in them.  When a working multiplier reaches zero first (always, when
    d = 0) that row is dropped and p is added again; with d = 0 and no row
    to drop the set is empty.  The working normals stay independent; pinv
    is their pseudo-inverse and null the projector onto their orthogonal
    complement.  Returns (u, lam, work, changes).
    """
    m = z.shape[0]
    work, lam, u = [], [], z.copy()
    pinv, null = np.zeros((0, m)), np.eye(m)
    # the seed rows start the working set if they are independent and their
    # multipliers at z are nonnegative; otherwise it starts empty
    for i in seed:
        d = null @ a[i]
        if float(d @ d) <= DEPENDENT_ROW_TOL ** 2:
            break
        pinv, null = _add_row(pinv, null, pinv @ a[i], d)
        work.append(int(i))
    if work:
        seeded = pinv @ (z - pinv.T @ b[work])
        if len(work) == len(seed) and np.all(seeded >= 0.0):
            lam, u = seeded.tolist(), z - a[work].T @ seeded
        else:
            work, pinv, null = [], np.zeros((0, m)), np.eye(m)

    b_scale = 1.0 + float(np.abs(b).max())
    changes = 0
    while True:
        excess = a @ u - b
        excess[work] = 0.0
        p = int(np.argmax(excess))
        if excess[p] <= tol * (b_scale + float(np.sqrt(u @ u))):
            return u, lam, work, changes
        ap = a[p]
        lam_p = 0.0
        while True:
            if changes >= max_iter:
                raise ProjectionConvergenceError(float((a @ u - b).max()), 0.0, changes)
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
                    max_iter: int = PROJ_MAX_ITER, mu0=None) -> ProjResult:
    """Euclidean projection of z onto {u : A u <= b} by an exact dual active-set solve.

    The solve (Goldfarb & Idnani 1983, identity Hessian) adds violated
    rows one at a time and drops rows whose multipliers reach zero; it
    stops when no row lies farther than tol (1 + |u| + max_i |b_i| / |a_i|)
    on its wrong side.  Zero rows with nonnegative bound are dropped; a
    zero row with negative bound, or a violated row that contradicts the
    working rows, certifies emptiness (InfeasibleSetError).  max_iter caps
    the working-set changes; reaching it raises ProjectionConvergenceError.
    Rows with mu0 > 0 seed the starting working set when they are
    independent and their multipliers at z are nonnegative; otherwise the
    solve starts from u = z.  `iterations` counts the working-set changes
    and `kkt_residual` is the largest row violation, since stationarity,
    dual feasibility and complementarity hold by construction.
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

    seed = () if mu0 is None else np.flatnonzero(np.asarray(mu0, dtype=float)[keep] > 0.0)
    u, lam, work, changes = _dual_active_set(
        z, a / norms[:, None], b / norms, tol, max_iter, seed
    )
    active = tuple(sorted(int(keep[i]) for i, mi in zip(work, lam)
                          if mi / norms[i] > ACTIVE_MULTIPLIER_TOL))
    return ProjResult(u=u, kkt_residual=max(0.0, float((a @ u - b).max())),
                      active_constraints=active, iterations=changes)


def _proj_halfspace_box(z_list, a_list, b0: float, u_bar: float):
    """Exact projection onto {a^T u <= b0} intersect [-u_bar, u_bar]^m.

    The KKT system reduces to u = clip(z - theta a) with a single scalar
    multiplier theta >= 0; g(theta) = a^T clip(z - theta a) is piecewise
    linear and nonincreasing, so the crossing g(theta) = b0 is found by a
    breakpoint scan.  Requires strict feasibility (-u_bar |a|_1 < b0) and
    a != 0; returns (u, theta, segments_scanned).
    """
    m = len(z_list)

    def clipped(theta):
        u = []
        for j in range(m):
            c = z_list[j] - theta * a_list[j]
            if c > u_bar:
                c = u_bar
            elif c < -u_bar:
                c = -u_bar
            u.append(c)
        return u

    def g(theta):
        s = 0.0
        u = clipped(theta)
        for j in range(m):
            s += a_list[j] * u[j]
        return s, u

    g0, u0 = g(0.0)
    if g0 <= b0:
        return u0, 0.0, 0

    # positive thetas where a component enters or leaves its bound
    breaks = sorted(
        t
        for j in range(m)
        if a_list[j] != 0.0
        for t in ((z_list[j] - u_bar) / a_list[j], (z_list[j] + u_bar) / a_list[j])
        if t > 0.0
    )
    lo_t, lo_g = 0.0, g0
    scanned = 0
    for t in breaks:
        scanned += 1
        gt, _ = g(t)
        if gt <= b0:
            slope = (gt - lo_g) / (t - lo_t) if t > lo_t else 0.0
            theta = lo_t if slope == 0.0 else lo_t + (b0 - lo_g) / slope
            return clipped(theta), theta, scanned
        lo_t, lo_g = t, gt
    # past the last breakpoint every component is saturated and
    # g == -u_bar |a|_1 < b0 under strict feasibility, so this is unreachable
    raise InfeasibleSetError("halfspace misses the box")


def constraint_rows(family: ConstraintFamily, x) -> tuple[np.ndarray, np.ndarray]:
    """Affine rows (A, b) with Gamma(x) = {u : A u <= b}, in documented row order."""
    x = np.asarray(x, dtype=float)
    if isinstance(family, StateBox):
        v = np.asarray(family.bound(x), dtype=float)
        m = v.shape[0]
        eye = np.eye(m)
        return np.vstack([eye, -eye]), np.concatenate([v, v])
    if isinstance(family, HalfspacePlusBox):
        a = np.asarray(family.normal(x), dtype=float)
        m = a.shape[0]
        eye = np.eye(m)
        rows = np.vstack([a.reshape(1, m), eye, -eye])
        bounds = np.concatenate(
            [[float(family.offset(x))], np.full(2 * m, family.box_bound)]
        )
        return rows, bounds
    if isinstance(family, AffineInequalities):
        return (
            np.atleast_2d(np.asarray(family.matrix(x), dtype=float)),
            np.atleast_1d(np.asarray(family.bound(x), dtype=float)),
        )
    raise TypeError(f"unknown constraint family {type(family).__name__}")


def strictly_feasible(family: ConstraintFamily, x) -> bool:
    """Does Gamma(x) have nonempty interior (x inside the strict-feasibility region)?"""
    x = np.asarray(x, dtype=float)
    if isinstance(family, StateBox):
        return bool(np.all(np.asarray(family.bound(x), dtype=float) > 0.0))
    if isinstance(family, HalfspacePlusBox):
        if family.box_bound <= 0.0:
            return False
        a = np.asarray(family.normal(x), dtype=float)
        # infimum of a^T u over the open box is attained toward -u_bar * sign(a)
        lowest = -family.box_bound * float(np.abs(a).sum())
        return lowest < float(family.offset(x)) - STRICT_MARGIN
    if isinstance(family, AffineInequalities):
        a, b = constraint_rows(family, x)
        return _max_margin(a, b) > STRICT_MARGIN
    raise TypeError(f"unknown constraint family {type(family).__name__}")


def _max_margin(a, b, prox_steps: int = 32) -> float:
    """Approximate sup {s : A u + s 1 <= b} by proximal ascent on s.

    Each step projects the previous point pushed along +s onto the augmented
    polyhedron, which is the proximal-point iteration for the margin LP.
    """
    p, m = a.shape
    aug = np.hstack([a, np.ones((p, 1))])
    step = 1.0 + float(np.abs(b).max()) if b.size else 1.0
    point = np.zeros(m + 1)
    margin = -np.inf
    for _ in range(prox_steps):
        target = point.copy()
        target[-1] += step
        try:
            res = proj_polyhedron(target, aug, b, tol=1e-10)
        except ProjectionConvergenceError:
            break
        point = res.u
        if abs(point[-1] - margin) <= 1e-12:
            margin = point[-1]
            break
        margin = point[-1]
    return float(margin)


def zero_feasible(family: ConstraintFamily, x) -> bool:
    """Is u = 0 a feasible control at x (Gamma(x) contains the origin)?"""
    x = np.asarray(x, dtype=float)
    if isinstance(family, StateBox):
        return bool(np.all(np.asarray(family.bound(x), dtype=float) >= 0.0))
    if isinstance(family, HalfspacePlusBox):
        return float(family.offset(x)) >= 0.0 and family.box_bound >= 0.0
    if isinstance(family, AffineInequalities):
        return bool(np.all(np.asarray(family.bound(x), dtype=float) >= 0.0))
    raise TypeError(f"unknown constraint family {type(family).__name__}")


def project_feasible(family: ConstraintFamily, x, z, tol: float = PROJ_TOL,
                     max_iter: int = PROJ_MAX_ITER, mu0=None) -> ProjResult:
    """Project z onto Gamma(x) for the given family.

    Boxes clamp exactly; the halfspace-plus-box family has an exact scalar
    KKT solve (a breakpoint scan over its single multiplier); general
    affine rows go through proj_polyhedron's dual active-set solve, which
    tol, max_iter and mu0 configure.
    """
    z = np.asarray(z, dtype=float)
    if isinstance(family, StateBox):
        v = np.asarray(family.bound(x), dtype=float)
        u = proj_box(z, -v, v)
        m = v.shape[0]
        active = tuple(int(i) for i in np.nonzero(z > v)[0])
        active += tuple(int(i) + m for i in np.nonzero(z < -v)[0])
        return ProjResult(u=u, kkt_residual=0.0, active_constraints=active, iterations=1)
    if isinstance(family, HalfspacePlusBox):
        a = np.asarray(family.normal(x), dtype=float)
        b0 = float(family.offset(x))
        u_bar = float(family.box_bound)
        m = z.shape[0]
        if float(a @ a) == 0.0:
            if b0 < 0.0:
                raise InfeasibleSetError("zero normal with negative offset")
            u = proj_box(z, -np.full(m, u_bar), np.full(m, u_bar))
            theta = 0.0
            scanned = 0
        else:
            if -u_bar * float(np.abs(a).sum()) >= b0:
                raise InfeasibleSetError("halfspace misses the box")
            u_list, theta, scanned = _proj_halfspace_box(
                [float(c) for c in z], [float(c) for c in a], b0, u_bar
            )
            u = np.array(u_list)
        active = [0] if theta > ACTIVE_MULTIPLIER_TOL else []
        active += [1 + int(i) for i in np.nonzero(u >= u_bar)[0]]
        active += [1 + m + int(i) for i in np.nonzero(u <= -u_bar)[0]]
        residual = max(0.0, float(a @ u) - b0) if theta == 0.0 else abs(float(a @ u) - b0)
        return ProjResult(u=u, kkt_residual=residual,
                          active_constraints=tuple(active), iterations=scanned)
    rows, bounds = constraint_rows(family, x)
    return proj_polyhedron(z, rows, bounds, tol=tol, max_iter=max_iter, mu0=mu0)


def eval_controller(ctrl: ProjectionController, x, tol: float = PROJ_TOL,
                    max_iter: int = PROJ_MAX_ITER, mu0=None) -> ProjResult:
    """Evaluate u*(x): project the nominal command through the feasible set.

    Refuses states outside the strict-feasibility region, where the
    controller may fail to be continuous.
    """
    x = np.asarray(x, dtype=float)
    if not strictly_feasible(ctrl.family, x):
        raise InfeasibleStateError(
            "state is outside the strict-feasibility region"
        )
    return project_feasible(ctrl.family, x, ctrl.gain @ x, tol=tol,
                            max_iter=max_iter, mu0=mu0)


def make_controller_evaluator(ctrl: ProjectionController, tol: float = PROJ_TOL,
                              max_iter: int = PROJ_MAX_ITER):
    """Low-overhead closure evaluating u*(x) on a stack of states.

    Returns evaluate(X) -> (U, ok) for X of shape (N, n): U (N, m) holds
    u*(x) row by row and ok (N,) is False where x has left the
    strict-feasibility region (U's row there is meaningless).  The
    family's callables still take one state each and are called once per
    row.  Semantics match eval_controller row by row; only the
    bookkeeping is leaner.
    """
    gain_t = np.asarray(ctrl.gain, dtype=float).T
    family = ctrl.family

    if isinstance(family, StateBox):
        bound = family.bound

        def evaluate_box(xs):
            v = np.array([bound(x) for x in xs], dtype=float).reshape(len(xs), -1)
            return np.minimum(np.maximum(xs @ gain_t, -v), v), (v > 0.0).all(axis=1)

        return evaluate_box

    if isinstance(family, HalfspacePlusBox):
        normal, offset = family.normal, family.offset
        u_bar = float(family.box_bound)

        def evaluate_halfspace_box(xs):
            zs = xs @ gain_t
            if u_bar <= 0.0:
                return zs, np.zeros(len(xs), dtype=bool)
            ok = [True] * len(xs)
            for i, x in enumerate(xs):
                a_list = np.asarray(normal(x), dtype=float).tolist()
                b0 = float(offset(x))
                norm2 = 0.0
                abs_sum = 0.0
                for c in a_list:
                    norm2 += c * c
                    abs_sum += c if c >= 0.0 else -c
                if -u_bar * abs_sum >= b0 - STRICT_MARGIN:
                    ok[i] = False
                    continue
                if norm2 == 0.0:
                    # halfspace vacuous (b0 >= 0 here); clamp to the box
                    zs[i] = np.clip(zs[i], -u_bar, u_bar)
                    continue
                z_list = zs[i].tolist()
                inside = True
                dot = 0.0
                for aj, zj in zip(a_list, z_list):
                    if zj > u_bar or zj < -u_bar:
                        inside = False
                        break
                    dot += aj * zj
                if not (inside and dot <= b0):
                    zs[i] = _proj_halfspace_box(z_list, a_list, b0, u_bar)[0]
            return zs, np.array(ok)

        return evaluate_halfspace_box

    def evaluate_generic(xs):
        zs = xs @ gain_t
        ok = np.ones(len(xs), dtype=bool)
        for i, x in enumerate(xs):
            if strictly_feasible(family, x):
                zs[i] = project_feasible(family, x, zs[i], tol=tol, max_iter=max_iter).u
            else:
                ok[i] = False
        return zs, ok

    return evaluate_generic


def fixed_point_solve(grad_f, lipschitz: float, project, z, u0, gamma: float,
                      tol: float = 1e-10, max_iter: int = 10_000) -> np.ndarray:
    """Solve u = project(u - gamma * grad_f(z, u)) by fixed-point iteration.

    The map is a contraction for 0 < gamma < 2 / lipschitz when f(z, .) is
    strongly convex with lipschitz-continuous gradient.
    """
    if not 0.0 < gamma < 2.0 / lipschitz:
        raise ValueError(
            f"step gamma={gamma} violates 0 < gamma < 2/L with L={lipschitz}"
        )
    u = np.asarray(u0, dtype=float).copy()
    z = np.asarray(z, dtype=float)
    residual = np.inf
    for _ in range(max_iter):
        nxt = np.asarray(project(u - gamma * np.asarray(grad_f(z, u), dtype=float)))
        residual = float(np.linalg.norm(u - nxt))
        u = nxt
        if residual <= tol:
            return u
    raise RuntimeError(
        f"fixed-point iteration did not reach tol={tol} in {max_iter} steps "
        f"(last residual {residual:.3e})"
    )
