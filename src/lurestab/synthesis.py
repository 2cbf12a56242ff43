"""Gain synthesis and application-system builders.

LQR gains come from the continuous algebraic Riccati equation, solved
through the stable invariant subspace of its Hamiltonian by the same
kernel (``linalg.stable_riccati``) that builds contraction certificates.
The two application builders wire plants to their projection controllers:
state-dependent saturation and CBF-constrained single integrators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .families import (
    HalfspacePlusBox,
    ProjectionController,
    StateBox,
    make_controller_evaluator,
)
from .linalg import (
    RiccatiError,
    as_matrix,
    cholesky,
    require_no_overflow,
    require_symmetric,
    stable_riccati,
)
from .lure import LtiPlant
from .rng import RandomSource
from .sim import ClosedLoopSystem


# relative CARE residual above which solve_care rejects its solution
CARE_TOL = 1e-10
# seeds example1_setup tries before it gives up
EXAMPLE1_MAX_ATTEMPTS = 10


class CareError(RuntimeError):
    """Riccati solve failed."""


@dataclass(frozen=True)
class LqrWeights:
    """Quadratic cost integrand x^T Q x + u^T R u with Q >= 0 and R > 0."""

    q: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        q = require_symmetric(self.q, "Q")
        r = require_symmetric(self.r, "R")
        if np.linalg.eigvalsh(q)[0] < -1e-12:
            raise ValueError("Q must be positive semidefinite")
        if cholesky(r) is None:
            raise ValueError("R must be positive definite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)


@dataclass(frozen=True)
class CareSolution:
    """Stabilizing CARE solution X, gain K = -R^-1 B^T X, and its residual."""

    x: np.ndarray
    k: np.ndarray
    residual: float


@dataclass(frozen=True)
class Example1System:
    """Randomized saturation benchmark: A = -I + N, banded B, LQR gain."""

    a: np.ndarray
    b: np.ndarray
    k: np.ndarray
    bound: Callable[[np.ndarray], np.ndarray]
    seed_used: int
    attempts: int


def hurwitz_check(m, tol: float = 1e-6) -> tuple[bool, float]:
    """Spectral abscissa test: True iff max Re(eig(M)) < -tol."""
    mat = as_matrix(m, "M")
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"M must be square, got {mat.shape}")
    abscissa = float(np.real(np.linalg.eigvals(mat)).max())
    return abscissa < -tol, abscissa


def care_residual(a, b, x, weights: LqrWeights) -> float:
    rinv_btx = np.linalg.solve(weights.r, b.T @ x)
    return float(np.linalg.norm(a.T @ x + x @ a - x @ b @ rinv_btx + weights.q))


def solve_care(a, b, weights: LqrWeights) -> CareSolution:
    """Stabilizing solution of A^T X + X A - X B R^-1 B^T X + Q = 0.

    X comes from the stable invariant subspace of the Hamiltonian
    [[A, -B R^-1 B^T], [-Q, -A^T]] through ``linalg.stable_riccati``, the
    kernel the certificate search uses.  A residual above
    CARE_TOL * (1 + |X|) raises CareError, as does a pair with no
    stabilizing solution (an uncontrollable unstable or undetectable axis
    mode); a B R^-1 B^T past the float range raises DataOverflowError.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValueError("B rows must match A dim")
    with np.errstate(over="ignore", invalid="ignore"):
        g = b @ np.linalg.solve(weights.r, b.T)
        r_ham = require_no_overflow(-0.5 * (g + g.T), "B R^-1 B^T")
    try:
        x = stable_riccati(a, r_ham, weights.q)
    except RiccatiError as exc:
        raise CareError(f"no stabilizing Riccati solution: {exc}") from exc
    k = -np.linalg.solve(weights.r, b.T @ x)
    res = care_residual(a, b, x, weights)
    if res > CARE_TOL * (1.0 + float(np.linalg.norm(x))):
        raise CareError(f"Riccati residual {res:.3e} above tolerance")
    return CareSolution(x=x, k=k, residual=res)


def build_saturation_system(a, b, k, bound) -> ClosedLoopSystem:
    """Closed loop dx/dt = A x + B sat_{v(x)}(K x) as a projection controller."""
    plant = LtiPlant(a=a, b=b)
    controller = ProjectionController(gain=as_matrix(k, "K"), family=StateBox(bound=bound))
    return ClosedLoopSystem(plant=plant, controller=controller)


def build_cbf_system(barrier, alpha, k, u_bar: float) -> ClosedLoopSystem:
    """Single integrator filtered by one CBF row plus symmetric input bounds.

    Feasible controls at x satisfy -grad_h(x)^T u <= alpha(h(x)) and
    |u_i| <= u_bar; alpha must be strictly increasing with alpha(0) = 0.
    barrier(X) maps an (N, n) stack of states to the pair (h(X), grad_h(X))
    of their (N,) values and (N, n) gradients, so that the two can share
    their work, as HalfspacePlusBox.data does; alpha acts elementwise.
    """
    if u_bar <= 0:
        raise ValueError("u_bar must be positive")
    if abs(float(alpha(0.0))) > 1e-12:
        raise ValueError("alpha(0) must be zero")
    if not (float(alpha(1.0)) > 0.0 > float(alpha(-1.0))):
        raise ValueError("alpha must be strictly increasing")

    def data(xs):
        h, grad = barrier(xs)
        return -np.asarray(grad, dtype=float), alpha(np.asarray(h, dtype=float))

    return _filtered_integrator(data, k, u_bar)


def _filtered_integrator(data, k, u_bar: float) -> ClosedLoopSystem:
    """dx/dt = u, u the projection of K x onto the HalfspacePlusBox of data and u_bar."""
    k = as_matrix(k, "K")
    n = k.shape[1]
    plant = LtiPlant(a=np.zeros((n, n)), b=np.eye(n))
    family = HalfspacePlusBox(data=data, box_bound=float(u_bar))
    return ClosedLoopSystem(
        plant=plant, controller=ProjectionController(gain=k, family=family)
    )


EXAMPLE2_GAIN = np.array([[-2.0, -0.5], [-0.5, -1.0]])
EXAMPLE2_U_BAR = 1.0
EXAMPLE2_CENTER = np.array([0.0, 4.0])
EXAMPLE2_RADIUS = 2.0
# -lambda_max of the symmetric gain: eigenvalues are (-3 +- sqrt(2))/2
EXAMPLE2_ETA = (3.0 - np.sqrt(2.0)) / 2.0


def example2_h(x):
    """Barrier for the disk obstacle of radius 2 centered at (0, 4), on states (..., 2)."""
    d = np.asarray(x, dtype=float) - EXAMPLE2_CENTER
    d = d * d
    return d[..., 0] + d[..., 1] - 4.0


def example2_barrier(xs):
    """(example2_h, its gradient) on an (N, 2) stack, sharing x - center.

    The values have the bits of example2_h's.
    """
    d = np.asarray(xs, dtype=float) - EXAMPLE2_CENTER
    sq = d * d
    return sq[:, 0] + sq[:, 1] - 4.0, 2.0 * d


# a (1, 2) row broadcasts against a stack faster than the (2,) vector
_EXAMPLE2_CENTER_ROW = EXAMPLE2_CENTER[None, :]


def _example2_data(xs):
    """Example 2's halfspace data (-grad_h(X), h(X)) on an (N, 2) stack, from one x - center.

    It has the bits of build_cbf_system(example2_barrier, identity, ...)'s
    data, in six numpy calls: d (-2) is -(2 d) exactly.
    """
    d = xs - _EXAMPLE2_CENTER_ROW
    sq = d * d
    return d * -2.0, sq[:, 0] + sq[:, 1] - 4.0


def example2_system() -> ClosedLoopSystem:
    """Obstacle-avoidance single integrator with the benchmark constants.

    build_cbf_system(example2_barrier, identity, EXAMPLE2_GAIN, EXAMPLE2_U_BAR)
    bit for bit, its barrier and alpha fused into one data callable.
    """
    return _filtered_integrator(_example2_data, EXAMPLE2_GAIN, EXAMPLE2_U_BAR)


def example2_blocking_equilibrium() -> tuple[np.ndarray, np.ndarray]:
    """Blocking equilibrium on the obstacle boundary and its stable direction.

    A non-origin equilibrium requires the nominal command to sit in the
    normal cone of the active barrier row: K x = -s grad_h(x) with s >= 0
    and x on the circle.  Writing x = center + w reduces this to the scalar
    root |(K + 2 s I)^-1 K center|_2 = radius, solved here by bisection.
    The equilibrium is a saddle of the sliding flow (attracting normal to
    the boundary, repelling along it), so only its stable eigendirection
    reaches it; the direction comes from the Jacobian of the closed-loop
    field on the active branch, by central differences from one
    evaluation of the four states x_eq +- eps e_j.
    """
    k = EXAMPLE2_GAIN
    rhs = -k @ EXAMPLE2_CENTER

    def offset_norm(s):
        w = np.linalg.solve(k + 2.0 * s * np.eye(2), rhs)
        return float(w @ w) - EXAMPLE2_RADIUS ** 2

    # det(K + 2sI) vanishes near s = 1.1; the offset shrinks monotonically
    # from +inf to 0 on (1.1, inf), so [1.2, 50] brackets the root
    # bisect until lo and hi are adjacent floats, when mid is one of them
    lo, hi = 1.2, 50.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if offset_norm(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    s_star = mid
    x_eq = EXAMPLE2_CENTER + np.linalg.solve(k + 2.0 * s_star * np.eye(2), rhs)

    eps = 1e-7
    steps = eps * np.eye(2)
    u, _ = make_controller_evaluator(example2_system().controller)(
        np.vstack([x_eq + steps, x_eq - steps]))
    jac = ((u[:2] - u[2:]) / (2.0 * eps)).T
    tr = jac[0, 0] + jac[1, 1]
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    disc = np.sqrt(max(tr * tr - 4.0 * det, 0.0))
    lam_stable = 0.5 * (tr - disc)
    v = np.array([jac[0, 1], lam_stable - jac[0, 0]])
    if np.linalg.norm(v) < 1e-12:
        v = np.array([lam_stable - jac[1, 1], jac[1, 0]])
    v = v / np.linalg.norm(v)
    if (x_eq - EXAMPLE2_CENTER) @ v < 0:  # along the barrier's gradient
        v = -v
    return x_eq, v


def example2_grid() -> np.ndarray:
    """Documented 12-point grid of initial conditions inside the safe set.

    Eleven points span the approaches above, beside, and below the
    obstacle; the twelfth sits 1e-5 along the stable eigendirection of the
    blocking saddle, the measure-zero way to reach the boundary
    equilibrium.
    """
    interior = np.array([
        [0.0, 8.0], [1.5, 8.0], [2.0, 7.0], [-2.0, 7.0],
        [0.5, 7.5], [1.0, 6.5], [3.0, 3.0], [-3.0, 5.0],
        [4.0, 6.0], [-1.0, 1.0], [2.5, 0.5],
    ])
    x_eq, v_stable = example2_blocking_equilibrium()
    return np.vstack([interior, x_eq + 1e-5 * v_stable])


def _example1_bound(xs) -> np.ndarray:
    """Stacked StateBox bound v(x) = exp(-|x|^2 / 2) (1, 1) on (N, 3) states.

    One (1, 3) @ (3, 1) product per row gives |x|^2 with the bits of the
    one-state x @ x; a row sum or einsum need not.
    """
    xs = np.asarray(xs, dtype=float)
    sq = np.matmul(xs[:, None], xs[..., None])[:, 0]
    return np.exp(-0.5 * sq).repeat(2, axis=1)


def example1_setup(seed: int) -> Example1System:
    """Seeded instance of the randomized saturation benchmark.

    Draws N (3x3, row-major) from the deterministic normal stream, sets
    A = -I + N, B = [[1,0],[0,1],[0,0]], and K from LQR with Q = I, R = I.
    A draw is retried with the next seed when the LQR synthesis fails or A
    itself is not Hurwitz (certification needs the open loop stable), up
    to EXAMPLE1_MAX_ATTEMPTS seeds; the returned record reports the seed
    actually used and the attempt count.
    """
    b = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    weights = LqrWeights(q=np.eye(3), r=np.eye(2))
    for attempt in range(EXAMPLE1_MAX_ATTEMPTS):
        used = int(seed) + attempt
        noise = RandomSource(used).normals((3, 3))
        a = -np.eye(3) + noise
        stable, _ = hurwitz_check(a)
        if not stable:
            continue
        try:
            care = solve_care(a, b, weights)
        except CareError:
            continue
        return Example1System(a=a, b=b, k=care.k, bound=_example1_bound,
                              seed_used=used, attempts=attempt + 1)
    raise RuntimeError(
        f"no certifiable draw within {EXAMPLE1_MAX_ATTEMPTS} seeds starting at {seed}"
    )
