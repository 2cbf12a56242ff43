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

from .families import HalfspacePlusBox, ProjectionController, StateBox, eval_controller
from .linalg import (
    RiccatiError,
    SingularMatrixError,
    as_matrix,
    cholesky,
    require_symmetric,
    solve_linear,
    stable_riccati,
)
from .lure import LtiPlant
from .rng import RandomSource
from .sim import ClosedLoopSystem


class CareError(RuntimeError):
    """Riccati solve failed; carries the residual reached, if any."""

    def __init__(self, message: str, residual_history: tuple[float, ...] = ()):
        self.residual_history = residual_history
        super().__init__(message)


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
    """Stabilizing CARE solution X, gain K = -R^-1 B^T X, and its residual
    (``residual_history`` is the 1-tuple of that residual)."""

    x: np.ndarray
    k: np.ndarray
    residual: float
    residual_history: tuple[float, ...]


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


def solve_lyapunov(a, q) -> np.ndarray:
    """Solve A^T X + X A + Q = 0 through the n^2 x n^2 Kronecker system."""
    a = as_matrix(a, "A")
    q = require_symmetric(q, "Q")
    n = a.shape[0]
    if a.shape[1] != n or q.shape[0] != n:
        raise ValueError("A and Q must be square with matching dims")
    # row-major vec: vec(A^T X) = (A^T kron I) vec X, vec(X A) = (I kron A^T) vec X
    eye = np.eye(n)
    system = np.kron(a.T, eye) + np.kron(eye, a.T)
    try:
        x = solve_linear(system, -q.reshape(-1))
    except SingularMatrixError as exc:
        raise ValueError(
            "A not admissible: eigenvalue pair sums to zero (singular Lyapunov system)"
        ) from exc
    x = x.reshape(n, n)
    return 0.5 * (x + x.T)


def care_residual(a, b, x, weights: LqrWeights) -> float:
    rinv_btx = solve_linear(weights.r, b.T @ x)
    return float(np.linalg.norm(a.T @ x + x @ a - x @ b @ rinv_btx + weights.q))


def solve_care(a, b, weights: LqrWeights, tol: float = 1e-10,
               max_iter: int = 60) -> CareSolution:
    """Stabilizing solution of A^T X + X A - X B R^-1 B^T X + Q = 0.

    X comes from the stable invariant subspace of the Hamiltonian
    [[A, -B R^-1 B^T], [-Q, -A^T]] through ``linalg.stable_riccati``, the
    kernel the certificate search uses.  A residual above
    tol * (1 + |X|) raises CareError, as does a pair with no stabilizing
    solution (an uncontrollable unstable or undetectable axis mode).
    ``residual_history`` holds the one residual; ``max_iter`` is kept for
    compatibility and not used.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValueError("B rows must match A dim")
    g = b @ solve_linear(weights.r, b.T)
    try:
        x = stable_riccati(a, -0.5 * (g + g.T), weights.q)
    except RiccatiError as exc:
        raise CareError(f"no stabilizing Riccati solution: {exc}") from exc
    k = -solve_linear(weights.r, b.T @ x)
    res = care_residual(a, b, x, weights)
    if res > tol * (1.0 + float(np.linalg.norm(x))):
        raise CareError(f"Riccati residual {res:.3e} above tolerance",
                        residual_history=(res,))
    return CareSolution(x=x, k=k, residual=res, residual_history=(res,))


def build_saturation_system(a, b, k, bound) -> ClosedLoopSystem:
    """Closed loop dx/dt = A x + B sat_{v(x)}(K x) as a projection controller."""
    plant = LtiPlant(a=a, b=b)
    k = as_matrix(k, "K")
    if k.shape != (plant.input_dim, plant.state_dim):
        raise ValueError(
            f"K must be ({plant.input_dim},{plant.state_dim}), got {k.shape}"
        )
    controller = ProjectionController(gain=k, family=StateBox(bound=bound))
    return ClosedLoopSystem(plant=plant, controller=controller)


def build_cbf_system(h, grad_h, alpha, k, u_bar: float) -> ClosedLoopSystem:
    """Single integrator filtered by one CBF row plus symmetric input bounds.

    Feasible controls at x satisfy -grad_h(x)^T u <= alpha(h(x)) and
    |u_i| <= u_bar; alpha must be strictly increasing with alpha(0) = 0.
    """
    if u_bar <= 0:
        raise ValueError("u_bar must be positive")
    if abs(float(alpha(0.0))) > 1e-12:
        raise ValueError("alpha(0) must be zero")
    if not (float(alpha(1.0)) > 0.0 > float(alpha(-1.0))):
        raise ValueError("alpha must be strictly increasing")
    k = as_matrix(k, "K")
    n = k.shape[1]
    if k.shape[0] != n:
        raise ValueError("single-integrator gain must be square")
    plant = LtiPlant(a=np.zeros((n, n)), b=np.eye(n))
    family = HalfspacePlusBox(
        normal=lambda x: -np.asarray(grad_h(x), dtype=float),
        offset=lambda x: float(alpha(float(h(x)))),
        box_bound=float(u_bar),
    )
    return ClosedLoopSystem(
        plant=plant, controller=ProjectionController(gain=k, family=family)
    )


EXAMPLE2_GAIN = np.array([[-2.0, -0.5], [-0.5, -1.0]])
EXAMPLE2_U_BAR = 1.0
EXAMPLE2_CENTER = np.array([0.0, 4.0])
EXAMPLE2_RADIUS = 2.0
# -lambda_max of the symmetric gain: eigenvalues are (-3 +- sqrt(2))/2
EXAMPLE2_ETA = (3.0 - np.sqrt(2.0)) / 2.0


def example2_h(x) -> float:
    """Barrier for the disk obstacle of radius 2 centered at (0, 4)."""
    x = np.asarray(x, dtype=float)
    return float(x[0] ** 2 + (x[1] - 4.0) ** 2 - 4.0)


def example2_grad_h(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.array([2.0 * x[0], 2.0 * (x[1] - 4.0)])


def example2_system() -> ClosedLoopSystem:
    """Obstacle-avoidance single integrator with the benchmark constants."""
    return build_cbf_system(example2_h, example2_grad_h, lambda r: r,
                            EXAMPLE2_GAIN, EXAMPLE2_U_BAR)


def example2_blocking_equilibrium() -> tuple[np.ndarray, np.ndarray]:
    """Blocking equilibrium on the obstacle boundary and its stable direction.

    A non-origin equilibrium requires the nominal command to sit in the
    normal cone of the active barrier row: K x = -s grad_h(x) with s >= 0
    and x on the circle.  Writing x = center + w reduces this to the scalar
    root |(K + 2 s I)^-1 K center|_2 = radius, solved here by bisection.
    The equilibrium is a saddle of the sliding flow (attracting normal to
    the boundary, repelling along it), so only its stable eigendirection
    reaches it; the direction comes from the Jacobian of the closed-loop
    field on the active branch.
    """
    k = EXAMPLE2_GAIN
    rhs = -k @ EXAMPLE2_CENTER

    def offset_norm(s):
        w = solve_linear(k + 2.0 * s * np.eye(2), rhs)
        return float(w @ w) - EXAMPLE2_RADIUS ** 2

    # det(K + 2sI) vanishes near s = 1.1; the offset shrinks monotonically
    # from +inf to 0 on (1.1, inf), so [1.2, 50] brackets the root
    lo, hi = 1.2, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if offset_norm(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    s_star = 0.5 * (lo + hi)
    x_eq = EXAMPLE2_CENTER + solve_linear(k + 2.0 * s_star * np.eye(2), rhs)

    sys = example2_system()
    eps = 1e-7
    jac = np.zeros((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = eps
        f_plus = eval_controller(sys.controller, x_eq + e).u
        f_minus = eval_controller(sys.controller, x_eq - e).u
        jac[:, j] = (f_plus - f_minus) / (2.0 * eps)
    tr = jac[0, 0] + jac[1, 1]
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    disc = np.sqrt(max(tr * tr - 4.0 * det, 0.0))
    lam_stable = 0.5 * (tr - disc)
    v = np.array([jac[0, 1], lam_stable - jac[0, 0]])
    if np.linalg.norm(v) < 1e-12:
        v = np.array([lam_stable - jac[1, 1], jac[1, 0]])
    v = v / np.linalg.norm(v)
    if example2_grad_h(x_eq) @ v < 0:
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


def example1_setup(seed: int, max_attempts: int = 10) -> Example1System:
    """Seeded instance of the randomized saturation benchmark.

    Draws N (3x3, row-major) from the deterministic normal stream, sets
    A = -I + N, B = [[1,0],[0,1],[0,0]], and K from LQR with Q = I, R = I.
    A draw is retried with the next seed when the LQR synthesis fails or A
    itself is not Hurwitz (certification needs the open loop stable); the
    returned record reports the seed actually used and the attempt count.
    """
    b = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    weights = LqrWeights(q=np.eye(3), r=np.eye(2))
    for attempt in range(max_attempts):
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
        bound = lambda x: np.exp(-0.5 * float(np.asarray(x) @ np.asarray(x))) * np.ones(2)
        return Example1System(a=a, b=b, k=care.k, bound=bound,
                              seed_used=used, attempts=attempt + 1)
    raise RuntimeError(
        f"no certifiable draw within {max_attempts} seeds starting at {seed}"
    )
