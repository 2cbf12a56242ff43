"""Dense linear-algebra kernel for the certification pipeline.

Everything here operates on small (n <= ~50) real matrices: input
validation, the negative-semidefiniteness gate, Cholesky factorization
with failure-as-value, and the one stable-subspace Riccati kernel that
serves LQR, the certificate search and Lyapunov solves.
"""

from __future__ import annotations

import numpy as np

SYM_TOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array and require finite entries."""
    m = np.atleast_2d(np.asarray(a, dtype=float))
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


class DataOverflowError(ValueError):
    """A matrix formed from finite inputs passes the float range."""


def require_no_overflow(m: np.ndarray, what: str) -> np.ndarray:
    """m, formed from finite inputs with overflow ignored, when it is finite.

    Otherwise DataOverflowError names what overflowed.
    """
    if not np.isfinite(m).all():
        raise DataOverflowError(f"{what} overflows the float range")
    return m


def require_symmetric(s, name: str = "matrix") -> np.ndarray:
    """Validate symmetry to relative tolerance and return the symmetrized array."""
    m = as_matrix(s, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > SYM_TOL * scale:
        raise ValueError(f"{name} is not symmetric")
    return 0.5 * (m + m.T)


def is_neg_semidefinite(s, tol: float = 0.0) -> tuple[bool, float]:
    """Check S <= tol * I; returns (verdict, largest eigenvalue)."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    # eigh, not eigvalsh: LAPACK's eigenvalues-only path differs in the
    # trailing digits (-4.6712616e-08 against -4.6712615e-08 on example 1's
    # certificate block), and this value is written to certificate.json
    lam_max = float(np.linalg.eigh(require_symmetric(s))[0][-1])
    return lam_max <= tol, lam_max


def cholesky(s) -> np.ndarray | None:
    """Lower-triangular L with L L^T = S, or None if S is not positive definite."""
    m = require_symmetric(s)
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None


class RiccatiError(RuntimeError):
    """The Hamiltonian has no stable invariant subspace of graph form."""


SIGN_MAX_ITERS = 100


def _hamiltonian_sign(h: np.ndarray) -> np.ndarray:
    """Matrix sign function by the scaled Newton iteration Z <- (cZ + Z^-1/c)/2.

    c = |det Z|^(-1/N) is the determinantal scaling.  The iteration
    converges only when no eigenvalue of h lies on the imaginary axis;
    a singular iterate or a stalled iteration raises RiccatiError.
    """
    z = h
    dim = h.shape[0]
    prev_step = np.inf
    for _ in range(SIGN_MAX_ITERS):
        try:
            z_inv = np.linalg.inv(z)
        except np.linalg.LinAlgError as exc:
            raise RiccatiError("Hamiltonian is singular (eigenvalue at 0)") from exc
        c = np.exp(-np.linalg.slogdet(z)[1] / dim)
        z_next = 0.5 * (c * z + z_inv / c)
        step = float(np.abs(z_next - z).sum() / np.abs(z_next).sum())
        z = z_next
        # quadratic convergence ends on a roundoff floor set by how close
        # the spectrum is to the axis: stop there, the caller checks X
        if step <= 1e-12 or (step <= 1e-6 and step >= prev_step):
            return z
        prev_step = step
    raise RiccatiError("sign iteration did not converge: Hamiltonian eigenvalue "
                       "on or near the imaginary axis")


def stable_riccati(a, r, q) -> np.ndarray:
    """Stabilizing solution X of A^T X + X A + X R X + Q = 0 (R, Q symmetric).

    X spans the stable invariant subspace of the Hamiltonian
    H = [[A, R], [-Q, -A^T]] as range [I; X] (Laub 1979).  The subspace
    comes from the matrix sign function W = sign(H), whose W + I
    annihilates it, so X solves [W12; W22 + I] X = -[W11 + I; W21]
    (Roberts 1971).  Unlike an eigenvector basis this stays exact for
    defective H.  The answer is checked: A + R X must be Hurwitz and the
    residual small, else RiccatiError (no stabilizing solution, e.g. an
    uncontrollable unstable mode).
    """
    a = as_matrix(a, "A")
    r = require_symmetric(r, "R")
    q = require_symmetric(q, "Q")
    n = a.shape[0]
    if a.shape != (n, n) or r.shape != (n, n) or q.shape != (n, n):
        raise ValueError("A, R and Q must be square with matching dims")
    w = _hamiltonian_sign(np.block([[a, r], [-q, -a.T]]))
    eye = np.eye(n)
    lhs = np.vstack([w[:n, n:], w[n:, n:] + eye])
    rhs = -np.vstack([w[:n, :n] + eye, w[n:, :n]])
    x = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    x = 0.5 * (x + x.T)
    residual = float(np.abs(a.T @ x + x @ a + x @ r @ x + q).max())
    scale = float(np.abs(q).max() + np.abs(x).max()
                  * (2.0 * np.abs(a).max() + np.abs(r).max() * np.abs(x).max()))
    if not np.all(np.isfinite(x)) or residual > 1e-8 * (1.0 + scale):
        raise RiccatiError(f"stable subspace is not a graph (residual {residual:.3e})")
    if float(np.linalg.eigvals(a + r @ x).real.max()) >= 0.0:
        raise RiccatiError("Riccati solution is not stabilizing")
    return x


def solve_lyapunov(a, q) -> np.ndarray:
    """Solution X of A^T X + X A + Q = 0 for Hurwitz A: the Riccati kernel
    with R = 0.  A with an eigenvalue in the closed right half-plane raises
    RiccatiError."""
    a = as_matrix(a, "A")
    n = a.shape[0]
    return stable_riccati(a, np.zeros((n, n)), q)
