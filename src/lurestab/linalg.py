"""Dense linear-algebra kernel for the certification pipeline.

Everything here operates on small (n <= ~50) real matrices: symmetric
eigendecomposition, Cholesky factorization with failure-as-value, LU solves
with explicit pivot diagnostics, P-weighted norms, and the one
stable-subspace Riccati kernel that serves both LQR and the certificate
search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYM_TOL = 1e-10


class EigenConvergenceError(RuntimeError):
    """Raised when the symmetric eigensolver fails to converge."""


class SingularMatrixError(ValueError):
    """Raised when a linear solve meets a pivot below the singularity tolerance."""

    def __init__(self, pivot: float, threshold: float):
        self.pivot = pivot
        self.threshold = threshold
        super().__init__(
            f"matrix is singular to tolerance: pivot {pivot:.3e} <= threshold {threshold:.3e}"
        )


@dataclass(frozen=True)
class EigenResult:
    """Eigendecomposition S = V diag(w) V^T with w ascending, V orthonormal."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array and require finite entries."""
    m = np.atleast_2d(np.asarray(a, dtype=float))
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
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


def sym_eig(s) -> EigenResult:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending."""
    m = require_symmetric(s)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        off = m - np.diag(np.diag(m))
        raise EigenConvergenceError(
            f"eigensolver did not converge for dim {m.shape[0]} "
            f"(off-diagonal Frobenius norm {np.linalg.norm(off):.3e})"
        ) from exc
    return EigenResult(eigenvalues=w, eigenvectors=v)


def is_neg_semidefinite(s, tol: float = 0.0) -> tuple[bool, float]:
    """Check S <= tol * I; returns (verdict, largest eigenvalue)."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    lam_max = float(sym_eig(s).eigenvalues[-1])
    return lam_max <= tol, lam_max


def cholesky(s) -> np.ndarray | None:
    """Lower-triangular L with L L^T = S, or None if S is not positive definite."""
    m = require_symmetric(s)
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None


def solve_linear(m, rhs) -> np.ndarray:
    """Solve M x = rhs by LU with partial pivoting.

    rhs may be a vector or a matrix of stacked columns.  A pivot smaller than
    1e-12 times the largest entry of M raises SingularMatrixError carrying the
    offending pivot magnitude.
    """
    a = as_matrix(m, "M").copy()
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"M must be square, got shape {a.shape}")
    b = np.array(rhs, dtype=float)
    vector_rhs = b.ndim == 1
    if vector_rhs:
        b = b.reshape(-1, 1)
    if b.ndim != 2 or b.shape[0] != n:
        raise ValueError(f"rhs shape {np.shape(rhs)} does not match M dim {n}")

    threshold = 1e-12 * float(np.abs(a).max())
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        pivot = abs(a[p, k])
        if pivot <= threshold:
            raise SingularMatrixError(pivot=float(pivot), threshold=threshold)
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        factors = a[k + 1:, k] / a[k, k]
        a[k + 1:, k:] -= np.outer(factors, a[k, k:])
        b[k + 1:] -= np.outer(factors, b[k])

    x = np.empty_like(b)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - a[i, i + 1:] @ x[i + 1:]) / a[i, i]
    return x[:, 0] if vector_rhs else x


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


def weighted_norm(x, p_chol: np.ndarray) -> float:
    """P-weighted norm sqrt(x^T P x) given a Cholesky factor P = L L^T."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or p_chol.shape[1] != v.shape[0]:
        raise ValueError(
            f"dimension mismatch: x has shape {v.shape}, factor {p_chol.shape}"
        )
    return float(np.linalg.norm(p_chol.T @ v))
