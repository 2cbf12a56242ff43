"""Independent references for the benchmark's correctness gates.

Nothing here imports lurestab: the gates must not trust the code they
check.  Both references are numpy-only and run outside the timed region.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def _hamiltonian_clear(a_t: np.ndarray, b: np.ndarray, k: np.ndarray,
                       gamma: float) -> bool:
    """True iff A_t is Hurwitz and |K (sI - A_t)^-1 B|_inf < gamma.

    Bounded-real test (Boyd, Balakrishnan & Kabamba 1989): with A_t
    Hurwitz, the norm bound holds iff the Hamiltonian
    [[A_t, B B^T / gamma^2], [-K^T K, -A_t^T]] has no eigenvalue on the
    imaginary axis.
    """
    if float(np.linalg.eigvals(a_t).real.max()) >= 0.0:
        return False
    ham = np.block([[a_t, b @ b.T / gamma ** 2], [-k.T @ k, -a_t.T]])
    eig = np.linalg.eigvals(ham)
    axis_tol = 1e-9 * (1.0 + float(np.linalg.norm(ham)))
    return bool(np.all(np.abs(eig.real) > axis_tol))


def eta_reference(a, b, k, rho: float = 1.0) -> float:
    """Supremum of the certifiable contraction rate, by bisection on eta.

    Setting lambda = 1 in the homogeneous certificate inequality and taking
    a Schur complement leaves a bounded-real Riccati inequality, so eta is
    certifiable iff A + B K / (2 rho) + eta I is Hurwitz and the H-infinity
    norm of K (sI - A - B K / (2 rho) - eta I)^-1 B stays below 2 rho.  The
    condition is monotone in eta.  Returns 0.0 when no rate is certifiable.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    k = np.asarray(k, dtype=float)
    n = a.shape[0]
    a_cl = a + b @ k / (2.0 * rho)
    gamma = 2.0 * rho
    eye = np.eye(n)
    hi = -float(np.linalg.eigvals(a_cl).real.max())
    if hi <= 0.0 or not _hamiltonian_clear(a_cl, b, k, gamma):
        return 0.0
    lo = 0.0
    while hi - lo > 1e-13 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if _hamiltonian_clear(a_cl + mid * eye, b, k, gamma):
            lo = mid
        else:
            hi = mid
    return lo


def project_brute_force(rows: np.ndarray, bounds: np.ndarray,
                        z: np.ndarray) -> np.ndarray:
    """Euclidean projections of z onto {u : A u <= b}, by active-set enumeration.

    rows (N, p, m), bounds (N, p) and z (N, m) stack N independent
    problems with the same row count.  Every subset of at most m rows is
    taken as the active set; the nearest candidate that satisfies all rows
    is the projection, because the projection lies in the relative
    interior of exactly one face.
    """
    rows = np.asarray(rows, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    z = np.asarray(z, dtype=float)
    count, p, m = rows.shape
    best = np.full((count, m), np.nan)
    best_dist = np.full(count, np.inf)
    feas_tol = 1e-10 * (1.0 + np.abs(bounds).max(axis=1))
    for size in range(0, m + 1):
        for active in combinations(range(p), size):
            if size == 0:
                cand = z.copy()
            else:
                a_s = rows[:, active, :]                       # (N, s, m)
                gram = a_s @ a_s.transpose(0, 2, 1)            # (N, s, s)
                det = np.linalg.det(gram)
                ok = np.abs(det) > 1e-12
                gram[~ok] = np.eye(size)
                resid = (a_s @ z[:, :, None])[:, :, 0] - bounds[:, active]
                mult = np.linalg.solve(gram, resid[:, :, None])
                cand = z - (a_s.transpose(0, 2, 1) @ mult)[:, :, 0]
                cand[~ok] = np.nan
            viol = ((rows @ cand[:, :, None])[:, :, 0] - bounds).max(axis=1)
            dist = np.linalg.norm(cand - z, axis=1)
            take = (viol <= feas_tol) & (dist < best_dist)
            best[take] = cand[take]
            best_dist[take] = dist[take]
    return best


def cocoercivity_violation(z1, z2, u1, u2) -> np.ndarray:
    """Per pair: |du|^2 - du^T dz, which a projection keeps <= 0."""
    du = np.asarray(u1) - np.asarray(u2)
    dz = np.asarray(z1) - np.asarray(z2)
    return (du * du).sum(axis=1) - (du * dz).sum(axis=1)
