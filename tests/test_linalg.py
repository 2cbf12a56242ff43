import numpy as np
import pytest

from lurestab.linalg import cholesky, is_neg_semidefinite, solve_lyapunov
from lurestab.sim import weighted_norms

# The sym_eig tests cover the symmetric eigenvalue step of
# is_neg_semidefinite: np.linalg.eigh on the validated, symmetrized input.


def test_sym_eig_diagonal():
    ok, lam = is_neg_semidefinite(np.diag([1.0, 2.0]))
    assert not ok and np.isclose(lam, 2.0)
    ok, lam = is_neg_semidefinite(np.diag([-2.0, -1.0]))
    assert ok and np.isclose(lam, -1.0)


def test_sym_eig_closed_form_2x2():
    # characteristic polynomial of [[2,1],[1,2]]: l^2 - 4l + 3 -> roots 1, 3
    ok, lam = is_neg_semidefinite([[2.0, 1.0], [1.0, 2.0]])
    assert not ok and np.isclose(lam, 3.0)
    ok, lam = is_neg_semidefinite([[-2.0, -1.0], [-1.0, -2.0]])
    assert ok and np.isclose(lam, -1.0)


def test_sym_eig_zero_matrix():
    assert is_neg_semidefinite(np.zeros((2, 2))) == (True, 0.0)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        is_neg_semidefinite([[0.0, 1.0], [0.0, 0.0]])


def test_sym_eig_reconstruction_and_trace_random():
    # the gate reports exactly the top eigenvalue of an eigh decomposition
    # that reconstructs S and carries its trace
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 21))
        g = rng.standard_normal((n, n))
        s = 0.5 * (g + g.T)
        scale = max(np.linalg.norm(s), 1e-30)
        w, v = np.linalg.eigh(s)
        assert np.linalg.norm(v @ np.diag(w) @ v.T - s) <= 1e-9 * scale
        assert abs(w.sum() - np.trace(s)) <= 1e-9 * scale
        ok, lam = is_neg_semidefinite(s)
        assert lam == w[-1] and ok == (w[-1] <= 0.0)


def test_is_neg_semidefinite_cases():
    ok, lam = is_neg_semidefinite(-np.eye(2), 0.0)
    assert ok and np.isclose(lam, -1.0)
    ok, lam = is_neg_semidefinite(np.eye(2), 0.0)
    assert not ok and np.isclose(lam, 1.0)
    # eigenvalues of [[0,1],[1,0]] are -1 and +1
    ok, lam = is_neg_semidefinite([[0.0, 1.0], [1.0, 0.0]], 1e-9)
    assert not ok and np.isclose(lam, 1.0)


def test_is_neg_semidefinite_rejects_negative_tol():
    with pytest.raises(ValueError):
        is_neg_semidefinite(np.eye(2), -1e-3)


def test_cholesky_identity():
    assert np.allclose(cholesky(np.eye(3)), np.eye(3))


def test_cholesky_hand_factor():
    # [[4,2],[2,5]] = L L^T with L = [[2,0],[1,2]]
    fac = cholesky([[4.0, 2.0], [2.0, 5.0]])
    assert np.allclose(fac, [[2.0, 0.0], [1.0, 2.0]])


def test_cholesky_indefinite_returns_none():
    # det = -3 < 0, not positive definite
    assert cholesky([[1.0, 2.0], [2.0, 1.0]]) is None


def test_cholesky_agrees_with_eigensolver_on_random_samples():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        g = rng.standard_normal((n, n))
        spd = g @ g.T + (0.1 + rng.random()) * np.eye(n)
        fac = cholesky(spd)
        assert fac is not None
        assert np.linalg.norm(fac @ fac.T - spd) <= 1e-10 * max(1.0, np.linalg.norm(spd))
        ok, lam = is_neg_semidefinite(-spd, 0.0)
        assert ok and lam < 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        g = rng.standard_normal((n, n))
        indef = 0.5 * (g + g.T)
        indef -= np.linalg.eigvalsh(indef).mean() * np.eye(n)
        if np.linalg.eigvalsh(indef)[-1] <= 1e-9:
            continue
        assert cholesky(indef) is None
        ok, _ = is_neg_semidefinite(-indef, 0.0)
        assert not ok


def _kronecker_lyapunov(a, q):
    """Reference solve of A^T X + X A + Q = 0 as one n^2 x n^2 linear system."""
    n = a.shape[0]
    eye = np.eye(n)
    # row-major vec: vec(A^T X) = (A^T kron I) vec X, vec(X A) = (I kron A^T) vec X
    x = np.linalg.solve(np.kron(a.T, eye) + np.kron(eye, a.T), -q.reshape(-1))
    return x.reshape(n, n)


def test_solve_lyapunov_matches_kronecker_reference():
    rng = np.random.default_rng(19)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n))
        # shift the spectrum into the open left half-plane, by a random margin
        a -= (np.linalg.eigvals(a).real.max() + rng.uniform(0.05, 2.0)) * np.eye(n)
        g = rng.standard_normal((n, n))
        q = g @ g.T
        x = solve_lyapunov(a, q)
        assert np.abs(x - _kronecker_lyapunov(a, q)).max() <= 1e-11 * (1.0 + np.abs(x).max())
        assert np.array_equal(x, x.T)


def test_weighted_norm_cases():
    # P-weighted norms have one path: sim.weighted_norms on a stack of states
    assert np.allclose(weighted_norms(np.array([[3.0, 4.0]]), np.eye(2)), [5.0])
    assert np.allclose(weighted_norms(np.array([[1.0, 0.0]]), np.diag([4.0, 1.0])), [2.0])
    assert weighted_norms(np.zeros((1, 2)), np.eye(2))[0] == 0.0
    stack = np.array([[3.0, 4.0], [1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(weighted_norms(stack, np.diag([4.0, 1.0])), [np.sqrt(52.0), 2.0, 0.0])


def test_weighted_norm_dimension_mismatch():
    with pytest.raises(ValueError):
        weighted_norms(np.array([[1.0, 2.0, 3.0]]), np.eye(2))
