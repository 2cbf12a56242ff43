import itertools
import warnings
from math import inf

import numpy as np
import pytest

from lurestab import families
from lurestab.families import (
    ROUNDING_SLACK,
    SCREEN_MIN_ROWS,
    AffineInequalities,
    HalfspacePlusBox,
    InfeasibleSetError,
    ProjectionController,
    ProjectionConvergenceError,
    StateBox,
    _dual_active_set,
    _halfspace_box_interior,
    _halfspace_box_walk,
    constraint_rows,
    make_controller_evaluator,
    proj_polyhedron,
    project_feasible,
    stacked_projector,
    strictly_feasible,
)
from lurestab.sim import SimConfig, integrate
from lurestab.synthesis import example2_grid, example2_system

K_CBF = np.array([[-2.0, -0.5], [-0.5, -1.0]])


def cbf_family(u_bar: float = 1.0) -> HalfspacePlusBox:
    # disk obstacle of radius 2 centered at (0, 4): h(x) = x1^2 + (x2-4)^2 - 4
    def grad_h(xs):
        return np.stack([2.0 * xs[:, 0], 2.0 * (xs[:, 1] - 4.0)], axis=1)

    def h(xs):
        return xs[:, 0] ** 2 + (xs[:, 1] - 4.0) ** 2 - 4.0

    return HalfspacePlusBox(data=lambda xs: (-grad_h(xs), h(xs)), box_bound=u_bar)


def constant_halfspace_box(a, b0: float, u_bar: float = 1.0) -> HalfspacePlusBox:
    """The same halfspace a^T u <= b0 at every state of a stack."""
    a = np.asarray(a, dtype=float)
    return HalfspacePlusBox(
        data=lambda xs: (np.tile(a, (len(xs), 1)), np.full(len(xs), float(b0))), box_bound=u_bar)


def constant_box(v) -> StateBox:
    """The same bounds -v <= u <= v at every state of a stack."""
    v = np.asarray(v, dtype=float)
    return StateBox(bound=lambda xs: np.tile(v, (len(xs), 1)))


def squared_norms(xs):
    # one (1, n) @ (n, 1) product per row rounds as the one-state x @ x
    return np.matmul(xs[:, None, :], xs[:, :, None])[:, 0]


def box_family(scale: float = 0.5) -> StateBox:
    return StateBox(bound=lambda xs: np.exp(-scale * squared_norms(xs)) * np.ones(2))


def grid_projection_oracle(z, rows, bounds, lo, hi, resolution=1e-3):
    """Brute-force argmin of |u - z| over a grid restricted to the rows."""
    axes = [np.arange(lo[i], hi[i] + resolution / 2, resolution) for i in range(len(z))]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    feas = np.all(pts @ np.asarray(rows).T <= np.asarray(bounds) + 1e-12, axis=1)
    pts = pts[feas]
    dist2 = ((pts - np.asarray(z)) ** 2).sum(axis=1)
    return pts[np.argmin(dist2)]


def test_proj_box_cases():
    box = constant_box([1.0, 1.0])
    assert np.allclose(project_feasible(box, [0.0], [2.0, -3.0]).u, [1.0, -1.0])
    assert np.allclose(project_feasible(box, [0.0], [0.2, -0.3]).u, [0.2, -0.3])
    assert np.allclose(project_feasible(box, [0.0], [0.5, -2.0]).u, [0.5, -1.0])


def test_proj_box_empty_raises():
    # a negative bound: -v > v, the box is empty
    with pytest.raises(ValueError):
        project_feasible(constant_box([-1.0]), [0.0], [0.0])


def test_proj_halfspace_cases():
    # u_bar = 10 keeps the box slack, so these are projections onto the halfspace
    # hand formula: excess 2, |a|^2 = 2 -> z - (1,1)
    assert _halfspace_box_walk([3.0, 0.0], [1.0, 1.0], 1.0, 10.0)[0] == [2.0, -1.0]
    assert _halfspace_box_walk([0.0, 2.0], [0.0, 1.0], 1.0, 10.0)[0] == [0.0, 1.0]
    z = [0.0, 0.5]
    assert _halfspace_box_walk(z, [0.0, 1.0], 1.0, 10.0) == (z, 0.0, 0)


def test_proj_halfspace_degenerate():
    # a zero normal: the row is 0 <= b, empty for b < 0 and every z for b >= 0
    with pytest.raises(InfeasibleSetError, match="has no interior"):
        project_feasible(constant_halfspace_box([0.0], -1.0, 10.0), [0.0], [1.0])
    z = [1.0]
    assert _halfspace_box_walk(z, [0.0], 0.5, 10.0) == (z, 0.0, 0)
    res = project_feasible(constant_halfspace_box([0.0], 0.5, 10.0), [0.0], z)
    assert res.u.tolist() == z and res.active_constraints == () and res.iterations == 0


def test_proj_halfspace_non_finite_commands():
    # an infinite entry is taken at its box clamp, then projected
    assert _halfspace_box_walk([np.inf, 0.0], [1.0, 1.0], 0.5, 1.0) == ([0.75, -0.25], 0.25, 1)
    assert _halfspace_box_walk([-np.inf, np.inf], [1.0, 1.0], 0.5, 1.0)[0] == [-1.0, 1.0]
    # a NaN entry has no projection, though the set has interior
    with pytest.raises(InfeasibleSetError, match=r"command \[nan, 0.0\] has a NaN entry"):
        _halfspace_box_walk([np.nan, 0.0], [1.0, 1.0], 0.5, 1.0)


BOX_ROWS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
BOX_BOUNDS = np.ones(4)


def test_proj_polyhedron_matches_box():
    res = proj_polyhedron([2.0, 2.0], BOX_ROWS, BOX_BOUNDS)
    assert np.allclose(res.u, [1.0, 1.0], atol=1e-9)
    assert res.kkt_residual <= 1e-12


def test_proj_polyhedron_grid_oracle_case():
    # rows: u2 >= -0.45 plus the box [-1,1]^2
    rows = np.vstack([[0.0, -1.0], BOX_ROWS])
    bounds = np.concatenate([[0.45], BOX_BOUNDS])
    z = [-3.25, -6.5]
    oracle = grid_projection_oracle(z, rows, bounds, lo=(-1, -1), hi=(1, 1))
    assert np.allclose(oracle, [-1.0, -0.45], atol=5e-4)
    res = proj_polyhedron(z, rows, bounds)
    assert np.allclose(res.u, [-1.0, -0.45], atol=1e-8)
    assert np.allclose(res.u, oracle, atol=1e-3)


def test_proj_polyhedron_interior_point():
    res = proj_polyhedron([0.0, 0.0], BOX_ROWS, BOX_BOUNDS)
    assert np.allclose(res.u, [0.0, 0.0])
    assert res.active_constraints == ()


def test_proj_polyhedron_zero_rows():
    rows = np.vstack([[0.0, 0.0], BOX_ROWS])
    ok = proj_polyhedron([2.0, 0.0], rows, np.concatenate([[1.0], BOX_BOUNDS]))
    assert np.allclose(ok.u, [1.0, 0.0])
    with pytest.raises(InfeasibleSetError):
        proj_polyhedron([2.0, 0.0], rows, np.concatenate([[-1.0], BOX_BOUNDS]))


def test_proj_polyhedron_agrees_with_box_random():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        m = int(rng.integers(1, 4))
        v = rng.random(m) + 0.1
        rows = np.vstack([np.eye(m), -np.eye(m)])
        bounds = np.concatenate([v, v])
        z = rng.standard_normal(m) * 3.0
        res = proj_polyhedron(z, rows, bounds)
        assert np.abs(res.u - project_feasible(constant_box(v), [0.0], z).u).max() <= 1e-8


# the acceptance suite's polyhedron; its first row passes through the box
# corner (2, 2) when |x|^2 = 20, where three rows meet at one point
POLY_ROWS = np.vstack([[1.0, 1.0], [1.0, -2.0], [-1.5, 0.3], np.eye(2), -np.eye(2)])


def poly_bounds(x_norm2: float) -> np.ndarray:
    return np.array([2.0 + 0.1 * x_norm2, 3.0, 2.5, 2.0, 2.0, 2.0, 2.0])


def brute_force_projection(z, rows, bounds):
    """Nearest candidate over every set of at most m independent rows held as equalities.

    The projection lies in the relative interior of one face, so it is the
    nearest feasible candidate.
    """
    best, best_dist = None, np.inf
    feas_tol = 1e-10 * (1.0 + np.abs(bounds).max())
    for size in range(len(z) + 1):
        for active in itertools.combinations(range(len(rows)), size):
            a_s = rows[list(active)]
            gram = a_s @ a_s.T
            if abs(np.linalg.det(gram)) <= 1e-12:
                continue
            cand = z - a_s.T @ np.linalg.solve(gram, a_s @ z - bounds[list(active)])
            dist = float(np.linalg.norm(cand - z))
            if np.all(rows @ cand <= bounds + feas_tol) and dist < best_dist:
                best, best_dist = cand, dist
    return best


def test_proj_polyhedron_matches_brute_force_enumeration():
    rng = np.random.default_rng(31)
    states = [float(x @ x) for x in rng.standard_normal((100, 2)) * 2.0]
    cases = [(x2, rng.uniform(-10.0, 10.0, 2)) for x2 in states for _ in range(10)]
    # at and just past the degenerate corner
    cases += [(x2, rng.uniform(-10.0, 10.0, 2))
              for x2 in (20.0, 20.00019, 20.01) for _ in range(200)]
    for x2, z in cases:
        bounds = poly_bounds(x2)
        u = proj_polyhedron(z, POLY_ROWS, bounds).u
        expected = brute_force_projection(z, POLY_ROWS, bounds)
        assert np.abs(u - expected).max() <= 1e-10 * (1.0 + np.linalg.norm(z)), (x2, z)


@pytest.mark.parametrize("z", [[0.0], [5.0], [-5.0]])
def test_proj_polyhedron_contradictory_rows_raise(z):
    # u <= -1 and -u <= -1: both rows are nonzero, together they are empty
    with pytest.raises(InfeasibleSetError):
        proj_polyhedron(z, [[1.0], [-1.0]], [-1.0, -1.0])


def slab_family() -> AffineInequalities:
    """[1, 1] u <= 1 + x2 and the box [-x1, x1] x [-1, 1]: a face at x1 = 0, empty below."""
    return AffineInequalities(
        matrix=lambda x: np.vstack([[1.0, 1.0], BOX_ROWS]),
        bound=lambda x: np.array([1.0 + x[1], x[0], 1.0, x[0], 1.0]))


def test_proj_polyhedron_refuses_sets_empty_by_less_than_its_tolerance():
    # at x1 < 0 the rows u1 <= x1 and -u1 <= x1 miss each other by 2 |x1|,
    # below the solve's stopping tolerance from x1 = -1e-12 up
    slab = slab_family()
    for x2 in (-0.5, 0.0, 2.0):
        for x1 in (-1e-9, -1e-11, -1e-12, -1e-13):
            x = np.array([x1, x2])
            with pytest.raises(InfeasibleSetError, match="contradicts the working rows"):
                project_feasible(slab, x, K_CBF @ x)
        # a face, and a strip 2e-12 wide: still projected, within the tolerance
        for x1 in (0.0, 1e-12):
            x = np.array([x1, x2])
            u = project_feasible(slab, x, K_CBF @ x).u
            rows, bounds = constraint_rows(slab, x)
            scale = 1.0 + np.linalg.norm(u) + np.abs(bounds).max()
            assert np.all(rows @ u - bounds <= 1e-12 * scale), x
    # the rows that reach this check alone: u = z violates the second by 2e-12
    with pytest.raises(InfeasibleSetError, match="contradicts the working rows"):
        proj_polyhedron([-1e-12], [[1.0], [-1.0]], [-1e-12, -1e-12])


def test_proj_polyhedron_working_set_cap():
    z = np.array([9.0, 9.0])
    bounds = poly_bounds(20.01)
    res = proj_polyhedron(z, POLY_ROWS, bounds)
    assert res.active_constraints == (3, 4)
    assert res.iterations >= 2
    with pytest.raises(ProjectionConvergenceError, match="working-set changes"):
        proj_polyhedron(z, POLY_ROWS, bounds, max_iter=1)


def test_dual_active_set_ends_on_its_working_faces():
    # rows of norm 0.006 and 0.002, 0.006 rad apart, meet 8e4 from the
    # origin; from far out in their normal cone the solve takes one long
    # step along the first face, whose rounding used to leave that face
    # up to about 1e-8 behind (over 1000 ulps)
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(300):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        rows = np.array([0.006 * np.array([np.cos(angle), np.sin(angle)]),
                         0.002 * np.array([np.cos(angle + 0.006), np.sin(angle + 0.006)])])
        phi = rng.uniform(0.0, 2.0 * np.pi)
        vertex = 8e4 * np.array([np.cos(phi), np.sin(phi)])
        norms = np.linalg.norm(rows, axis=1)
        a, b = rows / norms[:, None], rows @ vertex / norms
        out = angle + rng.uniform(0.0, 0.006)
        z = vertex + 10.0 ** rng.uniform(3.0, 8.0) * np.array([np.cos(out), np.sin(out)])
        u, lam, work, _ = _dual_active_set(z, a, b, 0.0, 100)
        assert sorted(work) == [0, 1]
        assert np.linalg.norm(u - vertex) <= 1e-6 * np.linalg.norm(vertex)
        # a row's value is a sum of terms of size about |a_i| |u| + |b_i|
        ulp = np.spacing(np.abs(a * u).sum(axis=1) + np.abs(b))
        worst = max(worst, float(((a @ u - b) / ulp)[work].max()))
        assert min(lam) > 0.0
        assert np.allclose(z - np.array(lam) @ a[work], u, rtol=0.0,
                           atol=1e-12 * np.linalg.norm(z))
    assert worst <= 4.0, worst


# the controller u*(x) = project_feasible(family, x, K x).u
def test_eval_controller_cbf_inactive():
    # at x = (0,1): h = 5, row 6 u2 <= 5, nominal command feasible
    x = np.array([0.0, 1.0])
    res = project_feasible(cbf_family(), x, K_CBF @ x)
    assert np.allclose(res.u, K_CBF @ [0.0, 1.0], atol=1e-10)


def test_eval_controller_cbf_active():
    # at x = (0, 6.5): h = 2.25, constraint u2 >= -0.45 and box active
    family, x = cbf_family(), np.array([0.0, 6.5])
    res = project_feasible(family, x, K_CBF @ x)
    assert np.allclose(res.u, [-1.0, -0.45], atol=1e-8)
    rows, bounds = halfspace_box_rows([0.0, -5.0], 2.25, 1.0)
    oracle = grid_projection_oracle(K_CBF @ [0.0, 6.5], rows, bounds,
                                    lo=(-1, -1), hi=(1, 1))
    assert np.allclose(res.u, oracle, atol=1e-3)


def test_eval_controller_statebox_equilibrium():
    res = project_feasible(box_family(), [0.0, 0.0], np.zeros(2))
    assert np.allclose(res.u, [0.0, 0.0])


def test_eval_controller_refuses_outside_region():
    # the evaluator lists the state among those outside the region
    family = constant_halfspace_box(np.ones(2), -10.0)
    ctrl = ProjectionController(gain=K_CBF, family=family)
    assert not strictly_feasible(family, [0.0, 0.0])
    assert make_controller_evaluator(ctrl)(np.zeros((1, 2)))[1] == [0]


def test_strictly_feasible_cases():
    assert strictly_feasible(box_family(), [5.0, 5.0])
    assert strictly_feasible(cbf_family(), [0.0, 1.0])
    # halfspace placed entirely below the box: -2 u_bar |a|_inf m offset
    family = constant_halfspace_box([1.0, 1.0], -2.0 * 1.0 * 1.0 * 2)
    assert not strictly_feasible(family, [0.0, 0.0])


def test_strictly_feasible_affine():
    family = AffineInequalities(
        matrix=lambda x: BOX_ROWS, bound=lambda x: BOX_BOUNDS
    )
    assert strictly_feasible(family, [0.0])
    empty = AffineInequalities(
        matrix=lambda x: np.array([[1.0], [-1.0]]),
        bound=lambda x: np.array([-1.0, 0.0]),
    )
    assert not strictly_feasible(empty, [0.0])


def affine(rows, bounds) -> AffineInequalities:
    return AffineInequalities(matrix=lambda x: np.asarray(rows, dtype=float),
                              bound=lambda x: np.asarray(bounds, dtype=float))


def test_strictly_feasible_affine_interior_is_exact():
    # u >= 1000: the set lies far from the origin, with all of its interior
    assert strictly_feasible(affine([[-0.001]], [-1.0]), [0.0])
    rng = np.random.default_rng(41)
    for m in (1, 2, 3):
        for _ in range(20):
            norms = np.logspace(-3.0, 3.0, 7)
            dirs = rng.standard_normal((7, m))
            rows = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * norms[:, None]
            u0 = rng.standard_normal(m)
            for delta in (1e-9, 1e-6, 1.0, 100.0):
                bounds = rows @ u0 + delta
                assert strictly_feasible(affine(rows, bounds), [0.0]), (m, delta)
                for i in range(len(rows)):
                    # row i and its reversed copy leave only the face a_i u = b_i
                    face = affine(np.vstack([rows, -rows[i]]), np.append(bounds, -bounds[i]))
                    assert not strictly_feasible(face, [0.0]), (m, delta, i)
    for scale in (1e-3, 1.0, 1e3):
        for gap in (1e-9, 1.0):
            # a u <= b and -a u <= -b - gap: empty at every scale
            row = scale * np.array([0.6, 0.8])
            assert not strictly_feasible(affine([row, -row], [1.0, -1.0 - gap]), [0.0])


def offset_box_family() -> HalfspacePlusBox:
    # interior iff -3 |x1| < x2 - 1e-12; the normal vanishes at x1 = 0
    return HalfspacePlusBox(data=lambda xs: (np.stack([xs[:, 0], 2.0 * xs[:, 0]], axis=1),
                                             xs[:, 1]), box_bound=1.0)


def consistency_cases():
    """(family, gain, states) with states on both sides of each strict boundary."""
    rng = np.random.default_rng(43)
    near = np.array([-1e-9, -1e-12, 0.0, 1e-12, 1e-9, 2e-9])
    shrinking_box = StateBox(bound=lambda xs: (1.0 - squared_norms(xs)) * np.array([1.0, 2.0]))
    box_states = np.vstack([rng.standard_normal((40, 2)) * 0.8,
                            [[np.sqrt(1.0 + d), 0.0] for d in near]])
    x1 = rng.uniform(-1.0, 1.0, 20)
    halfspace_states = np.vstack([rng.standard_normal((40, 2)) * 2.0,
                                  [[c, -3.0 * abs(c) + 1e-12 + d] for c in x1 for d in near],
                                  [[0.0, d] for d in near]])
    # the box [-x1, x1] x [-1, 1] is a face at x1 = 0 and empty below it
    slab = slab_family()
    slab_states = np.vstack([rng.standard_normal((40, 2)),
                             [[d, c] for c in (-0.5, 0.0, 2.0) for d in near]])
    return [(shrinking_box, K_CBF, box_states),
            (offset_box_family(), K_CBF, halfspace_states),
            (cbf_family(), K_CBF, rng.standard_normal((60, 2)) * 3.0),
            (slab, K_CBF, slab_states)]


def test_stacked_evaluator_matches_single_state_paths():
    for family, gain, states in consistency_cases():
        ctrl = ProjectionController(gain=gain, family=family)
        u, left = make_controller_evaluator(ctrl)(states)
        assert left == sorted(set(left))
        ok = np.ones(len(states), dtype=bool)
        ok[left] = False
        nominal = states @ gain.T
        assert 0 < ok.sum() < len(ok)
        for x, z, u_row, ok_row in zip(states, nominal, u, ok):
            assert ok_row == strictly_feasible(family, x), (family, x)
            if ok_row:
                assert np.array_equal(u_row, project_feasible(family, x, z).u), (family, x)
                assert np.allclose(project_feasible(family, x, gain @ x).u, u_row,
                                   rtol=0.0, atol=1e-12)
            elif isinstance(family, AffineInequalities):
                # general rows are projected wherever the set is nonempty, faces
                # included, up to proj_polyhedron's stopping tolerance
                rows, bounds = constraint_rows(family, x)
                try:
                    u_face = project_feasible(family, x, z).u
                except InfeasibleSetError:
                    continue
                scale = 1.0 + np.linalg.norm(u_face) + np.abs(bounds).max()
                assert np.all(rows @ u_face - bounds <= 1e-12 * scale), (family, x)
            else:
                # boxes and halfspace plus box refuse exactly the rows left
                with pytest.raises(InfeasibleSetError, match="has no interior"):
                    project_feasible(family, x, z)


def test_state_box_bound_contract_is_checked():
    gain = np.array([[-2.0, 0.0]])
    x = np.array([0.3, 0.2])
    # a one-state bound reads row 1 of a stack as if it were x[1]
    one_state = StateBox(bound=lambda x: np.array([1.0 - x[1]]))
    evaluate = make_controller_evaluator(ProjectionController(gain=gain, family=one_state))
    for count in (1, 2, 3):
        with pytest.raises(ValueError, match=r"\(N, n\) stack of states"):
            evaluate(np.tile(x, (count, 1)))
    # on a one-row stack it fails inside the callable, which names the contract too
    for check in (lambda: strictly_feasible(one_state, x),
                  lambda: project_feasible(one_state, x, [0.5])):
        with pytest.raises(ValueError, match=r"\(N, n\) stack of states") as err:
            check()
        assert isinstance(err.value.__cause__, IndexError)
    constant = StateBox(bound=lambda x: np.ones(1))
    non_finite = StateBox(bound=lambda xs: np.full((len(xs), 1), np.nan))
    too_wide = StateBox(bound=lambda xs: np.ones((len(xs), 2)))
    for family in (constant, non_finite):
        with pytest.raises(ValueError, match=r"finite \(N, m\) array"):
            strictly_feasible(family, x)
        with pytest.raises(ValueError, match=r"finite \(N, m\) array"):
            project_feasible(family, x, [0.5])
    for family in (constant, non_finite, too_wide):
        ctrl = ProjectionController(gain=gain, family=family)
        with pytest.raises(ValueError, match=r"finite \(N, m\) array"):
            make_controller_evaluator(ctrl)(np.tile(x, (2, 1)))
    with pytest.raises(ValueError, match="non-finite"):
        strictly_feasible(non_finite, x)


def test_halfspace_box_contract_is_checked():
    gain = K_CBF
    x = np.array([0.3, 0.2])
    # the one-state callables of the halfspace-plus-box families before the
    # stacked contract: on a 3-row stack they raise or return a wrong shape
    one_state = {
        "cbf": lambda x: (-np.array([2.0 * x[0], 2.0 * (x[1] - 4.0)]),
                          x[0] ** 2 + (x[1] - 4.0) ** 2 - 4.0),
        "constant": lambda x: (np.ones(2), -1.0),
        "zero_normal": lambda x: (np.array([0.0, 0.0]), 1.0 - float(x[0])),
        "offset_x2": lambda x: (np.ones(2), float(x[1])),
    }
    for data in one_state.values():
        family = HalfspacePlusBox(data=data, box_bound=1.0)
        evaluate = make_controller_evaluator(ProjectionController(gain=gain, family=family))
        with pytest.raises(ValueError, match=r"\(N, n\) stack of states"):
            evaluate(np.tile(x, (3, 1)))
    # a one-row stack fails inside the callable, which names the contract too
    family = HalfspacePlusBox(data=one_state["cbf"], box_bound=1.0)
    for check in (lambda: strictly_feasible(family, x),
                  lambda: project_feasible(family, x, [0.5, 0.5])):
        with pytest.raises(ValueError, match=r"\(N, n\) stack of states") as err:
            check()
        assert isinstance(err.value.__cause__, IndexError)
    # stacked data of the wrong width for the commands, or offsets of the wrong shape
    wide = constant_halfspace_box(np.ones(3), 1.0)
    with pytest.raises(ValueError, match=r"data returned A of shape \(2, 3\)"):
        stacked_projector(wide)(np.zeros((2, 2)), np.zeros((2, 2)))
    column = HalfspacePlusBox(data=lambda xs: (np.ones((len(xs), 2)), np.ones((len(xs), 1))),
                              box_bound=1.0)
    with pytest.raises(ValueError, match=r"data returned b of shape \(2, 1\)"):
        stacked_projector(column)(np.zeros((2, 2)), np.zeros((2, 2)))


def halfspace_box_pool(rng, count, m, u_bar):
    """Rows (a, b0, z) for the stacked halfspace-plus-box kernel, edge cases first (18 rows)."""
    a = rng.standard_normal((count, m)) * 2.0
    b = rng.uniform(-1.0, 3.0, count)
    z = rng.standard_normal((count, m)) * 1.5
    floor = -u_bar * np.abs(a).sum(axis=1)
    b[0] = floor[0] - 0.5                  # the halfspace misses the box
    b[1] = floor[1]                        # one face of the box: no interior
    b[2] = floor[2] + 1e-13                # inside the strict margin: no interior
    a[3], b[3] = 0.0, 0.7                  # zero normal: the box clamp
    a[4], b[4] = 0.0, -0.1                 # zero normal, negative offset: empty
    b[5] = np.nan                          # NaN offset
    z[6] = 0.5 * u_bar * rng.uniform(-1.0, 1.0, m)
    z[6, 0], b[6] = u_bar, 1e3             # z on a box face, feasible as it is
    z[7] = 0.5 * u_bar * rng.uniform(-1.0, 1.0, m)
    z[7, -1], b[7] = -u_bar, floor[7] / 2  # z on a box face, beyond the halfspace
    for i in (8, 9):                       # z exactly on the halfspace face
        z[i] = 0.5 * u_bar * rng.uniform(-1.0, 1.0, m)
        dot = 0.0
        for aj, zj in zip(a[i].tolist(), z[i].tolist()):
            dot += aj * zj
        b[i] = dot
    z[10], a[10], b[10] = 0.0, np.abs(a[10]), 1e3
    z[10, 0], z[10, -1] = np.inf, -np.inf   # inf - inf in a^T z; the clamp is feasible
    a[11] = u_bar * np.sign(a[11])          # z at a box corner
    z[11] = u_bar * np.sign(a[11])
    # infinite z whose box clamp violates a halfspace that has interior:
    # the breakpoint scan must not reach inf - inf
    a[12], b[12], z[12] = np.resize([1.354, -0.654], m), -0.582, np.resize([np.inf, -np.inf], m)
    # commands outside the box whose box clamp satisfies the halfspace, which
    # the screen takes by array ops: with room, exactly on the face, and
    # with every entry +inf or -inf
    z[13] = 2.5 * u_bar * np.sign(z[13])
    b[13] = clamp_dot(a[13], z[13], u_bar) + 0.25
    z[14, 0] = -3.0 * u_bar
    b[14] = clamp_dot(a[14], z[14], u_bar)
    z[15] = np.where(a[15] > 0.0, np.inf, -np.inf)
    b[15] = clamp_dot(a[15], z[15], u_bar)
    z[16] = np.inf
    b[16] = max(clamp_dot(a[16], z[16], u_bar), floor[16] + 1.0)
    # a NaN command on a row without interior is left, not projected
    z[17, -1], b[17] = np.nan, floor[17] - 0.25
    return a, b, z


def clamp_dot(a, z, u_bar):
    """a^T clip(z), summed in the breakpoint walk's order."""
    g = 0.0
    for aj, zj in zip(np.asarray(a).tolist(), np.clip(z, -u_bar, u_bar).tolist()):
        g += aj * zj
    return g


def per_row_halfspace_box(a, b, z, u_bar):
    """The per-row loop over the scalar kernels: (U, left)."""
    u, left = z.copy(), []
    for i in range(len(z)):
        a_i, b0 = a[i].tolist(), float(b[i])
        if not _halfspace_box_interior(a_i, b0, u_bar):
            left.append(i)
            continue
        u[i] = _halfspace_box_walk(z[i].tolist(), a_i, b0, u_bar)[0]
    return u, left


@pytest.mark.parametrize("m", [1, 2, 3])
def test_stacked_halfspace_box_matches_per_row_kernels(m):
    # both sides of SCREEN_MIN_ROWS: the per-row loop and the array screen
    u_bar = 0.8
    a, b, z = halfspace_box_pool(np.random.default_rng(53 + m), 4096 + 16, m, u_bar)
    for count in (1, 2, SCREEN_MIN_ROWS - 1, SCREEN_MIN_ROWS + 1, 4096):
        for start in range(16 if count < 4096 else 1):
            rows = slice(start, start + count)
            family = HalfspacePlusBox(data=lambda xs: (a[rows], b[rows]), box_bound=u_bar)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                u, left = stacked_projector(family)(np.zeros((count, 1)), z[rows].copy())
            expected_u, expected_left = per_row_halfspace_box(a[rows], b[rows], z[rows], u_bar)
            assert left == expected_left, (count, start)
            assert np.array_equal(u.view(np.int64), expected_u.view(np.int64)), (count, start)
    # the full stack has rows outside the region, rows projected and rows kept as they are
    moved = (u != z[:4096]).any(axis=1)
    assert 0 < len(left) and 0 < moved.sum() < 4096 - len(left)
    # the infinite command is projected into the set
    assert np.abs(u[12]).max() <= u_bar and a[12] @ u[12] <= b[12] + 1e-12
    # the clamp rows come back clamped, and the NaN row without interior is left
    for i in (10, 13, 14, 15, 16):
        assert np.array_equal(u[i], np.clip(z[i], -u_bar, u_bar)), i
    assert 17 in left


@pytest.mark.parametrize("m", [1, 2, 5])
def test_screen_takes_the_box_clamp_without_the_walk(m, monkeypatch):
    u_bar = 0.8
    a, b, z = halfspace_box_pool(np.random.default_rng(91 + m), 512, m, u_bar)
    expected_u, expected_left = per_row_halfspace_box(a, b, z, u_bar)
    calls = []

    def counting_walk(z_row, a_row, b0, bound):
        calls.append(z_row)
        # only a row whose box clamp misses the halfspace, or a NaN one, needs the walk
        assert not clamp_dot(a_row, z_row, bound) <= b0
        return real_walk(z_row, a_row, b0, bound)

    real_walk = families._halfspace_box_walk
    monkeypatch.setattr(families, "_halfspace_box_walk", counting_walk)
    family = HalfspacePlusBox(data=lambda xs: (a, b), box_bound=u_bar)
    u, left = stacked_projector(family)(np.zeros((len(z), 1)), z.copy())
    assert left == expected_left
    assert np.array_equal(u.view(np.int64), expected_u.view(np.int64))
    clamped = [i for i in range(len(z)) if i not in left
               and clamp_dot(a[i], z[i], u_bar) <= b[i]]
    outside = [i for i in clamped if np.abs(z[i]).max() > u_bar]
    assert {10, 13, 14, 15, 16} <= set(outside)
    assert len(calls) == len(z) - len(left) - len(clamped)


def test_screen_sends_a_nan_command_with_interior_to_the_walk(monkeypatch):
    u_bar = 1.0
    a, b, z = halfspace_box_pool(np.random.default_rng(5), 2 * SCREEN_MIN_ROWS, 2, u_bar)
    z[3, 0] = np.nan  # row 3 has a zero normal and interior
    with pytest.raises(InfeasibleSetError, match="NaN entry"):
        per_row_halfspace_box(a, b, z, u_bar)
    calls = []
    real_walk = families._halfspace_box_walk
    monkeypatch.setattr(families, "_halfspace_box_walk",
                        lambda *args: calls.append(args[0]) or real_walk(*args))
    family = HalfspacePlusBox(data=lambda xs: (a, b), box_bound=u_bar)
    with pytest.raises(InfeasibleSetError, match="NaN entry"):
        stacked_projector(family)(np.zeros((len(z), 1)), z.copy())
    assert any(np.isnan(row).any() for row in calls)


def halfspace_box_rows(a, b0, u_bar):
    m = len(a)
    return (np.vstack([np.reshape(a, (1, m)), np.eye(m), -np.eye(m)]),
            np.concatenate([[b0], np.full(2 * m, u_bar)]))


def test_halfspace_box_kernel_matches_brute_force():
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 600:
        m = int(rng.integers(1, 4))
        a = rng.standard_normal(m) * 2.0
        if checked % 3 == 0:
            a[rng.integers(m)] = 0.0
        u_bar = float(rng.uniform(0.2, 2.0))
        b0 = float(rng.uniform(-u_bar * np.abs(a).sum(), 3.0))
        kind = checked % 4
        if kind == 0:  # a box corner
            z = u_bar * rng.choice([-1.0, 1.0], m)
        elif kind == 1:  # inside the set: the kernel returns it as it is
            z = rng.uniform(-u_bar, u_bar, m)
            if float(a @ z) > b0:
                continue
        else:
            z = rng.standard_normal(m) * 3.0
        if -u_bar * np.abs(a).sum() >= b0:
            continue
        u, theta, _ = _halfspace_box_walk(z.tolist(), a.tolist(), b0, u_bar)
        rows, bounds = halfspace_box_rows(a, b0, u_bar)
        expected = brute_force_projection(z, rows, bounds)
        assert np.abs(np.array(u) - expected).max() <= 1e-10 * (1.0 + np.linalg.norm(z)), (z, a, b0)
        if kind == 1:
            assert u == z.tolist() and theta == 0.0
        if theta > 0.0:
            # a projected row ends on the halfspace up to the rounding of its terms
            scale = abs(b0) + float(np.abs(a) @ (np.abs(z) + theta * np.abs(a)))
            assert float(a @ np.array(u)) - b0 <= ROUNDING_SLACK * scale, (z, a, b0)
        checked += 1


def adversarial_halfspace_box_row(rng, m, spread):
    """(z, a, b0, u_bar) for the breakpoint walk: ties, zero normal entries, z on faces.

    |a_j| and |z_j| lie in [1e-3, 1e3], 10^spread apart at most within a
    row; b0 runs from just above the box's lowest value of a^T u to about
    its highest.
    """
    u_bar = float(2.0 ** rng.integers(-3, 4))

    def magnitudes():
        return 10.0 ** (rng.uniform(spread - 3.0, 3.0 - spread) + rng.uniform(-spread, spread, m))

    a = rng.choice([-1.0, 1.0], m) * magnitudes()
    z = rng.choice([-1.0, 1.0], m) * magnitudes()
    kind = rng.integers(4)
    if kind == 0:  # tied breakpoints: (z_j -+ u_bar) / a_j exactly one of three values
        a = rng.choice([-1.0, 1.0], m) * 2.0 ** rng.integers(-4, 5, m)
        ties = 2.0 ** rng.integers(-3, 4, 3) * rng.integers(1, 4, 3)
        z = rng.choice(ties, m) * a + rng.choice([-u_bar, u_bar], m)
    elif kind == 1:  # repeated components: equal breakpoints
        picks = rng.integers(0, max(1, m // 2), m)
        a, z = a[picks], z[picks]
    elif kind == 2:  # z on faces and corners of the box
        on = rng.random(m) < 0.7
        z[on] = rng.choice([-u_bar, u_bar], int(on.sum()))
    a[rng.random(m) < 0.15] = 0.0
    if not a.any():
        a[0] = 1.0
    width = u_bar * float(np.abs(a).sum())
    return z, a, -width + width * 10.0 ** rng.uniform(-6.0, 0.3), u_bar


def test_halfspace_box_walk_adversarial_cross_check():
    # the references locate the projection only to their own feasibility
    # tolerances, which on rows with small free components leaves about
    # 1e-8 (1 + |z|) between them and the exact point; so the brute force,
    # whose candidates fail that tolerance as |a| and |z| spread, takes
    # rows with entries within a decade of each other
    rng = np.random.default_rng(71)
    most_scanned = 0
    for _ in range(1500):
        m = int(rng.choice([1, 2, 3, 8, 24, 64]))
        z, a, b0, u_bar = adversarial_halfspace_box_row(rng, m, 1.0 if m <= 3 else 3.0)
        u, theta, scanned = _halfspace_box_walk(z.tolist(), a.tolist(), b0, u_bar)
        u = np.array(u)
        rows, bounds = halfspace_box_rows(a, b0, u_bar)
        expected = (brute_force_projection(z, rows, bounds) if m <= 3
                    else proj_polyhedron(z, rows, bounds).u)
        assert np.abs(u - expected).max() <= 1e-7 * (1.0 + np.abs(z).max()), (z, a, b0, u_bar)
        assert np.abs(u).max() <= u_bar
        if theta > 0.0:
            scale = abs(b0) + float(np.abs(a) @ (np.abs(z) + theta * np.abs(a)))
            assert float(a @ u) - b0 <= ROUNDING_SLACK * scale, (z, a, b0, u_bar)
        most_scanned = max(most_scanned, scanned)
    assert most_scanned >= 48  # walks cross dozens of breakpoints


def two_pass_walk(z, a, b0, u_bar):
    """_halfspace_box_walk in its earlier two-pass form, frozen as its reference.

    Pass 1 sums g(0) and returns where g(0) <= b0; pass 2 lists the
    breakpoints.  The one-pass walk must return the same (u, theta,
    breakpoints_scanned), bit for bit, and z itself where this does.
    """
    # pass 1: g = g(0), summed as _screened_halfspace_box sums it
    g, inside = 0.0, True
    for aj, zj in zip(a, z):
        if zj > u_bar:
            zj, inside = u_bar, False
        elif zj < -u_bar:
            zj, inside = -u_bar, False
        g += aj * zj
    if g <= b0:
        if inside:
            return z, 0.0, 0
        return [u_bar if zj > u_bar else -u_bar if zj < -u_bar else zj for zj in z], 0.0, 0
    if g != g:
        raise InfeasibleSetError(f"command {z} has a NaN entry; it has no projection")

    # pass 2: for each component the t where it enters and leaves its bound,
    # the breakpoints after 0 and g's slope just after 0
    zs, spans, points = [], [], []
    slope = 0.0
    for aj, zj in zip(a, z):
        if zj == inf or zj == -inf:
            zj = u_bar if zj > 0.0 else -u_bar
        if aj > 0.0:
            enter, leave = (zj - u_bar) / aj, (zj + u_bar) / aj
        elif aj < 0.0:
            enter, leave = (zj + u_bar) / aj, (zj - u_bar) / aj
        else:
            enter = leave = -inf  # never free, no breakpoints
        zs.append(zj)
        spans.append((enter, leave))
        if leave > 0.0:
            if enter > 0.0:
                points.append(enter)
            else:
                slope += aj * aj
            points.append(leave)
    if not points:  # g stays at -u_bar |a|_1, above b0 by rounding: a face of the box
        raise InfeasibleSetError("halfspace misses the box")

    points.sort()
    t, k = 0.0, 0
    while k + 1 < len(points) and g - slope * (points[k] - t) > b0:
        # cross t_k: take g and the slope just after it afresh
        t, k, g, slope = points[k], k + 1, 0.0, 0.0
        for aj, zj, (enter, leave) in zip(a, zs, spans):
            c = zj - t * aj
            g += aj * (u_bar if c > u_bar else -u_bar if c < -u_bar else c)
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
    for aj, zj in zip(a, zs):
        c = zj - theta * aj
        u.append(u_bar if c > u_bar else -u_bar if c < -u_bar else c)
    return u, theta, k + 1


def walk_outputs_match(z, a, b0, u_bar):
    """Do the walk and its frozen two-pass form agree on one row, bit for bit?"""
    try:
        expected = two_pass_walk(z, a, b0, u_bar)
    except InfeasibleSetError as exc:
        with pytest.raises(InfeasibleSetError) as raised:
            _halfspace_box_walk(z, a, b0, u_bar)
        return str(raised.value) == str(exc)
    u, theta, scanned = _halfspace_box_walk(z, a, b0, u_bar)
    return ((u is z) == (expected[0] is z) and scanned == expected[2]
            and np.array_equal(np.array(u).view(np.int64), np.array(expected[0]).view(np.int64))
            and np.array_equal(np.array(theta).view(np.int64), np.array(expected[1]).view(np.int64)))


def test_halfspace_box_walk_matches_its_two_pass_form():
    # the adversarial rows of test_halfspace_box_walk_adversarial_cross_check
    rng = np.random.default_rng(71)
    for _ in range(1500):
        m = int(rng.choice([1, 2, 3, 8, 24, 64]))
        z, a, b0, u_bar = adversarial_halfspace_box_row(rng, m, 1.0 if m <= 3 else 3.0)
        assert walk_outputs_match(z.tolist(), a.tolist(), b0, u_bar), (z, a, b0, u_bar)
    # the edge-case pool, infinite and NaN commands among them, on rows with interior
    for m in (1, 2, 3):
        a, b, z = halfspace_box_pool(np.random.default_rng(53 + m), 64, m, 0.8)
        for a_i, b0, z_i in zip(a.tolist(), b.tolist(), z.tolist()):
            if _halfspace_box_interior(a_i, b0, 0.8):
                assert walk_outputs_match(z_i, a_i, b0, 0.8), (z_i, a_i, b0)
    # the raises: a NaN command, and a box corner with the halfspace just past it
    assert walk_outputs_match([np.nan, 0.0], [1.0, 1.0], 0.5, 1.0)
    assert walk_outputs_match([-1.0, 1.0], [1.0, -2.0], np.nextafter(-3.0, -4.0), 1.0)
    # every row the walk takes on example 2's grid row 0 over 30 s, from the
    # step-by-step loop and from the block screen alike
    rows = []
    real_walk = families._halfspace_box_walk

    def recording_walk(z, a, b0, u_bar):
        rows.append((z, a, b0, u_bar))
        return real_walk(z, a, b0, u_bar)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(families, "_halfspace_box_walk", recording_walk)
        integrate(example2_system(), example2_grid()[0], SimConfig(dt=1e-3, horizon=30.0))
    assert len(rows) == 15924
    assert all(walk_outputs_match(*row) for row in rows)


@pytest.mark.parametrize("a, b0", [
    ([0.0, 0.0], -1e-9),   # zero normal with a negative offset
    ([1.0, -2.0], -3.0),   # -u_bar |a|_1 == b0: one corner of the box
    ([1.0, 0.0], -5.0),    # the halfspace misses the box
])
def test_halfspace_box_kernel_raises_on_empty_or_face(a, b0):
    for z in ([0.0, 0.0], [-1.0, 1.0], [9.0, -9.0]):
        family = constant_halfspace_box(a, b0)
        with pytest.raises(InfeasibleSetError):
            project_feasible(family, [0.0, 0.0], z)


@pytest.mark.parametrize("family", [
    constant_box([0.0, 0.0]),                            # v = 0: the box is a point
    constant_box([1.0, 0.0]),                            # one v_j = 0: a face
    constant_box([1.0, -1.0]),                           # one v_j < 0: empty
    constant_halfspace_box([1.0, -2.0], 1.0, 0.0),       # u_bar = 0: the box is a point
    constant_halfspace_box([1.0, -2.0], -3.0 + 1e-13),   # thinner than STRICT_MARGIN
    constant_halfspace_box([0.0, 0.0], 0.0),             # zero normal, b0 = 0: a face
    constant_halfspace_box([0.0, 0.0], 1e-12),           # zero normal, b0 = STRICT_MARGIN
], ids=["v=0", "face", "empty", "u_bar=0", "thin", "zero-normal-b0=0",
        "zero-normal-b0=1e-12"])
def test_project_feasible_refuses_the_states_the_evaluator_leaves(family):
    x = np.zeros((1, 2))
    assert not strictly_feasible(family, x[0])
    for z in ([0.0, 0.0], [-1.0, 1.0], [9.0, -9.0]):
        assert stacked_projector(family)(x, np.array([z]))[1] == [0]
        with pytest.raises(InfeasibleSetError, match="has no interior"):
            project_feasible(family, x[0], z)


def test_project_feasible_active_rows_follow_documented_order():
    # boxes: u <= v is row i, -u <= v row m + i; halfspace plus box: the
    # halfspace is row 0, then the reference rows of halfspace_box_rows
    res = project_feasible(constant_box([1.0, 2.0, 0.5]), [0.0], [2.0, -3.0, 0.2])
    assert res.u.tolist() == [1.0, -2.0, 0.2] and res.active_constraints == (0, 4)
    rng = np.random.default_rng(83)
    for _ in range(300):
        m = int(rng.integers(1, 5))
        a = rng.standard_normal(m)
        b0 = float(rng.uniform(-0.9 * np.abs(a).sum(), 2.0))
        res = project_feasible(constant_halfspace_box(a, b0), [0.0], rng.standard_normal(m) * 3.0)
        rows, bounds = halfspace_box_rows(a, b0, 1.0)
        slack = bounds - rows @ res.u
        tight = [i for i in range(1, 2 * m + 1) if slack[i] == 0.0]
        expected = ([0] if abs(slack[0]) <= 1e-12 and res.iterations else []) + tight
        assert list(res.active_constraints) == expected, (a, b0, res)


def test_constraint_rows_reads_general_rows_only():
    rows, bounds = constraint_rows(affine(BOX_ROWS, BOX_BOUNDS), [0.0])
    assert np.array_equal(rows, BOX_ROWS) and np.array_equal(bounds, BOX_BOUNDS)
    for family in (constant_box([1.0, 1.0]), cbf_family()):
        with pytest.raises(TypeError, match="AffineInequalities"):
            constraint_rows(family, [0.0, 0.0])


def test_controller_matches_polyhedral_projection_on_cbf_states():
    # the scalar KKT solve and the general dual active-set solve on the same rows
    rng = np.random.default_rng(17)
    family = cbf_family()
    checked = 0
    while checked < 100:
        x = rng.standard_normal(2) * 3.0
        if not strictly_feasible(family, x):
            continue
        direct = project_feasible(family, x, K_CBF @ x).u
        a, b0 = family.data(x[None, :])
        general = proj_polyhedron(K_CBF @ x, *halfspace_box_rows(a[0], b0[0], 1.0)).u
        assert np.linalg.norm(direct - general) <= 1e-9
        checked += 1


def _family_instances():
    affine = AffineInequalities(
        matrix=lambda x: np.vstack([[1.0, 1.0], [1.0, -2.0], BOX_ROWS * 0.5]),
        bound=lambda x: np.array([1.0 + float(x @ x) * 0.1, 2.0, 1.0, 1.0, 1.0, 1.0]),
    )
    return [box_family(0.05), cbf_family(), affine]


def test_projection_cocoercivity_and_nonexpansiveness():
    # (proj z1 - proj z2)^T (z1 - z2) >= |proj z1 - proj z2|^2 for projections
    rng = np.random.default_rng(23)
    for family in _family_instances():
        for _ in range(20):
            x = rng.standard_normal(2) * 2.0
            if not strictly_feasible(family, x):
                continue
            for _ in range(25):
                z1 = rng.standard_normal(2) * 10.0
                z2 = rng.standard_normal(2) * 10.0
                u1 = project_feasible(family, x, z1).u
                u2 = project_feasible(family, x, z2).u
                du = u1 - u2
                inner = float(du @ (z1 - z2))
                assert inner >= float(du @ du) - 1e-9
                assert np.linalg.norm(du) <= np.linalg.norm(z1 - z2) + 1e-9


def test_projection_idempotent():
    rng = np.random.default_rng(29)
    for family in _family_instances():
        for _ in range(40):
            x = rng.standard_normal(2)
            if not strictly_feasible(family, x):
                continue
            z = rng.standard_normal(2) * 5.0
            u = project_feasible(family, x, z).u
            again = project_feasible(family, x, u).u
            assert np.linalg.norm(u - again) <= 1e-10
