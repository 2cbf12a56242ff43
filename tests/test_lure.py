import numpy as np
import pytest

from lurestab.families import proj_box
from lurestab.linalg import is_neg_semidefinite
from lurestab.lure import (
    RATE_BACKOFFS,
    CertSearchConfig,
    LtiPlant,
    LureCertificate,
    assemble_lmi,
    check_cocoercivity,
    contraction_gap,
    find_certificate,
    max_contraction_rate,
    verify_certificate,
)
from lurestab.synthesis import LqrWeights, solve_care

SCALAR_PLANT = LtiPlant(a=[[-1.0]], b=[[1.0]])
SCALAR_K = np.array([[-1.0]])


def test_assemble_lmi_scalar_zero_block():
    plant = LtiPlant(a=[[-1.0]], b=[[0.0]])
    mat = assemble_lmi(plant, [[0.0]], [[1.0]], eta=1.0, lam=0.0, rho=1.0)
    assert np.allclose(mat, np.zeros((2, 2)))


def test_assemble_lmi_hand_blocks():
    # (1,1): -1-1+1 = -1, (1,2): 1 + (-1) = 0, (2,2): -2
    mat = assemble_lmi(SCALAR_PLANT, SCALAR_K, [[1.0]], eta=0.5, lam=1.0, rho=1.0)
    assert np.allclose(mat, [[-1.0, 0.0], [0.0, -2.0]])


def test_assemble_lmi_rate_exceeds_decay():
    plant = LtiPlant(a=-np.eye(2), b=np.zeros((2, 1)))
    mat = assemble_lmi(plant, np.zeros((1, 2)), np.eye(2), eta=2.0, lam=0.0, rho=1.0)
    assert np.allclose(mat[:2, :2], 2.0 * np.eye(2))
    ok, _ = is_neg_semidefinite(mat, 0.0)
    assert not ok


def test_verify_certificate_cases():
    plant = LtiPlant(a=[[-1.0]], b=[[0.0]])
    cert = LureCertificate(p=np.eye(1), eta=1.0, lam=0.0, rho=1.0, lmi_max_eig=0.0)
    ok, _ = verify_certificate(plant, [[0.0]], cert, tol=1e-9)
    assert ok

    bad = LureCertificate(p=np.eye(1), eta=2.0, lam=0.0, rho=1.0, lmi_max_eig=0.0)
    ok, rep = verify_certificate(plant, [[0.0]], bad, tol=1e-9)
    assert not ok and np.isclose(rep.lmi_max_eig, 2.0)

    # block [[0,0],[0,-2]] exactly
    cert2 = LureCertificate(p=np.eye(1), eta=1.0, lam=1.0, rho=1.0, lmi_max_eig=0.0)
    ok, rep = verify_certificate(SCALAR_PLANT, SCALAR_K, cert2, tol=1e-9)
    assert ok and rep.lmi_max_eig <= 1e-12


def test_verify_scale_invariance():
    # the LMI is jointly homogeneous in (P, lambda)
    res = max_contraction_rate(SCALAR_PLANT, SCALAR_K, rho=1.0)
    cert = res.certificate
    for c in (0.1, 10.0):
        scaled = LureCertificate(p=c * cert.p, eta=cert.eta, lam=c * cert.lam,
                                 rho=cert.rho, lmi_max_eig=c * cert.lmi_max_eig)
        ok, _ = verify_certificate(SCALAR_PLANT, SCALAR_K, scaled, tol=1e-12)
        assert ok


def test_find_certificate_scalar_bracket():
    res = find_certificate(SCALAR_PLANT, SCALAR_K, rho=1.0, eta=0.9)
    assert res.status == "feasible"
    ok, _ = verify_certificate(SCALAR_PLANT, SCALAR_K, res.certificate,
                               tol=1e-8 * (1 + 1))
    assert ok
    res = find_certificate(SCALAR_PLANT, SCALAR_K, rho=1.0, eta=1.1)
    assert res.status == "infeasible"
    # infeasibility margin: loop gain |K (s - A_t)^-1 B| / (2 rho) - 1 at its
    # peak s = 0, with A_t = -1 - 1/2 + 1.1 = -0.4: 1 / (0.4 * 2) - 1
    assert abs(res.best_lmi_max_eig - 0.25) <= 1e-9


def test_find_certificate_reported_eig_matches_checker():
    res = find_certificate(SCALAR_PLANT, SCALAR_K, rho=1.0, eta=0.5)
    cert = res.certificate
    mat = assemble_lmi(SCALAR_PLANT, SCALAR_K, cert.p, cert.eta, cert.lam, cert.rho)
    _, lam_max = is_neg_semidefinite(mat, 0.0)
    assert abs(lam_max - cert.lmi_max_eig) <= 1e-10


def test_find_certificate_decoupled_trivial():
    plant = LtiPlant(a=-np.eye(3), b=np.zeros((3, 2)))
    res = find_certificate(plant, np.zeros((2, 3)), rho=1.0, eta=0.99)
    assert res.status == "feasible"


def test_max_rate_scalar_oracle():
    # worst cocoercive feedback is a slope-s map, s in [0,1]; worst loop rate is 1
    res = max_contraction_rate(SCALAR_PLANT, SCALAR_K, rho=1.0)
    assert res.status == "feasible"
    assert abs(res.eta_star - 1.0) <= 2e-3
    ok, _ = verify_certificate(SCALAR_PLANT, SCALAR_K, res.certificate, tol=2e-8)
    assert ok


def test_max_rate_decoupled_plant():
    plant = LtiPlant(a=-2.0 * np.eye(2), b=np.zeros((2, 1)))
    res = max_contraction_rate(plant, np.zeros((1, 2)), rho=1.0)
    assert res.status == "feasible"
    assert abs(res.eta_star - 2.0) <= 2e-3


def test_max_rate_unstable_plant_infeasible():
    plant = LtiPlant(a=[[1.0]], b=[[0.0]])
    res = max_contraction_rate(plant, [[0.0]], rho=1.0)
    assert res.status == "infeasible"
    assert res.certificate is None


def test_feasibility_monotone_in_rate():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((3, 3))
    a = g - (max(np.real(np.linalg.eigvals(g))) + 0.8) * np.eye(3)
    b = rng.standard_normal((3, 2))
    k = -0.5 * b.T
    plant = LtiPlant(a=a, b=b)
    res = max_contraction_rate(plant, k, rho=1.0)
    assert res.status == "feasible"
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
        lower = find_certificate(plant, k, 1.0, frac * res.eta_star)
        assert lower.status == "feasible"
        ok, _ = verify_certificate(plant, k, lower.certificate,
                                   tol=1e-8 * (1 + np.linalg.norm(a)))
        assert ok


def test_cocoercivity_identity_and_scaled():
    pairs = [(np.array([1.0]), np.array([0.0])), (np.array([2.0]), np.array([-1.0]))]
    assert check_cocoercivity(lambda y: y, 1.0, pairs) == 0.0
    # slope-2 map: violation 4 - 2 = 2 on the pair (1, 0)
    v = check_cocoercivity(lambda y: 2.0 * y, 1.0, [(np.array([1.0]), np.array([0.0]))])
    assert np.isclose(v, 2.0)


def test_cocoercivity_of_box_projection():
    rng = np.random.default_rng(13)
    phi = lambda y: proj_box(y, [-1.0, -1.0], [1.0, 1.0])
    pairs = [(rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)) for _ in range(1000)]
    assert check_cocoercivity(phi, 1.0, pairs) <= 1e-12


def test_contraction_gap_linear_fields():
    pairs = [(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
             (np.array([2.0, 2.0]), np.array([-1.0, 0.5]))]
    rep = contraction_gap(lambda y: -y, np.eye(2), 1.0, pairs)
    assert abs(rep.max_gap) <= 1e-12
    rep = contraction_gap(lambda y: y, np.eye(2), 0.5, pairs)
    assert rep.max_gap > 0


def test_contraction_gap_certified_saturation_frozen_state():
    res = max_contraction_rate(SCALAR_PLANT, SCALAR_K, rho=1.0)
    cert = res.certificate
    rng = np.random.default_rng(4)
    for _ in range(5):
        z = rng.standard_normal(1) * 3.0
        v = np.exp(-0.5 * float(z @ z)) * np.ones(1)

        def field(y, v=v):
            u = np.clip(SCALAR_K @ y, -v, v)
            return SCALAR_PLANT.a @ y + SCALAR_PLANT.b @ u

        pairs = [(rng.uniform(-10, 10, 1), rng.uniform(-10, 10, 1))
                 for _ in range(2000)]
        rep = contraction_gap(field, cert.p, cert.eta, pairs)
        assert rep.max_gap <= 1e-7


def test_config_validation():
    with pytest.raises(ValueError):
        CertSearchConfig(eta_lo=1.0, eta_hi=0.5)
    with pytest.raises(ValueError):
        CertSearchConfig(bisect_tol=0.0)


def test_certificate_json_round_trip():
    res = max_contraction_rate(SCALAR_PLANT, SCALAR_K, rho=1.0)
    data = res.certificate.to_dict()
    back = LureCertificate.from_dict(data)
    ok, _ = verify_certificate(SCALAR_PLANT, SCALAR_K, back, tol=2e-8)
    assert ok


# Cross-checks of the exact rate search against references that share no
# code with its Hamiltonian test: closed forms, a frequency sweep, and the
# rates the projected-subgradient search it replaced found on the same
# systems.


def _criterion2_systems():
    """The 20 seeded (plant, LQR gain) pairs of acceptance criterion 2."""
    rng = np.random.default_rng(2024)
    systems = []
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        g = rng.standard_normal((n, n))
        shift = float(np.real(np.linalg.eigvals(g)).max()) + 0.3 + float(rng.random())
        a = g - shift * np.eye(n)
        b = rng.standard_normal((n, m))
        k = solve_care(a, b, LqrWeights(q=np.eye(n), r=np.eye(m))).k
        systems.append((LtiPlant(a=a, b=b), k))
    return systems


def _peak_gain(plant, k, rho, eta, omegas):
    """Largest sigma_max(K (j w I - A_t)^-1 B) on the grid, or inf when
    A_t = A + B K / (2 rho) + eta I is not Hurwitz."""
    n = plant.state_dim
    a_t = plant.a + plant.b @ k / (2.0 * rho) + eta * np.eye(n)
    if np.linalg.eigvals(a_t).real.max() >= 0.0:
        return np.inf
    resolvent = 1j * omegas[:, None, None] * np.eye(n) - a_t
    gains = k @ np.linalg.solve(resolvent, np.broadcast_to(plant.b, (len(omegas),) + plant.b.shape))
    return float(np.linalg.svd(gains, compute_uv=False).max())


def test_max_rate_scalar_closed_form():
    # scalar loop: the gain |bk| / |s - a_t| peaks at s = 0, so
    # eta* = -a - bk/(2 rho) - |bk|/(2 rho)
    rng = np.random.default_rng(58)
    cfg = CertSearchConfig(bisect_tol=1e-5)
    checked = 0
    while checked < 50:
        a, b, k = -rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        rho = rng.uniform(0.5, 2.0)
        expected = -a - b * k / (2 * rho) - abs(b * k) / (2 * rho)
        if expected < 0.05:
            continue
        plant = LtiPlant(a=[[a]], b=[[b]])
        res = max_contraction_rate(plant, [[k]], rho=rho, cfg=cfg)
        assert res.status == "feasible"
        # the certificate sits RATE_BACKOFFS[0] below a bracket of width bisect_tol
        slack = cfg.bisect_tol + RATE_BACKOFFS[0] * expected
        assert expected - slack <= res.eta_star <= expected, (a, b, k, rho)
        ok, _ = verify_certificate(plant, [[k]], res.certificate, tol=1e-8)
        assert ok
        checked += 1


def test_max_rate_matches_frequency_sweep():
    # just above eta*, the loop gain must reach 2 rho somewhere (or A_t
    # lose stability); at eta* it must stay below 2 rho everywhere
    omegas = np.concatenate([[0.0], np.logspace(-3, 3, 6000)])
    for plant, k in _criterion2_systems():
        res = max_contraction_rate(plant, k, rho=1.0)
        assert res.status == "feasible"
        ok, _ = verify_certificate(plant, k, res.certificate, tol=1e-8)
        assert ok
        assert _peak_gain(plant, k, 1.0, res.eta_star, omegas) < 2.0
        above = res.eta_star * (1.0 + 1e-3)
        assert _peak_gain(plant, k, 1.0, above, omegas) >= 2.0 * (1.0 - 1e-6)


@pytest.mark.parametrize("a, b, k, expected", [
    (-2.0 * np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)), 2.0),
    (-2.0 * np.eye(2), np.ones((2, 1)), np.zeros((1, 2)), 2.0),
    (-1.5 * np.eye(2), np.zeros((2, 1)), np.ones((1, 2)), 1.5),
    ([[-1.0, 1.0], [0.0, -1.0]], np.zeros((2, 1)), np.zeros((1, 2)), 1.0),
    ([[-1.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]], np.zeros((1, 2)), 1.0),
], ids=["B=K=0", "K=0", "B=0", "jordan-decoupled", "jordan-K=0"])
def test_max_rate_degenerate_loops(a, b, k, expected):
    # with B = 0 or K = 0 the feedback drops out of the block's Schur
    # complement, so eta* is minus the spectral abscissa of A; a defective
    # mode at that limit makes the certificate ill-conditioned, so the
    # rate may come from a later back-off
    plant = LtiPlant(a=a, b=b)
    res = max_contraction_rate(plant, k, rho=1.0)
    assert res.status == "feasible"
    assert expected * (1.0 - RATE_BACKOFFS[-1]) - 1e-5 <= res.eta_star <= expected
    ok, _ = verify_certificate(plant, k, res.certificate, tol=1e-8)
    assert ok


def test_max_rate_unstable_plant_with_feedback_infeasible():
    # phi = 0 is cocoercive, so an unstable A is never certifiable,
    # whatever B and K are
    plant = LtiPlant(a=[[0.5, 1.0], [0.0, -1.0]], b=[[1.0], [1.0]])
    res = max_contraction_rate(plant, [[-3.0, -1.0]], rho=1.0)
    assert res.status == "infeasible" and res.certificate is None
    probe = find_certificate(plant, [[-3.0, -1.0]], rho=1.0, eta=0.1)
    assert probe.status == "infeasible" and probe.best_lmi_max_eig > 0


# eta* of the projected-subgradient search on the criterion-2 systems, at
# its default bisect_tol of 1e-3, before it was replaced
SUBGRADIENT_ETA = [
    0.6089069117, 0.4799348023, 0.3044895041, 0.3110330584, 0.4841683561,
    0.7199159803, 1.015830341, 0.09737590122, 1.144457974, 0.534160442,
    0.9266414418, 1.131453728, 0.583382436, 0.5140264185, 0.6931932174,
    0.3577127388, 1.225916128, 0.7908372526, 0.485758111, 0.7367265789,
]


def test_max_rate_not_below_subgradient_search():
    for (plant, k), old in zip(_criterion2_systems(), SUBGRADIENT_ETA):
        res = max_contraction_rate(plant, k, rho=1.0)
        assert res.eta_star >= old * (1.0 - 1e-3)


def test_rate_search_records_probes():
    res = max_contraction_rate(SCALAR_PLANT, SCALAR_K, rho=1.0)
    assert len(res.probes) == res.feasibility_solves
    assert res.probes[0] == (CertSearchConfig().eta_lo, "feasible")
    assert res.probes[-1] == (res.eta_star, "feasible")
    # bisection keeps the bracket: every feasible probe lies below every
    # infeasible one
    feasible = [eta for eta, v in res.probes if v == "feasible"]
    infeasible = [eta for eta, v in res.probes if v == "infeasible"]
    assert max(feasible) < min(infeasible)
