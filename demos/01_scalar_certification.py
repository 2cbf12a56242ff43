"""Certify the textbook scalar loop and probe the feasibility boundary.

The plant dx/dt = -x + u is closed through u = phi(-x, t) where phi may be
any 1-cocoercive map (every Euclidean projection qualifies).  The worst
member of that class is a slope-s map with s in [0, 1], so the sharpest
uniform contraction rate is exactly 1: the loop dx/dt = -(1+s) x decays
slowest at s = 0.  The certificate search should land there.
"""

import numpy as np

from lurestab import (
    CertSearchConfig,
    LtiPlant,
    assemble_lmi,
    check_cocoercivity,
    find_certificate,
    max_contraction_rate,
    proj_box,
    verify_certificate,
)

plant = LtiPlant(a=[[-1.0]], b=[[1.0]])
gain = np.array([[-1.0]])

print("== block matrix at a hand-checkable point ==")
block = assemble_lmi(plant, gain, [[1.0]], eta=0.5, lam=1.0, rho=1.0)
print("M(P=1, eta=0.5, lambda=1) =")
print(block)

print("\n== feasibility on both sides of the critical rate ==")
for eta in (0.9, 1.1):
    res = find_certificate(plant, gain, rho=1.0, eta=eta)
    detail = "LMI top eigenvalue" if res.status == "feasible" else "infeasibility margin"
    print(f"eta = {eta}: {res.status}  ({detail} {res.best_lmi_max_eig:+.3e}, "
          f"{res.iterations} probe)")

print("\n== maximize the certified rate by bisection ==")
result = max_contraction_rate(plant, gain, rho=1.0,
                              cfg=CertSearchConfig(bisect_tol=1e-6))
cert = result.certificate
print(f"eta* = {result.eta_star:.7f}  "
      f"({result.feasibility_solves} Hamiltonian probes)")
ok, report = verify_certificate(plant, gain, cert, tol=2e-8)
print(f"re-verified: {ok}  lambda_max(LMI) = {report.lmi_max_eig:+.3e}  "
      f"lambda_min(P) = {report.p_min_eig:.3f}")

print("\n== the nonlinearity class: cocoercivity spot checks ==")
rng = np.random.default_rng(1)
pairs = [(rng.uniform(-5, 5, 1), rng.uniform(-5, 5, 1)) for _ in range(2000)]
for name, phi in [
    ("identity", lambda y: y),
    ("clamp to [-1, 1]", lambda y: proj_box(y, [-1.0], [1.0])),
    ("slope 2 (outside the class)", lambda y: 2.0 * y),
]:
    violation = check_cocoercivity(phi, rho=1.0, sample_pairs=pairs)
    verdict = "satisfies" if violation <= 1e-12 else "violates"
    print(f"{name:<30} worst violation {violation:+.3e}  -> {verdict} the bound")
