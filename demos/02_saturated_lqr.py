"""State-dependent saturation benchmark, end to end.

A seeded random 3-state plant A = -I + N gets an LQR gain, the loop
through sat_{v(x)} with v(x) = exp(-|x|^2 / 2) 1 is certified at its
maximal rate, and ten simulated trajectories are checked against the
certified decay envelope |x(t)|_P <= exp(-eta t) |x0|_P and the Lyapunov
decrease dV/dt <= -2 eta V, which is read exactly from the plant and the
recorded (x, u) at every sample.
"""

from pathlib import Path

from lurestab import (
    LtiPlant,
    RandomSource,
    SimConfig,
    build_saturation_system,
    check_decay_envelope,
    check_lyapunov_decrease,
    example1_setup,
    integrate,
    max_contraction_rate,
    write_trajectory_csv,
)

out_dir = Path("demo_output/saturated_lqr")
out_dir.mkdir(parents=True, exist_ok=True)

setup = example1_setup(seed=42)
print(f"drew a certifiable plant after {setup.attempts} attempt(s) "
      f"(seed {setup.seed_used})")
print("A =")
print(setup.a.round(4))
print("LQR gain K =")
print(setup.k.round(4))

plant = LtiPlant(a=setup.a, b=setup.b)
result = max_contraction_rate(plant, setup.k, rho=1.0)
cert = result.certificate
print(f"\ncertified contraction rate eta* = {result.eta_star:.4f}")
print("P =")
print(cert.p.round(4))

system = build_saturation_system(setup.a, setup.b, setup.k, setup.bound)
cfg = SimConfig(dt=1e-3, horizon=15.0)
source = RandomSource(4242)

print("\nx0 sampled from N(0, 4 I); envelope slack 1e-6 |x0|_P")
print(f"{'|x0|':>8} {'termination':>12} {'envelope':>9} {'max violation':>14} "
      f"{'Lyapunov':>9}")
for index in range(10):
    x0 = 2.0 * source.normals(3)
    traj = integrate(system, x0, cfg)
    env = check_decay_envelope(traj, cert.p, cert.eta, slack=1e-6)
    lyap = check_lyapunov_decrease(traj, plant, cert.p, cert.eta)
    write_trajectory_csv(traj, out_dir / f"traj_{index:02d}.csv", p=cert.p)
    norm = float(x0 @ x0) ** 0.5
    print(f"{norm:8.3f} {traj.termination.value:>12} {str(env.passed):>9} "
          f"{env.max_violation:14.3e} {str(lyap.passed):>9}")

print(f"\nper-trajectory CSVs (with the norm_P column) in {out_dir}/")
