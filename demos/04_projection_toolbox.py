"""Tour of the projection layer backing the controllers.

Covers the box clamp, the KKT diagnostics of the polyhedral solver, the
strict-feasibility test of the three constraint families, and the
controller's halfspace-plus-box kernel against the general polyhedral
solve on the same rows.
"""

import numpy as np

from lurestab import (
    AffineInequalities,
    HalfspacePlusBox,
    StateBox,
    proj_polyhedron,
    project_feasible,
    strictly_feasible,
)

print("== box clamp ==")
unit_box = StateBox(bound=lambda xs: np.ones((len(xs), 2)))
print("clamp (2, -3) to [-1,1]^2        ->", project_feasible(unit_box, [0.0, 0.0], [2.0, -3.0]).u)

print("\n== polyhedral projection with KKT diagnostics ==")
rows = np.vstack([[0.0, -1.0], np.eye(2), -np.eye(2)])
bounds = np.array([0.45, 1.0, 1.0, 1.0, 1.0])
res = proj_polyhedron([-3.25, -6.5], rows, bounds)
print(f"projection of (-3.25, -6.5): {res.u}")
print(f"active rows {res.active_constraints}, KKT residual {res.kkt_residual:.1e}, "
      f"{res.iterations} working-set changes")

print("\n== the three constraint families at a frozen state ==")
x = np.array([0.4, 0.8])
families = {
    # box bounds and halfspace data map an (N, n) stack of states to their
    # (N, m) bounds, and to the pair of their (N, m) normals and (N,) offsets
    "StateBox, v(x) = exp(-|x|^2/2) 1": StateBox(
        bound=lambda xs: np.exp(-0.5 * (xs * xs).sum(axis=1, keepdims=True)) * np.ones(2)),
    "HalfspacePlusBox (CBF row + box)": HalfspacePlusBox(
        data=lambda xs: (-2.0 * (xs - [0.0, 4.0]),
                         xs[:, 0] * xs[:, 0] + (xs[:, 1] - 4.0) * (xs[:, 1] - 4.0) - 4.0),
        box_bound=1.0),
    "AffineInequalities (5 rows)": AffineInequalities(
        matrix=lambda x: np.vstack([[1.0, 1.0], np.eye(2), -np.eye(2)]),
        bound=lambda x: np.array([1.5, 1.0, 1.0, 1.0, 1.0])),
}
for name, family in families.items():
    print(f"{name:<36} strictly feasible: {strictly_feasible(family, x)}")

print("\n== controller evaluation vs polyhedral projection ==")
gain = np.array([[-2.0, -0.5], [-0.5, -1.0]])
family = families["HalfspacePlusBox (CBF row + box)"]
state = np.array([0.0, 6.5])
# the controller u* = proj onto Gamma(x) of K x
direct = project_feasible(family, state, gain @ state).u
normal, offset = family.data(state[None, :])
rows_at_state = np.vstack([normal, np.eye(2), -np.eye(2)])
bounds_at_state = np.concatenate([offset, np.ones(4)])
general = proj_polyhedron(gain @ state, rows_at_state, bounds_at_state).u
print(f"scalar KKT solve (controller) u* = {direct}")
print(f"dual active-set solve         u* = {general}")
print(f"difference: {np.linalg.norm(direct - general):.2e}")
