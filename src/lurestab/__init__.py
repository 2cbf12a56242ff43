"""Certification and simulation toolkit for LTI systems driven by
parametric projection controllers.

The pipeline: synthesize a nominal gain (LQR from the Riccati
Hamiltonian's stable subspace), find the largest certified contraction
rate and its certificate (P, eta, lambda) for the Lur'e block matrix
inequality by a Hamiltonian bisection on the same kernel, evaluate the
projection controller over a constraint family, integrate the closed
loop, and check every trajectory-level guarantee numerically (decay
envelope, Lyapunov decrease, equilibrium-set convergence, semi-global
rate fit, safety).
"""

from .families import (
    AffineInequalities,
    HalfspacePlusBox,
    ProjectionController,
    ProjResult,
    StateBox,
    eval_controller,
    fixed_point_solve,
    proj_box,
    proj_halfspace,
    proj_polyhedron,
    project_feasible,
    strictly_feasible,
    zero_feasible,
)
from .linalg import (
    EigenResult,
    SingularMatrixError,
    cholesky,
    is_neg_semidefinite,
    solve_linear,
    sym_eig,
    weighted_norm,
)
from .lure import (
    CertSearchConfig,
    ContractionGapReport,
    FeasibilitySearchResult,
    LtiPlant,
    LureCertificate,
    RateSearchResult,
    assemble_lmi,
    check_cocoercivity,
    contraction_gap,
    find_certificate,
    max_contraction_rate,
    verify_certificate,
)
from .rng import RandomSource
from .sim import (
    ClosedLoopSystem,
    EnvelopeReport,
    EquilibriumReport,
    RateFit,
    SafetyReport,
    SimConfig,
    Termination,
    Trajectory,
    batch_simulate,
    check_decay_envelope,
    check_lyapunov_decrease,
    check_safety,
    detect_equilibrium,
    fit_semiglobal_rate,
    frozen_constraint_field,
    integrate,
    write_trajectory_csv,
)
from .synthesis import (
    CareError,
    CareSolution,
    LqrWeights,
    build_cbf_system,
    build_saturation_system,
    example1_setup,
    example2_grid,
    example2_system,
    hurwitz_check,
    solve_care,
    solve_lyapunov,
)

__version__ = "0.1.0"
