import types

import lurestab

PUBLIC_NAMES = {
    # families
    "AffineInequalities", "HalfspacePlusBox", "ProjectionController", "ProjResult",
    "StateBox", "proj_polyhedron", "project_feasible", "strictly_feasible",
    # linalg
    "cholesky", "is_neg_semidefinite", "solve_lyapunov",
    # lure
    "CertSearchConfig", "ContractionGapReport", "FeasibilitySearchResult", "LtiPlant",
    "LureCertificate", "RateSearchResult", "assemble_lmi", "check_cocoercivity",
    "contraction_gap", "find_certificate", "max_contraction_rate", "verify_certificate",
    # rng
    "RandomSource",
    # sim
    "ClosedLoopSystem", "EnvelopeReport", "EquilibriumReport", "RateFit", "SafetyReport",
    "SimConfig", "Termination", "Trajectory", "batch_simulate", "check_decay_envelope",
    "check_lyapunov_decrease", "check_safety", "detect_equilibrium", "fit_semiglobal_rate",
    "frozen_constraint_field", "integrate", "write_trajectory_csv",
    # synthesis
    "CareError", "CareSolution", "LqrWeights", "build_cbf_system",
    "build_saturation_system", "example1_setup", "example2_grid", "example2_system",
    "hurwitz_check", "solve_care",
}


def test_public_surface_is_pinned():
    # submodules are attributes once imported; the exports are everything else
    exported = {name for name, value in vars(lurestab).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES
    for gone in ("SingularMatrixError", "EigenResult", "solve_linear", "sym_eig",
                 "weighted_norm", "fixed_point_solve", "proj_halfspace", "eval_controller",
                 "proj_box", "zero_feasible"):
        assert not hasattr(lurestab, gone)
    assert lurestab.solve_lyapunov.__module__ == "lurestab.linalg"
