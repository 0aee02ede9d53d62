"""The names ``cohlab`` re-exports, pinned: adding or removing a public name
must show up as a diff of this list."""

import inspect

import cohlab

PUBLIC_NAMES = [
    "BoundValue",
    "CheckResult",
    "CohlabError",
    "ConcentrationReport",
    "DecompositionCheckReport",
    "EULER_GAMMA",
    "ExperimentConfig",
    "InequalitySweepReport",
    "InvalidArgumentError",
    "InvalidDimensionError",
    "InvalidEpsilonError",
    "MEASURE_KINDS",
    "MIN_DIM_FOR_NONTRIVIAL_SUBSPACE",
    "MatrixIntegralReport",
    "SUBSPACE_K_DENOM",
    "SubspaceDimension",
    "SubspaceFloorReport",
    "UnsupportedDimensionError",
    "VacuousGuaranteeError",
    "beta",
    "digamma_integer",
    "expected_classical_purity",
    "expected_cr",
    "expected_cr_via_beta",
    "expected_cr_via_quadrature",
    "expected_trace_distance",
    "fannes_asymptote",
    "first_prob_samples",
    "ginibre",
    "haar_prob_moment",
    "harmonic",
    "ks_distance_u11",
    "levy_bound_cr",
    "levy_bound_purity",
    "levy_bound_trdist",
    "levy_generic",
    "lipschitz_cr",
    "new_generator",
    "positive_qr",
    "run_concentration",
    "run_decomposition_check",
    "run_inequality_sweep",
    "run_matrix_integral_check",
    "run_subspace_floor",
    "sample_random_subspace",
    "subspace_cr_samples",
    "subspace_dimension",
    "subspace_threshold",
    "typical_l1_upper",
    "verify_inequalities",
    "verify_integral",
    "verify_matrix",
    "verify_moments",
]


def test_public_names_are_pinned_and_resolve():
    exported = sorted(
        name
        for name, value in vars(cohlab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert exported == PUBLIC_NAMES
    # each name is the object of the submodule that defines it, not a copy
    modules = [m for m in vars(cohlab).values() if inspect.ismodule(m)]
    for name in PUBLIC_NAMES:
        value = getattr(cohlab, name)
        assert any(getattr(m, name, None) is value for m in modules), name
