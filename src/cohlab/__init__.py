"""Coherence typicality of Haar-random pure states.

Closed-form averages, concentration bounds, per-state coherence measures,
coherent-subspace guarantees, and reproducible Monte Carlo experiments
that confront the sampled statistics with the analytic predictions.
Command-line front end: ``cohlab``.
"""

from .analytics import (
    EULER_GAMMA,
    MIN_DIM_FOR_NONTRIVIAL_SUBSPACE,
    SUBSPACE_K_DENOM,
    BoundValue,
    LevyParams,
    SubspaceDimension,
    beta,
    digamma_integer,
    expected_classical_purity,
    expected_cr,
    expected_cr_via_beta,
    expected_cr_via_quadrature,
    expected_trace_distance,
    fannes_asymptote,
    haar_prob_moment,
    harmonic,
    levy_bound_cr,
    levy_bound_purity,
    levy_bound_trdist,
    levy_generic,
    lipschitz_cr,
    net_log_size,
    subspace_dimension,
    subspace_threshold,
    typical_l1_upper,
)
from .errors import (
    CohlabError,
    InvalidArgumentError,
    InvalidDimensionError,
    InvalidEpsilonError,
    UnsupportedDimensionError,
    VacuousGuaranteeError,
)
from .experiments import (
    MEASURE_KINDS,
    CheckResult,
    ConcentrationReport,
    DecompositionCheckReport,
    ExperimentConfig,
    InequalitySweepReport,
    MatrixIntegralReport,
    SubspaceFloorReport,
    first_prob_samples,
    ks_distance_u11,
    run_concentration,
    run_decomposition_check,
    run_inequality_sweep,
    run_matrix_integral_check,
    run_subspace_floor,
    subspace_cr_samples,
    verify_inequalities,
    verify_integral,
    verify_matrix,
    verify_moments,
)
from .measures import (
    classical_purity,
    coherence_of_formation_pure,
    fannes_floor,
    l1_coherence_pure,
    relative_entropy_coherence,
    trace_distance_diag_mm,
)
from .sampler import (
    PureState,
    SubspaceBasis,
    ginibre,
    positive_qr,
    sample_haar_pure,
    sample_random_subspace,
)
from .streams import RandomStream, new_generator

__version__ = "0.1.0"
