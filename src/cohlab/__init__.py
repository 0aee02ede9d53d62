"""Coherence typicality of Haar-random pure states.

Closed-form averages, concentration bounds, batched coherence measures,
coherent-subspace guarantees, and reproducible Monte Carlo experiments
that confront the sampled statistics with the analytic predictions.
Command-line front end: ``cohlab``.
"""

from .analytics import (
    EULER_GAMMA,
    MIN_DIM_FOR_NONTRIVIAL_SUBSPACE,
    SUBSPACE_K_DENOM,
    BoundValue,
    SubspaceDimension,
    beta,
    digamma_integer,
    expected_classical_purity,
    expected_cr,
    expected_cr_via_beta,
    expected_cr_via_quadrature,
    expected_l1,
    expected_trace_distance,
    fannes_asymptote,
    haar_prob_moment,
    harmonic,
    levy_bound_cr,
    levy_bound_purity,
    levy_bound_trdist,
    levy_generic,
    lipschitz_cr,
    subspace_dimension,
    subspace_threshold,
    typical_l1_upper,
)
from .errors import CohlabError, InvalidArgumentError, VacuousGuaranteeError
from .experiments import (
    MEASURE_KINDS,
    CheckResult,
    ConcentrationReport,
    DecompositionCheckReport,
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
from .sampler import (
    ginibre,
    positive_qr,
    sample_random_subspace,
)
from .streams import new_generator

__version__ = "0.1.0"
