import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohlab.analytics import (
    EULER_GAMMA,
    MIN_DIM_FOR_NONTRIVIAL_SUBSPACE,
    SUBSPACE_K_DENOM,
    BoundValue,
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
    subspace_dimension,
    subspace_threshold,
    typical_l1_upper,
)
from cohlab.errors import (
    InvalidArgumentError,
    InvalidDimensionError,
    InvalidEpsilonError,
    UnsupportedDimensionError,
)
from cohlab.measures import entropy_from_probs, mixedness_from_probs

from conftest import random_state_vector


def harmonic_fsum(d):
    return math.fsum(1.0 / k for k in range(1, d + 1))


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(1) == 1.0
        assert harmonic(2) == 1.5

    def test_partial_sum_oracle(self):
        for d in (20, 137, 5000):
            assert abs(harmonic(d) - harmonic_fsum(d)) < 1e-12

    def test_frozen_h20(self):
        assert abs(harmonic(20) - 3.597739657143682) < 1e-14

    def test_switchover_continuity(self):
        # exact branch at 1e6 vs the asymptotic series evaluated there
        d = 10**6
        asym = math.log(d) + EULER_GAMMA + 1 / (2 * d) - 1 / (12 * d * d)
        assert abs(harmonic(d) - asym) < 1e-12
        assert abs(harmonic(d) - harmonic_fsum(d)) < 1e-12

    def test_asymptotic_branch(self):
        d = 2 * 10**6
        asym = math.log(d) + EULER_GAMMA + 1 / (2 * d) - 1 / (12 * d * d)
        assert harmonic(d) == asym

    def test_rejects_zero(self):
        with pytest.raises(InvalidDimensionError):
            harmonic(0)


class TestDigamma:
    def test_psi1(self):
        assert digamma_integer(1) == -EULER_GAMMA

    def test_psi2(self):
        assert abs(digamma_integer(2) - (1.0 - EULER_GAMMA)) < 1e-15

    def test_telescoping_h10(self):
        assert abs(digamma_integer(11) - digamma_integer(1) - 2.9289682539682538) < 1e-13

    def test_rejects_pole(self):
        with pytest.raises(InvalidDimensionError):
            digamma_integer(0)


class TestBeta:
    def test_b21(self):
        assert abs(beta(2, 1) - 0.5) < 1e-15

    def test_factorial_identity_d5(self):
        assert abs(beta(2, 4) - 0.05) < 1e-15

    def test_b11(self):
        assert abs(beta(1, 1) - 1.0) < 1e-15

    def test_large_arguments_no_overflow(self):
        d = 1000
        assert abs(beta(2, d - 1) * d * (d - 1) - 1.0) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidArgumentError):
            beta(0.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            beta(1.0, -2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        # NaN fails every comparison, so "<= 0" alone lets it through, as it does inf
        with pytest.raises(InvalidArgumentError):
            beta(bad, 2.0)
        with pytest.raises(InvalidArgumentError):
            beta(2.0, bad)


class TestExpectedCr:
    def test_d2(self):
        assert expected_cr(2) == 0.5

    def test_d1_is_zero(self):
        assert expected_cr(1) == 0.0

    def test_d20_scaled(self):
        value = expected_cr(20)
        assert abs(value - 2.597739657143682) < 1e-14
        assert abs(value / math.log(20) - 0.8671468008260464) < 1e-12
        assert abs(value / math.log(20) - 0.87) < 0.01

    def test_d500_scaled(self):
        value = expected_cr(500)
        assert abs(value - 5.792823429990524) < 1e-12
        assert abs(value / math.log(500) - 0.9321301260269) < 1e-10
        assert abs(value / math.log(500) - 0.93) < 0.01

    def test_strictly_increasing(self):
        values = [expected_cr(d) for d in range(1, 200)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestExpectedCrViaBeta:
    def test_d2(self):
        assert abs(expected_cr_via_beta(2) - 0.5) < 1e-12

    def test_d3(self):
        assert abs(expected_cr_via_beta(3) - 5.0 / 6.0) < 1e-12

    def test_cross_identity_d1000(self):
        assert abs(expected_cr_via_beta(1000) - expected_cr(1000)) < 1e-10

    def test_rejects_d1(self):
        with pytest.raises(InvalidDimensionError):
            expected_cr_via_beta(1)


class TestExpectedCrViaQuadrature:
    def test_d2(self):
        assert abs(expected_cr_via_quadrature(2) - 0.5) < 1e-6

    def test_d10(self):
        assert abs(expected_cr_via_quadrature(10) - 1.9289682539682538) < 1e-6

    def test_d50(self):
        assert abs(expected_cr_via_quadrature(50) - 3.4992053383294253) < 1e-6

    def test_rejects_out_of_range(self):
        with pytest.raises(UnsupportedDimensionError):
            expected_cr_via_quadrature(1)
        with pytest.raises(UnsupportedDimensionError):
            expected_cr_via_quadrature(51)


class TestExpectedPurityAndDistance:
    def test_purity_values(self):
        assert expected_classical_purity(1) == 1.0
        assert expected_classical_purity(3) == 0.5
        assert abs(expected_classical_purity(100) - 2.0 / 101.0) < 1e-15

    def test_purity_strictly_decreasing(self):
        values = [expected_classical_purity(d) for d in range(1, 200)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_trace_distance_values(self):
        assert expected_trace_distance(1) == 0.0
        assert abs(expected_trace_distance(2) - 0.5) < 1e-15
        # exact rationals 2*(99/100)^100 and 2*(999/1000)^1000
        assert abs(expected_trace_distance(100) - 0.732064682546459) < 1e-13
        assert abs(expected_trace_distance(1000) - 0.7353908495419281) < 1e-13

    def test_trace_distance_limit(self):
        limit = 2.0 / math.e
        values = [expected_trace_distance(d) for d in (2, 10, 100, 10**4, 10**6)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < limit for v in values)
        assert limit - values[-1] < 1e-6


class TestHaarProbMoment:
    def test_first_moment(self):
        assert abs(haar_prob_moment(2, 1) - 0.5) < 1e-15
        assert abs(haar_prob_moment(100, 1) - 0.01) < 1e-15

    def test_second_moment(self):
        assert abs(haar_prob_moment(2, 2) - 1.0 / 3.0) < 1e-15
        assert abs(haar_prob_moment(100, 2) - 2.0 / (100 * 101)) < 1e-16

    def test_zeroth_moment(self):
        assert abs(haar_prob_moment(17, 0) - 1.0) < 1e-15


class TestLevyBounds:
    def test_params_validation(self):
        with pytest.raises(InvalidDimensionError):
            levy_generic(0, 0.5, 1.0)
        with pytest.raises(InvalidEpsilonError):
            levy_generic(3, 0.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            levy_generic(3, 0.5, 0.0)

    def test_generic_vacuous_limit(self):
        bound = levy_generic(3, 0.5, 1e12)
        assert abs(bound.raw - 2.0) < 1e-12
        assert bound.effective == 1.0

    def test_generic_frozen_example(self):
        # k = 2e7 - 1, eps = 0.5, eta = sqrt(8) ln(1e7): exponent -12.44, raw 7.9e-6
        eta = math.sqrt(8) * math.log(1e7)
        bound = levy_generic(2 * 10**7 - 1, 0.5, eta)
        exponent = -(2 * 10**7) * 0.25 / (9 * math.pi**3 * eta * eta * math.log(2))
        assert abs(bound.log_raw - (math.log(2) + exponent)) < 1e-12
        assert abs(bound.raw - 7.9e-6) < 1e-7

    def test_doubling_eps_quadruples_exponent(self):
        b1 = levy_generic(99, 0.3, 2.0)
        b2 = levy_generic(99, 0.6, 2.0)
        e1 = b1.log_raw - math.log(2)
        e2 = b2.log_raw - math.log(2)
        assert abs(e2 - 4 * e1) < 1e-12

    def test_cr_bound_matches_generic_exactly(self):
        # k+1 = 2d and eta^2 = 8 (ln d)^2 fold into the printed constant 36
        for d in (3, 20, 1000, 10**7):
            eta = math.sqrt(8) * math.log(d)
            generic = levy_generic(2 * d - 1, 0.5, eta)
            printed = levy_bound_cr(d, 0.5)
            assert abs(generic.log_raw - printed.log_raw) < 1e-12

    def test_cr_bound_frozen_values(self):
        vacuous = levy_bound_cr(1000, 1.0)
        assert abs(vacuous.raw - 1.9465) < 1e-3
        assert vacuous.effective == 1.0
        small = levy_bound_cr(10**7, 0.5)
        assert abs(small.raw - 7.9e-6) < 1e-7

    def test_cr_bound_small_eps_vacuous(self):
        bound = levy_bound_cr(1000, 1e-12)
        assert abs(bound.raw - 2.0) < 1e-9
        assert bound.effective == 1.0

    def test_cr_bound_rejects_small_d(self):
        with pytest.raises(UnsupportedDimensionError):
            levy_bound_cr(2, 0.5)

    def test_purity_bound_frozen_values(self):
        # exponents -2500/386.85 and -1e4/386.85
        assert abs(levy_bound_purity(10**6, 0.05).raw - 3.1e-3) < 1e-4
        assert abs(levy_bound_purity(10**8, 0.01).raw - 1.2e-11) < 1e-12

    def test_trdist_equals_purity_form(self):
        a = levy_bound_purity(10**6, 0.05)
        b = levy_bound_trdist(10**6, 0.05)
        assert a == b

    def test_trdist_monotone_in_d(self):
        values = [levy_bound_trdist(d, 0.05).raw for d in (10, 100, 10**4, 10**6)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_log_domain_survives_underflow(self):
        bound = levy_bound_purity(10**12, 0.5)
        assert bound.raw == 0.0  # underflows
        assert bound.effective == 0.0
        assert math.isfinite(bound.log_raw)


@given(st.floats(min_value=-800.0, max_value=math.log(2.0), allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_bound_value_invariants(log_raw):
    bound = BoundValue.from_log(log_raw)
    assert 0.0 <= bound.effective <= 1.0
    assert bound.effective == min(bound.raw, 1.0)
    assert bound.raw == math.exp(log_raw)


class TestLipschitz:
    def test_d3(self):
        assert abs(lipschitz_cr(3) - math.sqrt(8) * math.log(3)) < 1e-15
        assert abs(lipschitz_cr(3) - 3.1073447968483734) < 1e-12

    def test_d20(self):
        assert abs(lipschitz_cr(20) - 8.473210420997681) < 1e-12

    def test_rejects_small_d(self):
        with pytest.raises(UnsupportedDimensionError):
            lipschitz_cr(2)

    def test_empirical_lipschitz_bound(self, rng):
        # |C_r(psi) - C_r(phi)| <= sqrt(8) ln d ||psi - phi||_2, zero violations
        d = 8
        eta = lipschitz_cr(d)
        violations = 0
        for _ in range(10000):
            a = random_state_vector(d, rng)
            b = random_state_vector(d, rng)
            gap = abs(entropy_from_probs(abs(a) ** 2) - entropy_from_probs(abs(b) ** 2))
            dist = np.linalg.norm(a - b)
            if gap > eta * dist + 1e-12:
                violations += 1
        assert violations == 0


class TestSubspaceDimension:
    def test_frozen_examples(self):
        assert subspace_dimension(100000, 0.9 * math.log(100000)).s == 4
        assert subspace_dimension(34000, 0.999 * math.log(34000)).s == 2
        assert subspace_dimension(1000, 0.5 * math.log(1000)).s == 0

    def test_small_d_warning_flag(self):
        assert subspace_dimension(34000, 0.999 * math.log(34000)).small_d_warning is False
        assert subspace_dimension(10000, 0.9 * math.log(10000)).small_d_warning is True
        # s grows with eps, so the largest eps < ln d decides whether any reaches s >= 2
        below, at = MIN_DIM_FOR_NONTRIVIAL_SUBSPACE - 1, MIN_DIM_FOR_NONTRIVIAL_SUBSPACE
        assert subspace_dimension(below, math.nextafter(math.log(below), 0.0)) == (1, True)
        assert subspace_dimension(at, math.nextafter(math.log(at), 0.0)) == (2, False)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(InvalidEpsilonError):
            subspace_dimension(1000, 0.0)
        with pytest.raises(InvalidEpsilonError):
            subspace_dimension(1000, math.log(1000))

    def test_rejects_small_d(self):
        with pytest.raises(UnsupportedDimensionError):
            subspace_dimension(2, 0.1)

    @given(
        st.integers(min_value=3, max_value=10**7),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-9, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_floor_correctness(self, d, frac):
        eps = frac * math.log(d)
        s = subspace_dimension(d, eps).s
        exact = d * (eps / math.log(d)) ** 2.5 / SUBSPACE_K_DENOM
        assert s * 1.0 <= exact < s + 1.0
        assert s >= 0


class TestSubspaceThreshold:
    def test_frozen_d100000(self):
        threshold = subspace_threshold(100000, 0.9 * math.log(100000))
        assert abs(threshold - 0.7285) < 1e-3
        oracle = harmonic(100000) - 1.0 - 0.9 * math.log(100000)
        assert abs(threshold - oracle) < 1e-12

    def test_d34000_matches_formula(self):
        # H_34000 - 1 - 0.999 ln 34000 evaluated by an independent fsum oracle
        eps = 0.999 * math.log(34000)
        oracle = harmonic_fsum(34000) - 1.0 - eps
        assert abs(subspace_threshold(34000, eps) - oracle) < 1e-10

    def test_small_eps_approaches_mean(self):
        d = 50000
        threshold = subspace_threshold(d, 1e-9)
        assert abs(threshold - expected_cr(d)) < 1e-8

    def test_shares_validation(self):
        with pytest.raises(InvalidEpsilonError):
            subspace_threshold(1000, -1.0)


def l1_upper_bound(probs):
    # sqrt(d(d-1)(1 - P)) as the inequality sweep computes it
    d = len(probs)
    return math.sqrt(d * (d - 1) * mixedness_from_probs(np.asarray(probs)))


class TestL1Bounds:
    def test_upper_bound_from_purity(self):
        assert l1_upper_bound([1.0, 0.0, 0.0, 0.0, 0.0]) == 0.0
        assert abs(l1_upper_bound([0.25] * 4) - 3.0) < 1e-12
        # purity 0.625 at d = 4
        assert abs(l1_upper_bound([0.75, 0.25, 0.0, 0.0]) - 2.1213203435596424) < 1e-12

    def test_upper_bound_clamps_boundary_rounding(self):
        # a diagonal whose purity rounds above 1 still gets the bound 0, not NaN
        assert l1_upper_bound([1.0 + 1e-12, 0.0, 0.0, 0.0]) == 0.0

    def test_typical_upper(self):
        assert abs(typical_l1_upper(2) - math.sqrt(2.0 / 3.0)) < 1e-15
        assert abs(typical_l1_upper(4) - math.sqrt(7.2)) < 1e-15

    def test_typical_ratio_to_trivial(self):
        for d in (10, 100, 10**6):
            ratio = typical_l1_upper(d) / (d - 1)
            assert abs(ratio - math.sqrt(d / (d + 1.0))) < 1e-12
        assert typical_l1_upper(10**6) / (10**6 - 1) > 1.0 - 1e-6


class TestFannesAsymptote:
    def test_value(self):
        assert abs(fannes_asymptote() - 0.6321205588285577) < 1e-15
        assert abs(fannes_asymptote() - 0.6321) < 1e-4

    def test_limit_identity(self):
        # 1 - T(d) with T = (1 - 1/d)^d approaches 1 - 1/e
        t = expected_trace_distance(10**6) / 2.0
        assert abs((1.0 - t) - fannes_asymptote()) < 1e-6 * math.e
