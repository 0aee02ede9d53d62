import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohlab.measures import (
    _binary_entropy,
    entropy_from_probs,
    fannes_floor_from_probs,
    l1_from_probs,
    mixedness_from_probs,
    purity_from_probs,
    trdist_mm_from_probs,
)
from cohlab.sampler import _mix_ensemble, ginibre, positive_qr
from cohlab.streams import new_generator

from conftest import random_state_vector

# independently evaluated: -0.25 ln 0.25 - 0.75 ln 0.75
ENTROPY_QUARTER = 0.5623351446188083
# 2 * sqrt(0.25 * 0.75)
L1_QUARTER = 0.8660254037844386

# amplitudes; the kernels take their diagonals abs(psi) ** 2
BASIS3 = np.array([1, 0, 0], dtype=complex)
UNIFORM4 = np.full(4, 0.5, dtype=complex)
QUARTER = np.array([math.sqrt(0.25), math.sqrt(0.75)], dtype=complex)


def l1_double_sum(psi):
    # O(d^2) oracle: sum_{i != j} |psi_i psi_j*|
    mags = np.abs(psi)
    total = 0.0
    for i in range(mags.size):
        for j in range(mags.size):
            if i != j:
                total += mags[i] * mags[j]
    return total


def cr_rank2_mixture(weights, states):
    """C_r of a rank-<=2 mixture from the 2x2 overlap-matrix spectrum.

    Eigenvalues of rho come from the closed-form quadratic of the overlap
    matrix M_ab = sqrt(p_a p_b) <psi_a|psi_b>; no eigensolver involved.
    """
    a, b = states
    p1, p2 = weights
    g = np.vdot(a, b)
    trace = p1 + p2
    det = p1 * p2 * (1.0 - abs(g) ** 2)
    disc = math.sqrt(max(trace * trace - 4.0 * det, 0.0))
    lam = [(trace + disc) / 2.0, (trace - disc) / 2.0]
    spec_entropy = -sum(x * math.log(x) for x in lam if x > 1e-300)
    probs = p1 * (a.real**2 + a.imag**2) + p2 * (b.real**2 + b.imag**2)
    diag_entropy = -sum(x * math.log(x) for x in probs if x > 1e-300)
    return diag_entropy - spec_entropy


class TestShannonEntropy:
    def test_deterministic_distribution(self):
        assert entropy_from_probs(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_uniform(self):
        assert abs(entropy_from_probs(np.full(4, 0.25)) - math.log(4)) < 1e-15

    def test_quarter(self):
        assert abs(entropy_from_probs(np.array([0.25, 0.75])) - ENTROPY_QUARTER) < 1e-15

    def test_underflow_is_zero_not_nan(self):
        assert entropy_from_probs(np.array([1.0, 1e-310])) == 0.0


class TestRelativeEntropyCoherence:
    def test_basis_state(self):
        assert entropy_from_probs(abs(BASIS3) ** 2) == 0.0

    def test_uniform_is_maximal(self):
        assert abs(entropy_from_probs(abs(UNIFORM4) ** 2) - math.log(4)) < 1e-15

    def test_quarter(self):
        assert abs(entropy_from_probs(abs(QUARTER) ** 2) - ENTROPY_QUARTER) < 1e-15


class TestL1Coherence:
    def test_basis_state(self):
        assert l1_from_probs(abs(BASIS3) ** 2) == 0.0

    def test_uniform(self):
        assert abs(l1_from_probs(abs(UNIFORM4) ** 2) - 3.0) < 1e-12

    def test_quarter(self):
        assert abs(l1_from_probs(abs(QUARTER) ** 2) - L1_QUARTER) < 1e-15

    @pytest.mark.parametrize("dim", [2, 8, 64])
    def test_matches_double_sum_oracle(self, dim, rng):
        for _ in range(5):
            psi = random_state_vector(dim, rng)
            assert abs(l1_from_probs(abs(psi) ** 2) - l1_double_sum(psi)) < 1e-10


class TestClassicalPurity:
    def test_basis_state(self):
        assert purity_from_probs(abs(BASIS3) ** 2) == 1.0

    def test_uniform(self):
        assert abs(purity_from_probs(abs(UNIFORM4) ** 2) - 0.25) < 1e-15

    def test_quarter(self):
        assert abs(purity_from_probs(abs(QUARTER) ** 2) - 0.625) < 1e-15


class TestTraceDistance:
    def test_uniform_is_zero(self):
        assert trdist_mm_from_probs(abs(UNIFORM4) ** 2) < 1e-15

    def test_basis_state_d4(self):
        assert abs(trdist_mm_from_probs(np.array([1.0, 0.0, 0.0, 0.0])) - 1.5) < 1e-15

    def test_quarter(self):
        assert abs(trdist_mm_from_probs(abs(QUARTER) ** 2) - 0.5) < 1e-15

    def test_maximum_at_basis_states(self, rng):
        d = 7
        bound = 2.0 * (1.0 - 1.0 / d)
        assert abs(trdist_mm_from_probs(np.eye(d)[0]) - bound) < 1e-15
        for _ in range(20):
            psi = random_state_vector(d, rng)
            assert trdist_mm_from_probs(abs(psi) ** 2) <= bound + 1e-12


class TestDecompositionAverage:
    """Weighted member C_r of ensembles mixed in coefficient space, with the
    identity frame: the coefficient rows are the states."""

    @staticmethod
    def average(weights, rows):
        return float(np.dot(weights, entropy_from_probs(abs(rows) ** 2)))

    @staticmethod
    def redecompose(weights, rows, m_out, generator):
        isometry = positive_qr(ginibre(generator, m_out, len(weights)))
        return _mix_ensemble(weights, rows, isometry)

    def test_single_state(self, rng):
        # every member of a mixed one-state ensemble is the state up to phase
        psi = random_state_vector(5, rng)
        weights, rows = self.redecompose(np.array([1.0]), psi[None], 4, new_generator(3, 0))
        assert len(rows) == 4
        avg = self.average(weights, rows)
        assert abs(avg - entropy_from_probs(abs(psi) ** 2)) < 1e-15

    def test_incoherent_ensemble(self):
        # a permutation of basis states is an isometric mix with C_r 0 each
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        weights, rows = _mix_ensemble(np.array([0.5, 0.5]), np.eye(2, dtype=complex), swap)
        assert self.average(weights, rows) == 0.0

    def test_averages_bound_formation_from_above(self, rng):
        # every decomposition average >= C_f >= C_r of the mixed state
        # (rank-2 spectrum via the closed-form 2x2 overlap quadratic)
        for _ in range(5):
            rows = np.array([random_state_vector(3, rng) for _ in range(2)])
            raw = rng.random(2)
            weights = raw / raw.sum()
            floor = cr_rank2_mixture(weights, rows)
            assert self.average(weights, rows) >= floor - 1e-9
            for trial in range(4):
                redec = self.redecompose(weights, rows, 4, new_generator(7, trial))
                assert self.average(*redec) >= floor - 1e-9


class TestBinaryEntropy:
    def test_half_is_ln2(self):
        assert abs(_binary_entropy(np.float64(0.5)) - math.log(2)) < 1e-15

    def test_edges(self):
        assert _binary_entropy(np.float64(0.0)) == 0.0
        assert _binary_entropy(np.float64(1.0)) == 0.0


class TestFannesFloor:
    def test_uniform_meets_floor_with_equality(self):
        probs = abs(np.full(8, math.sqrt(1 / 8), dtype=complex)) ** 2
        assert abs(fannes_floor_from_probs(probs) - math.log(8)) < 1e-12
        assert abs(entropy_from_probs(probs) - fannes_floor_from_probs(probs)) < 1e-12

    def test_basis_state_d2_vacuous(self):
        probs = np.array([1.0, 0.0])
        # (1 - 1/2) ln 2 - H2(1/2) = -ln(2)/2
        assert abs(fannes_floor_from_probs(probs) - (-0.34657359027997264)) < 1e-15
        assert entropy_from_probs(probs) >= fannes_floor_from_probs(probs)

    def test_degenerate_d1(self):
        assert fannes_floor_from_probs(np.array([1.0])) == 0.0

    def test_floor_holds_for_samples(self, rng):
        for _ in range(50):
            probs = abs(random_state_vector(100, rng)) ** 2
            assert entropy_from_probs(probs) >= fannes_floor_from_probs(probs) - 1e-12


class TestProfile:
    def test_profile_invariants(self, rng):
        for dim in (2, 3, 17, 100):
            probs = abs(random_state_vector(dim, rng)) ** 2
            c_r = entropy_from_probs(probs)
            assert 0.0 <= c_r <= math.log(dim) + 1e-12
            assert 0.0 <= l1_from_probs(probs) <= dim - 1 + 1e-9
            assert 1.0 / dim - 1e-12 <= purity_from_probs(probs) <= 1.0 + 1e-12
            assert 0.0 <= trdist_mm_from_probs(probs) <= 2.0 * (1 - 1 / dim) + 1e-12
            assert c_r >= fannes_floor_from_probs(probs) - 1e-12

    def test_l1_purity_bound_tight_at_uniform(self):
        d = 4
        probs = abs(UNIFORM4) ** 2
        c_l1 = l1_from_probs(probs)
        bound = math.sqrt(d * (d - 1) * (1.0 - purity_from_probs(probs)))
        assert abs(c_l1 - bound) < 1e-12
        assert abs(c_l1 - (d - 1)) < 1e-12


@st.composite
def amplitude_vectors(draw):
    dim = draw(st.integers(min_value=1, max_value=24))
    re = draw(
        st.lists(
            st.floats(min_value=-1, max_value=1, allow_nan=False),
            min_size=dim,
            max_size=dim,
        )
    )
    im = draw(
        st.lists(
            st.floats(min_value=-1, max_value=1, allow_nan=False),
            min_size=dim,
            max_size=dim,
        )
    )
    z = np.array(re) + 1j * np.array(im)
    norm = np.linalg.norm(z)
    if norm < 1e-3:
        z = z + 1.0
        norm = np.linalg.norm(z)
    return z / norm


@given(amplitude_vectors())
@settings(max_examples=120, deadline=None)
def test_entropy_bounds_property(z):
    c_r = entropy_from_probs(abs(z) ** 2)
    assert 0.0 <= c_r <= math.log(len(z)) + 1e-9


@given(amplitude_vectors(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_permutation_covariance(z, pyrandom):
    perm = list(range(len(z)))
    pyrandom.shuffle(perm)
    probs = abs(z) ** 2
    for kernel in (entropy_from_probs, l1_from_probs, purity_from_probs, trdist_mm_from_probs):
        assert abs(kernel(probs) - kernel(probs[perm])) < 1e-12


@given(amplitude_vectors())
# 1 - P cancels to 0 for these while C_l1 is a few 1e-9; 1 - sum p_i (1 - p_i)
# still falls short of the bound for the second and third
@example(np.array([1j, 1e-9j]))
@example(np.array([1.0, 3e-9]))
@example(np.array([1.0, 2e-9, 2e-9]))
@settings(max_examples=80, deadline=None)
def test_l1_purity_inequality_property(z):
    d = len(z)
    probs = abs(z) ** 2
    bound = math.sqrt(d * (d - 1) * mixedness_from_probs(probs))
    assert l1_from_probs(probs) <= bound + 1e-9


def test_mixedness_matches_one_minus_purity(rng):
    probs = rng.dirichlet(np.ones(7), size=5)
    assert np.allclose(mixedness_from_probs(probs), 1.0 - (probs**2).sum(axis=1), atol=1e-15)
    # one p_i within rounding of 1: the exact value is 2 p_0 p_1, not 0
    assert mixedness_from_probs(np.array([1.0, 1e-18])) == 2e-18
    assert mixedness_from_probs(np.array([1.0])) == 0.0


def test_entropy_kernel_batch_matches_scalar(rng):
    probs = rng.dirichlet(np.ones(6), size=10)
    batch = entropy_from_probs(probs)
    for row, p in zip(batch, probs):
        assert abs(row - -math.fsum(x * math.log(x) for x in p if x > 0)) < 1e-12


def reference_entropy(probs):
    # the zero terms take ln 1 = 0 through np.where; no log of 0 is taken
    p = np.asarray(probs, dtype=np.float64)
    terms = np.where(p > 1e-300, p, 1.0)
    np.log(terms, out=terms)
    terms *= p
    return np.maximum(-terms.sum(axis=-1), 0.0)


def reference_trdist(probs):
    # abs of a fresh difference, summed
    p = np.asarray(probs, dtype=np.float64)
    return np.abs(p - 1.0 / p.shape[-1]).sum(axis=-1)


def reference_mixedness(probs):
    # a zeroed array for the sums over j != i, and a fresh product
    p = np.asarray(probs, dtype=np.float64)
    rest = np.zeros_like(p)
    rest[..., 1:] = np.cumsum(p[..., :-1], axis=-1)
    rest[..., :-1] += np.cumsum(p[..., :0:-1], axis=-1)[..., ::-1]
    return (p * rest).sum(axis=-1)


def edge_batches():
    rng = np.random.default_rng(909)
    dirichlet = rng.dirichlet(np.ones(9), size=6)
    dirichlet[0, :3] = 0.0
    # one-hot rows with one tiny entry, whose p ln p is not lost in the sum
    edges = np.zeros((6, 9))
    edges[:, 7] = 1.0
    edges[1, 2] = 1e-310
    edges[2, 4] = 1e-300
    edges[3, 5] = np.nextafter(1e-300, 1.0)
    edges[4, 1] = np.nextafter(1e-300, 0.0)
    edges[5, 0] = 1e-200
    return {
        "dirichlet": dirichlet,
        "edges": edges,
        "d1": np.ones((4, 1)),
        "single-row": edges[2],
    }


@pytest.mark.parametrize("name", sorted(edge_batches()))
@pytest.mark.parametrize(
    "kernel, oracle",
    [
        (entropy_from_probs, reference_entropy),
        (trdist_mm_from_probs, reference_trdist),
        (mixedness_from_probs, reference_mixedness),
    ],
    ids=["entropy", "trdist", "mixedness"],
)
def test_kernels_match_reference_expressions_byte_for_byte(kernel, oracle, name):
    probs = edge_batches()[name]
    before = probs.copy()
    assert np.array_equal(kernel(probs), oracle(probs))
    assert np.array_equal(probs, before)  # the input is not mutated


@pytest.mark.parametrize("name", sorted(edge_batches()))
@pytest.mark.parametrize(
    "kernel",
    [
        entropy_from_probs,
        purity_from_probs,
        trdist_mm_from_probs,
        l1_from_probs,
        mixedness_from_probs,
        fannes_floor_from_probs,
    ],
    ids=["entropy", "purity", "trdist", "l1", "mixedness", "fannes"],
)
def test_kernels_give_the_same_bytes_with_a_work_array(kernel, name):
    probs = edge_batches()[name]
    before = probs.copy()
    work = np.full_like(probs, np.nan)
    assert kernel(probs, work=work).tobytes() == kernel(probs).tobytes()
    assert np.array_equal(probs, before)  # the input is not mutated
