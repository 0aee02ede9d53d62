import dataclasses
import json
import math
import os
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from cohlab import experiments, measures, sampler
from cohlab.analytics import (
    MIN_DIM_FOR_NONTRIVIAL_SUBSPACE,
    SubspaceDimension,
    expected_cr,
    expected_l1,
    subspace_dimension,
    subspace_threshold,
    typical_l1_upper,
)
from cohlab.errors import InvalidArgumentError, VacuousGuaranteeError
from cohlab.experiments import (
    first_prob_samples,
    ks_distance_u11,
    run_concentration,
    run_decomposition_check,
    run_inequality_sweep,
    run_matrix_integral_check,
    run_subspace_floor,
    subspace_cr_samples,
)
from cohlab.streams import new_generator, word_generator


def payload_bytes(report):
    return json.dumps(dataclasses.asdict(report), sort_keys=True)


class TestConfig:
    def test_rejects_bad_trials(self):
        with pytest.raises(InvalidArgumentError):
            run_concentration(dim=4, trials=0, master_seed=0)

    def test_rejects_bad_bins(self):
        with pytest.raises(InvalidArgumentError):
            run_concentration(dim=4, trials=10, master_seed=0, histogram_bins=1)

    def test_rejects_bad_kind(self):
        with pytest.raises(InvalidArgumentError):
            run_concentration(dim=4, trials=10, master_seed=0, measure_kind="entropy")

    def test_rejects_unsorted_epsilons(self):
        with pytest.raises(InvalidArgumentError):
            run_concentration(dim=4, trials=10, master_seed=0, epsilons=(0.5, 0.1))

    def test_rejects_duplicate_epsilons(self):
        with pytest.raises(InvalidArgumentError, match="distinct"):
            run_concentration(dim=4, trials=10, master_seed=0, epsilons=(0.1, 0.1))

    def test_rejects_nonpositive_epsilons(self):
        with pytest.raises(InvalidArgumentError):
            run_concentration(dim=4, trials=10, master_seed=0, epsilons=(0.0, 0.1))

    @pytest.mark.parametrize(
        "bad",
        [
            dict(trials=0),
            dict(histogram_bins=1),
            dict(measure_kind="entropy"),
            dict(epsilons=(math.nan,)),
            # the arguments are checked before the histogram cap
            dict(epsilons=(-1.0,), histogram_bins=10**12),
        ],
    )
    def test_refused_call_draws_nothing(self, monkeypatch, bad):
        def draw(*args):
            raise AssertionError("a refused campaign drew")

        monkeypatch.setattr(experiments, "haar_prob_rows", draw)
        with pytest.raises(InvalidArgumentError):
            run_concentration(**{"dim": 4, "trials": 10, "master_seed": 0, **bad})

    def test_config_holds_the_arguments(self):
        report = run_concentration(5, 10, 3, "purity", [1, 2], 4)
        assert report.config == dict(
            dim=5, trials=10, master_seed=3, epsilons=(1.0, 2.0), histogram_bins=4, measure_kind="purity"
        )
        assert all(type(e) is float for e in report.config["epsilons"])


class TestRunConcentration:
    def test_thread_count_does_not_change_bytes(self, chunk_workers):
        # 10000 trials at d = 10 are 3 chunks of at most 4096
        cfg = dict(dim=10, trials=10000, master_seed=5, epsilons=(0.2, 0.5))
        pools = chunk_workers(1)
        serial = run_concentration(**cfg)
        chunk_workers(3)
        threaded = run_concentration(**cfg)
        assert pools == [3]
        assert payload_bytes(serial) == payload_bytes(threaded)

    def test_rerun_is_identical(self):
        cfg = dict(dim=7, trials=500, master_seed=9)
        assert payload_bytes(run_concentration(**cfg)) == payload_bytes(run_concentration(**cfg))

    def test_histogram_mass_and_range(self):
        report = run_concentration(dim=20, trials=3000, master_seed=1, histogram_bins=17)
        assert sum(count for _, _, count in report.histogram) == 3000
        assert report.histogram[0][0] == 0.0
        assert abs(report.histogram[-1][1] - math.log(20)) < 1e-12
        assert len(report.histogram) == 17

    def test_mean_matches_analytic_within_4_stderr(self):
        report = run_concentration(dim=20, trials=20000, master_seed=2, measure_kind="cr")
        assert report.analytic_mean == expected_cr(20)
        assert abs(report.empirical_mean - report.analytic_mean) < 4 * report.empirical_stderr

    def test_mean_convergence_over_20_seeds(self):
        # reruns with fresh seeds stay within 4 standard errors of the target
        hits = 0
        for seed in range(20):
            report = run_concentration(dim=10, trials=4000, master_seed=seed, measure_kind="purity")
            if abs(report.empirical_mean - report.analytic_mean) <= 4 * report.empirical_stderr:
                hits += 1
        assert hits >= 20 * 0.99

    def test_trial_values_match_public_sampler(self):
        # stream contract v6: trial i is measure(e / e.sum()), e = -ln(1 - u) for
        # u row i of one uniform draw from the campaign stream
        report = run_concentration(dim=6, trials=40, master_seed=77, measure_kind="purity")
        u = word_generator(77, 0).random((40, 6))
        values = []
        for i in range(40):
            e = -np.log(1.0 - u[i])
            probs = e / e.sum()
            values.append(float((probs * probs).sum()))
        assert abs(report.empirical_mean - math.fsum(values) / 40) < 1e-15

    def test_cr_tails_centered_on_analytic_mean(self):
        report = run_concentration(dim=10, trials=2000, master_seed=3, epsilons=(0.1, 2.0))
        values_above = report.tails[0][1]
        assert 0.0 <= values_above <= 1.0
        assert report.tails[1][1] == 0.0  # eps = 2.0 > ln 10 - 0 covers everything
        for eps, freq, raw, eff in report.tails:
            assert raw is not None and eff == min(raw, 1.0)

    def test_cr_below_d3_has_no_bound(self):
        report = run_concentration(dim=2, trials=200, master_seed=3, epsilons=(0.1,))
        assert report.tails[0][2] is None and report.tails[0][3] is None

    def test_l1_tails_centered_on_expected_l1(self):
        report = run_concentration(dim=8, trials=2000, master_seed=4, epsilons=(0.5,), measure_kind="l1")
        assert report.analytic_mean == expected_l1(8)
        # trial i is (sum_j sqrt(p_j))^2 - 1 of the diagonal e / sum e of word row i
        u = word_generator(4, 0).random((2000, 8))
        e = -np.log(1.0 - u)
        values = np.sqrt(e / e.sum(axis=1, keepdims=True)).sum(axis=1) ** 2 - 1.0
        outside = np.count_nonzero(np.abs(values - 7 * math.pi / 4) > 0.5)
        assert report.tails[0][1] == outside / 2000
        assert report.tails[0][2] is None
        assert report.scaled_mean is None
        # the paper's dimension-only bound dominates the sampled values' mean
        assert report.empirical_mean < typical_l1_upper(8)

    def test_tail_frequencies_bounded_by_effective_bounds(self):
        report = run_concentration(
            dim=100, trials=5000, master_seed=6, epsilons=(0.05, 0.2), measure_kind="purity"
        )
        slack = 5.0 / math.sqrt(report.config["trials"])
        for eps, freq, raw, eff in report.tails:
            assert eff is not None
            assert freq <= eff + slack

    def test_scaled_mean(self):
        report = run_concentration(dim=20, trials=2000, master_seed=8)
        assert abs(report.scaled_mean - report.empirical_mean / math.log(20)) < 1e-15


class TestReproduceFig1:
    def test_variance_shrinks_with_dimension(self):
        # Fig. 1: C_r / ln d concentrates as d grows
        reports = [
            run_concentration(dim=d, trials=6000, master_seed=12)
            for d in (20, 80)
        ]
        scaled_var = [
            r.empirical_variance / math.log(r.config["dim"]) ** 2 for r in reports
        ]
        assert scaled_var[1] < scaled_var[0]


class TestSubspaceFloor:
    def test_vacuous_raises_with_minimal_d_note(self):
        with pytest.raises(VacuousGuaranteeError, match=str(MIN_DIM_FOR_NONTRIVIAL_SUBSPACE)):
            run_subspace_floor(1000, 0.5 * math.log(1000), 10, 0)

    def test_smoke_d34000(self):
        eps = 0.999 * math.log(34000)
        report = run_subspace_floor(34000, eps, 200, 21)
        assert report.sub_dim == 2
        assert report.small_d_warning is False
        assert report.violations == 0
        assert report.min_observed_cr >= report.threshold
        assert abs(report.threshold - subspace_threshold(34000, eps)) < 1e-15

    def test_s1_edge_is_valid(self):
        # f = 0.8 at d = 34000 gives s = 1: a single-ray subspace still reports
        eps = 0.8 * math.log(34000)
        report = run_subspace_floor(34000, eps, 50, 2)
        assert report.sub_dim == 1
        assert report.violations == 0

    def test_threads_do_not_change_bytes(self, chunk_workers):
        # s = 2 projects by the quadratic form, 300 states in 9 chunks of 32
        # and one of 12; s = 6 by the real form, 150 states in 9 chunks of 16
        # and one of 6
        pools = chunk_workers(1)
        for dim, eps_frac, n in ((34000, 0.999, 300), (10**5, 0.999, 150)):
            eps = eps_frac * math.log(dim)
            chunk_workers(1)
            a = run_subspace_floor(dim, eps, n, 5)
            chunk_workers(2)
            b = run_subspace_floor(dim, eps, n, 5)
            assert payload_bytes(a) == payload_bytes(b)
        assert pools == [2, 2]

    def test_frame_is_left_unmodified(self):
        # s = 2: the campaign's blocks of Q are those built from the frame
        # that sample_random_subspace draws from stream (8, 0), which
        # building them leaves as it was drawn; the campaign's own row blocks
        # are dropped as their rows are used
        dim, eps = 34000, 0.999 * math.log(34000)
        sdim, blocks = experiments._random_subspace(dim, eps, 8, 1)
        frame = sampler.sample_random_subspace(dim, sdim.s, new_generator(8, 0))
        row_blocks = sampler._row_blocks(frame)
        expected = experiments._frame_blocks(row_blocks)
        assert sdim.s == 2 and len(blocks) == len(expected) == 17 and row_blocks == [None] * 3
        assert all(a.tobytes() == b.tobytes() for a, b in zip(blocks, expected))
        assert np.array_equal(frame, sampler.sample_random_subspace(dim, 2, new_generator(8, 0)))

    @staticmethod
    def spy_entropy(monkeypatch):
        """Record the shape of the probabilities of every entropy call."""
        shapes = []
        entropy = measures.entropy_from_probs

        def spy(probs, work):
            shapes.append(probs.shape)
            return entropy(probs, work=work)

        monkeypatch.setattr(measures, "entropy_from_probs", spy)
        return shapes

    @pytest.mark.parametrize(
        "dim, eps_frac, sub_dim, block_cols, blocks",
        # s = 2 is on the quadratic-form side of the projection and s = 6 on
        # the real-form side.  The default 2048 columns end in a partial
        # block (1232 columns at d = 34000, 1696 at d = 1e5), 1000 columns
        # divide either d into full blocks, and 34000 divides d = 1e5 into
        # two full blocks and a partial one
        [
            pytest.param(34000, 0.99, 2, None, 17, id="None-17"),
            pytest.param(34000, 0.99, 2, 1000, 34, id="1000-34"),
            pytest.param(34000, 0.99, 2, 34000, 1, id="34000-1"),
            pytest.param(34000, 0.99, 2, 10**6, 1, id="1000000-1"),
            pytest.param(10**5, 0.999, 6, None, 49, id="s6-None-49"),
            pytest.param(10**5, 0.999, 6, 1000, 100, id="s6-1000-100"),
            pytest.param(10**5, 0.999, 6, 34000, 3, id="s6-34000-3"),
            pytest.param(10**5, 0.999, 6, 10**6, 1, id="s6-1000000-1"),
        ],
    )
    def test_blocked_path_matches_the_scalar_path(
        self, monkeypatch, chunk_workers, dim, eps_frac, sub_dim, block_cols, blocks
    ):
        chunk_workers(1)
        if block_cols is not None:
            monkeypatch.setattr(experiments, "_BLOCK_COLS", block_cols)
        entropy = measures.entropy_from_probs
        calls = self.spy_entropy(monkeypatch)
        eps, n, seed = eps_frac * math.log(dim), 40, 4
        report = run_subspace_floor(dim, eps, n, seed)
        monkeypatch.setattr(measures, "entropy_from_probs", entropy)
        assert report.sub_dim == sub_dim
        # every state is reduced once in each column block, and the blocks
        # cover the d columns
        assert sum(rows for rows, _ in calls) == n * blocks
        assert sum(rows * width for rows, width in calls) == n * dim

        frame = sampler.sample_random_subspace(dim, report.sub_dim, new_generator(seed, 0))
        scalar = np.array([
            measures.entropy_from_probs(abs(frame @ c) ** 2)
            for c in sampler.haar_amplitude_rows(seed, 1, n + 1, report.sub_dim)
        ])
        assert report.min_observed_cr == pytest.approx(scalar.min(), rel=1e-14, abs=0)
        assert report.violations == int(np.count_nonzero(scalar < report.threshold))

    def test_chunks_of_32_states_up_to_s4(self, monkeypatch, chunk_workers):
        # s = 2: the quadratic form holds 16 bytes per block column and
        # state, 1 MiB per chunk; each chunk is reduced in all 17 column
        # blocks before the next is drawn
        chunk_workers(1)
        shapes = TestChunkRunner.spy_batches(monkeypatch)
        calls = self.spy_entropy(monkeypatch)
        run_subspace_floor(34000, 0.99 * math.log(34000), 150, 0)
        assert shapes == [(32, 4)] * 4 + [(22, 4)]
        assert [rows for rows, _ in calls] == [32] * 4 * 17 + [22] * 17

    def test_chunks_of_16_states_above_s4(self, monkeypatch, chunk_workers):
        # s = 6: the real form holds 32 bytes per block column and state
        chunk_workers(1)
        shapes = TestChunkRunner.spy_batches(monkeypatch)
        calls = self.spy_entropy(monkeypatch)
        run_subspace_floor(10**5, 0.999 * math.log(10**5), 70, 0)
        assert shapes == [(16, 12)] * 4 + [(6, 12)]
        assert [rows for rows, _ in calls] == [16] * 4 * 49 + [6] * 49

    def test_real_form_holds_the_frame_and_one_column_block_of_it(self, chunk_workers):
        # s = 6: the frame's rows are rewritten in place into the real
        # blocks [Re F^T; Im F^T] through one 196 kB block, so no full real
        # copy of the 9.6 MB frame sits next to it (a copy took the peak to
        # 2x the frame)
        chunk_workers(1)
        dim = 10**5
        tracemalloc.start()
        try:
            report = run_subspace_floor(dim, 0.999 * math.log(dim), 50, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.sub_dim == 6
        assert peak <= 1.3 * 16 * dim * report.sub_dim

    def test_oversize_projection_frame_raises_before_sampling(self, monkeypatch):
        # s = 4 at the least d whose quadratic-form frame of 8 d s^2 bytes,
        # with one row block of the frame and the temporaries of one block
        # of Q, is past the cap
        dim, eps = 8376321, 0.15 * math.log(8376321)
        assert_just_past_the_cap(dim, 16)

        def allocate(*args):
            raise AssertionError("a refused frame reached the sampler")

        monkeypatch.setattr(experiments, "_subspace_row_blocks", allocate)
        with pytest.raises(MemoryError, match="16 x 8376321 projection frame"):
            run_subspace_floor(dim, eps, 1, 0)

    def test_real_form_counts_its_row_block_against_the_cap(self, monkeypatch):
        # s = 63 at d = 1056508: the 1.065 GB frame and its real blocks of
        # the same bytes are each inside the cap, but not with one row block
        # of the frame and the temporaries of one real block
        dim, eps = 1056508, 0.995 * math.log(1056508)
        assert 16 * dim * 63 <= experiments.MAX_ALLOC_BYTES
        assert_just_past_the_cap(dim, 126)

        def allocate(*args):
            raise AssertionError("a refused frame reached the sampler")

        monkeypatch.setattr(experiments, "_subspace_row_blocks", allocate)
        with pytest.raises(MemoryError, match="126 x 1056508 projection frame"):
            run_subspace_floor(dim, eps, 1, 0)

    def test_oversize_state_count_raises_before_sampling(self, monkeypatch):
        # the values of the states past the cap: refused before the frame
        def allocate(*args):
            raise AssertionError("a refused campaign reached the sampler")

        monkeypatch.setattr(experiments, "_subspace_row_blocks", allocate)
        n = experiments.MAX_ALLOC_BYTES // 8 + 1
        with pytest.raises(MemoryError, match=f"the values of {n} states"):
            subspace_cr_samples(34000, 0.99 * math.log(34000), n, 0)


def assert_just_past_the_cap(dim, width):
    """The frame phase of a subspace campaign whose projection frame has
    ``width`` float64 rows, at least the frame's 2 s, is past the cap at
    ``dim`` and inside it one frame row fewer: the projection frame, one row
    block of the frame and four blocks of the projection frame."""
    def frame_phase(d):
        return 8 * width * d + sampler._FRAME_BLOCK_BYTES + 4 * 8 * width * 2048

    assert frame_phase(dim - 1) <= experiments.MAX_ALLOC_BYTES < frame_phase(dim)


def decomposition_averages_in_c_d(dim, eps, n_ensembles, m_out, seed, ensemble_size, n_redecompositions):
    """The d-dimensional route, in plain numpy on the campaign's frame and
    isometries: every member is a state psi = F c of C^d, ensembles are
    mixed in C^d, and each member's entropy sums all d of its probabilities
    at once."""
    s = subspace_dimension(dim, eps).s
    frame = sampler.sample_random_subspace(dim, s, new_generator(seed, 0))

    def entropy(psi):
        p = psi.real**2 + psi.imag**2
        p = p[p > 0.0]
        return -np.sum(p * np.log(p))

    averages = []
    for ensemble in range(n_ensembles):
        gen = new_generator(seed, ensemble + 1)
        z = gen.standard_normal((ensemble_size, 2 * s)).view(np.complex128)
        psi = (z / np.linalg.norm(z, axis=1, keepdims=True)) @ frame.T
        raw = gen.standard_exponential(ensemble_size)
        p = raw / raw.sum()
        averages.append(p @ [entropy(x) for x in psi])
        for _ in range(n_redecompositions):
            w = sampler.positive_qr(sampler.ginibre(gen, m_out, ensemble_size))
            phi = (w * np.sqrt(p)) @ psi
            q = (phi.real**2 + phi.imag**2).sum(axis=1)
            keep = q >= sampler.ZERO_WEIGHT_DROP
            phi, q = phi[keep] / np.sqrt(q[keep])[:, None], q[keep]
            averages.append((q / q.sum()) @ [entropy(x) for x in phi])
    return np.array(averages)


class TestDecompositionCheck:
    @pytest.mark.parametrize(
        "dim, eps_frac, sub_dim, ensemble_size, m_out",
        # the quadratic-form projection at s = 2 and at criterion 8's s = 4,
        # and the real form at s = 6
        [(34000, 0.99, 2, 2, 4), (10**5, 0.9, 4, 3, 5), (10**5, 0.999, 6, 2, 4)],
    )
    def test_coefficient_route_matches_the_d_dimensional_route(
        self, dim, eps_frac, sub_dim, ensemble_size, m_out
    ):
        eps = eps_frac * math.log(dim)
        assert subspace_dimension(dim, eps).s == sub_dim
        args = (dim, eps, 4, m_out, 9, ensemble_size, 3)
        sdim, averages = experiments._decomposition_averages(*args)
        oracle = decomposition_averages_in_c_d(*args)
        assert sdim == subspace_dimension(dim, eps)
        assert averages.shape == oracle.shape == (16,)
        assert np.abs(averages / oracle - 1.0).max() <= 1e-12

    def test_requires_s_at_least_2(self):
        eps = 0.8 * math.log(34000)  # s = 1
        with pytest.raises(VacuousGuaranteeError, match=str(MIN_DIM_FOR_NONTRIVIAL_SUBSPACE)):
            run_decomposition_check(34000, eps, 2, 4, 0)

    def test_oversize_frame_raises_before_sampling(self, monkeypatch):
        def allocate(*args):
            raise AssertionError("a refused frame reached the sampler")

        monkeypatch.setattr(experiments, "_subspace_row_blocks", allocate)
        with pytest.raises(MemoryError, match="subspace frame"):
            run_decomposition_check(10**30, 0.5 * math.log(10**30), 2, 4, 0)

    def test_oversize_projection_frame_raises_before_sampling(self, monkeypatch):
        # s = 4 at the least d whose quadratic-form frame of 8 d s^2 bytes,
        # with one row block of the frame and the temporaries of one block
        # of Q, is past the cap
        dim, eps = 8376321, 0.15 * math.log(8376321)
        assert_just_past_the_cap(dim, 16)

        def allocate(*args):
            raise AssertionError("a refused frame reached the sampler")

        monkeypatch.setattr(experiments, "_subspace_row_blocks", allocate)
        with pytest.raises(MemoryError, match="16 x 8376321 projection frame"):
            run_decomposition_check(dim, eps, 1, 2, 0)

    @pytest.mark.parametrize(
        "n_ensembles, m_out, n_redecompositions, match",
        [
            # 16 x 2 x (2^25 + 1) bytes of Ginibre, 32 bytes past the cap
            (1, 2**25 + 1, 1, "mixing Ginibre matrix"),
            # 2^25 + 2 members: their rows at 16 s = 32 bytes are past the
            # cap, their values at 8 bytes inside it
            (2**24 + 1, 2, 0, "coefficient rows of 33554434 states"),
            # 2^27 + 2 members: their values alone are past the cap
            (2**26 + 1, 2, 0, "the values of 134217730 members"),
        ],
    )
    def test_oversize_members_raise_before_sampling(
        self, monkeypatch, n_ensembles, m_out, n_redecompositions, match
    ):
        # s = 2 at d = 34000; never run unpatched, as each would allocate
        # more than the cap
        def allocate(*args):
            raise AssertionError("a refused campaign reached the sampler")

        monkeypatch.setattr(experiments, "_subspace_row_blocks", allocate)
        monkeypatch.setattr(experiments, "ginibre", allocate)
        with pytest.raises(MemoryError, match=match):
            experiments._decomposition_averages(
                34000, 0.99 * math.log(34000), n_ensembles, m_out, 1, 2, n_redecompositions
            )

    def test_members_cost_their_arrays_alone(self, monkeypatch):
        # with the frame and the projection stubbed, an ensemble of 2 members
        # at s = 2 holds two 8-byte weights, two 32-byte coefficient rows, two
        # 8-byte values, one average and one group bound: 112 bytes, about 700
        # for a list of small arrays per ensemble.  The real frame phase peaks
        # at about 2.4 MB, above the members of 4000 ensembles, so it would
        # hide their growth; the first call also makes one-time allocations
        # of about 1 MB, so it is not measured
        monkeypatch.setattr(
            experiments, "_random_subspace", lambda *args: (SubspaceDimension(2, False), [np.zeros((4, 1))])
        )
        monkeypatch.setattr(experiments, "_project", lambda s, blocks, n, coefficients: np.zeros(n))
        peaks = []
        for n_ensembles in (10, 2000, 4000):
            tracemalloc.start()
            try:
                experiments._decomposition_averages(34000, 0.99 * math.log(34000), n_ensembles, 2, 1, 2, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[2] - peaks[1]) / 2000 <= 200

    def test_dropped_members_leave_the_arrays_partly_filled(self, monkeypatch):
        # no real run drops a member: at a drop weight of 0.3 some of the 4
        # rows of every re-decomposition go, and the groups turn ragged
        monkeypatch.setattr(sampler, "ZERO_WEIGHT_DROP", 0.3)
        projected, project = [], experiments._project

        def spy(s, blocks, n, coefficients):
            projected.append(n)
            return project(s, blocks, n, coefficients)

        monkeypatch.setattr(experiments, "_project", spy)
        args = (34000, 0.99 * math.log(34000), 4, 4, 9, 2, 3)
        _, averages = experiments._decomposition_averages(*args)
        oracle = decomposition_averages_in_c_d(*args)
        assert len(projected) == 1 and projected[0] < 4 * (2 + 3 * 4)
        assert averages.shape == oracle.shape == (16,)
        assert np.abs(averages / oracle - 1.0).max() <= 1e-12

    def test_rejects_small_m_out(self):
        eps = 0.999 * math.log(34000)
        with pytest.raises(InvalidArgumentError):
            run_decomposition_check(34000, eps, 2, 1, 0, ensemble_size=2)

    def test_smoke_d34000(self):
        eps = 0.999 * math.log(34000)
        report = run_decomposition_check(
            34000, eps, n_ensembles=3, m_out=4, master_seed=17, n_redecompositions=3
        )
        assert report.sub_dim == 2
        assert report.violations == 0
        assert report.min_average >= report.threshold
        assert report.min_average > 0.0

    def test_rank1_ensembles_behave_as_pure_states(self):
        # size-1 ensembles are pure states in the subspace; every sampled
        # average equals that state's C_r and clears the floor
        eps = 0.999 * math.log(34000)
        report = run_decomposition_check(
            34000, eps, n_ensembles=2, m_out=3, master_seed=23,
            ensemble_size=1, n_redecompositions=2,
        )
        assert report.violations == 0
        assert report.min_average >= report.threshold


class TestMatrixIntegral:
    def test_rejects_out_of_range_dim(self):
        with pytest.raises(InvalidArgumentError):
            run_matrix_integral_check(1, 100, 0)
        with pytest.raises(InvalidArgumentError):
            run_matrix_integral_check(17, 100, 0)

    def test_d2_converges_to_closed_form(self):
        report = run_matrix_integral_check(2, 20000, 31)
        assert report.ok
        assert report.max_abs_deviation < report.tolerance
        assert abs(report.tolerance - 5.0 / math.sqrt(20000)) < 1e-15

    def test_d2_closed_form_against_independent_mc(self):
        # independent oracle: average the twirl with numpy's own Gaussians
        # and QR; the mean must approach diag(2/3, 1/3)
        rng = np.random.default_rng(1234)
        n = 4000
        total = np.zeros((2, 2), dtype=complex)
        for _ in range(n):
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(z)
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            pdiag = np.abs(u[:, 0]) ** 2
            total += u.conj().T @ np.diag(pdiag) @ u
        mean = total / n
        target = np.diag([2.0 / 3.0, 1.0 / 3.0])
        assert np.abs(mean - target).max() < 5.0 / math.sqrt(n)

    def test_deterministic(self):
        a = run_matrix_integral_check(4, 2000, 7)
        b = run_matrix_integral_check(4, 2000, 7)
        assert payload_bytes(a) == payload_bytes(b)


class TestInequalitySweep:
    @pytest.mark.parametrize("dim", [2, 10, 100])
    def test_zero_violations(self, dim):
        report = run_inequality_sweep(dim, 3000, 41)
        assert report.l1_purity_violations == 0
        assert report.fannes_violations == 0
        assert report.cr_range_violations == 0

    def test_threads_match(self, chunk_workers):
        # 10000 trials at d = 10 are 3 chunks of at most 4096
        pools = chunk_workers(1)
        a = run_inequality_sweep(10, 10000, 4)
        chunk_workers(3)
        b = run_inequality_sweep(10, 10000, 4)
        assert pools == [3]
        assert payload_bytes(a) == payload_bytes(b)

    def test_nan_diagonals_fail_every_check(self, monkeypatch):
        # NaN compares false with every bound, so each check counts the rows
        # that do not pass it; 300 trials at d = 1000 span 5 chunks
        class NanWords:
            def random(self, out):
                out.fill(np.nan)
                return out

        monkeypatch.setattr(sampler, "word_generator", lambda *args: NanWords())
        report = run_inequality_sweep(1000, 300, 4)
        counts = (report.l1_purity_violations, report.fannes_violations, report.cr_range_violations)
        assert counts == (300, 300, 300)

    def test_values_past_the_cap_are_refused_before_any_draw(self, monkeypatch):
        # four kernels of 8 bytes per trial: 2^25 + 1 trials are past the cap
        def draw(*args):
            raise AssertionError("a refused campaign drew its diagonals")

        monkeypatch.setattr(experiments, "haar_prob_rows", draw)
        with pytest.raises(MemoryError, match=r"the values of 33554433 trials \(4 per trial\)"):
            run_inequality_sweep(2, 2**25 + 1, 0)


class TestChunkRunner:
    @staticmethod
    def run(row_bytes):
        threads = set()

        def fill(start, stop):
            threads.add(threading.get_ident())
            return (start, stop)

        chunks = experiments._run_chunked(10, fill, row_bytes, size=3)
        assert chunks == [(0, 3), (3, 6), (6, 9), (9, 10)]
        return threads

    def test_serial_below_cutoff_threaded_at_and_above(self, chunk_workers):
        cutoff = 16 * experiments._PARALLEL_MIN_DIM
        pools = chunk_workers(2, experiments._PARALLEL_MIN_DIM)
        assert self.run(cutoff - 1) == {threading.get_ident()}
        assert pools == []
        assert threading.get_ident() not in self.run(cutoff)
        assert threading.get_ident() not in self.run(10 * cutoff)
        assert pools == [2, 2]

    def test_cutoff_threads_d1000_and_d1e5_keeps_d300_serial(self, chunk_workers):
        # measured: a second thread saves CPU at d = 1000, costs +10..+23% at d = 300
        pools = chunk_workers(2, experiments._PARALLEL_MIN_DIM)
        assert self.run(16 * 300) == {threading.get_ident()}
        assert threading.get_ident() not in self.run(16 * 1000)
        assert threading.get_ident() not in self.run(16 * 100_000)
        assert pools == [2, 2]

    def test_unitary_rows_thread_from_d24_and_keep_d2_serial(self, chunk_workers):
        pools = chunk_workers(2, experiments._PARALLEL_MIN_DIM)
        assert self.run(16 * 2**2) == {threading.get_ident()}
        assert threading.get_ident() not in self.run(16 * 24**2)
        assert pools == [2]

    @pytest.mark.parametrize(
        "dim, rows, pools_made",
        [(300, 218, []), (1000, 65, [2]), (2 * 8192, 4, [2]), (10**5, 1, [2])],
    )
    def test_state_rows_keep_their_chunk_rows_and_workers(self, chunk_workers, dim, rows, pools_made):
        # laws-d1000 runs 65 rows per chunk on 2 workers and a state at
        # d = 16384 4 rows on 2; a d = 1e5 state, past the chunk budget, is
        # a chunk of its own
        pools = chunk_workers(2, experiments._PARALLEL_MIN_DIM)
        sizes = []
        experiments._run_chunked(2 * rows, lambda start, stop: sizes.append(stop - start), 16 * dim)
        assert sizes == [rows, rows]
        assert pools == pools_made

    @pytest.mark.parametrize(
        "row_bytes",
        [pytest.param(16 * d, id=str(d)) for d in (1, 2, 10, 1000, 10**5, 10**7, 10**9)]
        + [pytest.param(16 * d * d, id=f"unitary-{d}") for d in (2, 24, 300, 1000, 8192)],
    )
    def test_chunk_bytes_bounded(self, row_bytes):
        rows = experiments._chunk_size(row_bytes)
        assert rows >= 1
        assert rows * row_bytes <= max(experiments._CHUNK_BYTES, row_bytes)

    def test_a_failing_chunk_stops_the_other_workers(self, chunk_workers):
        # chunk 0 of 10000 raises at once; the other worker takes a few more
        # chunks of 1 ms at most, never the whole campaign
        chunk_workers(2)
        ran = []

        def fill(start, stop):
            if start == 0:
                raise ValueError("chunk 0 failed")
            ran.append(start)
            time.sleep(0.001)

        with pytest.raises(ValueError, match="chunk 0 failed"):
            experiments._run_chunked(10000, fill, 16 * 1000, size=1)
        assert len(ran) < 100

    def test_an_interrupt_of_the_caller_stops_the_workers(self, monkeypatch, chunk_workers):
        # SIGINT during chunk 50 of 10000 reaches the caller, which waits on
        # the pool; the workers take a few more chunks of 1 ms at most
        chunk_workers(2)
        monkeypatch.setattr(experiments, "_chunk_size", lambda row_bytes: 1)
        ran = []

        def fill(start, stop):
            ran.append(start)
            if start == 50:
                os.kill(os.getpid(), signal.SIGINT)
            time.sleep(0.001)

        with pytest.raises(KeyboardInterrupt):
            experiments._run_chunked(10000, fill, 16 * 1000)
        assert len(ran) < 100

    def test_workers_capped_by_chunk_count(self, chunk_workers):
        pools = chunk_workers(16)
        self.run(16 * 2)
        assert pools == [4]

    def test_unitary_rows_are_checked_against_the_cap(self, monkeypatch):
        # a d = 10^4 unitary is 16 d^2 = 1.6 GB, past the cap although 16 d is not
        def allocate(*args):
            raise AssertionError("a refused request reached the sampler")

        monkeypatch.setattr(sampler, "keyed_rows", allocate)
        with pytest.raises(MemoryError, match="over the cap"):
            ks_distance_u11(10_000, 1, 0)

    @staticmethod
    def spy_batches(monkeypatch):
        """Record the shape of every batch that sampler.keyed_rows draws."""
        shapes = []
        real = sampler.keyed_rows

        def spy(master_seed, first, stop, shape):
            shapes.append((stop - first, *shape))
            return real(master_seed, first, stop, shape)

        monkeypatch.setattr(sampler, "keyed_rows", spy)
        return shapes

    def test_unitary_chunks_fit_the_byte_budget(self, monkeypatch):
        # a d = 150 unitary is 360 kB of normals, so a 1 MiB chunk holds 2
        shapes = self.spy_batches(monkeypatch)
        ks_distance_u11(150, 20, 0)
        assert shapes == [(2, 150, 300)] * 10

    def test_matrix_check_keeps_its_fixed_chunk(self, monkeypatch):
        # its chunk sums are added in order, so its chunks are pinned
        shapes = self.spy_batches(monkeypatch)
        run_matrix_integral_check(16, 3000, 0)
        assert shapes == [(2048, 16, 32), (952, 16, 32)]


_SUBSPACE_EPS = 0.999 * math.log(34000)
_CHUNKED_CAMPAIGNS = {
    **{
        f"concentration-{kind}": lambda kind=kind: payload_bytes(run_concentration(
            dim=30, trials=50, master_seed=3, epsilons=(0.1,), measure_kind=kind
        ))
        for kind in experiments.MEASURE_KINDS
    },
    "inequality-sweep": lambda: payload_bytes(run_inequality_sweep(30, 50, 3)),
    "first-prob-samples": lambda: first_prob_samples(30, 50, 3).tobytes(),
    "subspace-d34000": lambda: payload_bytes(run_subspace_floor(34000, _SUBSPACE_EPS, 40, 3)),
    "subspace-d100000-s6": lambda: payload_bytes(
        run_subspace_floor(10**5, 0.999 * math.log(10**5), 20, 3)
    ),
    # every state's C_r, not only the least: at s <= 4 a chunk of one state
    # is projected by the matrix product that longer chunks take
    "subspace-cr-d34000-s2": lambda: subspace_cr_samples(34000, 0.99 * math.log(34000), 64, 3).tobytes(),
    "subspace-cr-d100000-s4": lambda: subspace_cr_samples(10**5, 0.9 * math.log(10**5), 64, 3).tobytes(),
    "subspace-cr-d100000-s6": lambda: subspace_cr_samples(10**5, 0.999 * math.log(10**5), 20, 3).tobytes(),
    # 30 members of 3 ensembles and their re-decompositions, in one projection
    "decomposition-d34000": lambda: experiments._decomposition_averages(
        34000, _SUBSPACE_EPS, 3, 4, 3, 2, 2
    )[1].tobytes(),
    # unitaries past the parallel cutoff, in chunks of _chunk_size
    "ks-u11-d24": lambda: ks_distance_u11(24, 600, 3),
    # 3 chunks of the pinned 2048 unitaries, whatever _chunk_size says
    "matrix-check-d4": lambda: run_matrix_integral_check(4, 5000, 3).max_abs_deviation,
}


@pytest.mark.parametrize("campaign", sorted(_CHUNKED_CAMPAIGNS))
def test_chunk_rows_do_not_change_bytes(campaign, monkeypatch, chunk_workers):
    # per-row values reduced in trial order: any rows per chunk give the
    # same bytes
    run = _CHUNKED_CAMPAIGNS[campaign]
    one, seven = (lambda row_bytes: 1), (lambda row_bytes: 7)
    outputs = set()
    for size in (one, seven, experiments._chunk_size):
        monkeypatch.setattr(experiments, "_chunk_size", size)
        for cpus in (1, 2):
            pools = chunk_workers(cpus)
            outputs.add(run())
    assert pools, "no threaded run used a thread pool"
    assert len(outputs) == 1


def test_abs2_halves_match_real_and_imaginary_squares(rng):
    z = rng.normal(size=(3, 2000)) + 1j * rng.normal(size=(3, 2000))
    z[0, :5] = [0.0, 1e-170j, 1e150, np.inf, 1e-320]
    expected = z.real**2 + z.imag**2
    result = experiments._abs2_halves(np.concatenate((z.real, z.imag)), np.empty((3, 2000)))
    assert result.dtype == expected.dtype and result.shape == expected.shape
    assert result.tobytes() == expected.tobytes()


@pytest.mark.parametrize("s", [1, 2, 3, 4, 6])
def test_quadratic_form_gives_the_probabilities(monkeypatch, s):
    # from s = 3 on, several pairs j < k must line up between Q's rows and
    # M's columns, which Q takes from M's expansion of F's rows; the sums run
    # in another order, so rounding differs.  s = 6 is built as Q only where
    # the one function that picks the form says so
    monkeypatch.setattr(experiments, "_quadratic_form", lambda sub_dim: True)
    frame = sampler.sample_random_subspace(3000, s, new_generator(s, 0))
    c = sampler.haar_amplitude_rows(s, 1, 41, s)
    expected = np.abs(c @ frame.T) ** 2
    probs = experiments._quadratic_coefficients(c) @ np.hstack(experiments._frame_blocks([frame]))
    assert np.abs(probs - expected).max() <= 64 * np.finfo(float).eps * expected.max()


@pytest.mark.parametrize("dim, s, block_cols", [(3000, 2, 1000), (3000, 4, 700), (3000, 3, 8192)])
def test_quadratic_frame_in_column_blocks_keeps_its_bytes(monkeypatch, dim, s, block_cols):
    # the full-width construction, every row of Q in one pass
    frame = sampler.sample_random_subspace(dim, s, new_generator(s, 0))
    f = frame.T
    expected = np.empty((s * s, dim))
    np.add(f.real**2, f.imag**2, out=expected[:s])
    for row, (j, k) in zip(range(s, s * s, 2), zip(*np.triu_indices(s, 1))):
        cross = f[j].conj() * f[k]
        np.multiply(cross.real, 2.0, out=expected[row])
        np.multiply(cross.imag, -2.0, out=expected[row + 1])
    monkeypatch.setattr(experiments, "_BLOCK_COLS", block_cols)
    # the frame in one row block, then in row blocks of 16 kB (341 rows at
    # s = 3), from which every block of Q is built piece by piece
    whole = experiments._frame_blocks([frame])
    monkeypatch.setattr(sampler, "_FRAME_BLOCK_BYTES", 1 << 14)
    assert len(sampler._row_blocks(frame)) > dim // block_cols + 1
    for blocks in (whole, experiments._frame_blocks(sampler._row_blocks(frame))):
        assert [block.shape for block in blocks] == [
            (s * s, min(block_cols, dim - lo)) for lo in range(0, dim, block_cols)
        ]
        assert all(block.flags.c_contiguous for block in blocks)
        assert np.hstack(blocks).tobytes() == expected.tobytes()


@pytest.mark.parametrize("householder", [False, True], ids=["cholesky", "householder"])
def test_real_frame_blocks_are_the_frame_rows_in_real_form(monkeypatch, householder):
    # s = 6 at d = 1e5: each block of 2048 rows of the frame that
    # sample_random_subspace draws from the same stream is its own real frame
    # [Re F^T; Im F^T], the 49 blocks in order, though every third or so
    # gathers its rows from two row blocks of 5461; also on the Householder
    # route the sampler takes where Cholesky refuses a Gram, for the campaign
    # and the public frame alike
    refused = []
    if householder:
        def refuse(blocks):
            refused.append(len(blocks))
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(sampler, "_cholesky_qr", refuse)
    dim = 10**5
    sdim, blocks = experiments._random_subspace(dim, 0.999 * math.log(dim), 7, 1)
    frame = sampler.sample_random_subspace(dim, 6, new_generator(7, 0))
    assert sdim.s == 6 and refused == [19, 19] * householder and len(blocks) == 49
    for lo, block in zip(range(0, dim, 2048), blocks):
        rows = frame[lo : lo + 2048]
        assert block.flags.c_contiguous and block.flags.owndata
        assert block.shape == (12, len(rows))
        assert block.tobytes() == np.concatenate((rows.real.T, rows.imag.T)).tobytes()


def test_frame_phase_keeps_the_projection_blocks_and_one_row_block():
    # each row block of the frame is dropped once its rows are in the
    # projection blocks.  At s = 4 the 6.4 MB frame no longer sits whole
    # beside the 12.8 MB of Q's blocks (20.5 MB when it did); at s = 6, where
    # the real blocks hold the frame's bytes, the phase holds the frame, one
    # row block and small arrays and objects (the Gram and its factors)
    dim, peaks = 10**5, {}
    for frac in (0.9, 0.999):
        tracemalloc.start()
        try:
            sdim, blocks = experiments._random_subspace(dim, frac * math.log(dim), 7, 1)
            peaks[sdim.s] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del blocks
    assert sorted(peaks) == [4, 6]
    assert peaks[4] < 8 * dim * 16 + 16 * dim * 4 / 2
    assert peaks[6] <= 16 * dim * 6 + sampler._FRAME_BLOCK_BYTES + 16 * 1024


class TestChunkScratch:
    """Each worker draws and evaluates every chunk of a diagonal campaign in
    one rows buffer and one work buffer of one chunk each."""

    @staticmethod
    def spy_chunks(monkeypatch):
        """For every chunk that haar_prob_rows draws: the bytes of the
        worker's scratch, and the address and shape of the rows drawn."""
        seen = []
        real = experiments.haar_prob_rows

        def spy(master_seed, first, stop, dim, out):
            seen.append((out.base.nbytes, out.__array_interface__["data"][0], out.shape))
            return real(master_seed, first, stop, dim, out)

        monkeypatch.setattr(experiments, "haar_prob_rows", spy)
        return seen

    @pytest.mark.parametrize("cpus, buffers", [(1, {1}), (2, {1, 2})])
    def test_77_chunks_use_one_buffer_per_worker(self, monkeypatch, chunk_workers, cpus, buffers):
        # 65 diagonals per chunk at d = 1000, each chunk one generator at its
        # first word: 5000 = 76 x 65 + 60
        seen = self.spy_chunks(monkeypatch)
        made = []
        word_generator = sampler.word_generator
        monkeypatch.setattr(
            sampler, "word_generator", lambda *args: made.append(args) or word_generator(*args)
        )
        chunk_workers(cpus)
        run_concentration(dim=1000, trials=5000, master_seed=5)
        assert len(seen) == 77
        assert sorted(made) == [(5, 65 * 1000 * k) for k in range(77)]
        assert sorted(shape[0] for _, _, shape in seen) == [60] + [65] * 76
        assert len({address for _, address, _ in seen}) in buffers

    @pytest.mark.parametrize("dim, trials", [(1000, 600), (10**5, 5)])
    def test_scratch_per_worker_is_two_blocks(self, monkeypatch, chunk_workers, dim, trials):
        # the rows and work blocks of one chunk each: at most _CHUNK_BYTES
        # together at d = 1000 (65 rows), or one row each where a row is larger
        seen = self.spy_chunks(monkeypatch)
        chunk_workers(2)
        run_concentration(dim=dim, trials=trials, master_seed=5, measure_kind="trdist")
        rows = experiments._chunk_size(16 * dim)
        assert seen and all(nbytes == 16 * dim * rows for nbytes, _, _ in seen)

    def test_tail_chunk_uses_a_prefix_of_the_buffer(self, monkeypatch, chunk_workers):
        # 131 = 2 x 65 + 1: the chunk of 1 is a prefix of the one buffer
        seen = self.spy_chunks(monkeypatch)
        chunk_workers(1)
        run_concentration(dim=1000, trials=131, master_seed=5)
        assert [shape for _, _, shape in seen] == [(65, 1000), (65, 1000), (1, 1000)]
        assert len({address for _, address, _ in seen}) == 1

    @pytest.mark.parametrize("kind", experiments.MEASURE_KINDS)
    @pytest.mark.parametrize("trials", [1, 65, 66, 261, 262, 263, 20000])
    def test_payload_equals_a_fresh_allocation_run(self, monkeypatch, kind, trials):
        config = dict(dim=1000, trials=trials, master_seed=6, epsilons=(0.01,), measure_kind=kind)
        reused = payload_bytes(run_concentration(**config))
        # reference: every chunk draws into a new array, and every kernel
        # makes its own temporary
        kernel = experiments._MEASURES[kind].kernel
        fresh_kernel = getattr(measures, kernel)
        monkeypatch.setattr(measures, kernel, lambda probs, work: fresh_kernel(probs))
        monkeypatch.setattr(
            experiments,
            "haar_prob_rows",
            lambda seed, first, stop, dim, out: sampler.haar_prob_rows(
                seed, first, stop, dim, np.empty((stop - first, dim))
            ),
        )
        assert reused == payload_bytes(run_concentration(**config))

    def test_concurrent_campaigns_equal_sequential_ones(self, chunk_workers):
        chunk_workers(2)
        seeds = (11, 12)
        sequential = [payload_bytes(run_concentration(1000, 3000, s)) for s in seeds]
        concurrent = [None, None]
        start = threading.Barrier(2)

        def run(i):
            start.wait()
            concurrent[i] = payload_bytes(run_concentration(1000, 3000, seeds[i]))

        callers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join()
        assert concurrent == sequential

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("dim", [1, 2, 1000])
    def test_joint_pass_equals_one_pass_per_kernel(self, chunk_workers, cpus, dim):
        # 600 trials at d = 1000 are 9 chunks of 65 and one of 15
        chunk_workers(cpus)
        kernels = [getattr(measures, m.kernel) for m in experiments._MEASURES.values()]
        joint = experiments._diagonal_values(dim, 600, 7, kernels)
        single = [experiments._diagonal_values(dim, 600, 7, [kernel])[0] for kernel in kernels]
        assert [v.tobytes() for v in joint] == [v.tobytes() for v in single]
        assert all(v.flags.owndata and v.dtype == np.float64 for v in joint)

    def test_first_prob_samples_own_their_data(self, chunk_workers):
        chunk_workers(2)
        samples = first_prob_samples(1000, 600, 8)
        kept = samples.copy()
        assert samples.flags.owndata
        first_prob_samples(1000, 600, 9)
        run_inequality_sweep(1000, 600, 9)
        assert np.array_equal(samples, kept)
        u = word_generator(8, 0).random((600, 1000))
        for i in (0, 64, 65, 599):
            e = -np.log(1.0 - u[i])
            assert samples[i] == (e / e.sum())[0]

    def test_trial_values_past_the_cap_are_refused_before_any_chunk(self):
        def fill(*args):
            raise AssertionError("a refused campaign ran a chunk")

        n = experiments.MAX_ALLOC_BYTES // 8 + 1
        with pytest.raises(MemoryError, match="over the cap"):
            experiments._run_chunked(n, fill, 32, 2, size=1)


class TestSamplingHelpers:
    @pytest.mark.parametrize("trials", [0, -1])
    def test_ks_distance_rejects_no_trials(self, trials):
        with pytest.raises(InvalidArgumentError):
            ks_distance_u11(2, trials, 0)

    def test_first_prob_samples_match_per_state_path(self):
        samples = first_prob_samples(5, 10, 9)
        u = word_generator(9, 0).random((10, 5))
        for i in range(10):
            e = -np.log(1.0 - u[i])
            assert samples[i] == (e / e.sum())[0]

    @pytest.mark.parametrize("dim", [2, 5, 50])
    def test_first_prob_law_matches_sample_haar_pure(self, dim):
        # exponential diagonals and |psi_1|^2 of Gaussian amplitudes share one law;
        # the two samples use different seeds, so they are independent
        trials = 4000
        diagonals = first_prob_samples(dim, trials, 31)
        amplitudes = abs(sampler.haar_amplitude_rows(32, 0, trials, dim)[:, 0]) ** 2
        assert stats.ks_2samp(diagonals, amplitudes).pvalue > 0.01

    def test_ks_distance_small_at_d2(self):
        assert ks_distance_u11(2, 20000, 5) < 0.02

    def test_ks_distance_rejects_d1(self):
        with pytest.raises(Exception):
            ks_distance_u11(1, 100, 0)

