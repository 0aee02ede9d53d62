import dataclasses
import json
import math
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from cohlab import experiments, measures, sampler
from cohlab.analytics import (
    MIN_DIM_FOR_NONTRIVIAL_SUBSPACE,
    expected_cr,
    subspace_dimension,
    subspace_threshold,
)
from cohlab.errors import (
    InvalidArgumentError,
    UnsupportedDimensionError,
    VacuousGuaranteeError,
)
from cohlab.experiments import (
    ExperimentConfig,
    first_prob_samples,
    ks_distance_u11,
    run_concentration,
    run_decomposition_check,
    run_inequality_sweep,
    run_matrix_integral_check,
    run_subspace_floor,
)
from cohlab.streams import new_generator, word_generator


def payload_bytes(report):
    return json.dumps(dataclasses.asdict(report), sort_keys=True)


class TestConfig:
    def test_rejects_bad_trials(self):
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(dim=4, trials=0, master_seed=0)

    def test_rejects_bad_bins(self):
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(dim=4, trials=10, master_seed=0, histogram_bins=1)

    def test_rejects_bad_kind(self):
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(dim=4, trials=10, master_seed=0, measure_kind="entropy")

    def test_rejects_unsorted_epsilons(self):
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(dim=4, trials=10, master_seed=0, epsilons=(0.5, 0.1))

    def test_rejects_duplicate_epsilons(self):
        with pytest.raises(InvalidArgumentError, match="distinct"):
            ExperimentConfig(dim=4, trials=10, master_seed=0, epsilons=(0.1, 0.1))

    def test_rejects_nonpositive_epsilons(self):
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(dim=4, trials=10, master_seed=0, epsilons=(0.0, 0.1))


class TestRunConcentration:
    def test_thread_count_does_not_change_bytes(self, chunk_workers):
        # 10000 trials at d = 10 are 3 chunks of at most 4096
        cfg = ExperimentConfig(dim=10, trials=10000, master_seed=5, epsilons=(0.2, 0.5))
        pools = chunk_workers(1)
        serial = run_concentration(cfg)
        chunk_workers(3)
        threaded = run_concentration(cfg)
        assert pools == [3]
        assert payload_bytes(serial) == payload_bytes(threaded)

    def test_rerun_is_identical(self):
        cfg = ExperimentConfig(dim=7, trials=500, master_seed=9)
        assert payload_bytes(run_concentration(cfg)) == payload_bytes(run_concentration(cfg))

    def test_histogram_mass_and_range(self):
        cfg = ExperimentConfig(dim=20, trials=3000, master_seed=1, histogram_bins=17)
        report = run_concentration(cfg)
        assert sum(count for _, _, count in report.histogram) == 3000
        assert report.histogram[0][0] == 0.0
        assert abs(report.histogram[-1][1] - math.log(20)) < 1e-12
        assert len(report.histogram) == 17

    def test_mean_matches_analytic_within_4_stderr(self):
        cfg = ExperimentConfig(dim=20, trials=20000, master_seed=2, measure_kind="cr")
        report = run_concentration(cfg)
        assert report.analytic_mean == expected_cr(20)
        assert abs(report.empirical_mean - report.analytic_mean) < 4 * report.empirical_stderr

    def test_mean_convergence_over_20_seeds(self):
        # reruns with fresh seeds stay within 4 standard errors of the target
        hits = 0
        for seed in range(20):
            cfg = ExperimentConfig(dim=10, trials=4000, master_seed=seed, measure_kind="purity")
            report = run_concentration(cfg)
            if abs(report.empirical_mean - report.analytic_mean) <= 4 * report.empirical_stderr:
                hits += 1
        assert hits >= 20 * 0.99

    def test_trial_values_match_public_sampler(self):
        # stream contract v6: trial i is measure(e / e.sum()), e = -ln(1 - u) for
        # u row i of one uniform draw from the campaign stream
        cfg = ExperimentConfig(dim=6, trials=40, master_seed=77, measure_kind="purity")
        report = run_concentration(cfg)
        u = word_generator(77, 0).random((40, 6))
        values = []
        for i in range(40):
            e = -np.log(1.0 - u[i])
            probs = e / e.sum()
            values.append(float((probs * probs).sum()))
        assert abs(report.empirical_mean - math.fsum(values) / 40) < 1e-15

    def test_cr_tails_centered_on_analytic_mean(self):
        cfg = ExperimentConfig(dim=10, trials=2000, master_seed=3, epsilons=(0.1, 2.0))
        report = run_concentration(cfg)
        assert report.tails_center == "analytic"
        values_above = report.tails[0][1]
        assert 0.0 <= values_above <= 1.0
        assert report.tails[1][1] == 0.0  # eps = 2.0 > ln 10 - 0 covers everything
        for eps, freq, raw, eff in report.tails:
            assert raw is not None and eff == min(raw, 1.0)

    def test_cr_below_d3_has_no_bound(self):
        cfg = ExperimentConfig(dim=2, trials=200, master_seed=3, epsilons=(0.1,))
        report = run_concentration(cfg)
        assert report.tails[0][2] is None and report.tails[0][3] is None

    def test_l1_reports_empirical_center_and_upper_bound(self):
        cfg = ExperimentConfig(dim=8, trials=2000, master_seed=4, epsilons=(0.5,), measure_kind="l1")
        report = run_concentration(cfg)
        assert report.analytic_kind == "l1_upper_bound"
        assert report.tails_center == "empirical"
        assert report.tails[0][2] is None
        assert report.scaled_mean is None
        # the dimension-only bound dominates the sampled values' mean
        assert report.empirical_mean < report.analytic_mean

    def test_tail_frequencies_bounded_by_effective_bounds(self):
        cfg = ExperimentConfig(
            dim=100, trials=5000, master_seed=6, epsilons=(0.05, 0.2), measure_kind="purity"
        )
        report = run_concentration(cfg)
        slack = 5.0 / math.sqrt(cfg.trials)
        for eps, freq, raw, eff in report.tails:
            assert eff is not None
            assert freq <= eff + slack

    def test_scaled_mean(self):
        cfg = ExperimentConfig(dim=20, trials=2000, master_seed=8)
        report = run_concentration(cfg)
        assert abs(report.scaled_mean - report.empirical_mean / math.log(20)) < 1e-15


class TestReproduceFig1:
    def test_variance_shrinks_with_dimension(self):
        # Fig. 1: C_r / ln d concentrates as d grows
        reports = [
            run_concentration(ExperimentConfig(dim=d, trials=6000, master_seed=12))
            for d in (20, 80)
        ]
        scaled_var = [
            r.empirical_variance / math.log(r.config.dim) ** 2 for r in reports
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
        # s = 2 projects by the quadratic form, 300 states in chunks of 128,
        # 128 and 44 (row blocks of 32 and 12); s = 6 by the real form, 150
        # states in chunks of 64, 64 and 22 (row blocks of 16 and 6)
        pools = chunk_workers(1)
        for dim, eps_frac, n in ((34000, 0.999, 300), (10**5, 0.999, 150)):
            eps = eps_frac * math.log(dim)
            chunk_workers(1)
            a = run_subspace_floor(dim, eps, n, 5)
            chunk_workers(2)
            b = run_subspace_floor(dim, eps, n, 5)
            assert payload_bytes(a) == payload_bytes(b)
        assert pools == [2, 2]

    def test_frame_is_left_unmodified(self, monkeypatch):
        # the chunks project states through a real frame built from the
        # subspace frame into the workers' buffers: the subspace frame itself
        # must come out as it was drawn
        eps = 0.999 * math.log(34000)
        bases = []
        draw_subspace = experiments.sample_random_subspace

        def spy_subspace(*args):
            bases.append(draw_subspace(*args))
            return bases[-1]

        monkeypatch.setattr(experiments, "sample_random_subspace", spy_subspace)
        first = payload_bytes(run_subspace_floor(34000, eps, 20, 8))
        fresh = draw_subspace(34000, 2, new_generator(8, 0))
        assert np.array_equal(bases[0], fresh)
        assert payload_bytes(run_subspace_floor(34000, eps, 20, 8)) == first

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

    def test_chunks_of_128_states_in_row_blocks_of_32_up_to_s4(self, monkeypatch, chunk_workers):
        # s = 2: the quadratic form holds 16 bytes per block column and
        # state, 4 MiB per chunk and 512 KiB per row block; each of the 17
        # column blocks is reduced in the row blocks of the chunk
        chunk_workers(1)
        shapes = TestChunkRunner.spy_batches(monkeypatch)
        calls = self.spy_entropy(monkeypatch)
        run_subspace_floor(34000, 0.99 * math.log(34000), 150, 0)
        assert shapes == [(128, 4), (22, 4)]
        assert [rows for rows, _ in calls] == [32] * 4 * 17 + [22] * 17

    def test_chunks_of_64_states_in_row_blocks_of_16(self, monkeypatch, chunk_workers):
        # s = 6: the real form holds 32 bytes per block column and state
        chunk_workers(1)
        shapes = TestChunkRunner.spy_batches(monkeypatch)
        calls = self.spy_entropy(monkeypatch)
        run_subspace_floor(10**5, 0.999 * math.log(10**5), 70, 0)
        assert shapes == [(64, 12), (6, 12)]
        assert [rows for rows, _ in calls] == [16] * 4 * 49 + [6] * 49

    def test_real_form_holds_the_frame_and_one_column_block_of_it(self, chunk_workers):
        # s = 6: each column block's real frame [Re F^T; Im F^T] is built
        # where the block is projected, so no full real copy of the 9.6 MB
        # frame sits next to it (a copy took the peak to 2x the frame)
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
        # s = 4 at d = 1e7: the 640 MB subspace frame is inside the cap, but
        # its quadratic-form frame of 8 d s^2 bytes (1.28 GB) is not
        dim, eps = 10**7, 0.14 * math.log(10**7)
        assert 16 * dim * 4 <= experiments.MAX_ALLOC_BYTES < 8 * dim * 16

        def allocate(*args):
            raise AssertionError("a refused frame reached the sampler")

        monkeypatch.setattr(experiments, "sample_random_subspace", allocate)
        with pytest.raises(MemoryError, match="16 x 10000000 projection frame"):
            run_subspace_floor(dim, eps, 1, 0)


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
        averages = experiments._decomposition_averages(*args)
        oracle = decomposition_averages_in_c_d(*args)
        assert averages.shape == oracle.shape == (16,)
        assert np.abs(averages / oracle - 1.0).max() <= 1e-12

    def test_requires_s_at_least_2(self):
        eps = 0.8 * math.log(34000)  # s = 1
        with pytest.raises(VacuousGuaranteeError, match=str(MIN_DIM_FOR_NONTRIVIAL_SUBSPACE)):
            run_decomposition_check(34000, eps, 2, 4, 0)

    def test_oversize_frame_raises_before_sampling(self, monkeypatch):
        def allocate(*args):
            raise AssertionError("a refused frame reached the sampler")

        monkeypatch.setattr(experiments, "sample_random_subspace", allocate)
        with pytest.raises(MemoryError, match="subspace frame"):
            run_decomposition_check(10**30, 0.5 * math.log(10**30), 2, 4, 0)

    def test_oversize_projection_frame_raises_before_sampling(self, monkeypatch):
        # s = 4 at d = 1e7: the 640 MB subspace frame is inside the cap, but
        # its quadratic-form frame of 8 d s^2 bytes (1.28 GB) is not
        dim, eps = 10**7, 0.14 * math.log(10**7)
        assert 16 * dim * 4 <= experiments.MAX_ALLOC_BYTES < 8 * dim * 16

        def allocate(*args):
            raise AssertionError("a refused frame reached the sampler")

        monkeypatch.setattr(experiments, "sample_random_subspace", allocate)
        with pytest.raises(MemoryError, match="16 x 10000000 projection frame"):
            run_decomposition_check(dim, eps, 1, 2, 0)

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
        with pytest.raises(UnsupportedDimensionError):
            run_matrix_integral_check(1, 100, 0)
        with pytest.raises(UnsupportedDimensionError):
            run_matrix_integral_check(17, 100, 0)

    def test_rejects_non_hermitian_input(self):
        x = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(InvalidArgumentError):
            run_matrix_integral_check(2, 100, 0, x=x)

    @pytest.mark.parametrize(
        "x",
        [np.full((2, 2), np.nan, dtype=complex), np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex)],
        ids=["nan", "inf"],
    )
    def test_rejects_non_finite_input(self, x):
        # a NaN Hermitian defect fails no "defect > tolerance" check
        with pytest.raises(InvalidArgumentError):
            run_matrix_integral_check(2, 100, 0, x=x)

    @pytest.mark.parametrize(
        "x",
        [1e308 * np.eye(2), np.array([[0.0, 1e308], [-1e308, 0.0]])],
        ids=["diagonal", "off-diagonal"],
    )
    def test_rejects_input_whose_arithmetic_overflows(self, x):
        # both used to overflow: the first into a NaN report, the second in
        # the Hermitian check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="at most"):
                run_matrix_integral_check(2, 100, 0, x=x)

    def test_large_finite_input_runs_and_passes(self):
        x = np.zeros((2, 2), dtype=complex)
        x[0, 0] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_matrix_integral_check(2, 100, 0, x=x)
        assert math.isfinite(report.max_abs_deviation)
        assert report.ok

    def test_tolerance_scales_with_x(self):
        # the twirl is linear in x: scaling x scales the deviation, and the
        # tolerance 5 ||x||_2 / sqrt(n) with it
        x = np.zeros((2, 2), dtype=complex)
        x[0, 0] = 1000.0
        base = run_matrix_integral_check(2, 20000, 31)
        scaled = run_matrix_integral_check(2, 20000, 31, x=x)
        assert scaled.ok
        assert scaled.tolerance == pytest.approx(1000.0 * base.tolerance, rel=1e-15)
        assert scaled.max_abs_deviation == pytest.approx(1000.0 * base.max_abs_deviation, rel=1e-12)

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

    def test_maximally_mixed_input_is_fixed_point(self):
        d = 3
        report = run_matrix_integral_check(d, 20000, 32, x=np.eye(d, dtype=complex) / d)
        assert report.ok

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
        # that do not pass it; 300 trials at d = 1000 span 2 chunks and 6 blocks
        class NanWords:
            def random(self, out):
                out.fill(np.nan)
                return out

        monkeypatch.setattr(sampler, "word_generator", lambda *args: NanWords())
        report = run_inequality_sweep(1000, 300, 4)
        counts = (report.l1_purity_violations, report.fannes_violations, report.cr_range_violations)
        assert counts == (300, 300, 300)


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
        [(300, 873, []), (1000, 262, [2]), (10**5, 2, [2]), (2 * 8192, 16, [2])],
    )
    def test_state_rows_keep_their_chunk_rows_and_workers(self, chunk_workers, dim, rows, pools_made):
        # laws-d1000 runs 262 rows per chunk on 2 workers and a d = 1e5 state
        # 2 rows on 2; a state at d = 16384 is 16 rows on 2
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
        # a d = 300 unitary is 1.44 MB of normals, so a 4 MiB chunk holds 2
        shapes = self.spy_batches(monkeypatch)
        ks_distance_u11(300, 20, 0)
        assert shapes == [(2, 300, 600)] * 10

    def test_matrix_check_keeps_its_fixed_chunk(self, monkeypatch):
        # its chunk sums are added in order, so its chunks are pinned
        shapes = self.spy_batches(monkeypatch)
        run_matrix_integral_check(16, 3000, 0)
        assert shapes == [(2048, 16, 32), (952, 16, 32)]


_SUBSPACE_EPS = 0.999 * math.log(34000)
_CHUNKED_CAMPAIGNS = {
    **{
        f"concentration-{kind}": lambda kind=kind: payload_bytes(run_concentration(
            ExperimentConfig(dim=30, trials=50, master_seed=3, epsilons=(0.1,), measure_kind=kind)
        ))
        for kind in experiments.MEASURE_KINDS
    },
    "inequality-sweep": lambda: payload_bytes(run_inequality_sweep(30, 50, 3)),
    "first-prob-samples": lambda: first_prob_samples(30, 50, 3).tobytes(),
    "subspace-d34000": lambda: payload_bytes(run_subspace_floor(34000, _SUBSPACE_EPS, 40, 3)),
    "subspace-d100000-s6": lambda: payload_bytes(
        run_subspace_floor(10**5, 0.999 * math.log(10**5), 20, 3)
    ),
    # 30 members of 3 ensembles and their re-decompositions, in one projection
    "decomposition-d34000": lambda: experiments._decomposition_averages(
        34000, _SUBSPACE_EPS, 3, 4, 3, 2, 2
    ).tobytes(),
}


@pytest.mark.parametrize("campaign", sorted(_CHUNKED_CAMPAIGNS))
def test_chunk_rows_do_not_change_bytes(campaign, monkeypatch, chunk_workers):
    # per-row values reduced in trial order: any rows per chunk, and any
    # rows per block of a chunk, give the same bytes
    run = _CHUNKED_CAMPAIGNS[campaign]
    one, seven = (lambda row_bytes: 1), (lambda row_bytes: 7)
    outputs = set()
    for size in (one, seven, experiments._chunk_size):
        monkeypatch.setattr(experiments, "_chunk_size", size)
        for block in (one, seven, experiments._block_rows):
            monkeypatch.setattr(experiments, "_block_rows", block)
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
def test_quadratic_form_gives_the_probabilities(rng, s):
    # from s = 3 on, several pairs j < k must line up between Q's rows and
    # M's columns; the sums run in another order, so rounding differs
    frame = sampler.sample_random_subspace(3000, s, new_generator(s, 0))
    c = sampler.haar_amplitude_rows(s, 1, 41, s)
    expected = np.abs(c @ frame.T) ** 2
    probs = experiments._quadratic_coefficients(c) @ experiments._quadratic_frame(frame)
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
    assert experiments._quadratic_frame(frame).tobytes() == expected.tobytes()


class TestChunkScratch:
    """Each worker draws and evaluates every chunk of a diagonal campaign in
    blocks, in one rows buffer and one work buffer of one block each."""

    @staticmethod
    def spy_blocks(monkeypatch):
        """For every chunk that haar_prob_blocks draws: the bytes of the
        worker's scratch and the (address, shape) of each block it yields."""
        seen = []
        real = experiments.haar_prob_blocks

        def spy(master_seed, first, stop, dim, out):
            blocks = []
            seen.append((out.base.nbytes, blocks))
            for rows in real(master_seed, first, stop, dim, out):
                blocks.append((rows.__array_interface__["data"][0], rows.shape))
                yield rows

        monkeypatch.setattr(experiments, "haar_prob_blocks", spy)
        return seen

    @pytest.mark.parametrize("cpus, buffers", [(1, {1}), (2, {1, 2})])
    def test_77_chunks_use_one_buffer_per_worker(self, monkeypatch, chunk_workers, cpus, buffers):
        # 262 diagonals per chunk at d = 1000, each chunk one generator at its
        # first word and blocks of 65 rows: 65 x 4 + 2, and 65 + 23 in the
        # last chunk of 88
        seen = self.spy_blocks(monkeypatch)
        made = []
        word_generator = sampler.word_generator
        monkeypatch.setattr(
            sampler, "word_generator", lambda *args: made.append(args) or word_generator(*args)
        )
        chunk_workers(cpus)
        run_concentration(ExperimentConfig(dim=1000, trials=20000, master_seed=5))
        assert len(seen) == 77
        assert sorted(made) == [(5, 262 * 1000 * k) for k in range(77)]
        sizes = sorted(tuple(shape[0] for _, shape in blocks) for _, blocks in seen)
        assert sizes == [(65, 23)] + [(65, 65, 65, 65, 2)] * 76
        assert len({address for _, blocks in seen for address, _ in blocks}) in buffers

    @pytest.mark.parametrize("dim, trials", [(1000, 600), (10**5, 5)])
    def test_scratch_per_worker_is_two_blocks(self, monkeypatch, chunk_workers, dim, trials):
        # a block holds _SCRATCH_BYTES of rows, or one row where a row is
        # larger: 65 rows at d = 1000 and 1 of the 2 per chunk at d = 1e5
        seen = self.spy_blocks(monkeypatch)
        chunk_workers(2)
        run_concentration(ExperimentConfig(dim=dim, trials=trials, master_seed=5, measure_kind="trdist"))
        budget = max(experiments._SCRATCH_BYTES, 8 * dim)
        assert seen and all(nbytes <= 2 * budget for nbytes, _ in seen)

    def test_tail_chunk_uses_a_prefix_of_the_buffer(self, monkeypatch, chunk_workers):
        # the chunk of 262 ends in a block of 2 rows, and the chunk of 1 is a
        # block of 1: both are prefixes of the one buffer
        seen = self.spy_blocks(monkeypatch)
        chunk_workers(1)
        run_concentration(ExperimentConfig(dim=1000, trials=263, master_seed=5))
        shapes = [[shape for _, shape in blocks] for _, blocks in seen]
        assert shapes == [[(65, 1000)] * 4 + [(2, 1000)], [(1, 1000)]]
        assert len({address for _, blocks in seen for address, _ in blocks}) == 1

    @pytest.mark.parametrize("kind", experiments.MEASURE_KINDS)
    @pytest.mark.parametrize("trials", [1, 261, 262, 263, 20000])
    def test_payload_equals_a_fresh_allocation_run(self, monkeypatch, kind, trials):
        config = ExperimentConfig(
            dim=1000, trials=trials, master_seed=6, epsilons=(0.01,), measure_kind=kind
        )
        reused = payload_bytes(run_concentration(config))
        # reference: every chunk draws into a new array, as one block, and
        # every kernel makes its own temporary
        kernel = experiments._MEASURES[kind].kernel
        fresh_kernel = getattr(measures, kernel)
        monkeypatch.setattr(measures, kernel, lambda probs, work: fresh_kernel(probs))
        monkeypatch.setattr(
            experiments,
            "haar_prob_blocks",
            lambda seed, first, stop, dim, out: sampler.haar_prob_blocks(
                seed, first, stop, dim, np.empty((stop - first, dim))
            ),
        )
        assert reused == payload_bytes(run_concentration(config))

    def test_concurrent_campaigns_equal_sequential_ones(self, chunk_workers):
        chunk_workers(2)
        configs = [ExperimentConfig(dim=1000, trials=3000, master_seed=s) for s in (11, 12)]
        sequential = [payload_bytes(run_concentration(c)) for c in configs]
        concurrent = [None, None]
        start = threading.Barrier(2)

        def run(i):
            start.wait()
            concurrent[i] = payload_bytes(run_concentration(configs[i]))

        callers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join()
        assert concurrent == sequential

    def test_first_prob_samples_own_their_data(self, chunk_workers):
        chunk_workers(2)
        samples = first_prob_samples(1000, 600, 8)
        kept = samples.copy()
        assert samples.flags.owndata
        first_prob_samples(1000, 600, 9)
        run_inequality_sweep(1000, 600, 9)
        assert np.array_equal(samples, kept)
        u = word_generator(8, 0).random((600, 1000))
        for i in (0, 261, 262, 599):
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

