import dataclasses
import json
import math
import threading

import numpy as np
import pytest
from scipy import stats

from cohlab import experiments, sampler
from cohlab.analytics import (
    MIN_DIM_FOR_NONTRIVIAL_SUBSPACE,
    expected_cr,
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
from cohlab.sampler import sample_haar_pure
from cohlab.streams import RandomStream


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
        # stream contract v2: trial i is measure(e / e.sum()), e = d exponentials of stream i
        cfg = ExperimentConfig(dim=6, trials=40, master_seed=77, measure_kind="purity")
        report = run_concentration(cfg)
        values = []
        for i in range(40):
            e = RandomStream(77, i).generator.standard_exponential(6)
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
        # 64 states at d = 34000 are 10 chunks of at most 7
        eps = 0.999 * math.log(34000)
        pools = chunk_workers(1)
        a = run_subspace_floor(34000, eps, 64, 5)
        chunk_workers(2)
        b = run_subspace_floor(34000, eps, 64, 5)
        assert pools == [2]
        assert payload_bytes(a) == payload_bytes(b)

    def test_frame_is_left_unmodified(self, monkeypatch):
        # _abs2 consumes its argument: it must get the fresh projection of a
        # chunk, never the frame or a view of it
        eps = 0.999 * math.log(34000)
        bases, consumed = [], []
        draw_subspace, abs2 = experiments.sample_random_subspace, experiments._abs2

        def spy_subspace(*args):
            bases.append(draw_subspace(*args))
            return bases[-1]

        def spy_abs2(z):
            consumed.append(z.flags.owndata)
            return abs2(z)

        monkeypatch.setattr(experiments, "sample_random_subspace", spy_subspace)
        monkeypatch.setattr(experiments, "_abs2", spy_abs2)
        first = payload_bytes(run_subspace_floor(34000, eps, 20, 8))
        fresh = draw_subspace(34000, 2, RandomStream(8, 0))
        assert np.array_equal(bases[0].columns, fresh.columns)
        assert consumed and all(consumed)
        assert payload_bytes(run_subspace_floor(34000, eps, 20, 8)) == first


class TestDecompositionCheck:
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


class TestChunkRunner:
    @staticmethod
    def run(dim):
        threads = set()

        def fill(start, stop):
            threads.add(threading.get_ident())
            return (start, stop)

        chunks = experiments._run_chunked(10, 3, fill, dim, 16 * dim)
        assert chunks == [(0, 3), (3, 6), (6, 9), (9, 10)]
        return threads

    def test_serial_below_cutoff_threaded_at_and_above(self, chunk_workers):
        cutoff = experiments._PARALLEL_MIN_DIM
        pools = chunk_workers(2, cutoff)
        assert self.run(cutoff - 1) == {threading.get_ident()}
        assert pools == []
        assert threading.get_ident() not in self.run(cutoff)
        assert threading.get_ident() not in self.run(10 * cutoff)
        assert pools == [2, 2]

    def test_cutoff_threads_d1000_and_d1e5_keeps_d300_serial(self, chunk_workers):
        # measured: a second thread saves CPU at d = 1000, costs +10..+23% at d = 300
        pools = chunk_workers(2, experiments._PARALLEL_MIN_DIM)
        assert self.run(300) == {threading.get_ident()}
        assert threading.get_ident() not in self.run(1000)
        assert threading.get_ident() not in self.run(100_000)
        assert pools == [2, 2]

    @pytest.mark.parametrize("dim", [1, 2, 10, 1000, 10**5, 10**7, 10**9])
    def test_chunk_bytes_bounded(self, dim):
        rows = experiments._chunk_size(dim)
        assert rows >= 1
        assert rows * 16 * dim <= max(experiments._CHUNK_BYTES, 16 * dim)

    def test_workers_capped_by_chunk_count(self, chunk_workers):
        pools = chunk_workers(16)
        self.run(2)
        assert pools == [4]

    def test_unitary_rows_are_checked_against_the_cap(self, monkeypatch):
        # a d = 10^4 unitary is 16 d^2 = 1.6 GB, past the cap although 16 d is not
        def allocate(*args):
            raise AssertionError("a refused request reached the sampler")

        monkeypatch.setattr(sampler, "keyed_rows", allocate)
        with pytest.raises(MemoryError, match="over the cap"):
            ks_distance_u11(10_000, 1, 0)


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
    "subspace-d34000": lambda: payload_bytes(run_subspace_floor(34000, _SUBSPACE_EPS, 16, 3)),
}


@pytest.mark.parametrize("campaign", sorted(_CHUNKED_CAMPAIGNS))
def test_chunk_rows_do_not_change_bytes(campaign, monkeypatch, chunk_workers):
    # per-row values reduced in trial order: any rows per chunk give the same bytes
    run = _CHUNKED_CAMPAIGNS[campaign]
    default = experiments._chunk_size
    outputs = set()
    for size in (lambda dim: 1, lambda dim: 7, default):
        monkeypatch.setattr(experiments, "_chunk_size", size)
        for cpus in (1, 2):
            pools = chunk_workers(cpus)
            outputs.add(run())
    assert pools, "no threaded run used a thread pool"
    assert len(outputs) == 1


def test_abs2_matches_real_and_imaginary_squares(rng):
    z = rng.normal(size=(3, 2000)) + 1j * rng.normal(size=(3, 2000))
    z[0, :5] = [0.0, 1e-170j, 1e150, np.inf, 1e-320]
    expected = z.real**2 + z.imag**2
    result = experiments._abs2(z.copy())
    assert result.dtype == expected.dtype and result.shape == expected.shape
    assert result.tobytes() == expected.tobytes()


class TestSamplingHelpers:
    @pytest.mark.parametrize("trials", [0, -1])
    def test_ks_distance_rejects_no_trials(self, trials):
        with pytest.raises(InvalidArgumentError):
            ks_distance_u11(2, trials, 0)

    def test_first_prob_samples_match_per_state_path(self):
        samples = first_prob_samples(5, 10, 9)
        for i in range(10):
            e = RandomStream(9, i).generator.standard_exponential(5)
            assert samples[i] == (e / e.sum())[0]

    @pytest.mark.parametrize("dim", [2, 5, 50])
    def test_first_prob_law_matches_sample_haar_pure(self, dim):
        # exponential diagonals and |psi_1|^2 of Gaussian amplitudes share one law;
        # the two samples use different seeds, so they are independent
        trials = 4000
        v2 = first_prob_samples(dim, trials, 31)
        amplitudes = [
            abs(sample_haar_pure(dim, RandomStream(32, i)).amplitudes[0]) ** 2
            for i in range(trials)
        ]
        assert stats.ks_2samp(v2, amplitudes).pvalue > 0.01

    def test_ks_distance_small_at_d2(self):
        assert ks_distance_u11(2, 20000, 5) < 0.02

    def test_ks_distance_rejects_d1(self):
        with pytest.raises(Exception):
            ks_distance_u11(1, 100, 0)

