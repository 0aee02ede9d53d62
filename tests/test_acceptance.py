"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
pass/fail lines.  Criteria 1-5 accumulate their concentration reports so
criterion 6 can audit every tail entry produced in this session.
"""

import json
import math
import time
from contextlib import contextmanager

import pytest

from cohlab.analytics import (
    expected_classical_purity,
    expected_cr,
    expected_trace_distance,
    subspace_threshold,
)
from cohlab.cli import main
from cohlab.experiments import (
    ExperimentConfig,
    run_concentration,
    run_decomposition_check,
    run_subspace_floor,
    verify_inequalities,
    verify_integral,
    verify_matrix,
    verify_moments,
)

SEED = 20260810

_REPORTS = []  # ConcentrationReports accumulated for criterion 6


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:02d}: {title}")
        raise
    print(f"[PASS] criterion {number:02d}: {title}")


def cli_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def concentrate(dim, trials, kind, epsilons=()):
    config = ExperimentConfig(
        dim=dim,
        trials=trials,
        master_seed=SEED,
        epsilons=epsilons,
        measure_kind=kind,
    )
    report = run_concentration(config)
    _REPORTS.append(report)
    return report


def test_01_fig1_scaled_means(capsys, chunk_workers):
    with criterion(1, "scaled-coherence means at d=20/30/40/500 (< 60 s, thread-stable)"):
        start = time.perf_counter()
        payloads = {}
        for dim, trials, target in ((20, 100000, 0.87), (30, 100000, 0.88),
                                    (40, 100000, 0.89), (500, 10000, 0.93)):
            env = cli_json(capsys, [
                "concentrate", "--measure", "cr", "--dim", str(dim),
                "--trials", str(trials), "--seed", str(SEED),
            ])
            payloads[dim] = env["payload"]
            assert abs(env["payload"]["scaled_mean"] - target) <= 0.01, (
                f"scaled mean {env['payload']['scaled_mean']:.4f} vs {target} at d={dim}"
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"runtime {elapsed:.1f} s exceeds 60 s"
        pools = chunk_workers(4)  # d = 20 is below the cutoff: serial unless forced
        pools.clear()  # d = 500 is above it and ran on a pool if it had 2+ CPUs
        parallel = cli_json(capsys, [
            "concentrate", "--measure", "cr", "--dim", "20",
            "--trials", "100000", "--seed", str(SEED),
        ])
        assert pools == [4], "the parallel run did not use a thread pool"
        assert json.dumps(parallel["payload"], sort_keys=True) == json.dumps(
            payloads[20], sort_keys=True
        ), "parallel payload differs from serial"


def test_02_harmonic_mean_law():
    with criterion(2, "mean C_r = H_d - 1 within 4 stderr at d in {2, 5, 50, 1000}"):
        assert expected_cr(2) == 0.5
        for dim in (2, 5, 50, 1000):
            eps = (0.1 * math.log(dim), 0.5 * math.log(dim)) if dim >= 2 else ()
            report = concentrate(dim, 100000, "cr", epsilons=eps)
            gap = abs(report.empirical_mean - expected_cr(dim))
            assert gap <= 4 * report.empirical_stderr, (
                f"d={dim}: |{report.empirical_mean:.6f} - {expected_cr(dim):.6f}| "
                f"> 4 x {report.empirical_stderr:.2e}"
            )


def test_03_classical_purity_law():
    with criterion(3, "mean purity = 2/(d+1) within 4 stderr at d in {3, 100, 1000}"):
        for dim in (3, 100, 1000):
            report = concentrate(dim, 100000, "purity", epsilons=(0.05, 0.2))
            target = expected_classical_purity(dim)
            gap = abs(report.empirical_mean - target)
            assert gap <= 4 * report.empirical_stderr, (
                f"d={dim}: |{report.empirical_mean:.6e} - {target:.6e}| "
                f"> 4 x {report.empirical_stderr:.2e}"
            )


def test_04_trace_distance_law():
    with criterion(4, "mean trace distance = 2(1-1/d)^d within 4 stderr; 2/e limit"):
        for dim in (2, 100, 1000):
            report = concentrate(dim, 100000, "trdist", epsilons=(0.05, 0.2))
            target = expected_trace_distance(dim)
            gap = abs(report.empirical_mean - target)
            assert gap <= 4 * report.empirical_stderr, (
                f"d={dim}: |{report.empirical_mean:.6f} - {target:.6f}| "
                f"> 4 x {report.empirical_stderr:.2e}"
            )
        assert abs(expected_trace_distance(1000) - 2.0 / math.e) < 4e-4


def test_05_concentration_trend():
    with criterion(5, "tail at 0.1 ln d shrinks across d; scaled variance shrinks"):
        dims = (20, 100, 500, 2000)
        freqs = []
        scaled_var = {}
        for dim in dims:
            report = concentrate(dim, 100000, "cr", epsilons=(0.1 * math.log(dim),))
            freqs.append(report.tails[0][1])
            scaled_var[dim] = report.empirical_variance / math.log(dim) ** 2
        assert all(b <= a for a, b in zip(freqs, freqs[1:])), f"tails not monotone: {freqs}"
        assert freqs[-1] < freqs[0], f"no overall decrease: {freqs}"
        assert scaled_var[500] < scaled_var[20], (
            f"scaled variance {scaled_var[500]:.3e} at d=500 not below "
            f"{scaled_var[20]:.3e} at d=20"
        )


def test_06_tail_vs_bound_soundness():
    with criterion(6, "tail frequency <= effective Levy bound + 5/sqrt(N), all reports"):
        assert _REPORTS, "earlier criteria must have produced reports"
        checked = 0
        for report in _REPORTS:
            slack = 5.0 / math.sqrt(report.config.trials)
            for eps, freq, _, effective in report.tails:
                if effective is None:
                    continue
                checked += 1
                assert freq <= effective + slack, (
                    f"freq {freq} > bound {effective} + {slack} at eps={eps} "
                    f"(config {report.config})"
                )
        assert checked > 0


def test_07_coherent_subspace_at_scale():
    with criterion(7, "subspace floor: d=1e5 -> s=4 and d=34000 -> s=2, zero violations"):
        start = time.perf_counter()
        report = run_subspace_floor(100000, 0.9 * math.log(100000), 2000, SEED)
        elapsed = time.perf_counter() - start
        assert report.sub_dim == 4
        assert abs(report.threshold - 0.7285) < 5e-4
        assert report.min_observed_cr >= 0.7285
        assert report.violations == 0
        assert elapsed < 120.0, f"runtime {elapsed:.1f} s exceeds 120 s"

        eps34 = 0.999 * math.log(34000)
        report34 = run_subspace_floor(34000, eps34, 2000, SEED)
        assert report34.sub_dim == 2
        assert report34.violations == 0
        assert report34.threshold == subspace_threshold(34000, eps34)
        assert report34.min_observed_cr >= report34.threshold
        # the threshold is -0.412 and C_r >= 0, so this half cannot fail
        assert report34.threshold < 0


def test_08_formation_floor_via_decompositions():
    with criterion(8, "decomposition averages above the floor at d=1e5, 20 ensembles"):
        report = run_decomposition_check(
            100000, 0.9 * math.log(100000), n_ensembles=20, m_out=8, master_seed=SEED
        )
        assert report.sub_dim == 4
        assert report.violations == 0
        assert report.min_average >= report.threshold
        assert abs(report.threshold - 0.7285) < 5e-4


def test_09_analytic_identities():
    with criterion(9, "beta identity to 1e-10 on [2, 1e4]; quadrature to 1e-6 on [2, 50]"):
        results = verify_integral()
        for res in results:
            assert res.passed, f"{res.name}: {res.detail}"


def test_10_matrix_integral():
    with criterion(10, "dephasing twirl matches (Tr X I + X)/(d+1) at d in {2, 4, 8}"):
        results = verify_matrix(SEED)
        for res in results:
            assert res.passed, f"{res.name}: {res.detail}"


def test_11_deterministic_inequalities():
    with criterion(11, "zero violations of l1/purity and Fannes floors, 1e4 states"):
        results = verify_inequalities(SEED)
        for res in results:
            assert res.passed, f"{res.name}: {res.detail}"


def test_12_sampler_statistics():
    with criterion(12, "Beta(1, d-1) moments within 4 stderr; |U_11| KS < 0.01"):
        results = verify_moments(SEED)
        for res in results:
            assert res.passed, f"{res.name}: {res.detail}"
