"""Reproducible Monte Carlo campaigns confronting sampled coherence
statistics with their closed-form predictions.

Determinism contract
--------------------
Trial ``i`` of a campaign draws from ``RandomStream(master_seed, i)`` (or a
documented per-work-item index), per-trial values are materialized in
trial order, and every reduction runs over that ordered array (means via
exact compensated summation).  Batches come from the one keyed batch
sampler (:func:`cohlab.sampler.keyed_rows`), and every campaign runs its
chunks through the one chunk runner :func:`_run_chunked`.  Chunk partitions
depend on the problem alone and chunk results are combined in chunk order,
so reports are byte-identical whether the runner fills the chunks serially
or on a thread pool.

Campaigns that need only a Haar state's diagonal draw it as normalised
standard exponentials (:func:`cohlab.sampler.haar_prob_rows`, stream
contract v2): every concentration measure, the inequality sweep and
:func:`first_prob_samples`.  A concentration trial therefore has the law of
``measure(sample_haar_pure(...))`` but not its value.  The subspace,
decomposition, matrix-integral and |U_11| campaigns need amplitudes or
unitaries and draw standard normals.
"""

from __future__ import annotations

import math
import os
from concurrent import futures
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import analytics, measures
from .errors import (
    InvalidArgumentError,
    InvalidDimensionError,
    UnsupportedDimensionError,
    VacuousGuaranteeError,
)
from .sampler import (
    Decomposition,
    haar_amplitude_rows,
    haar_prob_rows,
    haar_unitary_rows,
    sample_pure_in_subspace,
    sample_random_decomposition,
    sample_random_subspace,
)
from .streams import RandomStream


class _Measure(NamedTuple):
    """One measure kind; functions are looked up by name per call, so wrappers see them."""

    kernel: str  # batched kernel in measures
    target: str  # analytic target in analytics
    target_kind: str  # "mean", or "l1_upper_bound" where no closed-form mean exists
    bound: str | None  # Levy tail bound in analytics, None where none is stated
    bound_min_dim: int = 1


_MEASURES = {
    "cr": _Measure("entropy_from_probs", "expected_cr", "mean", "levy_bound_cr", 3),
    "l1": _Measure("l1_from_probs", "typical_l1_upper", "l1_upper_bound", None),
    "purity": _Measure("purity_from_probs", "expected_classical_purity", "mean", "levy_bound_purity"),
    "trdist": _Measure("trdist_mm_from_probs", "expected_trace_distance", "mean", "levy_bound_trdist"),
}
MEASURE_KINDS = tuple(_MEASURES)


@dataclass(frozen=True)
class ExperimentConfig:
    """Identity of a concentration campaign; everything a report depends on."""

    dim: int
    trials: int
    master_seed: int
    epsilons: tuple[float, ...] = ()
    histogram_bins: int = 50
    measure_kind: str = "cr"

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidDimensionError(f"dimension must be >= 1, got {self.dim}")
        if self.trials < 1:
            raise InvalidArgumentError(f"trials must be >= 1, got {self.trials}")
        if self.histogram_bins < 2:
            raise InvalidArgumentError(
                f"histogram_bins must be >= 2, got {self.histogram_bins}"
            )
        if self.measure_kind not in MEASURE_KINDS:
            raise InvalidArgumentError(
                f"measure_kind must be one of {MEASURE_KINDS}, got {self.measure_kind!r}"
            )
        eps = tuple(float(e) for e in self.epsilons)
        if not all(math.isfinite(e) and e > 0.0 for e in eps):
            raise InvalidArgumentError("epsilons must be finite and strictly positive")
        if len(set(eps)) < len(eps):
            raise InvalidArgumentError("epsilons must be distinct")
        if any(b < a for a, b in zip(eps, eps[1:])):
            raise InvalidArgumentError("epsilons must be sorted ascending")
        object.__setattr__(self, "epsilons", eps)


@dataclass
class ConcentrationReport:
    """Empirical statistics of one campaign next to their analytic targets.

    For the l1 measure no closed-form mean exists; ``analytic_mean`` then
    holds the dimension-only upper bound (``analytic_kind`` is
    ``"l1_upper_bound"``) and tail frequencies are centered on the
    empirical mean (``tails_center`` is ``"empirical"``).  Tail entries
    carry the Levy bound for the measure, or None where no Lipschitz
    constant is established (l1, and cr below d = 3).
    """

    config: ExperimentConfig
    empirical_mean: float
    empirical_stderr: float
    empirical_variance: float
    analytic_mean: float
    analytic_kind: str
    tails_center: str
    histogram: list[tuple[float, float, int]]
    tails: list[tuple[float, float, float | None, float | None]]
    scaled_mean: float | None

    def tail_bound_flags(self) -> list[tuple[float, float, float]]:
        """Tail entries exceeding a non-vacuous bound (statistical red flags)."""
        return [
            (eps, freq, eff)
            for eps, freq, _, eff in self.tails
            if eff is not None and eff < 1.0 and freq > eff
        ]


# bytes of complex amplitudes (16 per entry) one row chunk may hold;
# probability rows (8 bytes per entry) fill half of it.  Every campaign
# computes per-row values and reduces them in trial order, so the rows per
# chunk change no payload byte, only the memory a chunk holds
_CHUNK_BYTES = 1 << 22


def _chunk_size(dim: int) -> int:
    # fixed function of the problem so chunk boundaries (and therefore
    # reductions) cannot depend on the worker count; a row larger than the
    # budget is a chunk of its own
    return max(1, min(4096, _CHUNK_BYTES // (16 * dim)))


def _unitary_chunk(dim: int) -> int:
    return max(8, min(2048, (1 << 20) // max(dim * dim, 1)))


# _run_chunked is serial below this dimension, else it runs one thread per
# usable CPU up to the chunk count.  On a 2-CPU machine, cr campaigns of 2e7
# amplitudes in _CHUNK_BYTES chunks on 2 threads against 1 (3 sets of 6
# interleaved runs, medians) cost CPU +10..+23% at d=300, +8..+15% at d=350,
# -1..+6% at d=400, -4..-9% at d=450 and d=500, and -4..-10% at d=600 and
# -12..-16% at d=1000; wall fell 44-54% from d=450 on.  The cutoff is the
# smallest measured d at which a second thread cost no CPU in every set.
_PARALLEL_MIN_DIM = 450


# largest array a campaign may request: one row of a chunk (a state of 16 d
# bytes, or a unitary of 16 d^2), the least a chunk holds, or a subspace
# frame (16 d s bytes).
# Larger requests raise MemoryError before anything is allocated (CLI exit
# 6); every acceptance and golden campaign stays far inside it (the largest
# frame, d=1e5 and s=4, is 6.4 MB)
MAX_ALLOC_BYTES = 1 << 30


def _check_alloc(nbytes: int, what: str) -> None:
    if nbytes > MAX_ALLOC_BYTES:
        raise MemoryError(
            f"{what} needs {nbytes} bytes, over the cap of {MAX_ALLOC_BYTES} bytes"
        )


def _check_frame(dim: int, sub_dim: int) -> None:
    _check_alloc(16 * dim * sub_dim, f"a {dim} x {sub_dim} subspace frame")


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_chunked(n: int, size: int, fill, dim: int, row_bytes: int) -> list:
    """``fill(start, stop)`` over the chunks of [0, n), results in chunk order.

    ``row_bytes`` is the size of one drawn row, checked against the cap
    before any chunk runs; ``dim`` alone picks serial or threaded.
    """
    _check_alloc(row_bytes, f"one row of a d={dim} campaign")
    bounds = [(start, min(start + size, n)) for start in range(0, n, size)]
    workers = 1 if dim < _PARALLEL_MIN_DIM else min(_usable_cpus(), len(bounds))
    if workers > 1:
        with futures.ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda b: fill(*b), bounds))
    return [fill(*b) for b in bounds]


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 of complex ``z`` with a contiguous last axis; consumes ``z``.

    The floats of ``z`` are squared in place, then the strided real and
    imaginary halves are added into the one new array, the bytes of
    ``z.real**2 + z.imag**2`` without its two temporaries.
    """
    f = z.view(np.float64)
    f *= f
    return f[..., 0::2] + f[..., 1::2]


def _trial_values(config: ExperimentConfig) -> np.ndarray:
    kernel = getattr(measures, _MEASURES[config.measure_kind].kernel)

    def fill(start: int, stop: int) -> np.ndarray:
        return kernel(haar_prob_rows(config.master_seed, start, stop, config.dim))

    return np.concatenate(
        _run_chunked(
            config.trials, _chunk_size(config.dim), fill, config.dim, 16 * config.dim
        )
    )


def run_concentration(config: ExperimentConfig) -> ConcentrationReport:
    """Run one concentration campaign of ``config.trials`` independent trials.

    Tail frequencies count ``|value - center| > eps`` where the center is
    the analytic mean (the theorems' centering), except for l1 where it is
    the empirical mean.  cr histograms use the fixed range [0, ln d] so
    campaigns across dimensions are comparable after scaling.
    """
    values = _trial_values(config)
    n = config.trials
    mean = math.fsum(values) / n
    variance = math.fsum((values - mean) ** 2) / (n - 1) if n > 1 else 0.0
    stderr = math.sqrt(variance / n)

    measure = _MEASURES[config.measure_kind]
    analytic_mean = getattr(analytics, measure.target)(config.dim)
    empirical = measure.target_kind == "l1_upper_bound"
    center = mean if empirical else analytic_mean
    has_bound = measure.bound is not None and config.dim >= measure.bound_min_dim

    tails = []
    for eps in config.epsilons:
        freq = float(np.count_nonzero(np.abs(values - center) > eps)) / n
        raw = effective = None
        if has_bound:
            try:
                bound = getattr(analytics, measure.bound)(config.dim, eps)
                raw, effective = bound.raw, bound.effective
            except OverflowError:  # eps^2 overflowed, so the log bound is -inf: the bound is 0
                raw = effective = 0.0
        tails.append((eps, freq, raw, effective))

    if config.measure_kind == "cr":
        lo, hi = 0.0, math.log(config.dim)
        if hi <= lo:  # d = 1: all values are exactly 0
            hi = 1.0
    else:
        lo, hi = float(values.min()), float(values.max())
        if hi <= lo:
            hi = lo + 1.0
    counts, edges = np.histogram(values, bins=config.histogram_bins, range=(lo, hi))
    histogram = [
        (float(edges[i]), float(edges[i + 1]), int(counts[i]))
        for i in range(counts.size)
    ]

    scaled = None
    if config.measure_kind == "cr" and config.dim >= 2:
        scaled = mean / math.log(config.dim)

    return ConcentrationReport(
        config=config,
        empirical_mean=mean,
        empirical_stderr=stderr,
        empirical_variance=variance,
        analytic_mean=analytic_mean,
        analytic_kind=measure.target_kind,
        tails_center="empirical" if empirical else "analytic",
        histogram=histogram,
        tails=tails,
        scaled_mean=scaled,
    )


@dataclass
class SubspaceFloorReport:
    """Sampled check of the coherent-subspace floor on one random subspace.

    ``violations`` counts sampled states with C_r below the threshold
    H_d - 1 - eps.  This is a sampled necessary check of the guarantee,
    not its net-based sufficient construction (net sizes are beyond
    astronomical; see :func:`cohlab.analytics.net_log_size`).
    """

    dim: int
    eps: float
    sub_dim: int
    small_d_warning: bool
    threshold: float
    n_states: int
    min_observed_cr: float
    violations: int
    master_seed: int


def run_subspace_floor(
    dim: int,
    eps: float,
    n_states: int,
    master_seed: int,
) -> SubspaceFloorReport:
    """Sample one random subspace and many Haar states inside it.

    The subspace draws from stream (master_seed, 0); state j draws from
    stream (master_seed, j + 1).  Raises
    :class:`~cohlab.errors.VacuousGuaranteeError` when the dimension
    formula yields s = 0.
    """
    if n_states < 1:
        raise InvalidArgumentError(f"n_states must be >= 1, got {n_states}")
    sdim = analytics.subspace_dimension(dim, eps)
    if sdim.s < 1:
        raise VacuousGuaranteeError(
            f"subspace dimension formula gives s = 0 at dim={dim}, eps={eps:.6g}; "
            f"a nontrivial guarantee (s >= 2) requires "
            f"d >= {analytics.MIN_DIM_FOR_NONTRIVIAL_SUBSPACE}"
        )
    _check_frame(dim, sdim.s)
    threshold = analytics.subspace_threshold(dim, eps)
    basis = sample_random_subspace(dim, sdim.s, RandomStream(master_seed, 0))
    frame_t = basis.columns.T.copy()

    def fill(start: int, stop: int) -> np.ndarray:
        coeff = haar_amplitude_rows(master_seed, start + 1, stop + 1, sdim.s)
        return measures.entropy_from_probs(_abs2(coeff @ frame_t))

    values = np.concatenate(_run_chunked(n_states, _chunk_size(dim), fill, dim, 16 * dim))

    return SubspaceFloorReport(
        dim=dim,
        eps=eps,
        sub_dim=sdim.s,
        small_d_warning=sdim.small_d_warning,
        threshold=threshold,
        n_states=n_states,
        min_observed_cr=float(values.min()),
        violations=int(np.count_nonzero(values < threshold)),
        master_seed=master_seed,
    )


@dataclass
class DecompositionCheckReport:
    """Sampled convex-roof check: ensemble averages of states in a random
    subspace against the coherence floor."""

    dim: int
    eps: float
    sub_dim: int
    threshold: float
    n_ensembles: int
    ensemble_size: int
    m_out: int
    n_redecompositions: int
    min_average: float
    violations: int
    master_seed: int


def run_decomposition_check(
    dim: int,
    eps: float,
    n_ensembles: int,
    m_out: int,
    master_seed: int,
    ensemble_size: int = 2,
    n_redecompositions: int = 5,
) -> DecompositionCheckReport:
    """Check that sampled decomposition averages stay above the floor.

    Mixed states are built as random ensembles of Haar states inside one
    random subspace (stream 0); ensemble e consumes stream e + 1 for its
    states, weights, and re-decompositions.  Every member of every sampled
    re-decomposition lies in the subspace, so each average diagonal entropy
    should exceed H_d - 1 - eps; ``violations`` counts sampled averages
    below it.
    """
    if n_ensembles < 1:
        raise InvalidArgumentError(f"n_ensembles must be >= 1, got {n_ensembles}")
    if ensemble_size < 1:
        raise InvalidArgumentError(f"ensemble_size must be >= 1, got {ensemble_size}")
    if m_out < ensemble_size:
        raise InvalidArgumentError(
            f"m_out must be >= ensemble_size {ensemble_size}, got {m_out}"
        )
    if n_redecompositions < 0:
        raise InvalidArgumentError("n_redecompositions must be >= 0")
    sdim = analytics.subspace_dimension(dim, eps)
    if sdim.s < 2:
        raise VacuousGuaranteeError(
            f"mixed-state ensembles need a subspace of dimension s >= 2, got "
            f"s = {sdim.s} at dim={dim}, eps={eps:.6g}; this requires "
            f"d >= {analytics.MIN_DIM_FOR_NONTRIVIAL_SUBSPACE}"
        )
    _check_frame(dim, sdim.s)
    threshold = analytics.subspace_threshold(dim, eps)
    basis = sample_random_subspace(dim, sdim.s, RandomStream(master_seed, 0))

    averages = []
    for ensemble_idx in range(n_ensembles):
        stream = RandomStream(master_seed, ensemble_idx + 1)
        states = [
            sample_pure_in_subspace(basis, stream) for _ in range(ensemble_size)
        ]
        raw_w = stream.generator.standard_exponential(ensemble_size)
        dec = Decomposition(weights=raw_w / raw_w.sum(), states=states)
        averages.append(measures.decomposition_average_coherence(dec))
        for _ in range(n_redecompositions):
            redec = sample_random_decomposition(dec, m_out, stream)
            averages.append(measures.decomposition_average_coherence(redec))

    averages_arr = np.asarray(averages)
    return DecompositionCheckReport(
        dim=dim,
        eps=eps,
        sub_dim=sdim.s,
        threshold=threshold,
        n_ensembles=n_ensembles,
        ensemble_size=ensemble_size,
        m_out=m_out,
        n_redecompositions=n_redecompositions,
        min_average=float(averages_arr.min()),
        violations=int(np.count_nonzero(averages_arr < threshold)),
        master_seed=master_seed,
    )


@dataclass
class MatrixIntegralReport:
    """Monte Carlo twirl of the dephasing map against its closed form."""

    dim: int
    n_unitaries: int
    master_seed: int
    max_abs_deviation: float
    tolerance: float
    ok: bool


def run_matrix_integral_check(
    dim: int,
    n_unitaries: int,
    master_seed: int,
    x: np.ndarray | None = None,
) -> MatrixIntegralReport:
    """Average U^dag Pi(U X U^dag) U over Haar unitaries, entrywise.

    For the dephasing map Pi the Haar twirl has the closed form
    (Tr X * I + X) / (d + 1).  X defaults to the first basis projector;
    any Hermitian d x d matrix may be supplied.  Dense averaging, so only
    2 <= d <= 16 is supported.  The tolerance is the 5/sqrt(n) Monte Carlo
    scale.
    """
    if not 2 <= dim <= 16:
        raise UnsupportedDimensionError(
            f"dense matrix averaging supports 2 <= d <= 16, got {dim}"
        )
    if n_unitaries < 1:
        raise InvalidArgumentError(f"n_unitaries must be >= 1, got {n_unitaries}")
    if x is None:
        x = np.zeros((dim, dim), dtype=np.complex128)
        x[0, 0] = 1.0
    else:
        x = np.ascontiguousarray(x, dtype=np.complex128)
        if x.shape != (dim, dim):
            raise InvalidArgumentError(f"x must be {dim} x {dim}, got {x.shape}")
        if np.abs(x - x.conj().T).max() > 1e-12:
            raise InvalidArgumentError("x must be Hermitian")

    closed_form = (np.trace(x).real * np.eye(dim) + x) / (dim + 1.0)

    def fill(start: int, stop: int) -> np.ndarray:
        u = haar_unitary_rows(master_seed, start, stop, dim)
        m = u @ x @ u.conj().transpose(0, 2, 1)
        pdiag = np.diagonal(m, axis1=-2, axis2=-1).real
        return np.einsum("nji,nj,njk->ik", u.conj(), pdiag, u)

    # chunk sums added in chunk order: the total depends on _unitary_chunk
    total = sum(
        _run_chunked(n_unitaries, _unitary_chunk(dim), fill, dim, 16 * dim * dim)
    )
    deviation = float(np.abs(total / n_unitaries - closed_form).max())
    tolerance = 5.0 / math.sqrt(n_unitaries)
    return MatrixIntegralReport(
        dim=dim,
        n_unitaries=n_unitaries,
        master_seed=master_seed,
        max_abs_deviation=deviation,
        tolerance=tolerance,
        ok=deviation < tolerance,
    )


@dataclass
class InequalitySweepReport:
    """Violation counts of the deterministic per-state inequalities."""

    dim: int
    trials: int
    master_seed: int
    l1_purity_violations: int
    fannes_violations: int
    cr_range_violations: int
    atol: float


def run_inequality_sweep(
    dim: int,
    trials: int,
    master_seed: int,
    atol: float = 1e-10,
) -> InequalitySweepReport:
    """Count violations of three per-state theorems over sampled states.

    Checks, per Haar state: C_l1 <= sqrt(d(d-1)(1-P)); C_r >= the Fannes
    floor; 0 <= C_r <= ln d.  All counts are expected to be exactly zero
    (``atol`` absorbs float rounding only).
    """
    if dim < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
    if trials < 1:
        raise InvalidArgumentError(f"trials must be >= 1, got {trials}")
    log_d = math.log(dim)

    def fill(start: int, stop: int) -> tuple[int, int, int]:
        probs = haar_prob_rows(master_seed, start, stop, dim)
        c_r = measures.entropy_from_probs(probs)
        c_l1 = measures.l1_from_probs(probs)
        floor = measures.fannes_floor_from_probs(probs)
        l1_bound = np.sqrt(dim * (dim - 1) * measures.mixedness_from_probs(probs))
        return (
            int(np.count_nonzero(c_l1 > l1_bound + atol)),
            int(np.count_nonzero(c_r < floor - atol)),
            int(np.count_nonzero((c_r < -atol) | (c_r > log_d + atol))),
        )

    partials = _run_chunked(trials, _chunk_size(dim), fill, dim, 16 * dim)
    totals = [sum(p[i] for p in partials) for i in range(3)]
    return InequalitySweepReport(
        dim=dim,
        trials=trials,
        master_seed=master_seed,
        l1_purity_violations=totals[0],
        fannes_violations=totals[1],
        cr_range_violations=totals[2],
        atol=atol,
    )


def first_prob_samples(dim: int, trials: int, master_seed: int) -> np.ndarray:
    """First diagonal probability of each sampled Haar state, in trial order."""
    if dim < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
    if trials < 1:
        raise InvalidArgumentError(f"trials must be >= 1, got {trials}")

    def fill(start: int, stop: int) -> np.ndarray:
        return haar_prob_rows(master_seed, start, stop, dim)[:, 0]

    return np.concatenate(_run_chunked(trials, _chunk_size(dim), fill, dim, 16 * dim))


def ks_distance_u11(dim: int, trials: int, master_seed: int) -> float:
    """Kolmogorov-Smirnov distance of sampled |U_11| to its exact law.

    The magnitude of a Haar-unitary entry has CDF 1 - (1 - r^2)^(d-1).
    """
    if dim < 2:
        raise InvalidDimensionError(f"the entry law needs d >= 2, got {dim}")
    if trials < 1:
        raise InvalidArgumentError(f"trials must be >= 1, got {trials}")

    def fill(start: int, stop: int) -> np.ndarray:
        return np.abs(haar_unitary_rows(master_seed, start, stop, dim)[:, 0, 0])

    r = np.sort(
        np.concatenate(
            _run_chunked(trials, _unitary_chunk(dim), fill, dim, 16 * dim * dim)
        )
    )
    cdf = 1.0 - (1.0 - r * r) ** (dim - 1)
    grid = np.arange(trials, dtype=np.float64)
    d_plus = float(((grid + 1.0) / trials - cdf).max())
    d_minus = float((cdf - grid / trials).max())
    return max(d_plus, d_minus)


@dataclass
class CheckResult:
    """One named pass/fail outcome of a verification suite."""

    name: str
    passed: bool
    detail: str


def verify_integral() -> list[CheckResult]:
    """Cross-formula identities: Beta route for all d <= 1e4, quadrature to 50."""
    d_max = 10**4
    max_beta_diff = 0.0
    for d in range(2, d_max + 1):
        diff = abs(analytics.expected_cr(d) - analytics.expected_cr_via_beta(d))
        if diff > max_beta_diff:
            max_beta_diff = diff
    max_quad_diff = 0.0
    for d in range(2, 51):
        diff = abs(analytics.expected_cr(d) - analytics.expected_cr_via_quadrature(d))
        if diff > max_quad_diff:
            max_quad_diff = diff
    return [
        CheckResult(
            name=f"beta-identity[2..{d_max}]",
            passed=max_beta_diff <= 1e-10,
            detail=f"max |closed - beta route| = {max_beta_diff:.3e} (tol 1e-10)",
        ),
        CheckResult(
            name="quadrature-identity[2..50]",
            passed=max_quad_diff <= 1e-6,
            detail=f"max |closed - quadrature| = {max_quad_diff:.3e} (tol 1e-6)",
        ),
    ]


def verify_matrix(master_seed: int) -> list[CheckResult]:
    """Monte Carlo dephasing twirl against (Tr X I + X)/(d+1) at d = 2, 4, 8."""
    n_unitaries = 10**5
    results = []
    for d in (2, 4, 8):
        report = run_matrix_integral_check(d, n_unitaries, master_seed)
        results.append(
            CheckResult(
                name=f"matrix-integral[d={d}]",
                passed=report.ok,
                detail=(
                    f"max entrywise deviation {report.max_abs_deviation:.3e} "
                    f"(tol {report.tolerance:.3e}, n={n_unitaries})"
                ),
            )
        )
    return results


def verify_inequalities(master_seed: int) -> list[CheckResult]:
    """Per-state theorem sweeps at d = 2, 3, 10, 100; every violation count must be zero."""
    trials = 10**4
    results = []
    for d in (2, 3, 10, 100):
        report = run_inequality_sweep(d, trials, master_seed)
        total = (
            report.l1_purity_violations
            + report.fannes_violations
            + report.cr_range_violations
        )
        results.append(
            CheckResult(
                name=f"inequalities[d={d}]",
                passed=total == 0,
                detail=(
                    f"violations l1/purity={report.l1_purity_violations} "
                    f"fannes={report.fannes_violations} "
                    f"cr-range={report.cr_range_violations} over {trials} states"
                ),
            )
        )
    return results


def verify_moments(master_seed: int) -> list[CheckResult]:
    """Outcome-probability moments against Beta(1, d-1) at d = 2, 10, 100, plus the |U_11| law."""
    trials = ks_trials = 10**5
    max_sigma, ks_tolerance = 4.0, 0.01
    results = []
    for d in (2, 10, 100):
        p1 = first_prob_samples(d, trials, master_seed)
        for k in (1, 2):
            sample = p1 if k == 1 else p1 * p1
            mean = float(sample.mean())
            stderr = float(sample.std(ddof=1)) / math.sqrt(trials)
            target = analytics.haar_prob_moment(d, k)
            z = abs(mean - target) / stderr
            results.append(
                CheckResult(
                    name=f"moment[d={d},k={k}]",
                    passed=z <= max_sigma,
                    detail=(
                        f"mean {mean:.6e} vs {target:.6e}, "
                        f"z = {z:.2f} (max {max_sigma})"
                    ),
                )
            )
    ks = ks_distance_u11(2, ks_trials, master_seed)
    results.append(
        CheckResult(
            name="ks-u11[d=2]",
            passed=ks < ks_tolerance,
            detail=f"KS distance {ks:.4f} (tol {ks_tolerance}) over {ks_trials} unitaries",
        )
    )
    return results
