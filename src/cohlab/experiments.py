"""Reproducible Monte Carlo campaigns confronting sampled coherence
statistics with their closed-form predictions.

Determinism contract
--------------------
Which variates each campaign draws from which stream, and the arithmetic
that turns them into payload bytes, is the stream contract of
:mod:`cohlab.streams`.  Per-trial values are materialized in trial order,
and every reduction runs over that ordered array (means via exact
compensated summation).  Every campaign runs its chunks through the one
chunk runner :func:`_run_chunked`.  Chunk partitions depend on the bytes of
a drawn row alone and chunk results are combined in chunk order, so
reports are byte-identical whether the runner fills the chunks serially or
on a thread pool.  Campaigns that draw diagonals draw and evaluate every
chunk in blocks of rows (:func:`_block_rows`): each block is drawn into the
rows buffer of the worker that fills the chunk, and the kernels run in its
work buffer, both one block in size and both living only as long as the
campaign.  The subspace campaign and the decomposition check project their
states through one projector (:func:`_project`): chunks of states (128 at
s <= 4, 64 above), one fixed block of frame columns at a time, in row
blocks of states (32 at s <= 4, 16 above) that fill those buffers, summing
each state's block entropies in block order, so their bytes depend on d
but not on the chunks or the row blocks either.
"""

from __future__ import annotations

import functools
import math
import os
import threading
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
    _mix_ensemble,
    _unit_rows,
    ginibre,
    haar_amplitude_rows,
    haar_prob_blocks,
    haar_unitary_rows,
    positive_qr,
    sample_random_subspace,
)
from .streams import new_generator


class _Measure(NamedTuple):
    """One measure kind; functions are looked up by name per call, so wrappers see them."""

    kernel: str  # batched kernel in measures
    target: str  # analytic target in analytics
    target_kind: str  # "mean", or "l1_upper_bound" where no closed-form mean exists
    bound: str | None = None  # Levy tail bound in analytics, None where none is stated
    theorem: str | None = None  # the paper's number of that bound, as `cohlab bounds` names it
    lipschitz: str | None = None  # Lipschitz constant in analytics that the bound is built on
    bound_min_dim: int = 1  # least d at which the bound holds


_MEASURES = {
    "cr": _Measure("entropy_from_probs", "expected_cr", "mean",
                   "levy_bound_cr", "1", "lipschitz_cr", 3),
    "l1": _Measure("l1_from_probs", "typical_l1_upper", "l1_upper_bound"),
    "purity": _Measure("purity_from_probs", "expected_classical_purity", "mean",
                       "levy_bound_purity", "3", "lipschitz_eta2"),
    "trdist": _Measure("trdist_mm_from_probs", "expected_trace_distance", "mean",
                       "levy_bound_trdist", "4", "lipschitz_eta2"),
}
MEASURE_KINDS = tuple(_MEASURES)


def _check_counts(dim: int, trials: int) -> None:
    if dim < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
    if trials < 1:
        raise InvalidArgumentError(f"trials must be >= 1, got {trials}")


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
        _check_counts(self.dim, self.trials)
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


# bytes one chunk of drawn rows may hold, whatever a row is: a state of 16 d
# bytes, a unitary of 16 d^2, or a subspace state counted per column of one
# frame block at the 16 bytes of its probabilities and their kernel work
# (128 states per chunk) for s <= 4, and at 32 bytes above, where the rows
# buffer holds its real and imaginary parts (64 states per chunk).  A
# diagonal counts 16 d, its rows and kernel work.  Diagonal and subspace
# chunks, the unit of dispatch (and of one generator for diagonals), hold
# one block of rows at a time (_SCRATCH_BYTES).  Every campaign but the
# matrix check computes per-row values and reduces them in trial order, so
# the rows per chunk change no payload byte, only the memory a chunk holds
_CHUNK_BYTES = 1 << 22


def _chunk_size(row_bytes: int) -> int:
    # fixed function of the problem so chunk boundaries (and therefore
    # reductions) cannot depend on the worker count; a row larger than the
    # budget is a chunk of its own
    return max(1, min(4096, _CHUNK_BYTES // row_bytes))


# bytes of each of the two scratch buffers, rows and kernel work, that a
# worker of a diagonal or subspace campaign owns: it draws and evaluates
# each chunk in blocks of this many bytes of rows (65 rows at d = 1000, or
# 32 subspace states of one column block at s <= 4), or of one row where a
# row is larger.  On a 2-CPU machine with 2 MiB of L2 per core, laws
# iterations (concentrate cr, purity and trdist at d = 1000 with 20000
# trials on 2 threads; 5 sets of 15 interleaved, medians) peaked at 39.8,
# 40.8, 42.9 and 47.1 MB RSS with blocks of 256 KiB, 512 KiB, 1 MiB and
# 2 MiB (the whole chunk of 262 rows); their wall time, 0.55 s, and CPU
# time, 1.02-1.06 s, moved less than the sets spread
_SCRATCH_BYTES = 1 << 19


def _block_rows(row_bytes: int) -> int:
    # per-row values do not depend on their block, so neither does any byte
    return max(1, _SCRATCH_BYTES // row_bytes)


# _run_chunked is serial for rows of fewer bytes than a state of this d
# (16 d), else it runs one thread per usable CPU up to the chunk count.  On a
# 2-CPU machine, cr campaigns of 2e7 amplitudes in _CHUNK_BYTES chunks on 2
# threads against 1 (3 sets of 6 interleaved runs, medians) cost CPU
# +10..+23% at d=300, +8..+15% at d=350, -1..+6% at d=400, -4..-9% at d=450
# and d=500, and -4..-10% at d=600 and -12..-16% at d=1000; wall fell 44-54%
# from d=450 on.  The cutoff is the smallest measured d at which a second
# thread cost no CPU in every set; unitaries of d >= 22 are past it
_PARALLEL_MIN_DIM = 450


# largest array a campaign may request: one drawn row (a state of 16 d
# bytes, or a unitary of 16 d^2), the least a chunk holds past its one
# _CHUNK_BYTES budget, a subspace frame (16 d s bytes) or the quadratic-form
# frame Q that subspace states of s <= 4 are projected onto (8 d s^2 bytes;
# above s = 4 they are projected through the real form of one column block
# of the frame at a time), the values of every trial (8 bytes each) or a
# histogram with its payload (_HISTOGRAM_BIN_BYTES per bin).  The frame cap
# bounds the whole frame phase, which orthonormalises the frame in place and
# needs the frame plus one 512 KiB block of its rows, not the 3-5 frames of
# a Householder QR.
# Larger requests raise MemoryError before anything is allocated (CLI exit
# 6); every acceptance and golden campaign stays far inside it (the largest
# frame, d=1e5 and s=6, is 9.6 MB, and the largest projection frame, d=1e5
# and s=4, 12.8 MB)
MAX_ALLOC_BYTES = 1 << 30


# columns of the subspace frame that _project projects and reduces at a
# time.  A chunk streams the frame from memory once, one block
# of columns after another, and projects each block in row blocks of
# _SCRATCH_BYTES of products (32 states at s <= 4, 16 above), which reuse
# the block of the frame (256 KiB of Q at s = 4) from cache.  Row blocks of
# rows x cols products, run_subspace_floor(1e5, 0.9 ln d, 2000) on 2 threads
# of a 2-CPU machine with 2 MiB of L2 per core (2 sets of 9 and 15
# interleaved repeats, medians against 32 x 8192): 32 x 4096 (1 MiB) -3%
# and -5% wall, the 512 KiB shapes 32 x 2048 -10% and -13% and 64 x 1024
# -17% and -11%, the 256 KiB shapes 16 x 2048 +6% and +8% and 32 x 1024 0%
# and +5%.  The blocks depend on d alone, and a state's C_r is the sum of
# its block entropies in block order, so neither the rows per chunk, the
# rows per row block nor the workers change a byte
_BLOCK_COLS = 2048


def _check_alloc(nbytes: int, what: str) -> None:
    if nbytes > MAX_ALLOC_BYTES:
        raise MemoryError(
            f"{what} needs {nbytes} bytes, over the cap of {MAX_ALLOC_BYTES} bytes"
        )


# bytes one histogram bin costs on its way to the output: the numpy counts
# and edges, a Python 3-tuple in the report and its indented JSON text.
# Measured: peak RSS of `concentrate --dim 1000 --trials 5` grew 567 bytes
# per bin from 5e5 to 1.5e6 bins with JSON output (288 with CSV); 650 is
# what it grew while the JSON payload deep-copied the histogram, kept so
# that the exit-6 boundary stays where it was
_HISTOGRAM_BIN_BYTES = 650


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_chunked(n: int, fill, row_bytes: int, scratch_cols: int = 0, size: int = 0) -> list:
    """``fill(start, stop)`` over the chunks of [0, n), results in chunk order.

    ``row_bytes``, the size of one drawn row, sets the rows per chunk
    (``size`` overrides them) and picks serial or threaded; it is checked
    against the cap before any chunk runs, as are the 8 bytes per trial
    that a campaign may keep.  Workers take the chunks in order from one
    lazily generated sequence.  A chunk that raises ends the campaign: the
    sequence is emptied, so no worker takes another chunk, and the
    exception reaches the caller.

    With ``scratch_cols``, each worker owns two float64 arrays of
    ``scratch_cols`` columns, rows and work, allocated on its first chunk
    and dropped when the campaign returns.  They have ``min(size, n)`` rows,
    or one block of ``_SCRATCH_BYTES`` (:func:`_block_rows`) where that is
    fewer, and every chunk is filled as ``fill(start, stop, rows, work)``
    with at most their first ``stop - start`` rows.  ``fill`` may overwrite
    both but must not return a view of them.
    """
    _check_alloc(row_bytes, "one drawn row")
    _check_alloc(8 * n, f"the values of {n} trials")
    size = size or _chunk_size(row_bytes)
    count = -(-n // size)
    results = [None] * count
    chunks = enumerate((start, min(start + size, n)) for start in range(0, n, size))
    take = threading.Lock()

    def work() -> None:
        nonlocal chunks
        scratch = None
        while True:
            with take:
                item = next(chunks, None)
            if item is None:
                return
            i, (start, stop) = item
            if scratch_cols and scratch is None:
                # one allocation for both: once a campaign has freed it,
                # glibc serves the next from its heap without trimming it, so
                # a serial laws iteration (3 campaigns of 77 chunks in blocks
                # of 65 rows at d=1000) takes 15-18 minor faults, against
                # about 680 for two allocations
                rows = min(size, n, _block_rows(8 * scratch_cols))
                scratch = np.empty((2, rows, scratch_cols))
            try:
                results[i] = fill(start, stop, *(() if scratch is None else scratch[:, : stop - start]))
            except BaseException:
                with take:
                    chunks = iter(())
                raise

    workers = 1 if row_bytes < 16 * _PARALLEL_MIN_DIM else min(_usable_cpus(), count)
    if workers > 1:
        with futures.ThreadPoolExecutor(max_workers=workers) as pool:
            for done in [pool.submit(work) for _ in range(workers)]:
                done.result()
    else:
        work()
    return results


def _abs2_halves(amps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|psi|^2 into ``out`` from ``amps``, whose first half of rows holds
    Re psi and whose second half holds Im psi; squares ``amps`` in place.

    Both halves are contiguous, and the bytes are those of
    ``psi.real**2 + psi.imag**2``.
    """
    amps *= amps
    half = len(amps) // 2
    return np.add(amps[:half], amps[half:], out=out)


def _over_diagonals(dim: int, trials: int, master_seed: int, per_block) -> list:
    """``per_block(probs, work)`` over the blocks of Haar diagonals of trials
    [0, trials), results in trial order.

    Each chunk of :func:`_run_chunked` is one draw
    (:func:`~cohlab.sampler.haar_prob_blocks`), made and evaluated in blocks
    of :func:`_block_rows` rows: ``probs`` and ``work`` are the first rows of
    the worker's rows and work buffers, which hold one block.
    """

    def fill(start: int, stop: int, rows: np.ndarray, work: np.ndarray) -> list:
        blocks = haar_prob_blocks(master_seed, start, stop, dim, rows)
        return [per_block(probs, work[: len(probs)]) for probs in blocks]

    chunks = _run_chunked(trials, fill, 16 * dim, dim)
    return [result for chunk in chunks for result in chunk]


def run_concentration(config: ExperimentConfig) -> ConcentrationReport:
    """Run one concentration campaign of ``config.trials`` independent trials.

    Tail frequencies count ``|value - center| > eps`` where the center is
    the analytic mean (the theorems' centering), except for l1 where it is
    the empirical mean.  cr histograms use the fixed range [0, ln d] so
    campaigns across dimensions are comparable after scaling.
    """
    bins = config.histogram_bins
    _check_alloc(_HISTOGRAM_BIN_BYTES * bins, f"a histogram of {bins} bins")
    measure = _MEASURES[config.measure_kind]
    kernel = getattr(measures, measure.kernel)
    values = np.concatenate(_over_diagonals(config.dim, config.trials, config.master_seed, kernel))
    n = config.trials
    mean = math.fsum(values) / n
    variance = math.fsum((values - mean) ** 2) / (n - 1) if n > 1 else 0.0
    stderr = math.sqrt(variance / n)

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
    not its net-based sufficient construction, whose eps0-net has
    (5/eps0)^(2d) points.
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


def _quadratic_form(s: int) -> bool:
    # multiplies per probability: s^2 in the quadratic form, 4 s in the real
    # form (2 s for each of Re psi_i and Im psi_i), so s <= 4
    return s * s <= 4 * s


def _quadratic_frame(columns: np.ndarray) -> np.ndarray:
    """The s^2 x d real frame Q of the frame columns F_j: rows |F_j|^2, then
    2 Re(conj(F_j) F_k) and -2 Im(conj(F_j) F_k) for each j < k.

    Q is built one block of ``_BLOCK_COLS`` columns at a time, so its
    temporaries are a block's; every entry is elementwise, so the blocks
    change no byte."""
    dim, s = columns.shape
    q = np.empty((s * s, dim))
    pairs = list(zip(range(s, s * s, 2), zip(*np.triu_indices(s, 1))))
    for lo in range(0, dim, _BLOCK_COLS):
        f, out = columns[lo : lo + _BLOCK_COLS].T, q[:, lo : lo + _BLOCK_COLS]
        np.add(f.real**2, f.imag**2, out=out[:s])
        for row, (j, k) in pairs:
            cross = f[j].conj() * f[k]
            np.multiply(cross.real, 2.0, out=out[row])
            np.multiply(cross.imag, -2.0, out=out[row + 1])
    return q


def _quadratic_coefficients(c: np.ndarray) -> np.ndarray:
    """The n x s^2 rows M of coefficient rows c, with ``M @ Q`` the
    probabilities |F c|^2: columns |c_j|^2, then Re(conj(c_j) c_k) and
    Im(conj(c_j) c_k) for each j < k, in the order of Q's rows."""
    s = c.shape[1]
    m = np.empty((len(c), s * s))
    np.add(c.real**2, c.imag**2, out=m[:, :s])
    j, k = np.triu_indices(s, 1)
    cross = c[:, j].conj() * c[:, k]
    m[:, s::2] = cross.real
    m[:, s + 1 :: 2] = cross.imag
    return m


def _real_coefficients(c: np.ndarray) -> np.ndarray:
    # [Re psi; Im psi] = [[Re c, -Im c], [Im c, Re c]] @ [Re F^T; Im F^T]
    # for the coefficients c of psi = F c
    return np.block([[c.real, -c.imag], [c.imag, c.real]])


def _rows_view(buffer: np.ndarray, rows: int, width: int) -> np.ndarray:
    """The first ``rows * width`` elements of a contiguous ``buffer`` as a
    ``rows`` x ``width`` array."""
    return buffer.reshape(-1)[: rows * width].reshape(rows, width)


def _project(frame: np.ndarray, n: int, coefficients) -> np.ndarray:
    """C_r of n states of a subspace, in state order: for each chunk
    [start, stop) of [0, n), the states F c of the rows c of
    ``coefficients(start, stop)`` in the frame F.

    ``frame`` is what the projection reads: for s <= 4 the real s^2 x d
    quadratic-form frame Q of F (:func:`_quadratic_frame`), and above F
    itself, complex d x s.  Each state's C_r is the sum, in block order, of
    the entropies of its probabilities over fixed blocks of ``_BLOCK_COLS``
    columns.  A chunk of states is projected one column block at a time, in
    row blocks of ``_SCRATCH_BYTES`` of products, so every row block reuses
    the column block of the frame from cache.  With Q a block's
    probabilities are one real product, coefficient quadratic forms times
    the block of Q; with F the product with the block's real frame
    ``[Re F^T; Im F^T]`` gives the real and imaginary parts of the
    amplitudes, which are squared and folded.
    """
    # product rows per state: its probabilities, or Re psi and Im psi
    if np.iscomplexobj(frame):
        dim, per_state, expand = len(frame), 2, _real_coefficients

        def frame_block(lo: int, hi: int) -> np.ndarray:
            f = frame[lo:hi].T
            return np.concatenate((f.real, f.imag))
    else:
        dim, per_state, expand = frame.shape[1], 1, _quadratic_coefficients

        def frame_block(lo: int, hi: int) -> np.ndarray:
            return frame[:, lo:hi]

    cols = min(dim, _BLOCK_COLS)
    # both scratch buffers hold per_state * cols float64 per state
    scratch_cols = per_state * cols

    def fill(start: int, stop: int, rows: np.ndarray, work: np.ndarray) -> np.ndarray:
        c, block = coefficients(start, stop), len(rows)
        coeffs = [(r, expand(c[r : r + block])) for r in range(0, stop - start, block)]
        values = np.zeros(stop - start)
        for lo in range(0, dim, cols):
            width = min(cols, dim - lo)
            f = frame_block(lo, lo + width)
            for r, coeff in coeffs:
                n = len(coeff) // per_state
                product = _rows_view(rows, per_state * n, width)
                np.matmul(coeff, f, out=product)
                if per_state == 1:
                    probs, spare = product, _rows_view(work, n, width)
                else:
                    probs, spare = _abs2_halves(product, _rows_view(work, n, width)), product[:n]
                values[r : r + n] += measures.entropy_from_probs(probs, work=spare)
        return values

    return np.concatenate(_run_chunked(n, fill, 16 * scratch_cols, scratch_cols))


def _random_subspace(dim: int, eps: float, master_seed: int, min_s: int):
    """The dimension s of a random subspace from stream (master_seed, 0) and
    its projector, ``project(n, coefficients)`` of :func:`_project`.

    s < ``min_s``, a frame past the cap, or for s <= 4 a quadratic-form frame
    Q past it raises before anything is drawn.  The projector owns the one
    frame its projection reads, Q or the subspace frame, so no other frame
    outlives this call.
    """
    s = analytics.subspace_dimension(dim, eps).s
    if s < min_s:
        raise VacuousGuaranteeError(
            f"subspace dimension formula gives s = {s} at dim={dim}, eps={eps:.6g}, "
            f"below the s >= {min_s} this campaign needs; a nontrivial guarantee "
            f"(s >= 2) requires d >= {analytics.MIN_DIM_FOR_NONTRIVIAL_SUBSPACE}"
        )
    _check_alloc(16 * dim * s, f"a {dim} x {s} subspace frame")
    if _quadratic_form(s):
        _check_alloc(8 * s * s * dim, f"a {s * s} x {dim} projection frame of an s = {s} subspace")
    frame = sample_random_subspace(dim, s, new_generator(master_seed, 0))
    if _quadratic_form(s):
        frame = _quadratic_frame(frame)
    return s, functools.partial(_project, frame)


def subspace_cr_samples(dim: int, eps: float, n_states: int, master_seed: int) -> np.ndarray:
    """C_r of each sampled Haar state of one random subspace, in state order.

    The subspace draws from stream (master_seed, 0); state j draws from
    stream (master_seed, j + 1), and :func:`_project` projects the states
    in chunks.  Raises :class:`~cohlab.errors.VacuousGuaranteeError` when the
    dimension formula yields s = 0.
    """
    if n_states < 1:
        raise InvalidArgumentError(f"n_states must be >= 1, got {n_states}")
    s, project = _random_subspace(dim, eps, master_seed, 1)
    return project(n_states, lambda start, stop: haar_amplitude_rows(master_seed, start + 1, stop + 1, s))


def run_subspace_floor(
    dim: int,
    eps: float,
    n_states: int,
    master_seed: int,
) -> SubspaceFloorReport:
    """Sample one random subspace and many Haar states inside it, and count
    the states below the floor (:func:`subspace_cr_samples` gives their C_r).
    Raises :class:`~cohlab.errors.VacuousGuaranteeError` when the dimension
    formula yields s = 0.
    """
    values = subspace_cr_samples(dim, eps, n_states, master_seed)
    sdim = analytics.subspace_dimension(dim, eps)
    threshold = analytics.subspace_threshold(dim, eps)
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


def _decomposition_averages(
    dim: int,
    eps: float,
    n_ensembles: int,
    m_out: int,
    master_seed: int,
    ensemble_size: int = 2,
    n_redecompositions: int = 5,
) -> np.ndarray:
    """The sampled decomposition averages of C_r, in ensemble order: each
    ensemble's own, then those of its re-decompositions.

    Mixed states are random ensembles of Haar states inside one random
    subspace (stream 0); ensemble e draws from stream e + 1 the coefficients
    of its states (Haar states of dimension s), their exponential weights,
    and then the Ginibre matrix of each mixing isometry.  Every member of
    every ensemble is F k for its coefficient row k in the frame F, so the
    ensembles are mixed in coefficient space, the members of all of them are
    projected in one pass of the subspace projector, and each average is the
    dot product of the weights with its members' C_r.
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
    # a mixed-state ensemble needs two independent directions
    s, project = _random_subspace(dim, eps, master_seed, 2)

    ensembles = []
    for ensemble_idx in range(n_ensembles):
        gen = new_generator(master_seed, ensemble_idx + 1)
        c = _unit_rows(gen.standard_normal((ensemble_size, 2 * s)))
        p = gen.standard_exponential(ensemble_size)
        p /= p.sum()
        ensembles.append((p, c))
        for _ in range(n_redecompositions):
            isometry = positive_qr(ginibre(gen, m_out, ensemble_size))
            ensembles.append(_mix_ensemble(p, c, isometry))

    weights, rows = zip(*ensembles)
    members = np.concatenate(rows)
    values = project(len(members), lambda start, stop: members[start:stop])
    per_ensemble = np.split(values, np.cumsum([len(w) for w in weights])[:-1])
    return np.array([np.dot(w, v) for w, v in zip(weights, per_ensemble)])


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

    Every member of every sampled ensemble lies in the subspace, so each
    average diagonal entropy (:func:`_decomposition_averages`) should exceed
    H_d - 1 - eps; ``violations`` counts sampled averages below it.
    """
    averages = _decomposition_averages(
        dim, eps, n_ensembles, m_out, master_seed, ensemble_size, n_redecompositions
    )
    threshold = analytics.subspace_threshold(dim, eps)
    return DecompositionCheckReport(
        dim=dim,
        eps=eps,
        sub_dim=analytics.subspace_dimension(dim, eps).s,
        threshold=threshold,
        n_ensembles=n_ensembles,
        ensemble_size=ensemble_size,
        m_out=m_out,
        n_redecompositions=n_redecompositions,
        min_average=float(averages.min()),
        violations=int(np.count_nonzero(averages < threshold)),
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


# unitaries per matrix-check chunk (8 MiB at d=16): its chunk sums are added
# in order, so unlike any other result its total depends on the chunking
_MATRIX_CHUNK = 2048


def run_matrix_integral_check(
    dim: int,
    n_unitaries: int,
    master_seed: int,
    x: np.ndarray | None = None,
) -> MatrixIntegralReport:
    """Average U^dag Pi(U X U^dag) U over Haar unitaries, entrywise.

    For the dephasing map Pi the Haar twirl has the closed form
    (Tr X * I + X) / (d + 1).  X defaults to the first basis projector;
    any Hermitian d x d matrix may be supplied whose real and imaginary parts
    are at most finfo(float).max / (8 d n) in magnitude, which keeps every
    sum the check forms finite.  Dense averaging, so only 2 <= d <= 16 is
    supported.  The tolerance is the 5 ||X||_2 / sqrt(n) Monte Carlo scale:
    ||X||_2 bounds every entry of U^dag Pi(U X U^dag) U.
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
        limit = np.finfo(np.float64).max / (8.0 * dim * n_unitaries)
        if not np.abs(x.view(np.float64)).max() <= limit:  # NaN and inf fail too
            raise InvalidArgumentError(f"x must have finite entries with parts at most {limit:.3e}")
        if not np.abs(x - x.conj().T).max() <= 1e-12:
            raise InvalidArgumentError("x must be Hermitian")

    closed_form = (np.trace(x).real * np.eye(dim) + x) / (dim + 1.0)

    def fill(start: int, stop: int) -> np.ndarray:
        u = haar_unitary_rows(master_seed, start, stop, dim)
        m = u @ x @ u.conj().transpose(0, 2, 1)
        pdiag = np.diagonal(m, axis1=-2, axis2=-1).real
        return np.einsum("nji,nj,njk->ik", u.conj(), pdiag, u)

    total = sum(_run_chunked(n_unitaries, fill, 16 * dim * dim, size=_MATRIX_CHUNK))
    deviation = float(np.abs(total / n_unitaries - closed_form).max())
    tolerance = 5.0 * float(np.linalg.norm(x, 2)) / math.sqrt(n_unitaries)
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
) -> InequalitySweepReport:
    """Count violations of three per-state theorems over sampled states.

    Checks, per Haar state: C_l1 <= sqrt(d(d-1)(1-P)); C_r >= the Fannes
    floor; 0 <= C_r <= ln d.  All counts are expected to be exactly zero
    (the reported ``atol`` absorbs float rounding only); a state whose
    values are NaN fails every check.
    """
    _check_counts(dim, trials)
    log_d = math.log(dim)
    atol = 1e-10

    def per_block(probs: np.ndarray, work: np.ndarray) -> tuple[int, int, int]:
        c_r = measures.entropy_from_probs(probs, work=work)
        c_l1 = measures.l1_from_probs(probs, work=work)
        floor = measures.fannes_floor_from_probs(probs, work=work)
        l1_bound = np.sqrt(dim * (dim - 1) * measures.mixedness_from_probs(probs, work=work))
        # each check counts the rows that do not pass it, NaN rows included
        return (
            int(np.count_nonzero(~(c_l1 <= l1_bound + atol))),
            int(np.count_nonzero(~(c_r >= floor - atol))),
            int(np.count_nonzero(~((c_r >= -atol) & (c_r <= log_d + atol)))),
        )

    partials = _over_diagonals(dim, trials, master_seed, per_block)
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
    _check_counts(dim, trials)

    def per_block(probs: np.ndarray, work: np.ndarray) -> np.ndarray:
        # a copy: the next block overwrites the rows
        return probs[:, 0].copy()

    return np.concatenate(_over_diagonals(dim, trials, master_seed, per_block))


def ks_distance_u11(dim: int, trials: int, master_seed: int) -> float:
    """Kolmogorov-Smirnov distance of sampled |U_11| to its exact law.

    The magnitude of a Haar-unitary entry has CDF 1 - (1 - r^2)^(d-1).
    """
    if dim < 2:
        raise InvalidDimensionError(f"the entry law needs d >= 2, got {dim}")
    _check_counts(dim, trials)

    def fill(start: int, stop: int) -> np.ndarray:
        return np.abs(haar_unitary_rows(master_seed, start, stop, dim)[:, 0, 0])

    r = np.sort(np.concatenate(_run_chunked(trials, fill, 16 * dim * dim)))
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
