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
on a thread pool.  Campaigns that draw diagonals draw each chunk into the
rows buffer of the worker that fills it and run the kernels in its work
buffer, both one chunk in size and both living only as long as the
campaign; the worker writes each kernel's per-row values of the chunk into
that kernel's array of every trial (:func:`_diagonal_values`).  The
subspace campaign and the decomposition check project their states through
one projector (:func:`_project`): chunks of states (32 at s <= 4, 16
above) that fill those buffers, one fixed block of frame columns at a time,
summing each state's block entropies in block order, so their bytes depend
on d but not on the chunks either, one-state chunks included.  The blocks
are the frame's real column blocks, built once per campaign
(:func:`_frame_blocks`): the quadratic-form frame's for s <= 4, and above
it the frame's rows as real blocks.  The frame is drawn and orthonormalised
as its row blocks, each dropped once its rows are in the column blocks, so
the whole frame never sits beside them.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent import futures
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import analytics, measures
from .errors import InvalidArgumentError, VacuousGuaranteeError
from .sampler import (
    _FRAME_BLOCK_BYTES,
    _mix_ensemble,
    _subspace_row_blocks,
    _unit_rows,
    ginibre,
    haar_amplitude_rows,
    haar_prob_rows,
    haar_unitary_rows,
    positive_qr,
)
from .streams import new_generator


class _Measure(NamedTuple):
    """One measure kind; functions are looked up by name per call, so wrappers see them."""

    kernel: str  # batched kernel in measures
    target: str  # analytic mean in analytics, on which the tails are centred
    bound: str | None = None  # Levy tail bound in analytics, None where none is stated
    theorem: str | None = None  # the paper's number of that bound, as `cohlab bounds` names it
    lipschitz: str | None = None  # Lipschitz constant in analytics that the bound is built on
    bound_min_dim: int = 1  # least d at which the bound holds


_MEASURES = {
    "cr": _Measure("entropy_from_probs", "expected_cr", "levy_bound_cr", "1", "lipschitz_cr", 3),
    "l1": _Measure("l1_from_probs", "expected_l1"),
    "purity": _Measure("purity_from_probs", "expected_classical_purity",
                       "levy_bound_purity", "3", "lipschitz_eta2"),
    "trdist": _Measure("trdist_mm_from_probs", "expected_trace_distance",
                       "levy_bound_trdist", "4", "lipschitz_eta2"),
}
MEASURE_KINDS = tuple(_MEASURES)


def _check_counts(dim: int, trials: int) -> None:
    if dim < 1:
        raise InvalidArgumentError(f"dimension must be >= 1, got {dim}")
    if trials < 1:
        raise InvalidArgumentError(f"trials must be >= 1, got {trials}")


@dataclass
class ConcentrationReport:
    """Empirical statistics of one campaign next to their analytic mean.

    Tail entries carry the Levy bound for the measure, or None where no
    Lipschitz constant is established (l1, and cr below d = 3).
    """

    config: dict
    empirical_mean: float
    empirical_stderr: float
    empirical_variance: float
    analytic_mean: float
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
# (32 states per chunk) for s <= 4, and at 32 bytes above, where the rows
# buffer holds its real and imaginary parts (16 states per chunk).  A
# diagonal counts 16 d, its rows and kernel work (65 rows at d = 1000).  A
# diagonal or subspace chunk is the unit of dispatch (and of one generator
# for diagonals) and fills one worker's two scratch buffers.  Every campaign
# but the matrix check computes per-row values and reduces them in trial
# order, so the rows per chunk change no payload byte, only the memory a
# chunk holds.  Scratch of 0.5, 1, 2 and 4 MiB per worker at d = 1000
# (laws iterations: concentrate cr, purity and trdist with 20000 trials on 2
# threads of a 2-CPU machine with 2 MiB of L2 per core; 5 sets of 15
# interleaved, medians) peaked at 39.8, 40.8, 42.9 and 47.1 MB RSS, while
# wall and CPU time moved less than the sets spread
_CHUNK_BYTES = 1 << 20


def _chunk_size(row_bytes: int) -> int:
    # fixed function of the problem so chunk boundaries (and therefore
    # reductions) cannot depend on the worker count; a row larger than the
    # budget is a chunk of its own
    return max(1, min(4096, _CHUNK_BYTES // row_bytes))


# _run_chunked is serial for rows of fewer bytes than a state of this d
# (16 d), else it runs one thread per usable CPU up to the chunk count.  On a
# 2-CPU machine, cr campaigns of 2e7 amplitudes in 4 MiB chunks on 2
# threads against 1 (3 sets of 6 interleaved runs, medians) cost CPU
# +10..+23% at d=300, +8..+15% at d=350, -1..+6% at d=400, -4..-9% at d=450
# and d=500, and -4..-10% at d=600 and -12..-16% at d=1000; wall fell 44-54%
# from d=450 on.  The cutoff is the smallest measured d at which a second
# thread cost no CPU in every set; unitaries of d >= 22 are past it.  On a
# shared 2-CPU machine the same runs in _CHUNK_BYTES chunks cost CPU
# +25..+36% at d=300, +13..+27% at d=450 and +18..+34% at d=600, against
# +22..+34%, +20..+29% and +3..+16% in 4 MiB chunks there, while wall fell
# 21-37% and 25-42%: no d meets the rule on that machine in either chunk
# size, so the cutoff stays where it was measured
_PARALLEL_MIN_DIM = 450


# largest array a campaign may request: one drawn row (a state of 16 d
# bytes, or a unitary of 16 d^2), the least a chunk holds past its one
# _CHUNK_BYTES budget, the frame phase of a subspace campaign, the values of
# every trial (8 bytes per trial and kernel, a diagonal campaign's kernels
# counted together), the coefficient rows of a decomposition check's members
# (16 s bytes each) and its mixing Ginibre matrices, or a histogram with its
# payload (_HISTOGRAM_BIN_BYTES per bin).  The frame phase orthonormalises
# the frame's row blocks in place, holding the frame plus one 512 KiB row
# block, not the 3-5 frames of a Householder QR, and then builds the column
# blocks its states are projected onto, dropping each row block once its
# rows are in them.  So it is charged the larger of the frame (16 d s
# bytes) and its projection frame (the quadratic-form frame Q of 8 d s^2
# bytes for s <= 4, the real blocks of 16 d s above), one row block, and
# four blocks of the projection frame, which bound the temporaries of
# building one (a block of Q's coefficients and its pair products, or the
# pieces of a block whose rows span two row blocks; under tracemalloc, at
# most 3.1 blocks at s <= 4 and 1.2 above).  Larger requests raise
# MemoryError before anything is allocated (CLI exit 6); every acceptance
# and golden campaign stays far inside it (the largest frame, d=1e5 and
# s=6, is 9.6 MB, and the largest projection frame, d=1e5 and s=4, 12.8 MB)
MAX_ALLOC_BYTES = 1 << 30


# columns of the subspace frame that _project projects and reduces at a
# time.  A chunk streams the frame from memory once, one block of columns
# after another, into 512 KiB of products per scratch buffer (32 states at
# s <= 4, 16 above).  Chunks of rows x cols products,
# run_subspace_floor(1e5, 0.9 ln d, 2000) on 2 threads of a 2-CPU machine
# with 2 MiB of L2 per core (2 sets of 9 and 15 interleaved repeats,
# medians against 32 x 8192): 32 x 4096 (1 MiB) -3% and -5% wall, the
# 512 KiB shapes 32 x 2048 -10% and -13% and 64 x 1024 -17% and -11%, the
# 256 KiB shapes 16 x 2048 +6% and +8% and 32 x 1024 0% and +5%.  The
# blocks depend on d alone, and a state's C_r is the sum of its block
# entropies in block order, so neither the rows per chunk nor the workers
# change a byte
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
    lazily generated sequence.  A chunk that raises, or an interrupt of the
    caller, ends the campaign: the sequence is emptied, so no worker takes
    another chunk, and the exception reaches the caller.

    With ``scratch_cols``, each worker owns two float64 arrays of
    ``scratch_cols`` columns and ``min(size, n)`` rows, rows and work,
    allocated on its first chunk and dropped when the campaign returns; every
    chunk is filled as ``fill(start, stop, rows, work)`` with their first
    ``stop - start`` rows.  ``fill`` may overwrite both but must not return
    a view of them.
    """
    _check_alloc(row_bytes, "one drawn row")
    _check_alloc(8 * n, f"the values of {n} trials")
    size = size or _chunk_size(row_bytes)
    count = -(-n // size)
    results = [None] * count
    chunks = enumerate((start, min(start + size, n)) for start in range(0, n, size))
    take = threading.Lock()

    def work() -> None:
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
                # a serial laws iteration (3 campaigns of 308 chunks of 65
                # rows at d=1000) takes 0-1 minor faults, against 666 for two
                # allocations
                scratch = np.empty((2, min(size, n), scratch_cols))
            results[i] = fill(start, stop, *(() if scratch is None else scratch[:, : stop - start]))

    workers = 1 if row_bytes < 16 * _PARALLEL_MIN_DIM else min(_usable_cpus(), count)
    if workers > 1:
        with futures.ThreadPoolExecutor(max_workers=workers) as pool:
            try:
                running = [pool.submit(work) for _ in range(workers)]
                for done in futures.wait(running, return_when=futures.FIRST_EXCEPTION).done:
                    done.result()
            finally:
                # before the pool waits for its workers, which stop at their
                # next chunk
                with take:
                    chunks = iter(())
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


def _diagonal_values(dim: int, trials: int, master_seed: int, kernels) -> list[np.ndarray]:
    """The per-row values of each ``kernel(probs, work)`` over the Haar
    diagonals of trials [0, trials): one owning float64 array per kernel, in
    trial order.

    Their ``8 len(kernels) trials`` bytes are checked against the cap before
    anything is drawn.  Each chunk of :func:`_run_chunked` is one draw
    (:func:`~cohlab.sampler.haar_prob_rows`) into the worker's rows buffer:
    ``probs`` and ``work`` are the chunk's rows of its rows and work
    buffers, and each kernel's values are copied into its array before the
    next chunk.
    """
    _check_alloc(8 * len(kernels) * trials, f"the values of {trials} trials ({len(kernels)} per trial)")
    values = [np.empty(trials) for _ in kernels]

    def fill(start: int, stop: int, rows: np.ndarray, work: np.ndarray) -> None:
        probs = haar_prob_rows(master_seed, start, stop, dim, rows)
        for kernel, out in zip(kernels, values):
            out[start:stop] = kernel(probs, work)

    _run_chunked(trials, fill, 16 * dim, dim)
    return values


def run_concentration(
    dim: int,
    trials: int,
    master_seed: int,
    measure_kind: str = "cr",
    epsilons: tuple[float, ...] = (),
    histogram_bins: int = 50,
) -> ConcentrationReport:
    """Run one concentration campaign of ``trials`` independent trials.

    Tail frequencies count ``|value - analytic mean| > eps``, the theorems'
    centering.  cr histograms use the fixed range [0, ln d] so campaigns
    across dimensions are comparable after scaling.  The arguments are
    checked before anything is drawn: the counts, bins >= 2,
    a known measure kind, then finite positive epsilons, distinct and
    sorted ascending.  The report's ``config`` is the dict of everything it
    depends on: ``dim``, ``trials``, ``master_seed``, ``epsilons`` (a tuple
    of floats), ``histogram_bins`` and ``measure_kind``.
    """
    _check_counts(dim, trials)
    if histogram_bins < 2:
        raise InvalidArgumentError(f"histogram_bins must be >= 2, got {histogram_bins}")
    if measure_kind not in MEASURE_KINDS:
        raise InvalidArgumentError(
            f"measure_kind must be one of {MEASURE_KINDS}, got {measure_kind!r}"
        )
    epsilons = tuple(float(e) for e in epsilons)
    if not all(math.isfinite(e) and e > 0.0 for e in epsilons):
        raise InvalidArgumentError("epsilons must be finite and strictly positive")
    if len(set(epsilons)) < len(epsilons):
        raise InvalidArgumentError("epsilons must be distinct")
    if any(b < a for a, b in zip(epsilons, epsilons[1:])):
        raise InvalidArgumentError("epsilons must be sorted ascending")
    _check_alloc(_HISTOGRAM_BIN_BYTES * histogram_bins, f"a histogram of {histogram_bins} bins")
    measure = _MEASURES[measure_kind]
    (values,) = _diagonal_values(dim, trials, master_seed, [getattr(measures, measure.kernel)])
    mean = math.fsum(values) / trials
    variance = math.fsum((values - mean) ** 2) / (trials - 1) if trials > 1 else 0.0
    stderr = math.sqrt(variance / trials)

    analytic_mean = getattr(analytics, measure.target)(dim)
    has_bound = measure.bound is not None and dim >= measure.bound_min_dim

    tails = []
    for eps in epsilons:
        freq = float(np.count_nonzero(np.abs(values - analytic_mean) > eps)) / trials
        raw = effective = None
        if has_bound:
            try:
                bound = getattr(analytics, measure.bound)(dim, eps)
                raw, effective = bound.raw, bound.effective
            except OverflowError:  # eps^2 overflowed, so the log bound is -inf: the bound is 0
                raw = effective = 0.0
        tails.append((eps, freq, raw, effective))

    if measure_kind == "cr":
        lo, hi = 0.0, math.log(dim)
    else:
        lo, hi = float(values.min()), float(values.max())
    if hi <= lo:  # one value throughout, as cr at d = 1
        hi = lo + 1.0
    counts, edges = np.histogram(values, bins=histogram_bins, range=(lo, hi))
    histogram = [
        (float(edges[i]), float(edges[i + 1]), int(counts[i]))
        for i in range(counts.size)
    ]

    scaled = None
    if measure_kind == "cr" and dim >= 2:
        scaled = mean / math.log(dim)

    return ConcentrationReport(
        config=dict(dim=dim, trials=trials, master_seed=master_seed, epsilons=epsilons,
                    histogram_bins=histogram_bins, measure_kind=measure_kind),
        empirical_mean=mean,
        empirical_stderr=stderr,
        empirical_variance=variance,
        analytic_mean=analytic_mean,
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


def _frame_blocks(frame_rows: list[np.ndarray]) -> list[np.ndarray]:
    """The real column blocks of a d x s frame F that :func:`_project`
    reads: one new C-contiguous array for each block of ``_BLOCK_COLS`` rows
    of F, in block order, built from ``frame_rows``, F's row blocks in order.

    For s <= 4 (:func:`_quadratic_form`) they are the s^2 x w blocks of the
    quadratic-form frame Q: rows |F_j|^2, then 2 Re(conj(F_j) F_k) and -2
    Im(conj(F_j) F_k) for each j < k, each block the transposed
    :func:`_quadratic_coefficients` of its rows of F times 1 on the s
    squared rows and 2, -2 on each pair's.  The scaling is exact and every
    entry elementwise, so the pair order of Q's rows is that of M's columns.
    Above s = 4 they are the 2s x w real blocks [Re F^T; Im F^T].

    A block whose rows lie in two or more row blocks is built piece by piece
    from each, and its pieces joined.  Each row block's entry in
    ``frame_rows`` is set to None once its last row has been used, so where
    the caller holds no other reference the frame's memory goes as the
    blocks' comes.
    """
    s = frame_rows[0].shape[1]
    if _quadratic_form(s):
        scale = np.array([1.0] * s + [2.0, -2.0] * (s * (s - 1) // 2))[:, None]

        def build(rows: np.ndarray) -> np.ndarray:
            return np.multiply(_quadratic_coefficients(rows).T, scale, order="C")
    else:
        def build(rows: np.ndarray) -> np.ndarray:
            real = np.empty((2 * s, len(rows)))
            real[:s], real[s:] = rows.real.T, rows.imag.T
            return real

    dim = sum(map(len, frame_rows))
    cols, blocks, index, used = min(dim, _BLOCK_COLS), [], 0, 0
    for lo in range(0, dim, cols):
        pieces, need = [], min(cols, dim - lo)
        while need:
            take = min(need, len(frame_rows[index]) - used)
            pieces.append(build(frame_rows[index][used : used + take]))
            used, need = used + take, need - take
            if used == len(frame_rows[index]):
                frame_rows[index], index, used = None, index + 1, 0
        blocks.append(pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1))
    return blocks


def _project(s: int, blocks: list[np.ndarray], n: int, coefficients) -> np.ndarray:
    """C_r of n states of an s-dimensional subspace, in state order: for
    each chunk [start, stop) of [0, n), the states F c of the rows c of
    ``coefficients(start, stop)`` in the frame F whose column ``blocks``
    :func:`_frame_blocks` built.

    Each state's C_r is the sum, in block order, of the entropies of its
    probabilities over the blocks.  A chunk of states is projected one block
    at a time into the worker's rows buffer, which holds the chunk's
    products with one block.  For s <= 4 the product of the coefficient
    quadratic forms with a block of Q is the block's probabilities; above,
    the product with a block [Re F^T; Im F^T] gives the real and imaginary
    parts of the amplitudes, which are squared and folded.
    """
    # product rows per state: its probabilities, or Re psi and Im psi
    per_state, expand = (1, _quadratic_coefficients) if _quadratic_form(s) else (2, _real_coefficients)
    # both scratch buffers hold per_state float64 per state and column of
    # the first block, the widest
    scratch_cols = per_state * blocks[0].shape[1]

    def fill(start: int, stop: int, rows: np.ndarray, work: np.ndarray) -> np.ndarray:
        n, coeff = stop - start, expand(coefficients(start, stop))
        if len(coeff) == 1:
            # numpy sends a one-row product to a matrix-vector BLAS call,
            # whose rounding differs from the matrix products of every
            # longer chunk: the state is projected twice, the first kept
            coeff, rows = np.concatenate((coeff, coeff)), np.empty((2, scratch_cols))
        values = np.zeros(n)
        for block in blocks:
            width = block.shape[1]
            product = _rows_view(rows, len(coeff), width)
            np.matmul(coeff, block, out=product)
            if per_state == 1:
                probs, spare = product[:n], _rows_view(work, n, width)
            else:
                probs, spare = _abs2_halves(product, _rows_view(work, n, width)), product[:n]
            values += measures.entropy_from_probs(probs, work=spare)
        return values

    return np.concatenate(_run_chunked(n, fill, 16 * scratch_cols, scratch_cols))


def _random_subspace(dim: int, eps: float, master_seed: int, min_s: int, rows: int = 0):
    """The dimension of a random subspace (a
    :class:`~cohlab.analytics.SubspaceDimension`) and the column blocks of
    its frame, drawn from stream (master_seed, 0), that :func:`_project`
    reads (:func:`_frame_blocks`).

    s < ``min_s``, a frame phase past the cap, or ``rows`` coefficient rows
    of 16 s bytes past it, which the caller holds at once, raises before
    anything is drawn.  The frame is drawn and orthonormalised as its row
    blocks (:func:`~cohlab.sampler._subspace_row_blocks`), and each is
    dropped once its rows are in the projection blocks, so the frame phase
    holds at most the frame or the projection blocks, whichever is larger,
    one row block, and the temporaries of building one projection block.
    """
    sdim = analytics.subspace_dimension(dim, eps)
    s = sdim.s
    if s < min_s:
        raise VacuousGuaranteeError(
            f"subspace dimension formula gives s = {s} at dim={dim}, eps={eps:.6g}, "
            f"below the s >= {min_s} this campaign needs; a nontrivial guarantee "
            f"(s >= 2) requires d >= {analytics.MIN_DIM_FOR_NONTRIVIAL_SUBSPACE}"
        )
    # float64 rows of the projection frame; the frame's rows have 2 s each
    width = s * s if _quadratic_form(s) else 2 * s
    _check_alloc(8 * max(width, 2 * s) * dim + _FRAME_BLOCK_BYTES + 32 * width * min(dim, _BLOCK_COLS),
                 f"a {dim} x {s} subspace frame and its {width} x {dim} projection frame")
    _check_alloc(16 * s * rows, f"the coefficient rows of {rows} states of an s = {s} subspace")
    return sdim, _frame_blocks(_subspace_row_blocks(dim, s, new_generator(master_seed, 0)))


def _subspace_samples(
    dim: int, eps: float, n_states: int, master_seed: int
) -> tuple[analytics.SubspaceDimension, np.ndarray]:
    """The dimension of one random subspace and the C_r of each sampled
    Haar state in it, in state order (:func:`subspace_cr_samples`)."""
    if n_states < 1:
        raise InvalidArgumentError(f"n_states must be >= 1, got {n_states}")
    _check_alloc(8 * n_states, f"the values of {n_states} states")
    sdim, blocks = _random_subspace(dim, eps, master_seed, 1)
    s = sdim.s
    return sdim, _project(s, blocks, n_states, lambda start, stop: haar_amplitude_rows(master_seed, start + 1, stop + 1, s))


def subspace_cr_samples(dim: int, eps: float, n_states: int, master_seed: int) -> np.ndarray:
    """C_r of each sampled Haar state of one random subspace, in state order.

    The subspace draws from stream (master_seed, 0); state j draws from
    stream (master_seed, j + 1), and :func:`_project` projects the states
    in chunks.  Raises :class:`~cohlab.errors.VacuousGuaranteeError` when the
    dimension formula yields s = 0.
    """
    return _subspace_samples(dim, eps, n_states, master_seed)[1]


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
    sdim, values = _subspace_samples(dim, eps, n_states, master_seed)
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
) -> tuple[analytics.SubspaceDimension, np.ndarray]:
    """The dimension of the random subspace and the sampled decomposition
    averages of C_r in it, in ensemble order: each ensemble's own, then
    those of its re-decompositions.

    Mixed states are random ensembles of Haar states inside one random
    subspace (stream 0); ensemble e draws from stream e + 1 the coefficients
    of its states (Haar states of dimension s), their exponential weights,
    and then the Ginibre matrix of each mixing isometry.  Every member of
    every ensemble is F k for its coefficient row k in the frame F, so the
    ensembles are mixed in coefficient space.  Each member's weight and
    coefficient row are written straight into two arrays sized by the
    member count the cap checks, the filled rows are projected in one pass
    of :func:`_project`, and each average is the dot product of its
    members' weights with their C_r.
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
    # the mixing Ginibre matrices and the values of every member are checked
    # against the cap before the frame is drawn, and the members' coefficient
    # rows after its own checks
    members = n_ensembles * (ensemble_size + n_redecompositions * m_out)
    _check_alloc(16 * m_out * ensemble_size, f"a {m_out} x {ensemble_size} mixing Ginibre matrix")
    _check_alloc(8 * members, f"the values of {members} members")
    # a mixed-state ensemble needs two independent directions
    sdim, blocks = _random_subspace(dim, eps, master_seed, 2, members)
    s = sdim.s

    def groups():
        # each ensemble, then each of its re-decompositions
        for ensemble_idx in range(n_ensembles):
            gen = new_generator(master_seed, ensemble_idx + 1)
            c = _unit_rows(gen.standard_normal((ensemble_size, 2 * s)))
            p = gen.standard_exponential(ensemble_size)
            p /= p.sum()
            yield p, c
            for _ in range(n_redecompositions):
                yield _mix_ensemble(p, c, positive_qr(ginibre(gen, m_out, ensemble_size)))

    # every member's weight and coefficient row, written in place; group i
    # holds the members [bounds[i], bounds[i + 1])
    weights, rows = np.empty(members), np.empty((members, s), complex)
    bounds = np.zeros(1 + n_ensembles * (1 + n_redecompositions), dtype=np.intp)
    for i, (w, k) in enumerate(groups()):
        lo, hi = bounds[i], bounds[i] + len(w)
        weights[lo:hi], rows[lo:hi], bounds[i + 1] = w, k, hi
    values = _project(s, blocks, bounds[-1], lambda start, stop: rows[start:stop])
    averages = (np.dot(weights[lo:hi], values[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:]))
    return sdim, np.fromiter(averages, float, len(bounds) - 1)


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
    sdim, averages = _decomposition_averages(
        dim, eps, n_ensembles, m_out, master_seed, ensemble_size, n_redecompositions
    )
    threshold = analytics.subspace_threshold(dim, eps)
    return DecompositionCheckReport(
        dim=dim,
        eps=eps,
        sub_dim=sdim.s,
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


def run_matrix_integral_check(dim: int, n_unitaries: int, master_seed: int) -> MatrixIntegralReport:
    """Average U^dag Pi(U X U^dag) U over Haar unitaries, entrywise.

    For the dephasing map Pi the Haar twirl has the closed form
    (Tr X * I + X) / (d + 1).  X is the first basis projector E00, which is
    enough: the twirl and its closed form are both linear in X and both
    commute with X -> V X V^dag for every unitary V, so agreeing on E00 they
    agree on every rank-one projector V E00 V^dag, and these span all d x d
    matrices.  Dense averaging, so only 2 <= d <= 16 is supported.  The
    tolerance is the 5 / sqrt(n) Monte Carlo scale: ||E00||_2 = 1 bounds
    every entry of U^dag Pi(U E00 U^dag) U.
    """
    if not 2 <= dim <= 16:
        raise InvalidArgumentError(f"dense matrix averaging supports 2 <= d <= 16, got {dim}")
    if n_unitaries < 1:
        raise InvalidArgumentError(f"n_unitaries must be >= 1, got {n_unitaries}")
    x = np.zeros((dim, dim), dtype=np.complex128)
    x[0, 0] = 1.0
    closed_form = (np.eye(dim) + x) / (dim + 1.0)

    def fill(start: int, stop: int) -> np.ndarray:
        u = haar_unitary_rows(master_seed, start, stop, dim)
        m = u @ x @ u.conj().transpose(0, 2, 1)
        pdiag = np.diagonal(m, axis1=-2, axis2=-1).real
        return np.einsum("nji,nj,njk->ik", u.conj(), pdiag, u)

    total = sum(_run_chunked(n_unitaries, fill, 16 * dim * dim, size=_MATRIX_CHUNK))
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

    c_r, c_l1, floor, mixedness = _diagonal_values(dim, trials, master_seed, [
        measures.entropy_from_probs, measures.l1_from_probs,
        measures.fannes_floor_from_probs, measures.mixedness_from_probs,
    ])
    l1_bound = np.sqrt(dim * (dim - 1) * mixedness)
    # each check counts the rows that do not pass it, NaN rows included
    return InequalitySweepReport(
        dim=dim,
        trials=trials,
        master_seed=master_seed,
        l1_purity_violations=int(np.count_nonzero(~(c_l1 <= l1_bound + atol))),
        fannes_violations=int(np.count_nonzero(~(c_r >= floor - atol))),
        cr_range_violations=int(np.count_nonzero(~((c_r >= -atol) & (c_r <= log_d + atol)))),
        atol=atol,
    )


def first_prob_samples(dim: int, trials: int, master_seed: int) -> np.ndarray:
    """First diagonal probability of each sampled Haar state, in trial order."""
    _check_counts(dim, trials)
    return _diagonal_values(dim, trials, master_seed, [lambda probs, work: probs[:, 0]])[0]


def ks_distance_u11(dim: int, trials: int, master_seed: int) -> float:
    """Kolmogorov-Smirnov distance of sampled |U_11| to its exact law.

    The magnitude of a Haar-unitary entry has CDF 1 - (1 - r^2)^(d-1).
    """
    if dim < 2:
        raise InvalidArgumentError(f"the entry law needs d >= 2, got {dim}")
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
