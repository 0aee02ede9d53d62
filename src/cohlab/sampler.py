"""Haar-distributed sampling of pure states, unitaries, subspaces, and
ensemble decompositions.

Every operation draws from a :class:`~cohlab.streams.RandomStream`, so any
sample can be reproduced from its ``(master_seed, stream_index)`` pair; a
batch of diagonals, from its seed and trials.
Pure states are generated by normalizing a complex Gaussian vector, which
is distributed exactly like ``U |psi_0>`` for Haar ``U`` (rotation
invariance of the Gaussian) at O(d) instead of O(d^2) cost.  Unitaries,
mixing isometries and subspace frames are the Q factors of complex Ginibre
matrices with a positive real R diagonal; plain QR output, whose R diagonal
has arbitrary phases, is NOT Haar-distributed.  Unitaries and isometries
come from Householder QR with the R-diagonal phase correction
(:func:`positive_qr`).  A d x s subspace frame, which at large d is the
largest array a campaign draws, is orthonormalised in the drawn array by two
passes of Cholesky QR over fixed blocks of rows, whose R diagonal is
positive by construction (stream contract v7), so the frame phase holds the
frame and one block.

Campaigns draw whole batches of rows.  Under stream contract v7
(:data:`~cohlab.streams.STREAM_VERSION`) a batch is one of two draws:

* standard normals, for whatever needs amplitudes or unitaries, from
  :func:`keyed_rows`: row r comes from stream ``(master_seed, first + r)``.
  A batch constructs one generator and keys it to each row's stream
  (:func:`~cohlab.streams.stream_setter`, built once per batch), so keying
  costs a state reset per row, and concurrent batches never share a
  generator.  On it build :func:`haar_amplitude_rows`, whose row r is
  :func:`sample_haar_pure` on stream ``(master_seed, first + r)``, and
  :func:`haar_unitary_rows`, which stacks phase-corrected QR factors of
  Ginibre matrices;
* standard exponentials, for whatever needs only the diagonal
  p_i = |psi_i|^2 of a Haar state: :func:`haar_prob_rows` divides d
  exponentials by their sum, which is Dirichlet(1, ..., 1), the law of that
  diagonal.  Trial i takes its d uniforms from words [i d, (i + 1) d) of
  the one PCG64DXSM campaign stream of ``master_seed``, so a batch is one
  contiguous run of words, drawn by one generator that
  :func:`~cohlab.streams.word_generator` starts at the batch's first word.
  :func:`haar_prob_blocks` draws it in consecutive blocks of rows
  into a caller's buffer, one generator continuing across them, so a
  campaign can reuse one small buffer for all of its trials.  Its rows have
  the law of ``|sample_haar_pure(...)|^2`` but not its values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidDimensionError
from .streams import RandomStream, new_generator, stream_setter, word_generator

_NORM_ATOL = 1e-12
_ORTHO_ATOL = 1e-10
_WEIGHT_SUM_ATOL = 1e-12
_GRAM_ATOL = 1e-9
# numerical noise floor for dropping zero-weight ensemble members; well
# below any weight scale used in practice
ZERO_WEIGHT_DROP = 1e-14


@dataclass
class PureState:
    """Unit-norm complex amplitude vector in the fixed reference basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size < 1:
            raise InvalidDimensionError("amplitudes must be a nonempty 1-d vector")
        norm_sq = float((amps.real**2 + amps.imag**2).sum())
        if abs(norm_sq - 1.0) > _NORM_ATOL:
            raise InvalidArgumentError(
                f"state is not normalized: sum |psi_i|^2 = {norm_sq!r}"
            )
        self.amplitudes = amps

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass
class SubspaceBasis:
    """Column-orthonormal d x s frame spanning a subspace of C^d."""

    columns: np.ndarray

    def __post_init__(self):
        b = np.ascontiguousarray(self.columns, dtype=np.complex128)
        if b.ndim != 2:
            raise InvalidDimensionError("columns must be a 2-d array")
        d, s = b.shape
        if not 1 <= s <= d:
            raise InvalidDimensionError(
                f"need 1 <= sub_dim <= ambient_dim, got {s} and {d}"
            )
        defect = np.abs(_gram(b) - np.eye(s)).max()
        if not defect <= _ORTHO_ATOL:  # a NaN defect fails too
            raise InvalidArgumentError(
                f"columns are not orthonormal: max deviation {defect:.3e}"
            )
        self.columns = b

    @property
    def sub_dim(self) -> int:
        return self.columns.shape[1]


@dataclass
class Decomposition:
    """Weighted pure-state ensemble {p_a, |psi_a>} of one density matrix."""

    weights: np.ndarray
    states: list[PureState]

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise InvalidArgumentError("weights must be a nonempty 1-d vector")
        if w.min() < 0.0:
            raise InvalidArgumentError("weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > _WEIGHT_SUM_ATOL:
            raise InvalidArgumentError(f"weights must sum to 1, got {total!r}")
        states = list(self.states)
        if len(states) != w.size:
            raise InvalidArgumentError("weights and states must have equal length")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise InvalidArgumentError("all ensemble states must share one dimension")
        self.weights = w
        self.states = states

    @property
    def size(self) -> int:
        return self.weights.size

    def density_matrix(self) -> np.ndarray:
        """Dense d x d reconstruction sum_a p_a |psi_a><psi_a| (small d only)."""
        psi = np.stack([s.amplitudes for s in self.states])
        return (psi.T * self.weights) @ psi.conj()


def _complex_normals(normals: np.ndarray) -> np.ndarray:
    # pairs of standard normals along the last axis become complex normals
    # of variance 1, scaled in place: the bytes of z / sqrt(2), without a copy
    normals *= 1.0 / np.sqrt(2.0)
    return normals.view(np.complex128)


def ginibre(generator: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """rows x cols matrix of iid standard complex normals (variance 1)."""
    return _complex_normals(generator.standard_normal((rows, 2 * cols)))


def positive_qr(matrix: np.ndarray) -> np.ndarray:
    """Q factor of a (possibly stacked) QR with real-positive R diagonal.

    The phase correction makes the factorization unique, which is what
    turns QR of a Ginibre matrix into a Haar-distributed frame; plain
    ``np.linalg.qr`` alone does not sample Haar.
    """
    q, r = np.linalg.qr(matrix)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(diag)
    phase = np.where(mag > 0.0, diag / np.where(mag > 0.0, mag, 1.0), 1.0)
    return q * phase[..., None, :]


# bytes of the row blocks of a frame that a Gram sums and a Cholesky QR pass
# rescales, one at a time: the frame phase holds the frame and one block
_FRAME_BLOCK_BYTES = 1 << 19


def _row_blocks(frame: np.ndarray) -> list[np.ndarray]:
    # fixed by the frame's shape alone, so the Gram's sum order is too
    rows = max(1, _FRAME_BLOCK_BYTES // (16 * frame.shape[1]))
    return [frame[lo : lo + rows] for lo in range(0, len(frame), rows)]


def _gram(frame: np.ndarray) -> np.ndarray:
    """F^H F of a d x s complex frame, summed over its row blocks in block
    order; each block's conjugate is the only copy."""
    s = frame.shape[1]
    gram = np.zeros((s, s), dtype=np.complex128)
    for block in _row_blocks(frame):
        gram += block.conj().T @ block
    return gram


def _cholesky_qr(frame: np.ndarray) -> None:
    """Overwrite a d x s frame A with A R^-1, R the upper Cholesky factor
    (positive real diagonal) of A^H A, one row block at a time.

    Raises ``LinAlgError`` before writing anything when the Gram is not
    numerically positive definite.
    """
    lower = np.linalg.cholesky(_gram(frame))
    r_inv = np.linalg.inv(lower).conj().T
    for block in _row_blocks(frame):
        block[...] = block @ r_inv


def _unit_rows(normals: np.ndarray) -> np.ndarray:
    # pairs of normals along the last axis become complex amplitudes, scaled
    # in place to unit norm per row (callers pass freshly drawn arrays).
    # Multiplying the floats by 1/norm gives the bytes of the complex division
    # z / norm, which numpy computes as z * (1/norm) for a real divisor.
    z = normals.view(np.complex128)
    w = z.real**2 + z.imag**2
    normals *= 1.0 / np.sqrt(w.sum(axis=-1, keepdims=True))
    return z


def keyed_rows(master_seed: int, first: int, stop: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals of the given row shape for streams [first, stop).

    Row r draws from stream ``(master_seed, first + r)``, exactly as a fresh
    :class:`~cohlab.streams.RandomStream` for that pair would.  One generator
    is constructed per call and keyed to each row's stream through one
    :func:`~cohlab.streams.stream_setter`.
    """
    out = np.empty((stop - first, *shape))
    gen = new_generator(master_seed, first)
    set_stream = stream_setter(gen, master_seed)
    for row, index in enumerate(range(first, stop)):
        set_stream(index)
        gen.standard_normal(out=out[row])
    return out


def haar_amplitude_rows(master_seed: int, first: int, stop: int, dim: int) -> np.ndarray:
    """Haar pure-state amplitudes for streams [first, stop), one row each.

    Row r equals ``sample_haar_pure(dim, RandomStream(master_seed, first + r))``.
    """
    return _unit_rows(keyed_rows(master_seed, first, stop, (2 * dim,)))


def haar_prob_rows(master_seed: int, first: int, stop: int, dim: int) -> np.ndarray:
    """Diagonals p_i = |psi_i|^2 of Haar states for trials [first, stop).

    Row r is ``e / e.sum()`` with ``e = -np.log(1.0 - u)`` and ``u`` row
    ``first + r`` of ``word_generator(master_seed, 0).random((stop, dim))``:
    Dirichlet(1, ..., 1), the law of a Haar state's diagonal.  The batch is
    one draw from word ``first * dim`` of that stream
    (:func:`~cohlab.streams.word_generator`); ln(1 - u) / sum ln(1 - u) has
    the bytes of e / e.sum(), so the sign is never taken.
    """
    out = np.empty((stop - first, dim))
    # all the rows are one block; there is none when first == stop
    return next(haar_prob_blocks(master_seed, first, stop, dim, out), out)


def haar_prob_blocks(master_seed: int, first: int, stop: int, dim: int, out: np.ndarray):
    """The rows of ``haar_prob_rows(master_seed, first, stop, dim)`` in
    consecutive blocks of ``len(out)`` rows, the last one shorter where that
    does not divide ``stop - first``.

    Each block is drawn and normalised in the first rows of ``out``, a
    C-contiguous float64 array of ``dim`` columns, and yielded; the next
    block overwrites it.  One generator is constructed at word
    ``first * dim`` per call, and each block continues its draw, so the
    blocks change no byte and cost no extra generator.
    """
    if dim > 1:
        gen = word_generator(master_seed, first * dim)
    for start in range(first, stop, len(out) or 1):
        rows = out[: stop - start]
        if dim == 1:  # e / e.sum() is 1.0, or 0 / 0 where the word is 0
            rows.fill(1.0)
        else:
            gen.random(out=rows)
            np.subtract(1.0, rows, out=rows)
            np.log(rows, out=rows)
            rows /= rows.sum(axis=1, keepdims=True)
        yield rows


def haar_unitary_rows(master_seed: int, first: int, stop: int, dim: int) -> np.ndarray:
    """Stacked Haar unitaries for streams [first, stop), one per stream."""
    return positive_qr(_complex_normals(keyed_rows(master_seed, first, stop, (dim, 2 * dim))))


def sample_haar_pure(dim: int, stream: RandomStream) -> PureState:
    """Draw a Haar-distributed pure state of the given dimension.

    Implemented as 2*dim iid standard normals (real and imaginary parts)
    normalized to unit length; by rotation invariance of the Gaussian this
    is exactly the unitarily invariant measure.
    """
    if dim < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
    return PureState(_unit_rows(stream.generator.standard_normal(2 * dim)))


def sample_random_subspace(dim: int, sub_dim: int, stream: RandomStream) -> SubspaceBasis:
    """Draw a Haar-random sub_dim-dimensional subspace of C^dim.

    The returned frame is the Q factor, with a positive real R diagonal, of
    a dim x sub_dim Ginibre matrix, equal in distribution to the first
    sub_dim columns of a Haar unitary.  It is computed in the drawn array by
    two passes of Cholesky QR (CholeskyQR2): one pass leaves orthonormality
    defects near the 1e-10 that :class:`SubspaceBasis` accepts on square
    frames (up to 5.9e-11 at 16 x 16 over 2000 draws), the second takes them
    below 1e-15.  That factor is unique, so it is the frame
    :func:`positive_qr` gives, up to rounding.  Where Cholesky refuses a
    Gram, :func:`positive_qr` orthonormalises the array as it stands, whose
    Q factor is the same.
    """
    if dim < 1 or sub_dim < 1 or sub_dim > dim:
        raise InvalidDimensionError(
            f"need 1 <= sub_dim <= dim, got sub_dim={sub_dim}, dim={dim}"
        )
    frame = ginibre(stream.generator, dim, sub_dim)
    try:
        _cholesky_qr(frame)
        _cholesky_qr(frame)
    except np.linalg.LinAlgError:
        frame = positive_qr(frame)
    return SubspaceBasis(frame)


def sample_pure_in_subspace(basis: SubspaceBasis, stream: RandomStream) -> PureState:
    """Draw a Haar pure state supported on the given subspace.

    A Haar state of the subspace dimension is drawn and mapped through the
    frame columns; the result is unit norm in the ambient dimension.
    """
    coeff = _unit_rows(stream.generator.standard_normal(2 * basis.sub_dim))
    return PureState(basis.columns @ coeff)


def _mix_ensemble(seed_ensemble: Decomposition, isometry: np.ndarray) -> Decomposition:
    """Re-decompose the ensemble's density matrix through a mixing isometry.

    With W an m_out x m matrix satisfying W^dag W = I, the unnormalized
    vectors |phi_b> = sum_a W_ba sqrt(p_a) |psi_a> carry weights
    q_b = <phi_b|phi_b> and reproduce the same density matrix.  Members
    with q_b below ``ZERO_WEIGHT_DROP`` are dropped and the weights
    renormalized.
    """
    w = np.ascontiguousarray(isometry, dtype=np.complex128)
    m = seed_ensemble.size
    if w.ndim != 2 or w.shape[1] != m:
        raise InvalidArgumentError(
            f"mixing matrix must have {m} columns, got shape {w.shape}"
        )
    if np.abs(w.conj().T @ w - np.eye(m)).max() > _ORTHO_ATOL:
        raise InvalidArgumentError("mixing matrix is not an isometry")

    coeff = w * np.sqrt(seed_ensemble.weights)[None, :]
    # Gram-data check that the output decomposes the same density matrix:
    # coefficient-space identity C^dag C = diag(p).
    defect = np.abs(coeff.conj().T @ coeff - np.diag(seed_ensemble.weights)).max()
    if defect > _GRAM_ATOL:
        raise InvalidArgumentError(
            f"re-decomposition does not preserve the density matrix "
            f"(coefficient Gram defect {defect:.3e})"
        )

    psi = np.stack([s.amplitudes for s in seed_ensemble.states])
    phi = coeff @ psi
    q = (phi.real**2 + phi.imag**2).sum(axis=1)
    keep = q >= ZERO_WEIGHT_DROP
    phi, q = phi[keep], q[keep]
    states = [PureState(phi[b] / math.sqrt(q[b])) for b in range(q.size)]
    return Decomposition(weights=q / q.sum(), states=states)


def sample_random_decomposition(
    seed_ensemble: Decomposition, m_out: int, stream: RandomStream
) -> Decomposition:
    """Draw a random size-m_out re-decomposition of the same density matrix.

    The mixing matrix is a Haar random isometry (first ``size`` columns of
    a Haar unitary of dimension m_out), sampled by phase-corrected QR.
    Requires ``m_out >= seed_ensemble.size``.
    """
    if m_out < seed_ensemble.size:
        raise InvalidArgumentError(
            f"m_out must be >= ensemble size {seed_ensemble.size}, got {m_out}"
        )
    w = positive_qr(ginibre(stream.generator, m_out, seed_ensemble.size))
    return _mix_ensemble(seed_ensemble, w)
