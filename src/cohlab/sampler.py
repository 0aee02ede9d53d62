"""Haar-distributed sampling of pure states, unitaries and subspaces, and
the mixing of ensembles.

Every draw comes from a :mod:`cohlab.streams` generator, so any sample can
be reproduced from its stream.  Which campaign draws what from which
stream is the stream contract, stated once in :mod:`cohlab.streams`.
Pure states are normalized complex Gaussian vectors, which are
distributed exactly like ``U |psi_0>`` for Haar ``U`` at O(d) instead of
O(d^2) cost.  Unitaries, mixing isometries and subspace frames are the Q
factors of complex Ginibre matrices with a positive real R diagonal; plain
QR output, whose R diagonal has arbitrary phases, is NOT Haar-distributed.
Unitaries and isometries come from Householder QR with the R-diagonal
phase correction (:func:`positive_qr`); a d x s subspace frame, at large d
the largest array a campaign draws, is orthonormalised in the drawn array
by two passes of Cholesky QR over fixed blocks of rows, so the frame phase
holds the frame and one block.

Campaigns draw whole batches of rows: standard normals from
:func:`keyed_rows`, row r from stream ``(master_seed, first + r)`` through
one generator rekeyed per row (:func:`haar_amplitude_rows`,
:func:`haar_unitary_rows`), and Haar diagonals from
:func:`haar_prob_blocks`, one run of words of the campaign stream drawn in
consecutive blocks of a caller's buffer.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, InvalidDimensionError
from .streams import new_generator, stream_setter, word_generator

_ORTHO_ATOL = 1e-10
_GRAM_ATOL = 1e-9
# numerical noise floor for dropping zero-weight ensemble members; well
# below any weight scale used in practice
ZERO_WEIGHT_DROP = 1e-14


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

    Row r draws what ``new_generator(master_seed, first + r)`` draws first.
    One generator is constructed per call and keyed to each row's stream
    through one :func:`~cohlab.streams.stream_setter`.
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

    Row r is ``_unit_rows(new_generator(master_seed, first +
    r).standard_normal(2 * dim))``: the real and imaginary parts drawn from
    stream ``(master_seed, first + r)``, normalised to unit length.
    """
    return _unit_rows(keyed_rows(master_seed, first, stop, (2 * dim,)))


def haar_prob_blocks(master_seed: int, first: int, stop: int, dim: int, out: np.ndarray):
    """Diagonals p_i = |psi_i|^2 of Haar states for trials [first, stop), in
    consecutive blocks of ``len(out)`` rows, the last one shorter where that
    does not divide ``stop - first``.

    Row r is ``e / e.sum()`` with ``e = -ln(1 - u)`` and ``u`` the floats
    that ``Generator.random`` makes of words [(first + r) dim, (first + r +
    1) dim) of ``word_generator(master_seed, 0)``: Dirichlet(1, ..., 1), the
    law of a Haar state's diagonal.  ln(1 - u) / sum ln(1 - u) has the bytes
    of e / e.sum(), so the sign is never taken.

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


def sample_random_subspace(dim: int, sub_dim: int, generator: np.random.Generator) -> np.ndarray:
    """Column-orthonormal dim x sub_dim frame of a Haar-random subspace of C^dim.

    The frame is the Q factor, with a positive real R diagonal, of a dim x
    sub_dim Ginibre matrix drawn from ``generator``, equal in distribution to
    the first sub_dim columns of a Haar unitary.  It is computed in the drawn
    array by two passes of Cholesky QR (CholeskyQR2): one pass leaves
    orthonormality defects near the 1e-10 this function accepts on square
    frames (up to 5.9e-11 at 16 x 16 over 2000 draws), the second takes them
    below 1e-15.  That factor is unique, so it is the frame
    :func:`positive_qr` gives, up to rounding.  Where Cholesky refuses a
    Gram, :func:`positive_qr` orthonormalises the array as it stands, whose
    Q factor is the same.  Either way, a frame whose Gram is further than
    1e-10 from the identity, or NaN, raises ``InvalidArgumentError``.
    """
    if dim < 1 or sub_dim < 1 or sub_dim > dim:
        raise InvalidDimensionError(
            f"need 1 <= sub_dim <= dim, got sub_dim={sub_dim}, dim={dim}"
        )
    frame = ginibre(generator, dim, sub_dim)
    try:
        _cholesky_qr(frame)
        _cholesky_qr(frame)
    except np.linalg.LinAlgError:
        frame = positive_qr(frame)
    defect = np.abs(_gram(frame) - np.eye(sub_dim)).max()
    if not defect <= _ORTHO_ATOL:  # a NaN defect fails too
        raise InvalidArgumentError(
            f"frame columns are not orthonormal: max deviation {defect:.3e}"
        )
    return frame


def _mix_ensemble(
    weights: np.ndarray, coefficients: np.ndarray, isometry: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Re-decompose the ensemble {p_a, c_a} of one density matrix
    sum_a p_a c_a c_a^dag through a mixing isometry.

    With W an m_out x m matrix satisfying W^dag W = I, the rows
    k_b = sum_a W_ba sqrt(p_a) c_a carry weights q_b = |k_b|^2 and
    reproduce the same density matrix.  Rows with q_b below
    ``ZERO_WEIGHT_DROP`` are dropped; returns the weights normalised to sum
    to 1 and the rows normalised to unit length.  Where the c_a are the
    coefficients of states F c_a in an orthonormal frame F, the mixed states
    are F k_b, of the same norms, so the ensemble is mixed in coefficient
    space.
    """
    m = len(weights)
    defect = np.abs(isometry.conj().T @ isometry - np.eye(m)).max()
    if not defect <= _ORTHO_ATOL:  # a NaN defect fails too
        raise InvalidArgumentError("mixing matrix is not an isometry")
    mix = isometry * np.sqrt(weights)
    # Gram-data check that the output decomposes the same density matrix:
    # coefficient-space identity C^dag C = diag(p)
    defect = np.abs(mix.conj().T @ mix - np.diag(weights)).max()
    if not defect <= _GRAM_ATOL:
        raise InvalidArgumentError(
            f"re-decomposition does not preserve the density matrix "
            f"(coefficient Gram defect {defect:.3e})"
        )
    k = mix @ coefficients
    q = (k.real**2 + k.imag**2).sum(axis=1)
    keep = q >= ZERO_WEIGHT_DROP
    q = q[keep]
    return q / q.sum(), k[keep] / np.sqrt(q)[:, None]
