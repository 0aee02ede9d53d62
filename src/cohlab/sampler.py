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
phase correction (:func:`positive_qr`).  A d x s subspace frame, at large d
the largest array a campaign draws, is orthonormalised in place by two
passes of Cholesky QR over fixed blocks of its rows, so the frame phase
holds the frame and one block: the views of one drawn array
(:func:`sample_random_subspace`), or for a campaign the blocks themselves,
each drawn as its own array, which the campaign drops one by one as it
projects their rows (:func:`_subspace_row_blocks`).

Campaigns draw whole batches of rows: standard normals from
:func:`keyed_rows`, row r from stream ``(master_seed, first + r)`` through
one generator that :func:`~cohlab.streams.rekey` points at each row's
stream (:func:`haar_amplitude_rows`, :func:`haar_unitary_rows`), and Haar
diagonals from :func:`haar_prob_rows`, one run of words of the campaign
stream drawn into a caller's buffer.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .streams import new_generator, rekey, word_generator

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


def _block_rows(sub_dim: int) -> int:
    # rows of every row block of a frame of width sub_dim but the last: fixed
    # by the width alone, so the Gram's sum order is too
    return max(1, _FRAME_BLOCK_BYTES // (16 * sub_dim))


def _row_blocks(frame: np.ndarray) -> list[np.ndarray]:
    rows = _block_rows(frame.shape[1])
    return [frame[lo : lo + rows] for lo in range(0, len(frame), rows)]


def _gram(blocks: list[np.ndarray]) -> np.ndarray:
    """F^H F of a d x s complex frame given as its row blocks, summed in
    block order; each block's conjugate is the only copy."""
    s = blocks[0].shape[1]
    gram = np.zeros((s, s), dtype=np.complex128)
    for block in blocks:
        gram += block.conj().T @ block
    return gram


def _cholesky_qr(blocks: list[np.ndarray]) -> None:
    """Overwrite the row blocks of a d x s frame A with those of A R^-1, R
    the upper Cholesky factor (positive real diagonal) of A^H A.

    Raises ``LinAlgError`` before writing anything when the Gram is not
    numerically positive definite.
    """
    lower = np.linalg.cholesky(_gram(blocks))
    r_inv = np.linalg.inv(lower).conj().T
    for block in blocks:
        block[...] = block @ r_inv


def _orthonormalise(blocks: list[np.ndarray]) -> None:
    """Overwrite the row blocks of a d x s Ginibre matrix with those of its Q
    factor with a positive real R diagonal, the frame of a Haar-random
    subspace.

    Two passes of Cholesky QR (CholeskyQR2) compute it in the blocks: one
    pass leaves orthonormality defects near the 1e-10 accepted here on
    square frames (up to 5.9e-11 at 16 x 16 over 2000 draws), the second
    takes them below 1e-15.  That factor is unique, so it is the frame
    :func:`positive_qr` gives, up to rounding.  Where Cholesky refuses a
    Gram, :func:`positive_qr` orthonormalises the blocks as they stand,
    joined, and its Q factor, the same, is written back into them.  Either
    way, a frame whose Gram is further than 1e-10 from the identity, or NaN,
    raises ``InvalidArgumentError``.
    """
    try:
        _cholesky_qr(blocks)
        _cholesky_qr(blocks)
    except np.linalg.LinAlgError:
        q, lo = positive_qr(np.concatenate(blocks)), 0
        for block in blocks:
            block[...], lo = q[lo : lo + len(block)], lo + len(block)
    defect = np.abs(_gram(blocks) - np.eye(blocks[0].shape[1])).max()
    if not defect <= _ORTHO_ATOL:  # a NaN defect fails too
        raise InvalidArgumentError(
            f"frame columns are not orthonormal: max deviation {defect:.3e}"
        )


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
    One generator is constructed per call and pointed at each row's stream
    by :func:`~cohlab.streams.rekey`.
    """
    out = np.empty((stop - first, *shape))
    gen = new_generator(master_seed, first)
    for row, index in enumerate(range(first, stop)):
        rekey(gen, master_seed, index)
        gen.standard_normal(out=out[row])
    return out


def haar_amplitude_rows(master_seed: int, first: int, stop: int, dim: int) -> np.ndarray:
    """Haar pure-state amplitudes for streams [first, stop), one row each.

    Row r is ``_unit_rows(new_generator(master_seed, first +
    r).standard_normal(2 * dim))``: the real and imaginary parts drawn from
    stream ``(master_seed, first + r)``, normalised to unit length.
    """
    return _unit_rows(keyed_rows(master_seed, first, stop, (2 * dim,)))


def haar_prob_rows(master_seed: int, first: int, stop: int, dim: int, out: np.ndarray) -> np.ndarray:
    """Diagonals p_i = |psi_i|^2 of Haar states for trials [first, stop),
    drawn and normalised in ``out``, a C-contiguous float64 array of ``stop
    - first`` rows and ``dim`` columns, which is returned.

    Row r is ``e / e.sum()`` with ``e = -ln(1 - u)`` and ``u`` the floats
    that ``Generator.random`` makes of words [(first + r) dim, (first + r +
    1) dim) of ``word_generator(master_seed, 0)``: Dirichlet(1, ..., 1), the
    law of a Haar state's diagonal.  ln(1 - u) / sum ln(1 - u) has the bytes
    of e / e.sum(), so the sign is never taken.  One generator is
    constructed at word ``first * dim`` per call, and none at d = 1.
    """
    if dim == 1:  # e / e.sum() is 1.0, or 0 / 0 where the word is 0
        out.fill(1.0)
        return out
    word_generator(master_seed, first * dim).random(out=out)
    np.subtract(1.0, out, out=out)
    np.log(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def haar_unitary_rows(master_seed: int, first: int, stop: int, dim: int) -> np.ndarray:
    """Stacked Haar unitaries for streams [first, stop), one per stream."""
    return positive_qr(_complex_normals(keyed_rows(master_seed, first, stop, (dim, 2 * dim))))


def sample_random_subspace(dim: int, sub_dim: int, generator: np.random.Generator) -> np.ndarray:
    """Column-orthonormal dim x sub_dim frame of a Haar-random subspace of C^dim.

    The frame is the Q factor, with a positive real R diagonal, of a dim x
    sub_dim Ginibre matrix drawn from ``generator``, equal in distribution to
    the first sub_dim columns of a Haar unitary.  It is computed in the drawn
    array, through the views of its row blocks (:func:`_orthonormalise`).
    """
    if dim < 1 or sub_dim < 1 or sub_dim > dim:
        raise InvalidArgumentError(f"need 1 <= sub_dim <= dim, got sub_dim={sub_dim}, dim={dim}")
    frame = ginibre(generator, dim, sub_dim)
    _orthonormalise(_row_blocks(frame))
    return frame


def _subspace_row_blocks(dim: int, sub_dim: int, generator: np.random.Generator) -> list[np.ndarray]:
    """The row blocks of ``sample_random_subspace(dim, sub_dim, generator)``
    with its bytes, each its own array.

    Each block is drawn by its own :func:`ginibre` call, and sequential draws
    give the normals of one, so the blocks hold the rows of the one drawn
    array; they are orthonormalised as its views are.  No array of the whole
    frame exists, so a caller can drop each block once it has used it.
    """
    rows = _block_rows(sub_dim)
    blocks = [ginibre(generator, min(rows, dim - lo), sub_dim) for lo in range(0, dim, rows)]
    _orthonormalise(blocks)
    return blocks


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
