"""Deterministic random streams, and the stream contract.

A stream ``(master_seed, stream_index)`` is a Philox generator keyed by the
pair: equal pairs replay the same draws and distinct indices are
independent.  :func:`rekey`, the one definition of a stream's start,
points any Philox generator there; :func:`new_generator` returns a new
generator so pointed.

:data:`STREAM_VERSION` names the stream contract: which variates each
campaign draws from which stream, and the arithmetic that turns them into
payload bytes.  It changes only deliberately, with the golden payloads that
pin it; the README keeps the history of its versions.  Under version 10:

* Haar diagonals (concentration measures, inequality sweep, outcome
  probabilities): trial i in dimension d takes words [i d, (i + 1) d) of the
  PCG64DXSM campaign stream of ``SeedSequence(master_seed mod 2**64)``
  (:func:`word_generator`) as doubles u, and is e / sum e, e = -ln(1 - u).
* Unitaries: trial i is the Householder QR factor, with a positive real R
  diagonal, of a Ginibre matrix from stream (master_seed, i).
* Subspaces: the d x s frame is a Ginibre draw from stream (master_seed, 0),
  made whole or row block by row block, which gives the same normals, and
  orthonormalised in place by two passes of Cholesky QR, each summing the
  Gram over those fixed row blocks.  Subspace state j has the unit-normalised
  normals of stream (master_seed, j + 1) as coefficients.  Decomposition
  ensemble e draws from stream (master_seed, e + 1) its state coefficients,
  exponential weights and the Ginibre draw of each mixing isometry, and is
  mixed in coefficient space.  A state's C_r sums, in block order, the
  entropies over fixed blocks of 2048 frame columns of its probabilities:
  quadratic forms of its coefficients times the frame's for s <= 4, else
  the squared real and imaginary parts of its amplitudes.
No chunk size or thread count changes a byte of any per-state value,
one-state chunks included, so neither changes a payload.
"""

from __future__ import annotations

import numpy as np

STREAM_VERSION = "10"

_UINT64_MASK = (1 << 64) - 1


def rekey(generator: np.random.Generator, master_seed: int, stream_index: int) -> None:
    """Point the Philox ``generator`` at the start of stream (master_seed, stream_index).

    The start is the key ``(master_seed, stream_index)``, a zero counter, an
    empty output buffer and no buffered 32-bit half, so whatever the
    generator drew before, it then draws the stream from its first variate.
    Negative inputs wrap modulo 2**64, matching two's-complement intent.
    """
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": (0, 0, 0, 0),
            "key": (master_seed & _UINT64_MASK, stream_index & _UINT64_MASK),
        },
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def new_generator(master_seed: int, stream_index: int) -> np.random.Generator:
    """Fresh generator for the stream keyed by (master_seed, stream_index)."""
    generator = np.random.Generator(np.random.Philox(0))  # rekey sets the whole state
    rekey(generator, master_seed, stream_index)
    return generator


def word_generator(master_seed: int, word: int) -> np.random.Generator:
    """Fresh generator at 64-bit word ``word`` (>= 0) of the campaign stream
    of ``master_seed``: PCG64DXSM seeded by ``SeedSequence(master_seed mod 2**64)``.

    It draws what a generator fresh at word 0 draws after its first ``word``
    words; ``advance`` jumps there in O(log word) steps.
    """
    bit_generator = np.random.PCG64DXSM(np.random.SeedSequence(master_seed & _UINT64_MASK))
    bit_generator.advance(word)
    return np.random.Generator(bit_generator)
