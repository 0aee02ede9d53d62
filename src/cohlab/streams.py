"""Deterministic random streams, and the stream contract.

A stream ``(master_seed, stream_index)`` is a Philox generator keyed by the
pair (:func:`new_generator`): equal pairs replay the same draws and distinct
indices are independent.  :func:`stream_setter` points one generator at
the start of another stream, drawing what a fresh one would, for less.

:data:`STREAM_VERSION` names the stream contract: which variates each
campaign draws from which stream, and the arithmetic that turns them into
payload bytes.  It changes only deliberately, with the golden payloads that
pin it; the README keeps the history of its versions.  Under version 9:

* Haar diagonals (concentration measures, inequality sweep, outcome
  probabilities): trial i in dimension d takes words [i d, (i + 1) d) of the
  PCG64DXSM campaign stream of ``SeedSequence(master_seed mod 2**64)``
  (:func:`word_generator`) as doubles u, and is e / sum e, e = -ln(1 - u).
* Unitaries: trial i is the Householder QR factor, with a positive real R
  diagonal, of a Ginibre matrix from stream (master_seed, i).
* Subspaces: the d x s frame is a Ginibre draw from stream (master_seed, 0),
  orthonormalised in place by two passes of Cholesky QR, each summing the
  Gram over fixed row blocks.  Subspace state j has the unit-normalised
  normals of stream (master_seed, j + 1) as coefficients.  Decomposition
  ensemble e draws from stream (master_seed, e + 1) its state coefficients,
  exponential weights and the Ginibre draw of each mixing isometry, and is
  mixed in coefficient space.  A state's C_r sums, in block order, the
  entropies over fixed blocks of 2048 frame columns of its probabilities:
  quadratic forms of its coefficients times the frame's for s <= 4, else
  the squared real and imaginary parts of its amplitudes.
No chunking, blocking or thread count changes a byte.
"""

from __future__ import annotations

import numpy as np

STREAM_VERSION = "9"

_UINT64_MASK = (1 << 64) - 1
# counter and output buffer of a Philox state at the start of a stream
_ZEROS4 = (0, 0, 0, 0)


def _key(master_seed: int, stream_index: int) -> np.ndarray:
    return np.array(
        [master_seed & _UINT64_MASK, stream_index & _UINT64_MASK],
        dtype=np.uint64,
    )


def new_generator(master_seed: int, stream_index: int) -> np.random.Generator:
    """Fresh generator for the stream keyed by (master_seed, stream_index).

    Negative inputs wrap modulo 2**64, matching two's-complement intent.
    """
    return np.random.Generator(np.random.Philox(key=_key(master_seed, stream_index)))


def stream_setter(generator: np.random.Generator, master_seed: int):
    """A function that points a Philox ``generator`` at the start of stream
    (master_seed, stream_index) for the ``stream_index`` it is given.

    Each call sets the key, a zero counter and an empty output buffer, and
    drops any buffered 32-bit half, so whatever the generator drew before,
    it then draws exactly what ``new_generator(master_seed, stream_index)``
    would.  Inputs wrap modulo 2**64 as in :func:`new_generator`.

    The state dict is built once, here, and each call swaps only its key
    tuple; the Philox setter copies the entries out, so reusing the dict is
    safe.  Its entries are Python ints in tuples, which the setter reads
    entry by entry: indexing numpy arrays there makes a numpy scalar of each
    of the 10 entries and triples the cost.  A call costs 0.7-1.1 us against
    1.6-1.7 us when the whole dict is built for each stream (two sets of
    medians of 7 timings of 20000 calls on one pinned CPU, 2.1 GHz Xeon,
    numpy 2.4.6).
    """
    bit_generator = generator.bit_generator
    seed = master_seed & _UINT64_MASK
    # a Philox state at the start of a stream: zero counter, empty output
    # buffer, no buffered 32-bit half
    inner = {"counter": _ZEROS4, "key": (seed, 0)}
    state = {
        "bit_generator": "Philox",
        "state": inner,
        "buffer": _ZEROS4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }

    def set_stream(stream_index: int) -> None:
        inner["key"] = (seed, stream_index & _UINT64_MASK)
        bit_generator.state = state

    return set_stream


def word_generator(master_seed: int, word: int) -> np.random.Generator:
    """Fresh generator at 64-bit word ``word`` (>= 0) of the campaign stream
    of ``master_seed``: PCG64DXSM seeded by ``SeedSequence(master_seed mod 2**64)``.

    It draws what a generator fresh at word 0 draws after its first ``word``
    words; ``advance`` jumps there in O(log word) steps.
    """
    bit_generator = np.random.PCG64DXSM(np.random.SeedSequence(master_seed & _UINT64_MASK))
    bit_generator.advance(word)
    return np.random.Generator(bit_generator)
