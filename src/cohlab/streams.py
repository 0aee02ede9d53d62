"""Deterministic random streams.

A stream is identified by the pair ``(master_seed, stream_index)``.
Identical pairs always reproduce the same draw sequence; distinct stream
indices give statistically independent streams.  This makes a stream the
unit of parallelism: any number of workers may consume disjoint streams
concurrently and the combined experiment stays bit-reproducible.

Streams are backed by the Philox counter-based bit generator with the
128-bit key set directly to ``(master_seed, stream_index)``, so stream
derivation is a pure function of the pair and involves no shared seeding
state.  Because a Philox stream is its key plus a counter, one generator
can serve many streams in turn: :func:`stream_setter` points an existing
generator at the start of another stream, which draws exactly what a fresh
:func:`new_generator` for that pair would, at a fraction of the cost of
constructing one.

:data:`STREAM_VERSION` names the stream contract: which variates each
campaign draws from which stream.  It changes only with a deliberate change
of the sampled bytes, together with the golden payloads that pin them.
Version 2 drew standard exponentials, d from each trial's stream, for
campaigns that need only a Haar state's diagonal (every concentration
measure, the inequality sweep and the outcome-probability samples) and
standard normals for amplitudes, unitaries and subspace frames; version 1
drew normals everywhere.  Version 3 changed no variate, only the way the
subspace campaign sums each state's entropy: over fixed blocks of columns,
in block order, which moves some of its C_r values by about 1 ulp.

Version 4 changes no variate either.  For subspaces of s <= 4 dimensions
the subspace campaign computes each probability p_i = |sum_j F_ij c_j|^2
as one real quadratic form in the coefficients c, as a sum of
|F_ij|^2 |c_j|^2 and 2 Re(conj(F_ij) F_ik conj(c_j) c_k) over j < k, not by
squaring and adding the real and imaginary parts of psi_i; that moves some
of its C_r values by about 1 ulp.  Above s = 4 its bytes are those of
version 3.

Version 5 draws the Haar diagonals from one stream per campaign instead of
one stream per trial.  Trial i of a campaign of d-dimensional diagonals
takes the 64-bit words [i d, (i + 1) d) of one stream, makes them doubles
u as ``Generator.random`` does and uses the exponentials e = -ln(1 - u).
Because d >= 1 these windows never overlap, and a trial's words still
depend only on (master_seed, i, d), so chunking and threads leave the
bytes as they were; a chunk of trials is one contiguous run of words.
Only the diagonal campaigns change: every concentration measure, the
inequality sweep and the outcome-probability samples.  Amplitudes,
unitaries, subspaces and decompositions keep their per-trial streams of
standard normals.  Version 5 took the words from Philox stream
(master_seed, 0).

Version 6 takes them from one PCG64DXSM stream per campaign, seeded by
``SeedSequence(master_seed mod 2**64)``, with the same windows and the same
transform; :func:`word_generator` starts a generator at any word of it.
So there are two generator families, each for what it does cheaply.
Per-trial streams of normals stay on Philox, whose key is the whole stream
identity: rekeying one generator per trial is a state reset
(:func:`stream_setter`).  The campaign stream of diagonals is one long run
of words that each chunk enters at its own word: PCG64DXSM seeks there
natively with ``advance`` and fills doubles about twice as fast as Philox.
Only the diagonal campaigns change bytes.

Version 7 changes no variate.  The subspace frame, the Q factor with a
positive real R diagonal of a d x s Ginibre draw, is computed in the drawn
array by two passes of Cholesky QR, each summing the Gram A^H A over fixed
blocks of rows, in block order, and rescaling each block by R^-1, where it
was a Householder QR with the R-diagonal phase fix.  That factor is unique,
so the frame has the same law and the same value up to rounding; only the
subspace and decomposition campaigns, whose states live in the frame, can
change bytes.  Unitaries and mixing isometries keep the Householder route.

Version 8 changes no variate either.  The subspace campaign still sums each
state's entropy over fixed blocks of frame columns in block order, but the
blocks are 2048 columns wide where they were 8192, so that a row block of
32 states (16 above s = 4) fits the 512 KiB scratch block of the diagonal
campaigns.  More, narrower blocks round differently, which moves some of
its C_r values by a few ulps; only the subspace campaign can change bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STREAM_VERSION = "8"

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


@dataclass
class RandomStream:
    """One reproducible draw sequence, addressed by (master_seed, stream_index).

    The underlying generator is created lazily and consumed sequentially:
    successive sampling calls on the same object continue the sequence,
    while a new ``RandomStream`` with the same pair replays it from the
    start.
    """

    master_seed: int
    stream_index: int
    _generator: np.random.Generator | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            self._generator = new_generator(self.master_seed, self.stream_index)
        return self._generator
