"""Deterministic counter-based random streams.

A stream is identified by the pair ``(master_seed, stream_index)``.
Identical pairs always reproduce the same draw sequence; distinct stream
indices give statistically independent streams.  This makes a stream the
unit of parallelism: any number of workers may consume disjoint streams
concurrently and the combined experiment stays bit-reproducible.

Streams are backed by the Philox counter-based bit generator with the
128-bit key set directly to ``(master_seed, stream_index)``, so stream
derivation is a pure function of the pair and involves no shared seeding
state.  Because a Philox stream is its key plus a counter, one generator
can serve many streams in turn: :func:`rekey` points an existing generator
at the start of another stream, which draws exactly what a fresh
:func:`new_generator` for that pair would, at a fraction of the cost of
constructing one.

:data:`STREAM_VERSION` names the stream contract: which variates each
campaign draws from which stream.  It changes only with a deliberate change
of the sampled bytes, together with the golden payloads that pin them.
Version 2 draws standard exponentials for campaigns that need only a Haar
state's diagonal (every concentration measure, the inequality sweep and the
outcome-probability samples) and standard normals for amplitudes, unitaries
and subspace frames; version 1 drew normals everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STREAM_VERSION = "2"

_UINT64_MASK = (1 << 64) - 1
# counter and output buffer of a Philox state at the start of a stream; the
# state setter copies them, so one read-only array serves every call
_ZEROS4 = np.zeros(4, dtype=np.uint64)
_ZEROS4.flags.writeable = False


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


def rekey(generator: np.random.Generator, master_seed: int, stream_index: int) -> None:
    """Point a Philox ``generator`` at the start of stream (master_seed, stream_index).

    Sets the key, a zero counter and an empty output buffer, and drops any
    buffered 32-bit half, so whatever the generator drew before, it now
    draws exactly what ``new_generator(master_seed, stream_index)`` would.
    Inputs wrap modulo 2**64 as in :func:`new_generator`.
    """
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS4, "key": _key(master_seed, stream_index)},
        "buffer": _ZEROS4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


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
