"""Coherence functionals of pure states in the fixed reference basis,
computed from their diagonals p_i = |psi_i|^2.

Conventions used throughout the package:

* Entropies are in nats (all logarithms are natural).
* Trace distance carries NO factor of one half: ``T(rho, sigma) =
  Tr|rho - sigma|``.  Much of the literature halves this; values here are
  twice those.
* ``0 * ln 0 = 0``; probabilities below 1e-300 are treated as exact zeros
  so underflow can never produce NaN.

Every function is an array kernel operating on (batches of) probability
vectors along the last axis; the campaigns evaluate their measures through
them.  The four measure kernels (entropy, purity, trace distance, l1) and
the Fannes floor make one float64 temporary the shape of ``probs``, and the
mixedness two; a caller may pass the first as ``work``, a float64 array of
that shape that is overwritten, with the same result bytes.  A kernel's
bytes are part of the payload bytes that the stream contract
(:mod:`cohlab.streams`) pins.
"""

from __future__ import annotations

import math

import numpy as np

# probabilities at or below this are treated as exact zeros (0 ln 0 = 0)
_ZERO_PROB = 1e-300


def entropy_from_probs(
    probs: np.ndarray, work: np.ndarray | None = None
) -> np.ndarray | float:
    """Shannon entropy in nats along the last axis, with 0 ln 0 = 0."""
    p = np.asarray(probs, dtype=np.float64)
    # one temporary (``work`` if given): p ln p, its terms at p <= _ZERO_PROB
    # (where the log is -inf, or nan below 0) set to 0 before the product,
    # as 0 ln 0 = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(p, out=work)
    terms[p <= _ZERO_PROB] = 0.0
    terms *= p
    out = -terms.sum(axis=-1)
    # entropy is nonnegative; clip the ~1 ulp undershoot of near-pure vectors
    return np.maximum(out, 0.0)


def purity_from_probs(
    probs: np.ndarray, work: np.ndarray | None = None
) -> np.ndarray | float:
    """Classical purity sum_i p_i^2 along the last axis."""
    p = np.asarray(probs, dtype=np.float64)
    return np.multiply(p, p, out=work).sum(axis=-1)


def mixedness_from_probs(
    probs: np.ndarray, work: np.ndarray | None = None
) -> np.ndarray | float:
    """1 - sum_i p_i^2 along the last axis, as sum_i p_i sum_{j != i} p_j.

    Equal to ``1 - purity_from_probs(probs)`` for normalized ``probs``, but
    with no cancellation when one p_i is within rounding of 1: the sums over
    j != i are built from exclusive prefix and suffix sums, never by
    subtraction.
    """
    p = np.asarray(probs, dtype=np.float64)
    # rest (``work`` if given) takes the prefix sums and then the product
    rest = np.empty_like(p) if work is None else work
    rest[..., 0] = 0.0
    np.cumsum(p[..., :-1], axis=-1, out=rest[..., 1:])
    rest[..., :-1] += np.cumsum(p[..., :0:-1], axis=-1)[..., ::-1]
    rest *= p
    return rest.sum(axis=-1)


def trdist_mm_from_probs(
    probs: np.ndarray, work: np.ndarray | None = None
) -> np.ndarray | float:
    """Trace distance (no 1/2 factor) to the uniform distribution, along the last axis."""
    p = np.asarray(probs, dtype=np.float64)
    d = p.shape[-1]
    # one temporary (``work`` if given): the difference, its absolute value
    # taken in place
    diff = np.subtract(p, 1.0 / d, out=work)
    np.abs(diff, out=diff)
    return diff.sum(axis=-1)


def l1_from_probs(
    probs: np.ndarray, work: np.ndarray | None = None
) -> np.ndarray | float:
    """l1 coherence of a pure state from its diagonal probabilities.

    Uses the O(d) simplification (sum_i |psi_i|)^2 - 1 of the off-diagonal
    double sum, clamped below at 0 against rounding.
    """
    p = np.asarray(probs, dtype=np.float64)
    s = np.sqrt(p, out=work).sum(axis=-1)
    return np.maximum(s * s - 1.0, 0.0)


def _binary_entropy(t: np.ndarray) -> np.ndarray:
    safe_t = np.where(t > 0.0, t, 1.0)
    safe_1mt = np.where(t < 1.0, 1.0 - t, 1.0)
    return -(t * np.log(safe_t) + (1.0 - t) * np.log(safe_1mt))


def fannes_floor_from_probs(
    probs: np.ndarray, work: np.ndarray | None = None
) -> np.ndarray | float:
    """Continuity lower bound (1-T) ln d - H2(T) on C_r, T = trace dist / 2.

    May be negative, in which case the bound is vacuous.  Degenerate d = 1
    gives exactly 0.
    """
    p = np.asarray(probs, dtype=np.float64)
    d = p.shape[-1]
    t = trdist_mm_from_probs(p, work) / 2.0
    if d == 1:
        return np.zeros_like(t)
    return (1.0 - t) * math.log(d) - _binary_entropy(t)

