"""Per-state coherence functionals in the fixed reference basis.

Conventions used throughout the package:

* Entropies are in nats (all logarithms are natural).
* Trace distance carries NO factor of one half: ``T(rho, sigma) =
  Tr|rho - sigma|``.  Much of the literature halves this; values here are
  twice those.
* ``0 * ln 0 = 0``; probabilities below 1e-300 are treated as exact zeros
  so underflow can never produce NaN.

The ``*_from_probs`` functions are array kernels operating on (batches of)
probability vectors along the last axis; the batched campaigns evaluate
their measures through them.  The scalar functions take one
:class:`~cohlab.sampler.PureState` and delegate to the same kernels, so
both paths share one numerical definition; the decomposition check sums
:func:`relative_entropy_coherence` over ensemble members.
"""

from __future__ import annotations

import math

import numpy as np

from .sampler import Decomposition, PureState

# probabilities at or below this are treated as exact zeros (0 ln 0 = 0)
_ZERO_PROB = 1e-300


def entropy_from_probs(probs: np.ndarray, axis: int = -1) -> np.ndarray | float:
    """Shannon entropy in nats along ``axis``, with 0 ln 0 = 0."""
    p = np.asarray(probs, dtype=np.float64)
    # one temporary: p ln p, its terms at p <= _ZERO_PROB (where the log is
    # -inf, or nan below 0) set to 0 before the product, as 0 ln 0 = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(p)
    terms[p <= _ZERO_PROB] = 0.0
    terms *= p
    out = -terms.sum(axis=axis)
    # entropy is nonnegative; clip the ~1 ulp undershoot of near-pure vectors
    return np.maximum(out, 0.0)


def purity_from_probs(probs: np.ndarray, axis: int = -1) -> np.ndarray | float:
    """Classical purity sum_i p_i^2 along ``axis``."""
    p = np.asarray(probs, dtype=np.float64)
    return (p * p).sum(axis=axis)


def mixedness_from_probs(probs: np.ndarray) -> np.ndarray | float:
    """1 - sum_i p_i^2 along the last axis, as sum_i p_i sum_{j != i} p_j.

    Equal to ``1 - purity_from_probs(probs)`` for normalized ``probs``, but
    with no cancellation when one p_i is within rounding of 1: the sums over
    j != i are built from exclusive prefix and suffix sums, never by
    subtraction.
    """
    p = np.asarray(probs, dtype=np.float64)
    rest = np.zeros_like(p)
    rest[..., 1:] = np.cumsum(p[..., :-1], axis=-1)
    rest[..., :-1] += np.cumsum(p[..., :0:-1], axis=-1)[..., ::-1]
    return (p * rest).sum(axis=-1)


def trdist_mm_from_probs(probs: np.ndarray, axis: int = -1) -> np.ndarray | float:
    """Trace distance (no 1/2 factor) to the uniform distribution."""
    p = np.asarray(probs, dtype=np.float64)
    d = p.shape[axis]
    # one temporary: the difference, its absolute value taken in place
    diff = p - 1.0 / d
    np.abs(diff, out=diff)
    return diff.sum(axis=axis)


def l1_from_probs(probs: np.ndarray, axis: int = -1) -> np.ndarray | float:
    """l1 coherence of a pure state from its diagonal probabilities.

    Uses the O(d) simplification (sum_i |psi_i|)^2 - 1 of the off-diagonal
    double sum, clamped below at 0 against rounding.
    """
    p = np.asarray(probs, dtype=np.float64)
    s = np.sqrt(p).sum(axis=axis)
    return np.maximum(s * s - 1.0, 0.0)


def _binary_entropy(t: np.ndarray) -> np.ndarray:
    safe_t = np.where(t > 0.0, t, 1.0)
    safe_1mt = np.where(t < 1.0, 1.0 - t, 1.0)
    return -(t * np.log(safe_t) + (1.0 - t) * np.log(safe_1mt))


def fannes_floor_from_probs(probs: np.ndarray, axis: int = -1) -> np.ndarray | float:
    """Continuity lower bound (1-T) ln d - H2(T) on C_r, T = trace dist / 2.

    May be negative, in which case the bound is vacuous.  Degenerate d = 1
    gives exactly 0.
    """
    p = np.asarray(probs, dtype=np.float64)
    d = p.shape[axis]
    t = trdist_mm_from_probs(p, axis) / 2.0
    if d == 1:
        return np.zeros_like(t)
    return (1.0 - t) * math.log(d) - _binary_entropy(t)


def _probs(psi: PureState) -> np.ndarray:
    amps = psi.amplitudes
    return amps.real**2 + amps.imag**2


def relative_entropy_coherence(psi: PureState) -> float:
    """C_r of a pure state: the entropy of its diagonal part, in [0, ln d]."""
    return float(entropy_from_probs(_probs(psi)))


def l1_coherence_pure(psi: PureState) -> float:
    """l1 norm of coherence of a pure state, in [0, d - 1]."""
    return float(l1_from_probs(_probs(psi)))


def classical_purity(psi: PureState) -> float:
    """Purity of the dephased state, in [1/d, 1]."""
    return float(purity_from_probs(_probs(psi)))


def trace_distance_diag_mm(psi: PureState) -> float:
    """Trace distance (no 1/2) between the diagonal part and I/d."""
    return float(trdist_mm_from_probs(_probs(psi)))


def coherence_of_formation_pure(psi: PureState) -> float:
    """Coherence of formation of a pure state.

    A rank-1 density matrix has itself as its only decomposition, so this
    equals the relative entropy of coherence exactly.
    """
    return relative_entropy_coherence(psi)


def decomposition_average_coherence(dec: Decomposition) -> float:
    """Weighted average of member diagonal entropies, sum_a p_a S(rho_D(psi_a)).

    For any decomposition of a mixed state this upper-bounds its coherence
    of formation (the convex-roof minimum over decompositions).
    """
    entropies = [relative_entropy_coherence(s) for s in dec.states]
    return float(np.dot(dec.weights, entropies))


def fannes_floor(psi: PureState) -> float:
    """Continuity lower bound on C_r; see :func:`fannes_floor_from_probs`."""
    return float(fannes_floor_from_probs(_probs(psi)))
