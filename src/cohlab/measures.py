"""Per-state coherence functionals in the fixed reference basis.

Conventions used throughout the package:

* Entropies are in nats (all logarithms are natural).
* Trace distance carries NO factor of one half: ``T(rho, sigma) =
  Tr|rho - sigma|``.  Much of the literature halves this; values here are
  twice those.
* ``0 * ln 0 = 0``; probabilities below 1e-300 are treated as exact zeros
  so underflow can never produce NaN.

The ``*_from_probs`` functions are array kernels operating on (batches of)
probability vectors along the last axis; the scalar operations delegate to
them so both paths share one numerical definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .sampler import Decomposition, PureState

_PROB_SUM_ATOL = 1e-12
# probabilities at or below this are treated as exact zeros (0 ln 0 = 0)
_ZERO_PROB = 1e-300


@dataclass
class DiagonalDistribution:
    """Probability vector p_i = |<i|psi>|^2 of a state's diagonal part."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.ascontiguousarray(self.probs, dtype=np.float64)
        if p.ndim != 1 or p.size < 1:
            raise InvalidArgumentError("probs must be a nonempty 1-d vector")
        if p.min() < 0.0:
            raise InvalidArgumentError("probabilities must be nonnegative")
        total = float(p.sum())
        if abs(total - 1.0) > _PROB_SUM_ATOL:
            raise InvalidArgumentError(f"probabilities must sum to 1, got {total!r}")
        self.probs = p

    @property
    def dim(self) -> int:
        return self.probs.size


@dataclass
class CoherenceProfile:
    """All per-state quantities evaluated on one pure state.

    ``fannes_floor`` is the headline lower bound (1-T) ln d - H2(T);
    ``fannes_floor_sharp`` is the tighter ln d - T ln(d-1) - H2(T) variant.
    """

    dim: int
    c_r: float
    c_l1: float
    purity: float
    trace_dist_mm: float
    fannes_floor: float
    fannes_floor_sharp: float


def entropy_from_probs(probs: np.ndarray, axis: int = -1) -> np.ndarray | float:
    """Shannon entropy in nats along ``axis``, with 0 ln 0 = 0."""
    p = np.asarray(probs, dtype=np.float64)
    # one temporary: p ln p, with ln 1 = 0 standing in for the zero terms
    terms = np.where(p > _ZERO_PROB, p, 1.0)
    np.log(terms, out=terms)
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
    return np.abs(p - 1.0 / d).sum(axis=axis)


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


def diagonal_part(psi: PureState) -> DiagonalDistribution:
    """Diagonal part of |psi><psi| in the reference basis, as probabilities."""
    return DiagonalDistribution(_probs(psi))


def shannon_entropy(dist: DiagonalDistribution) -> float:
    """Entropy -sum_i p_i ln p_i in nats."""
    return float(entropy_from_probs(dist.probs))


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


def binary_entropy(t: float) -> float:
    """H2(t) = -t ln t - (1-t) ln(1-t) in nats, with 0 ln 0 = 0."""
    if not 0.0 <= t <= 1.0:
        raise InvalidArgumentError(f"binary entropy argument must be in [0,1], got {t}")
    return float(_binary_entropy(np.float64(t)))


def fannes_floor(psi: PureState) -> float:
    """Continuity lower bound on C_r; see :func:`fannes_floor_from_probs`."""
    return float(fannes_floor_from_probs(_probs(psi)))


def fannes_floor_sharp(psi: PureState) -> float:
    """Sharper variant ln d - T ln(d-1) - H2(T) of the coherence floor."""
    d = psi.dim
    if d == 1:
        return 0.0
    t = trace_distance_diag_mm(psi) / 2.0
    return math.log(d) - t * math.log(d - 1) - binary_entropy(t)


def coherence_profile(psi: PureState) -> CoherenceProfile:
    """Evaluate every per-state functional on one state."""
    return CoherenceProfile(
        dim=psi.dim,
        c_r=relative_entropy_coherence(psi),
        c_l1=l1_coherence_pure(psi),
        purity=classical_purity(psi),
        trace_dist_mm=trace_distance_diag_mm(psi),
        fannes_floor=fannes_floor(psi),
        fannes_floor_sharp=fannes_floor_sharp(psi),
    )
