"""Closed-form expectations, concentration bounds, subspace dimensioning,
and the special functions they are built from.

Everything here is deterministic arithmetic; the Monte Carlo side of the
package (:mod:`cohlab.experiments`) is checked against these values.
Entropic quantities are in nats.  scipy is imported only inside
:func:`expected_cr_via_quadrature`, the quadrature cross-check of the mean
(``cohlab verify --suite integral``), so importing the package loads numpy
and the standard library alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidDimensionError,
    InvalidEpsilonError,
    UnsupportedDimensionError,
)

#: Euler-Mascheroni constant to full double precision
EULER_GAMMA = 0.5772156649015329

#: denominator of the constant K = 1/16461 in the coherent-subspace dimension
SUBSPACE_K_DENOM = 16461

#: smallest ambient dimension at which the subspace guarantee can reach s >= 2:
#: s < d / SUBSPACE_K_DENOM for every eps < ln d, so s >= 2 needs d > 2 * SUBSPACE_K_DENOM
MIN_DIM_FOR_NONTRIVIAL_SUBSPACE = 2 * SUBSPACE_K_DENOM + 1

# harmonic numbers are summed exactly up to here, Euler-Maclaurin beyond;
# the two branches agree to ~1e-14 relative at the switchover
_EXACT_HARMONIC_LIMIT = 10**6

_LN2 = math.log(2.0)
_PI3 = math.pi**3


def harmonic(d: int) -> float:
    """d-th harmonic number H_d = sum_{k=1}^d 1/k.

    Exact partial sum (ascending-term order) for d <= 1e6, asymptotic
    ln d + gamma + 1/(2d) - 1/(12 d^2) beyond.
    """
    if d < 1:
        raise InvalidDimensionError(f"harmonic number needs d >= 1, got {d}")
    if d <= _EXACT_HARMONIC_LIMIT:
        return float(np.sum(1.0 / np.arange(d, 0, -1, dtype=np.float64)))
    x = float(d)
    return math.log(x) + EULER_GAMMA + 1.0 / (2.0 * x) - 1.0 / (12.0 * x * x)


def digamma_integer(n: int) -> float:
    """Digamma at a positive integer: Psi(n) = H_{n-1} - gamma."""
    if n < 1:
        raise InvalidDimensionError(f"digamma pole at nonpositive integer {n}")
    if n == 1:
        return -EULER_GAMMA
    return harmonic(n - 1) - EULER_GAMMA


def _beta_integer_reduction(n: int, b: float) -> float:
    # B(n, b) = (n-1)! / (b (b+1) ... (b+n-1)); relative error ~ n ulp,
    # far below the cancellation the lgamma difference suffers at large b
    denom = 1.0
    for j in range(n):
        denom *= b + j
    return math.factorial(n - 1) / denom


def beta(alpha: float, beta_arg: float) -> float:
    """Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b) via log-Gamma.

    Small integer arguments take the exact factorial reduction, which keeps
    full precision where the log-Gamma difference would cancel
    catastrophically (e.g. B(2, d-1) at large d).
    """
    if not (0.0 < alpha < math.inf and 0.0 < beta_arg < math.inf):  # NaN fails too
        raise InvalidArgumentError(
            f"beta function needs finite positive arguments, got ({alpha}, {beta_arg})"
        )
    for small, other in ((alpha, beta_arg), (beta_arg, alpha)):
        if (
            small == int(small)
            and small <= 64
            and small * math.log(other + small) < 700.0
        ):
            return _beta_integer_reduction(int(small), other)
    return math.exp(math.lgamma(alpha) + math.lgamma(beta_arg) - math.lgamma(alpha + beta_arg))


def expected_cr(d: int) -> float:
    """Average relative entropy of coherence of a Haar state: H_d - 1."""
    return harmonic(d) - 1.0


def expected_cr_via_beta(d: int) -> float:
    """Average C_r through the Beta-derivative route.

    Evaluates -d(d-1) * (Psi(2) - Psi(d+1)) * B(2, d-1), which must equal
    ``expected_cr(d)``.  B(2, d-1) takes the exact reduction 1/((d-1) d) at
    every d and Psi(d+1) shares ``harmonic(d)`` with the closed form, so this
    checks the digamma and Beta algebra, not the harmonic sum or log-Gamma.
    """
    if d < 2:
        raise InvalidDimensionError(f"Beta route needs d >= 2, got {d}")
    return -d * (d - 1) * (digamma_integer(2) - digamma_integer(d + 1)) * beta(2.0, float(d - 1))


def expected_cr_via_quadrature(d: int) -> float:
    """Average C_r by adaptive quadrature of -d(d-1) Int_0^1 r (1-r)^(d-2) ln r dr.

    Supported for 2 <= d <= 50 where the integrand is tame.  The only
    function of the package that uses scipy, so scipy is imported here.
    """
    from scipy import integrate

    if not 2 <= d <= 50:
        raise UnsupportedDimensionError(f"quadrature route supports 2 <= d <= 50, got {d}")

    def integrand(r: float) -> float:
        if r <= 0.0:
            return 0.0
        return r * (1.0 - r) ** (d - 2) * math.log(r)

    value, _ = integrate.quad(integrand, 0.0, 1.0)
    return -d * (d - 1) * value


def expected_classical_purity(d: int) -> float:
    """Average purity of the dephased Haar state: 2/(d+1)."""
    if d < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {d}")
    return 2.0 / (d + 1.0)


def expected_trace_distance(d: int) -> float:
    """Average trace distance (no 1/2) of the diagonal part from I/d: 2(1-1/d)^d."""
    if d < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {d}")
    if d == 1:
        return 0.0
    return 2.0 * math.exp(d * math.log1p(-1.0 / d))


def haar_prob_moment(d: int, k: int) -> float:
    """k-th moment of a single outcome probability of a Haar state.

    E[p_1^k] = k! (d-1)! / (d-1+k)!, the Beta(1, d-1) moment.
    """
    if d < 1 or k < 0:
        raise InvalidArgumentError(f"need d >= 1 and k >= 0, got d={d}, k={k}")
    return math.exp(math.lgamma(k + 1) + math.lgamma(d) - math.lgamma(d + k))


@dataclass(frozen=True)
class BoundValue:
    """A probability bound kept in both linear and log domain.

    ``raw`` may exceed 1 (vacuous) or underflow to 0; ``effective`` is
    min(raw, 1) and ``log_raw`` stays finite even when raw underflows.
    :meth:`from_log` raises :class:`OverflowError` when it cannot.
    """

    raw: float
    effective: float
    log_raw: float

    @classmethod
    def from_log(cls, log_raw: float) -> "BoundValue":
        if not math.isfinite(log_raw):
            raise OverflowError(f"log bound is not finite: {log_raw}")
        raw = math.exp(log_raw)
        return cls(raw=raw, effective=min(raw, 1.0), log_raw=log_raw)


def levy_generic(sphere_dim_k: int, eps: float, eta: float) -> BoundValue:
    """Sphere concentration bound 2 exp(-(k+1) eps^2 / (9 pi^3 eta^2 ln 2))
    for a functional of Lipschitz constant ``eta`` on the sphere of dimension
    k (2d - 1 for d-dimensional pure states)."""
    if sphere_dim_k < 1:
        raise InvalidDimensionError(f"sphere dimension must be >= 1, got {sphere_dim_k}")
    if not (math.isfinite(eps) and eps > 0.0):
        raise InvalidEpsilonError(f"epsilon must be finite and positive, got {eps}")
    if not (math.isfinite(eta) and eta > 0.0):
        raise InvalidArgumentError(f"Lipschitz constant must be finite and positive, got {eta}")
    exponent = -(sphere_dim_k + 1) * eps * eps / (9.0 * _PI3 * eta * eta * _LN2)
    return BoundValue.from_log(_LN2 + exponent)


def lipschitz_cr(d: int) -> float:
    """Lipschitz constant bound sqrt(8) ln d for C_r on pure states, d >= 3."""
    if d < 3:
        raise UnsupportedDimensionError(f"the C_r Lipschitz bound needs d >= 3, got {d}")
    return math.sqrt(8.0) * math.log(d)


def lipschitz_eta2(d: int) -> float:
    """Lipschitz constant 2 of classical purity and diagonal trace distance, any d."""
    return 2.0


def levy_bound_cr(d: int, eps: float) -> BoundValue:
    """Concentration bound for C_r: 2 exp(-d eps^2 / (36 pi^3 ln 2 (ln d)^2)).

    This is the generic sphere bound with k+1 = 2d and eta = sqrt(8) ln d;
    the constants fold together exactly.  Needs d >= 3.
    """
    if d < 3:
        raise UnsupportedDimensionError(f"the C_r concentration bound needs d >= 3, got {d}")
    if not (math.isfinite(eps) and eps > 0.0):
        raise InvalidEpsilonError(f"epsilon must be finite and positive, got {eps}")
    log_d = math.log(d)
    exponent = -d * eps * eps / (36.0 * _PI3 * _LN2 * log_d * log_d)
    return BoundValue.from_log(_LN2 + exponent)


def _levy_eta2(d: int, eps: float) -> BoundValue:
    # shared form for Lipschitz-constant-2 functionals (purity, trace distance)
    if d < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {d}")
    if not (math.isfinite(eps) and eps > 0.0):
        raise InvalidEpsilonError(f"epsilon must be finite and positive, got {eps}")
    exponent = -d * eps * eps / (18.0 * _PI3 * _LN2)
    return BoundValue.from_log(_LN2 + exponent)


def levy_bound_purity(d: int, eps: float) -> BoundValue:
    """Concentration bound for classical purity: 2 exp(-d eps^2 / (18 pi^3 ln 2))."""
    return _levy_eta2(d, eps)


def levy_bound_trdist(d: int, eps: float) -> BoundValue:
    """Concentration bound for the diagonal trace distance; same form as purity."""
    return _levy_eta2(d, eps)


class SubspaceDimension(NamedTuple):
    """Guaranteed coherent-subspace dimension plus a small-d caveat flag."""

    s: int
    small_d_warning: bool


def _check_subspace_args(d: int, eps: float) -> float:
    if d < 3:
        raise UnsupportedDimensionError(f"coherent-subspace formula needs d >= 3, got {d}")
    log_d = math.log(d)
    if not 0.0 < eps < log_d:
        raise InvalidEpsilonError(f"need 0 < eps < ln d = {log_d:.6g}, got {eps}")
    return log_d


def subspace_dimension(d: int, eps: float) -> SubspaceDimension:
    """Dimension floor(d (eps/ln d)^2.5 / 16461) of the guaranteed coherent subspace.

    Returns 0 when the formula gives less than 1 (the guarantee is then
    vacuous); the warning flag is set for
    d < :data:`MIN_DIM_FOR_NONTRIVIAL_SUBSPACE` (32923), below which no
    eps < ln d reaches s >= 2.
    """
    log_d = _check_subspace_args(d, eps)
    s = math.floor(d * (eps / log_d) ** 2.5 / SUBSPACE_K_DENOM)
    return SubspaceDimension(int(s), d < MIN_DIM_FOR_NONTRIVIAL_SUBSPACE)


def subspace_threshold(d: int, eps: float) -> float:
    """Coherence floor H_d - 1 - eps guaranteed on the random subspace."""
    _check_subspace_args(d, eps)
    return expected_cr(d) - eps


def typical_l1_upper(d: int) -> float:
    """Dimension-only l1 bound sqrt(d (d-1)^2 / (d+1)) at the typical purity."""
    if d < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {d}")
    return math.sqrt(d * (d - 1) ** 2 / (d + 1.0))


def fannes_asymptote() -> float:
    """Large-d limit 1 - 1/e of the scaled coherence floor."""
    return 1.0 - 1.0 / math.e
