"""Hermite polynomials, Gaussian quadrature and activation coefficients.

Conventions
-----------
All Gaussian integrals are taken against the standard normal weight,
``E[g(N)]`` with ``N ~ N(0, 1)``.  The polynomials ``h_r`` are the monic
(probabilists') Hermite polynomials,

    h_0(t) = 1,   h_1(t) = t,   h_{r+1}(t) = t h_r(t) - r h_{r-1}(t),

and ``hh_r = h_r / sqrt(r!)`` are orthonormal for the Gaussian inner
product.  The one quadrature rule, ``NODES`` and ``WEIGHTS``, is normalized
so that ``sum(WEIGHTS) = 1`` and ``sum(WEIGHTS * g(NODES))`` approximates
``E[g(N)]``.

The coefficient of an activation ``f`` in the orthonormal basis is

    zeta_r(f) = E[f(N) hh_r(N)],

so ``E[f(N)^2] = sum_r zeta_r(f)^2`` (Parseval).  For dilations
``f_sigma(t) = f(sigma t)``,

    Psi_r(sigma) = sigma^{-r} E[f(sigma N) h_r(N)]

satisfies ``Psi_r'(sigma) = sigma Psi_{r+2}(sigma)`` and links the
coefficients of ``f`` and ``f_sigma`` through
``zeta_r(f_sigma) = sigma^r Psi_r(sigma) / sqrt(r!)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial import hermite_e

MAX_DEGREE = 64


class DegreeOverflowError(ValueError):
    """Requested Hermite degree exceeds the supported range."""


def _check_degree(r: int) -> int:
    r = int(r)
    if r < 0 or r > MAX_DEGREE:
        raise DegreeOverflowError(f"degree {r} outside [0, {MAX_DEGREE}]")
    return r


def _hermite_all(r_max: int, t: np.ndarray) -> np.ndarray:
    """Values of the monic h_0 .. h_{r_max} at t, stacked as rows."""
    t = np.asarray(t, dtype=float)
    out = np.empty((r_max + 1,) + t.shape)
    out[0] = 1.0
    if r_max >= 1:
        out[1] = t
    for r in range(1, r_max):
        out[r + 1] = t * out[r] - r * out[r - 1]
    return out


def _check_rule(nodes: np.ndarray, weights: np.ndarray) -> None:
    """Raise ValueError unless the rule's weights and first two moments are right."""
    # each check is written to fail on NaN
    if not np.all(weights > 0):
        raise ValueError("quadrature weights must be positive")
    if not abs(weights.sum() - 1.0) <= 1e-12:
        raise ValueError("quadrature weights must sum to 1")
    if not (abs(float(weights @ nodes)) <= 1e-10 and abs(float(weights @ nodes**2) - 1.0) <= 1e-10):
        raise ValueError("quadrature rule fails Gaussian moment checks")


# The one Gauss-Hermite rule, numpy's ``hermegauss`` with 128 nodes: the
# roots of He_128, refined by one Newton step, and weights from the
# recurrence, accurate relative to themselves down to the outermost nodes.
# Normalized to sum 1, it is exact for polynomials of degree < 256; nodes
# and weights are symmetric in pairs, so odd moments cancel exactly.  Every
# caller shares the arrays, so they are read-only.
NODES, WEIGHTS = hermite_e.hermegauss(128)
WEIGHTS = WEIGHTS / WEIGHTS.sum()
_check_rule(NODES, WEIGHTS)
NODES.flags.writeable = False
WEIGHTS.flags.writeable = False


# ---------------------------------------------------------------------------
# Activations


@dataclass(frozen=True)
class Activation:
    """Scalar function applied entrywise.

    ``fn`` must accept and return float arrays and be defined for every
    real argument.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.asarray(self.fn(t), dtype=float)
        if out.shape != t.shape:
            raise ValueError(f"activation {self.name!r} changed input shape")
        return out

    def scaled(self, scale: float) -> "Activation":
        """The dilation t -> f(scale * t)."""
        scale = float(scale)
        if scale == 0.0:
            raise ValueError("scale must be nonzero")
        base = self.fn
        return Activation(
            name=f"{self.name}@x{scale:g}",
            fn=lambda t, _s=scale, _f=base: _f(_s * t),
        )

    def shifted(self, offset: float) -> "Activation":
        """The recentering t -> f(t) - offset."""
        offset = float(offset)
        base = self.fn
        return Activation(
            name=f"{self.name}-{offset:g}",
            fn=lambda t, _c=offset, _f=base: _f(t) - _c,
        )


def identity_activation() -> Activation:
    return Activation("identity", lambda t: t)


def tanh_activation() -> Activation:
    return Activation("tanh", np.tanh)


def centered_relu() -> Activation:
    """max(t, 0) recentered to zero Gaussian mean (subtract 1/sqrt(2 pi))."""
    c = 1.0 / math.sqrt(2.0 * math.pi)
    return Activation("centered-relu", lambda t: np.maximum(t, 0.0) - c)


def hermite2_activation() -> Activation:
    """(t^2 - 1)/sqrt(2), the normalized second Hermite polynomial.

    A purely nonlinear activation: its first coefficient vanishes at unit
    input scale, which kills the linear covariance term entirely.
    """
    return Activation("hermite2", lambda t: (t * t - 1.0) / math.sqrt(2.0))


ACTIVATIONS = {
    "identity": identity_activation,
    "tanh": tanh_activation,
    "centered-relu": centered_relu,
    "hermite2": hermite2_activation,
}


def activation_by_name(name: str) -> Activation:
    try:
        return ACTIVATIONS[name]()
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; choose from {sorted(ACTIVATIONS)}"
        ) from None


# ---------------------------------------------------------------------------
# Coefficients


def coeff_vector(f: Activation, r_max: int) -> np.ndarray:
    """zeta_0(f) .. zeta_{r_max}(f) in one pass over the rule's nodes."""
    r_max = _check_degree(r_max)
    hmat = _hermite_all(r_max, NODES)
    norms = np.array([math.sqrt(math.factorial(r)) for r in range(r_max + 1)])
    return (hmat @ (WEIGHTS * f(NODES))) / norms


def _pow2_floor(x) -> float:
    """The largest power of two <= |x| (1/2 for 0): scaling by it is exact."""
    return float(np.ldexp(1.0, np.frexp(x)[1] - 1))


def gaussian_norm_sq(f: Activation) -> float:
    """||f||^2 = E[f(N)^2] on the rule."""
    v = f(NODES)
    # squares of v / s cannot overflow, and the exact scaling keeps every bit
    # of a sum that did not overflow unscaled
    s = _pow2_floor(np.max(np.abs(v)))
    return s * (s * float(WEIGHTS @ (v / s) ** 2))

