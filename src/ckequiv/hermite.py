"""Hermite polynomials, Gaussian quadrature and activation coefficients.

Conventions
-----------
All Gaussian integrals are taken against the standard normal weight,
``E[g(N)]`` with ``N ~ N(0, 1)``.  The polynomials ``h_r`` are the monic
(probabilists') Hermite polynomials,

    h_0(t) = 1,   h_1(t) = t,   h_{r+1}(t) = t h_r(t) - r h_{r-1}(t),

and ``hh_r = h_r / sqrt(r!)`` are orthonormal for the Gaussian inner
product.  A quadrature rule here is normalized so that ``sum(weights) = 1``
and ``sum(weights * g(nodes))`` approximates ``E[g(N)]``.

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


@dataclass(frozen=True)
class QuadratureRule:
    """Gaussian quadrature against the standard normal weight.

    ``sum(weights) == 1`` and ``nodes`` are symmetric about zero, so odd
    moments vanish identically.  Exact for polynomials of degree
    ``< 2 * len(nodes)``.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        n, w = self.nodes, self.weights
        if n.shape != w.shape or n.ndim != 1:
            raise ValueError("nodes and weights must be aligned 1-d arrays")
        # each check is written to fail on NaN
        if not np.all(w > 0):
            raise ValueError("quadrature weights must be positive")
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise ValueError("quadrature weights must sum to 1")
        if not (abs(float(w @ n)) <= 1e-10 and abs(float(w @ n**2) - 1.0) <= 1e-10):
            raise ValueError("quadrature rule fails Gaussian moment checks")


def make_rule(m: int) -> QuadratureRule:
    """Gauss-Hermite rule with m nodes for the standard normal weight.

    The rule is numpy's ``hermegauss``: the roots of He_m, refined by one
    Newton step, with weights from the recurrence that are accurate
    relative to themselves, down to the outermost nodes.  Nodes and
    weights are symmetric in pairs, so odd moments cancel exactly.  From
    m = 371 on its weights overflow.
    """
    m = int(m)
    # one node at 0 cannot give E[N^2] = 1
    if m < 2 or m > 370:
        raise ValueError(f"node count {m} outside [2, 370]")
    nodes, weights = hermite_e.hermegauss(m)
    return QuadratureRule(nodes, weights / weights.sum())


DEFAULT_NODES = 128

# built once at import and shared by every caller, so its arrays are read-only
_DEFAULT_RULE = make_rule(DEFAULT_NODES)
_DEFAULT_RULE.nodes.flags.writeable = False
_DEFAULT_RULE.weights.flags.writeable = False


def default_rule() -> QuadratureRule:
    return _DEFAULT_RULE


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
    """zeta_0(f) .. zeta_{r_max}(f) in one pass over the default rule's nodes."""
    r_max = _check_degree(r_max)
    rule = default_rule()
    hmat = _hermite_all(r_max, rule.nodes)
    norms = np.array([math.sqrt(math.factorial(r)) for r in range(r_max + 1)])
    return (hmat @ (rule.weights * f(rule.nodes))) / norms


def gaussian_norm_sq(f: Activation) -> float:
    """||f||^2 = E[f(N)^2] on the default rule."""
    rule = default_rule()
    vals = f(rule.nodes)
    return float(rule.weights @ vals**2)

