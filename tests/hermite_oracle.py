"""Hermite helpers kept in the tests as oracles.

The package computes every Hermite value through the recurrence in
``hermite._hermite_all``.  These helpers take the monic polynomials from
``numpy.polynomial.hermite_e`` instead, so the checks built on them do not
share code with the library.
"""

import math

import numpy as np
from numpy.polynomial import hermite_e


def hermite_normalized(r: int, t):
    """Orthonormal Hermite polynomial h_r / sqrt(r!) at t."""
    return hermite_e.hermeval(t, [0.0] * r + [1.0]) / math.sqrt(math.factorial(r))


def psi(f, r: int, sigma: float, rule) -> float:
    """Psi_r(sigma) = sigma^{-r} E[f(sigma N) h_r(N)] (monic h_r)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    vals = f(sigma * rule.nodes) * hermite_e.hermeval(rule.nodes, [0.0] * r + [1.0])
    return float(rule.weights @ vals) / sigma**r
