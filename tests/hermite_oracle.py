"""Hermite helpers kept in the tests as oracles.

The package computes every Hermite value through the recurrence in
``hermite._hermite_all``.  These helpers take the monic polynomials from
``numpy.polynomial.hermite_e`` instead, so the checks built on them do not
share code with the library.  The library's quadrature rule is numpy's
``hermegauss``; ``gauss_hermite_mp`` rebuilds it in mpmath, independently.
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


def gauss_hermite_mp(start, dps: int = 50):
    """Gauss-Hermite nodes and weights for the standard normal, at dps digits.

    The nodes are the roots of He_m (m = len(start)), found by Newton from
    the sorted guesses in ``start``; they must come out distinct, so they
    are all m roots.  The weights follow from the Christoffel formula
    w_i = (m - 1)! / (m He_{m-1}(x_i)^2), which sums to 1.  Returns both as
    lists of mpmath floats.
    """
    import mpmath

    m = len(start)
    with mpmath.workdps(dps):

        def he(x):
            # He_{m-1}(x), He_m(x) by the monic recurrence
            prev, cur = mpmath.mpf(1), x
            for r in range(1, m):
                prev, cur = cur, x * cur - r * prev
            return prev, cur

        nodes = []
        for x0 in start:
            x = mpmath.mpf(float(x0))
            for _ in range(100):
                below, top = he(x)
                step = top / (m * below)  # He_m' = m He_{m-1}
                x -= step
                if abs(step) <= mpmath.mpf(10) ** (-dps + 5) * max(1, abs(x)):
                    break
            else:
                raise ArithmeticError(f"Newton did not settle at node {x0!r}")
            nodes.append(x)
        for left, right in zip(nodes, nodes[1:]):
            if not right - left > mpmath.mpf(10) ** -10:
                raise ArithmeticError("two guesses led to the same root")
        scale = mpmath.factorial(m - 1) / m
        weights = [scale / he(x)[0] ** 2 for x in nodes]
    return nodes, weights
