"""The nested fixed-point route, kept in the tests as an oracle.

Before the stacked Newton solve, MP(gamma) (x) base was evaluated by
damped Picard on the base alone, and a base that pushes forward another
such law solved that law afresh at every evaluation, so the cost
multiplied with depth.  These two classes and ``compose``, one layer's
equivalent resolvent, rebuild that route from ``solve_l_grid`` alone,
independent of ``MpBoxtimes`` and of ``detequiv._compose``.
``solve_l_grid`` flags instead of raising, so every solve here asserts
that each point converged.  ``gbox_from_sigma`` is the direct route for
an explicit covariance, which the composed routes are checked against.
"""

import numpy as np

from ckequiv.detequiv import _sigma_builders
from ckequiv.freeconv import DEFAULT_CONFIG, _converged, solve_l_grid


def converged_l(mu, gamma, z):
    """l of ``solve_l_grid`` at the default config, asserting every point converged."""
    l, _, res = solve_l_grid(mu, gamma, z)
    # a raise, not an assert: this module is not rewritten by pytest and the
    # checks also run under python -O
    if not np.all(_converged(l, res, DEFAULT_CONFIG.tol)):
        raise AssertionError("solve_l_grid did not converge")
    return l


class PicardLaw:
    """MP(gamma) (x) base, one Picard solve per evaluation."""

    def __init__(self, gamma, base):
        self.gamma = gamma
        self.base = base

    def companion_l(self, z):
        return converged_l(self.base, self.gamma, np.asarray(z, dtype=complex))

    def stieltjes(self, z):
        z = np.asarray(z, dtype=complex)
        return (-1.0 / self.companion_l(z) - (self.gamma - 1.0) / z) / self.gamma

    def support_min(self):
        return 0.0

    def support_max(self):
        return np.inf


class Pushed:
    """The base t -> a + b t (b > 0) of an inner law."""

    def __init__(self, a, b, inner):
        self.a, self.b, self.inner = a, b, inner

    def stieltjes(self, v):
        return self.inner.stieltjes((v - self.a) / self.b) / self.b


def compose(H, tau, a, b, gamma, z):
    """One layer's equivalent (l / (z b)) H((l - a) / b), l solved on a + b tau."""
    l = complex(converged_l(Pushed(a, b, tau), gamma, np.asarray(z, dtype=complex)))
    return (l / (z * b)) * np.asarray(H((l - a) / b))


def gbox_from_sigma(sigma, gamma, z, cfg=DEFAULT_CONFIG):
    """G(z) = (l/z)(Sigma - l I)^{-1} for explicit Sigma; raises DivergenceError if unconverged."""
    (build,) = _sigma_builders(sigma, gamma, [z], cfg)
    return build()
