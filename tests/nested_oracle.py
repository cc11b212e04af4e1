"""The nested fixed-point route, kept in the tests as an oracle.

Before the stacked Newton solve, MP(gamma) (x) base was evaluated by
damped Picard on the base alone, and a base that pushes forward another
such law solved that law afresh at every evaluation, so the cost
multiplied with depth.  These two classes and ``compose``, one layer's
equivalent resolvent, rebuild that route from ``solve_l_grid`` alone,
independent of ``MpBoxtimes`` and of ``detequiv._compose``.
"""

import numpy as np

from ckequiv.freeconv import solve_l_grid


class PicardLaw:
    """MP(gamma) (x) base, one Picard solve per evaluation."""

    is_probability = True

    def __init__(self, gamma, base):
        self.gamma = gamma
        self.base = base

    def companion_l(self, z):
        l, _, _ = solve_l_grid(self.base, self.gamma, np.asarray(z, dtype=complex))
        return l

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
    l = complex(solve_l_grid(Pushed(a, b, tau), gamma, np.asarray(z, dtype=complex))[0])
    return (l / (z * b)) * np.asarray(H((l - a) / b))
