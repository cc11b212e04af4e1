"""Covariance of entrywise nonlinearities of Gaussian vectors.

For a centered Gaussian vector u in R^n with covariance S and an
activation f applied entrywise, the matrix Sigma = E[f(u) f(u)^T]
expands in the Hermite basis as

    Sigma = sum_{r >= 0} D_r S^{or} D_r,
    (D_r)_ii = S_ii^{-r/2} zeta_r(f_i),   f_i(t) = f(sqrt(S_ii) t),

where S^{or} is the entrywise (Hadamard) r-th power.
"""

import math
from dataclasses import dataclass

import numpy as np

from .hermite import Activation, _hermite_all, default_rule

_EIG_FLOOR = -1e-10


@dataclass(frozen=True)
class CovModel:
    """Covariance S of the Gaussian input together with the activation.

    S must be symmetric and positive semi-definite up to roundoff.
    """

    s: np.ndarray
    f: Activation

    def __post_init__(self):
        s = np.array(self.s, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("S must be a square matrix")
        if np.max(np.abs(s - s.T)) > 1e-12:
            raise ValueError("S must be symmetric within 1e-12")
        s = 0.5 * (s + s.T)
        low = float(np.min(np.linalg.eigvalsh(s)))
        if low < _EIG_FLOOR:
            raise ValueError(f"S must be positive semi-definite; min eigenvalue {low:.3e}")
        object.__setattr__(self, "s", s)


def _scaled_coeff_table(model: CovModel, r_max: int):
    """zeta_r(f_i) for every index i and r = 0..r_max, one pass of the default rule."""
    rule = default_rule()
    sig = np.sqrt(np.diag(model.s))
    vals = model.f(sig[:, None] * rule.nodes[None, :])
    mono = _hermite_all(r_max, rule.nodes)
    norms = np.array([math.sqrt(math.factorial(r)) for r in range(r_max + 1)])
    zeta = (vals * rule.weights[None, :]) @ mono.T / norms[None, :]
    return sig, zeta


def sigma_expansion(model: CovModel, r_max: int = 20):
    """Hermite-series covariance, truncated after degree r_max.

    Requires a strictly positive diagonal of S (the per-coordinate scale
    sqrt(S_ii) enters the rescaled coefficients).
    """
    if not isinstance(r_max, (int, np.integer)) or r_max < 0:
        raise ValueError("r_max must be an integer >= 0")
    if np.any(np.diag(model.s) <= 0):
        raise ValueError("sigma_expansion needs S_ii > 0 for every i")
    sig, zeta = _scaled_coeff_table(model, r_max)
    out = np.zeros_like(model.s)
    power = np.ones_like(model.s)
    for r in range(r_max + 1):
        d = zeta[:, r] / sig**r
        out += np.outer(d, d) * power
        power = power * model.s
    return 0.5 * (out + out.T)
