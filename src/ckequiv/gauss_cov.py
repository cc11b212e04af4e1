"""Covariance of entrywise nonlinearities of Gaussian vectors.

For a centered Gaussian vector u in R^n with covariance S and an
activation f applied entrywise, the matrix Sigma = E[f(u) f(u)^T]
expands in the Hermite basis as

    Sigma = sum_{r >= 0} D_r S^{or} D_r,
    (D_r)_ii = S_ii^{-r/2} zeta_r(f_i),   f_i(t) = f(sqrt(S_ii) t),

where S^{or} is the entrywise (Hadamard) r-th power.  When S is close
to the identity, writing Delta = S - I, the truncations

    Sigma_approx = |f|^2 I + (zeta_2^2 / 2) d d^T
                   + sum_{r=1}^{3} zeta_r^2 Delta^{or},   d = diag(Delta),
    Sigma_lin    = |f|^2 I + zeta_1^2 Delta,

are accurate to the size of the off-diagonal deviation; both require f
to have zero Gaussian mean.  A seeded Monte Carlo oracle provides an
independent estimate of Sigma for cross-checks.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _pool
from .hermite import Activation, QuadratureRule, _hermite_all, coeff_vector, default_rule, gaussian_norm_sq

_EIG_FLOOR = -1e-10


def max_norm(m) -> float:
    """Largest entry in absolute value."""
    return float(np.max(np.abs(m)))


@dataclass(frozen=True)
class CovModel:
    """Covariance S of the Gaussian input together with the activation.

    ``delta`` (S - I) and its diagonal are derived once at construction;
    S must be symmetric and positive semi-definite up to roundoff.
    """

    s: np.ndarray
    f: Activation
    delta: np.ndarray = field(init=False, repr=False)
    diag_delta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        s = np.array(self.s, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("S must be a square matrix")
        if max_norm(s - s.T) > 1e-12:
            raise ValueError("S must be symmetric within 1e-12")
        s = 0.5 * (s + s.T)
        low = float(np.min(np.linalg.eigvalsh(s)))
        if low < _EIG_FLOOR:
            raise ValueError(f"S must be positive semi-definite; min eigenvalue {low:.3e}")
        object.__setattr__(self, "s", s)
        delta = s - np.eye(s.shape[0])
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "diag_delta", np.diag(delta).copy())

    @property
    def dim(self) -> int:
        return self.s.shape[0]


def _scaled_coeff_table(model: CovModel, r_max: int, rule: QuadratureRule):
    """zeta_r(f_i) for every index i and r = 0..r_max, one quadrature pass."""
    sig = np.sqrt(np.diag(model.s))
    vals = model.f(sig[:, None] * rule.nodes[None, :])
    mono = _hermite_all(r_max, rule.nodes)
    norms = np.array([math.sqrt(math.factorial(r)) for r in range(r_max + 1)])
    zeta = (vals * rule.weights[None, :]) @ mono.T / norms[None, :]
    return sig, zeta


def sigma_expansion(model: CovModel, r_max: int = 20, rule: QuadratureRule | None = None):
    """Hermite-series covariance, truncated after degree r_max.

    Requires a strictly positive diagonal of S (the per-coordinate scale
    sqrt(S_ii) enters the rescaled coefficients).
    """
    if not isinstance(r_max, (int, np.integer)) or r_max < 0:
        raise ValueError("r_max must be an integer >= 0")
    if np.any(np.diag(model.s) <= 0):
        raise ValueError("sigma_expansion needs S_ii > 0 for every i")
    rule = default_rule() if rule is None else rule
    sig, zeta = _scaled_coeff_table(model, r_max, rule)
    out = np.zeros_like(model.s)
    power = np.ones_like(model.s)
    for r in range(r_max + 1):
        d = zeta[:, r] / sig**r
        out += np.outer(d, d) * power
        power = power * model.s
    return 0.5 * (out + out.T)


def _centered_coeffs(model: CovModel, rule: QuadratureRule):
    zeta = coeff_vector(model.f, 3, rule)
    if abs(zeta[0]) >= 1e-8:
        raise ValueError(
            f"activation {model.f.name!r} is not Gaussian-centered "
            f"(zeta_0 = {zeta[0]:.3e}); recenter with f.shifted({zeta[0]!r})"
        )
    return zeta


def sigma_approx(model: CovModel, rule: QuadratureRule | None = None, *, norm2=None):
    """Third-order weak-correlation approximation of Sigma.

    ``norm2`` overrides the quadrature value of |f|^2 on the diagonal;
    passing the Parseval sum of the coefficients kept by a truncated
    sigma_expansion makes the two directly comparable.
    """
    rule = default_rule() if rule is None else rule
    zeta = _centered_coeffs(model, rule)
    if norm2 is None:
        norm2 = gaussian_norm_sq(model.f, rule)
    d = model.diag_delta
    out = norm2 * np.eye(model.dim) + 0.5 * zeta[2] ** 2 * np.outer(d, d)
    power = model.delta.copy()
    for r in (1, 2, 3):
        out += zeta[r] ** 2 * power
        power = power * model.delta
    return 0.5 * (out + out.T)


def sigma_lin(model: CovModel, rule: QuadratureRule | None = None, *, norm2=None):
    """First-order approximation |f|^2 I + zeta_1^2 Delta."""
    rule = default_rule() if rule is None else rule
    zeta = _centered_coeffs(model, rule)
    if norm2 is None:
        norm2 = gaussian_norm_sq(model.f, rule)
    return norm2 * np.eye(model.dim) + zeta[1] ** 2 * model.delta


def psd_sqrt(s) -> np.ndarray:
    """Symmetric PSD square root, clipping eigenvalues in [-1e-10, 0) to 0."""
    s = np.asarray(s, dtype=float)
    lam, v = np.linalg.eigh(0.5 * (s + s.T))
    if lam[0] < _EIG_FLOOR:
        raise ValueError(f"matrix is not PSD; min eigenvalue {lam[0]:.3e}")
    lam = np.maximum(lam, 0.0)
    return (v * np.sqrt(lam)) @ v.T


_BLOCK = 1 << 16


def sigma_mc_oracle(model: CovModel, samples: int, seed: int, *, return_se: bool = False):
    """Empirical E[f(u) f(u)^T] over ``samples`` draws u = S^{1/2} g.

    Sampling is split into blocks with independent substreams keyed by
    (seed, block index), so the result is reproducible and the blocks
    can run concurrently.  With ``return_se`` the entrywise standard
    error estimated from the block means is returned alongside.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    root = psd_sqrt(model.s)
    n = model.dim
    sizes = [_BLOCK] * (samples // _BLOCK)
    if samples % _BLOCK:
        sizes.append(samples % _BLOCK)

    def one_block(args):
        index, size = args
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        u = root @ rng.standard_normal((n, size))
        fu = model.f(u)
        return fu @ fu.T / size

    means = _pool.pmap(one_block, enumerate(sizes))
    weights = np.asarray(sizes, dtype=float) / samples
    total = np.zeros_like(model.s)
    for w, m in zip(weights, means):
        total += w * m
    if not return_se:
        return total
    if len(means) < 2:
        return total, np.full_like(total, np.inf)
    stacked = np.stack(means)
    se = np.std(stacked, axis=0, ddof=1) / math.sqrt(len(means))
    return total, se
