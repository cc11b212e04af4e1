"""The paper's closed forms and approximations, kept in the tests as oracles.

No program calls these; the tests check the package against them.

* ``sigma_approx`` and ``sigma_lin``: the weak-correlation truncations of
  Sigma = E[f(u) f(u)^T], u ~ N(0, S).  Writing Delta = S - I,

      Sigma_approx = |f|^2 I + (zeta_2^2 / 2) d d^T
                     + sum_{r=1}^{3} zeta_r^2 Delta^{or},   d = diag(Delta),
      Sigma_lin    = |f|^2 I + zeta_1^2 Delta,

  accurate to the size of the off-diagonal deviation; both require f to
  have zero Gaussian mean.
* ``sigma_mc_oracle``: a seeded Monte Carlo estimate of Sigma, independent
  of the Hermite expansion in ``ckequiv.gauss_cov``.
* ``mp_density_closed``: the Marchenko-Pastur density on its bulk.

Every check raises rather than asserts, so it also runs under python -O.
"""

import math

import numpy as np

from ckequiv import _pool
from ckequiv.gauss_cov import _EIG_FLOOR, CovModel
from ckequiv.hermite import coeff_vector, gaussian_norm_sq


def max_norm(m) -> float:
    """Largest entry in absolute value."""
    return float(np.max(np.abs(m)))


def _centered_coeffs(model: CovModel):
    zeta = coeff_vector(model.f, 3)
    if abs(zeta[0]) >= 1e-8:
        raise ValueError(
            f"activation {model.f.name!r} is not Gaussian-centered "
            f"(zeta_0 = {zeta[0]:.3e}); recenter with f.shifted({float(zeta[0])!r})"
        )
    return zeta


def sigma_approx(model: CovModel, *, norm2=None):
    """Third-order weak-correlation approximation of Sigma.

    ``norm2`` overrides the quadrature value of |f|^2 on the diagonal;
    passing the Parseval sum of the coefficients kept by a truncated
    sigma_expansion makes the two directly comparable.
    """
    zeta = _centered_coeffs(model)
    if norm2 is None:
        norm2 = gaussian_norm_sq(model.f)
    delta = model.s - np.eye(model.s.shape[0])
    d = np.diag(delta)
    out = norm2 * np.eye(model.s.shape[0]) + 0.5 * zeta[2] ** 2 * np.outer(d, d)
    power = delta.copy()
    for r in (1, 2, 3):
        out += zeta[r] ** 2 * power
        power = power * delta
    return 0.5 * (out + out.T)


def sigma_lin(model: CovModel, *, norm2=None):
    """First-order approximation |f|^2 I + zeta_1^2 Delta."""
    zeta = _centered_coeffs(model)
    if norm2 is None:
        norm2 = gaussian_norm_sq(model.f)
    eye = np.eye(model.s.shape[0])
    return norm2 * eye + zeta[1] ** 2 * (model.s - eye)


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
    n = model.s.shape[0]
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


def mp_density_closed(gamma: float, x):
    """Lebesgue density of MP(gamma) on its bulk.

    sqrt((hi - x)(x - lo)) / (2 pi gamma x) between the edges
    lo, hi = (1 -+ sqrt(gamma))^2 and zero outside; the point mass at the
    origin for gamma > 1 is not included.
    """
    gamma = float(gamma)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    x = np.asarray(x, dtype=float)
    scalar = x.shape == ()
    x = np.atleast_1d(x)
    lo = (1.0 - math.sqrt(gamma)) ** 2
    hi = (1.0 + math.sqrt(gamma)) ** 2
    out = np.zeros(x.shape)
    inside = (x > lo) & (x < hi)
    xi = x[inside]
    out[inside] = np.sqrt((hi - xi) * (xi - lo)) / (2.0 * math.pi * gamma * xi)
    return float(out[0]) if scalar else out
