"""The nested fixed-point route, kept in the tests as an oracle.

The library solves MP(gamma) (x) base by Newton on the stacked chain of
nested levels.  This module keeps the route it replaced: damped Picard on
the base alone, ``solve_l_grid``, where a base that pushes forward another
such law solves that law afresh at every evaluation, so the cost
multiplies with depth.  Of the library's solver it shares only the
wedge projection ``project_domain``.

``solve_l_grid`` runs damped Picard from l = z (in D(z), and exact when
mu = delta_0), projecting every iterate back onto the wedge D(z) and
halving the damping when the residual grows.  F(l) = z + gamma l +
gamma l^2 g_mu(l) is a strict contraction on D(z) for the semi-metric
d(w1, w2) = |w1 - w2| / sqrt(Im w1 Im w2) with constant

    k(z) = (|z| / Im(z)^2) / (1 + |z| / Im(z)^2) < 1,

so the iteration converges for every z in C+.  On the support of the
law the derivative of F at the fixed point has modulus 1 - O(Im z),
which would force of order 1 / Im z plain Picard steps near the axis;
each Picard step is therefore followed by a secant extrapolation through
the last two residuals, kept only where it lands in D(z) and strictly
reduces the residual.  The safeguarded iteration matches plain damped
Picard on easy points and cuts the near-axis cost by two to three orders
of magnitude.  Every step is pointwise in z, so a grid solve freezes each
point once it meets the tolerance and keeps iterating only the rest.

``PicardLaw``, ``Pushed`` and ``compose``, one layer's equivalent
resolvent, rebuild the nested route from ``solve_l_grid`` alone,
independent of ``MpBoxtimes`` and of ``detequiv._compose``.
``solve_l_grid`` flags instead of raising, so every solve here asserts
that each point converged.  ``gbox_from_sigma`` is the direct route for
an explicit covariance, which the composed routes are checked against.
"""

from __future__ import annotations

import numpy as np

from ckequiv.detequiv import _sigma_builders
from ckequiv.freeconv import DEFAULT_CONFIG, FixedPointConfig, project_domain


def _support_floor(mu) -> float | None:
    fn = getattr(mu, "support_min", None)
    return None if fn is None else float(fn())


def _converged(l, res, tol: float) -> np.ndarray:
    """Stop test of the companion fixed point: |residual| <= tol |l|.

    The test is relative also where |l| < 1.  There g = (-1 / l - (gamma - 1) / z)
    / gamma amplifies an error in l by 1 / |l|^2, so an absolute test on l
    would leave g short of tol.  l lies in D(z), so |l| >= Im z > 0.
    """
    return res <= tol * np.abs(l)


def solve_l_grid(
    mu,
    gamma: float,
    z,
    cfg: FixedPointConfig = DEFAULT_CONFIG,
):
    """Vectorized damped Picard solve of l = z + gamma l + gamma l^2 g_mu(l).

    ``mu`` is any object with a vectorized ``stieltjes(w)`` method (and
    optionally ``support_min()``, checked to be >= -1e-12).  Returns
    ``(l, iterations, residual)`` where l and residual are shaped like z and
    iterations is the number of sweeps, i.e. the step count of the slowest
    point.  A point leaves the sweep as soon as its residual meets
    ``cfg.tol`` and keeps that iterate, so only unconverged points cost
    further evaluations of ``mu.stieltjes``.  Every solve starts at l = z.
    It never raises on divergence: callers test each point with
    ``_converged(l, residual, cfg.tol)``.
    """
    gamma = float(gamma)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0):
        raise ValueError("z must lie in the open upper half-plane")
    floor = _support_floor(mu)
    if floor is not None and floor < -1e-12:
        raise ValueError("measure must be supported on the nonnegative reals")

    def step(w, zz):
        return zz + gamma * w + gamma * w * w * mu.stieltjes(w)

    def semi_res(w, r):
        # residual in the contraction semi-metric |a - b| / sqrt(Im a Im b);
        # an iterate pushed to the boundary counts as maximally bad
        den = w.imag * (w + r).imag
        return np.where(den > 0.0, np.abs(r) / np.sqrt(np.maximum(den, 1e-300)), np.inf)

    zf = z.ravel()
    l = zf.copy()
    r = step(l, zf) - l
    sres = semi_res(l, r)
    # per-point damping factor: starts at 1 and stays in [1/64, 1]
    alpha = np.ones(zf.shape)
    # indices still iterating; a point is frozen once it meets tol
    act = np.flatnonzero(~_converged(l, np.abs(r), cfg.tol))
    iterations = 0
    while act.size and iterations < cfg.max_iter:
        za, la, ra, sa, aa = zf[act], l[act], r[act], sres[act], alpha[act]
        l_pic = project_domain(la + aa * ra, za)
        r_pic = step(l_pic, za) - l_pic
        sres_pic = semi_res(l_pic, r_pic)
        # secant extrapolation through the two residuals, where well posed
        dr = r_pic - ra
        ok = np.abs(dr) > 1e-14 * (np.abs(ra) + np.abs(r_pic))
        with np.errstate(divide="ignore", invalid="ignore"):
            l_sec = l_pic - r_pic * (l_pic - la) / dr
        l_sec = project_domain(np.where(ok, l_sec, l_pic), za)
        r_sec = step(l_sec, za) - l_sec
        sres_sec = semi_res(l_sec, r_sec)
        use = ok & (sres_sec < sres_pic)
        # halve the damping where the plain step regressed, recover otherwise
        alpha[act] = np.where(
            sres_pic > sa,
            np.maximum(aa / 2.0, 1.0 / 64.0),
            np.minimum(aa * 1.25, 1.0),
        )
        l[act] = np.where(use, l_sec, l_pic)
        r[act] = np.where(use, r_sec, r_pic)
        sres[act] = np.where(use, sres_sec, sres_pic)
        iterations += 1
        act = act[~_converged(l[act], np.abs(r[act]), cfg.tol)]
    return l.reshape(z.shape), iterations, np.abs(r).reshape(z.shape)


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
