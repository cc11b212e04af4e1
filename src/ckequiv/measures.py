"""Spectral measures and their transforms.

A measure is represented structurally: a finite atomic measure
(:class:`DiscreteMeasure`), an affine pushforward t -> a + b t of another
measure (:class:`AffinePush`), or a multiplicative Marchenko-Pastur
convolution MP(gamma) (x) base evaluated through the fixed-point solver, or
in closed form when the base is a single atom (:class:`MpBoxtimes`).  The
convolution serves every transform from one flagged solve,
``MpBoxtimes._solve``, which also hands the companion level of every layer
nested under it to the equivalent-resolvent rule of :mod:`ckequiv.detequiv`.

Every variant exposes a vectorized Stieltjes transform
g(z) = integral of 1 / (t - z), defined off the real axis, which maps the
upper half-plane into itself for genuine probability measures.  Densities
and distribution functions of solver-backed measures are recovered by
Stieltjes inversion at a small imaginary offset eta: the density estimate is
Im g(x + i eta) / pi, and the distribution function integrates it on a grid
of step eta / 3, with any atom at zero split off explicitly and the
continuous part renormalized to the remaining mass (this removes the
O(eta) tail bias of the Poisson kernel).
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .freeconv import (
    DEFAULT_CONFIG,
    DivergenceError,
    FixedPointConfig,
    _converged,
    mp_stieltjes_closed,
    solve_chain_grid,
    solve_l_grid,
)

DEFAULT_ETA = 1e-3
# layer scales (and point-mass locations) below this count as zero
B_ZERO_TOL = 1e-10

_CHUNK = 1 << 18


class SignedMeasureError(ValueError):
    """Operation requires a probability measure but the input is signed."""


def _as_z(z):
    z = np.asarray(z, dtype=complex)
    return z, z.shape == ()


def _herglotz_check(g, z, probability: bool):
    if not probability:
        return
    gi = np.atleast_1d(np.asarray(g).imag)
    zi = np.atleast_1d(np.asarray(z).imag)
    if not np.all(gi[zi > 0] > 0):
        raise ArithmeticError("Stieltjes transform left the upper half-plane")


class Measure:
    """Common interface; concrete variants implement the hooks."""

    is_probability: bool = True

    # -- hooks ------------------------------------------------------------
    def stieltjes(self, z):
        raise NotImplementedError

    def support_min(self) -> float:
        raise NotImplementedError

    def support_max(self) -> float:
        raise NotImplementedError

    def atom_points(self) -> np.ndarray:
        return np.empty(0)

    def atom_mass(self, t):
        t = np.asarray(t, dtype=float)
        return np.zeros(t.shape)

    def cdf(self, t, eta: float = DEFAULT_ETA):
        raise NotImplementedError

    # -- shared -----------------------------------------------------------
    def cdf_left(self, t, eta: float = DEFAULT_ETA):
        """Left limit of the distribution function."""
        return self.cdf(t, eta) - self.atom_mass(t)


class DiscreteMeasure(Measure):
    """Finite atomic probability measure with sorted atoms."""

    def __init__(self, atoms, weights):
        atoms = np.asarray(atoms, dtype=float).ravel()
        weights = np.asarray(weights, dtype=float).ravel()
        if atoms.shape != weights.shape or atoms.size == 0:
            raise ValueError("atoms and weights must be aligned, nonempty 1-d arrays")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        order = np.argsort(atoms, kind="stable")
        self.atoms = atoms[order]
        self.weights = weights[order]
        self._cum = np.cumsum(self.weights)

    def __repr__(self):
        return f"DiscreteMeasure({self.atoms.size} atoms on [{self.atoms[0]:g}, {self.atoms[-1]:g}])"

    def _real_blocks(self, v):
        """Blocks of the flat complex array v in real arithmetic.

        Yields (slice, eta, d*q, q) with d = t - Re v, eta = Im v and
        q = 1/(d^2 + eta^2), atoms along the rows, so that
        1/(t - v) = d*q + i*eta*q.
        """
        block = max(1, _CHUNK // self.atoms.size)
        for i in range(0, v.size, block):
            sl = slice(i, i + block)
            eta = v.imag[sl]
            d = self.atoms[:, None] - v.real[None, sl]
            q = d * d
            q += eta * eta
            np.reciprocal(q, out=q)
            d *= q
            yield sl, eta, d, q

    def stieltjes(self, z):
        z, scalar = _as_z(z)
        flat = z.ravel()
        out = np.empty(flat.shape, dtype=complex)
        w = self.weights
        for sl, eta, dq, q in self._real_blocks(flat):
            out[sl] = w @ dq + 1j * eta * (w @ q)
        out = out.reshape(z.shape)
        _herglotz_check(out, z, True)
        return complex(out) if scalar else out

    def _stieltjes_pair(self, v):
        """g(v) and g'(v) = sum of w / (t - v)^2 on a flat complex array v."""
        g = np.empty(v.shape, dtype=complex)
        dg = np.empty(v.shape, dtype=complex)
        w = self.weights
        for sl, eta, dq, q in self._real_blocks(v):
            g[sl] = w @ dq + 1j * eta * (w @ q)
            q_sq = w @ (q * q)
            q *= dq
            dg[sl] = w @ (dq * dq) - eta * eta * q_sq + 2j * eta * (w @ q)
        return g, dg

    def support_min(self) -> float:
        return float(self.atoms[0])

    def support_max(self) -> float:
        return float(self.atoms[-1])

    def atom_points(self) -> np.ndarray:
        return self.atoms.copy()

    def atom_mass(self, t):
        t = np.asarray(t, dtype=float)
        tol = 1e-12 * np.maximum(1.0, np.abs(t))
        lo = np.searchsorted(self.atoms, t - tol, side="left")
        hi = np.searchsorted(self.atoms, t + tol, side="right")
        cum = np.concatenate([[0.0], self._cum])
        out = cum[hi] - cum[lo]
        return float(out) if t.shape == () else out

    def cdf(self, t, eta: float = DEFAULT_ETA):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.atoms, t, side="right")
        cum = np.concatenate([[0.0], self._cum])
        out = cum[idx]
        return float(out) if t.shape == () else out

    def cdf_left(self, t, eta: float = DEFAULT_ETA):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.atoms, t, side="left")
        cum = np.concatenate([[0.0], self._cum])
        out = cum[idx]
        return float(out) if t.shape == () else out


def dirac(a: float) -> DiscreteMeasure:
    return DiscreteMeasure([float(a)], [1.0])


def esd_from_eigenvalues(eigenvalues) -> DiscreteMeasure:
    """Empirical spectral distribution with near-duplicate atoms merged.

    Eigenvalues closer than 1e-12 * max(1, |lambda|) collapse into a single
    atom at their mean, with summed weight.
    """
    ev = np.sort(np.asarray(eigenvalues, dtype=float).ravel())
    if ev.size == 0:
        raise ValueError("need at least one eigenvalue")
    tol = 1e-12 * np.maximum(1.0, np.abs(ev[1:]))
    breaks = np.nonzero(np.diff(ev) > tol)[0] + 1
    starts = np.concatenate([[0], breaks])
    stops = np.concatenate([breaks, [ev.size]])
    atoms = np.array([ev[a:b].mean() for a, b in zip(starts, stops)])
    weights = (stops - starts) / ev.size
    return DiscreteMeasure(atoms, weights)


class AffinePush(Measure):
    """Pushforward of ``inner`` under t -> a + b t."""

    def __init__(self, a: float, b: float, inner: Measure):
        self.a = float(a)
        self.b = float(b)
        self.inner = inner
        self.is_probability = inner.is_probability

    def __repr__(self):
        return f"AffinePush({self.a:g} + {self.b:g} t, {self.inner!r})"

    def stieltjes(self, z):
        z, scalar = _as_z(z)
        if self.b == 0.0:
            out = 1.0 / (self.a - z)
        elif self.b > 0.0:
            out = self.inner.stieltjes((z - self.a) / self.b) / self.b
        else:
            # (z - a) / b lands in the lower half-plane; use g(conj w) = conj g(w)
            w = (z - self.a) / self.b
            out = np.conj(self.inner.stieltjes(np.conj(w))) / self.b
        _herglotz_check(out, z, self.is_probability)
        return complex(out) if scalar else out

    def support_min(self) -> float:
        if self.b == 0.0:
            return self.a
        lo, hi = self.inner.support_min(), self.inner.support_max()
        return self.a + (self.b * lo if self.b > 0 else self.b * hi)

    def support_max(self) -> float:
        if self.b == 0.0:
            return self.a
        lo, hi = self.inner.support_min(), self.inner.support_max()
        return self.a + (self.b * hi if self.b > 0 else self.b * lo)

    def atom_points(self) -> np.ndarray:
        if self.b == 0.0:
            return np.array([self.a])
        return np.sort(self.a + self.b * self.inner.atom_points())

    def atom_mass(self, t):
        t = np.asarray(t, dtype=float)
        if self.b == 0.0:
            out = np.where(np.abs(t - self.a) <= 1e-12 * np.maximum(1, np.abs(t)), 1.0, 0.0)
        else:
            out = self.inner.atom_mass((t - self.a) / self.b)
        return float(out) if t.shape == () else out

    def cdf(self, t, eta: float = DEFAULT_ETA):
        t = np.asarray(t, dtype=float)
        if self.b == 0.0:
            out = np.where(t >= self.a, 1.0, 0.0)
        elif self.b > 0.0:
            out = self.inner.cdf((t - self.a) / self.b, eta / self.b)
        else:
            raise ValueError("cdf of a negative-scale pushforward is not supported")
        return float(out) if t.shape == () else out


class MpBoxtimes(Measure):
    """MP(gamma) (x) base, with transforms evaluated by the fixed point.

    A single-atom base delta_c gives the dilation c MP(gamma), whose
    transforms come from the closed form (delta_0 when c < B_ZERO_TOL).
    A base that needs no fixed point of its own (atoms, their affine
    pushforwards, closed-form dilations) goes through :func:`solve_l_grid`.
    A base that nests further solver-backed laws, through pushforwards
    t -> a + b t with b > 0, forms a chain of levels; all of them are
    solved at once by :func:`solve_chain_grid`, a stacked Newton solve
    whose cost per point grows linearly with depth.  A point counts as
    solved only when every level meets the tolerance inside its wedge
    D(u_k); that root is unique, so it equals the nested fixed point.
    Points that Newton does not certify fall back to the nested route,
    :func:`solve_l_grid` on the base with inner levels solved (again by
    this rule) for each evaluation, so correctness never rests on Newton.
    Every solve starts cold: the object keeps no warm-start state, so a
    transform depends only on its arguments, whichever thread asks.
    Only the CDF tables are cached, per eta.
    """

    def __init__(self, gamma: float, base: Measure, solver: FixedPointConfig = DEFAULT_CONFIG):
        gamma = float(gamma)
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if base.support_min() < -1e-12:
            raise ValueError("base measure must be supported on the nonnegative reals")
        if not base.is_probability:
            raise SignedMeasureError("MP convolution needs a probability base measure")
        self.gamma = gamma
        self.base = base
        self.solver = solver
        self._lock = threading.Lock()
        self._tables: dict = {}

    def __repr__(self):
        return f"MpBoxtimes(gamma={self.gamma:g}, {self.base!r})"

    def _closed_atom(self) -> float | None:
        """c when the base is a single atom delta_c (0 below B_ZERO_TOL), else None."""
        base = self.base
        if isinstance(base, DiscreteMeasure) and base.atoms.size == 1:
            c = float(base.atoms[0])
            return 0.0 if c < B_ZERO_TOL else c
        return None

    def _closed_pair(self, v):
        """g(v) and g'(v) of the closed-form law c MP(gamma) (delta_0 when c = 0).

        g' of MP(gamma) follows from differentiating its quadratic
        gamma u g^2 + (u + gamma - 1) g + 1 = 0.
        """
        c = self._closed_atom()
        if c == 0.0:
            return -1.0 / v, 1.0 / (v * v)
        u = v / c
        g = mp_stieltjes_closed(self.gamma, u)
        dg = -(self.gamma * g * g + g) / (2.0 * self.gamma * u * g + u + self.gamma - 1.0)
        return g / c, dg / (c * c)

    def _levels(self):
        """Levels of the solver chain under this law, top first, and their links.

        Returns ``(levels, links)``: level k + 1 is the law inside level k's
        base, which is its pushforward t -> a + b t for ``links[k] = (a, b)``
        (b > 0).  The last level's base needs no solver of its own when
        :func:`_closed_pair` accepts it.
        """
        levels, links = [self], []
        while True:
            base = levels[-1].base
            a, b, inner = (base.a, base.b, base.inner) if isinstance(base, AffinePush) else (0.0, 1.0, base)
            if not (b > 0.0 and isinstance(inner, MpBoxtimes) and inner._closed_atom() is None):
                return levels, links
            levels.append(inner)
            links.append((a, b))

    def _solve(self, z):
        """The one solve behind every transform, on the upper half-plane.

        Returns ``(g, l, ok)``: l stacks l(z) of this law and of each solver
        level nested under it (top first, shaped (m,) + z.shape), g is this
        law's transform recovered from the top level, and ok holds per point
        when every level converged.  Nothing here raises on divergence.
        """
        levels, links = self._levels()
        if self._closed_atom() is not None:
            g, _ = self._closed_pair(z)
            l = (-1.0 / ((self.gamma - 1.0) / z + self.gamma * g))[None]
            ok = np.ones(z.shape, dtype=bool)
        elif len(levels) == 1:
            l, _, res = solve_l_grid(self.base, self.gamma, z, self.solver)
            l, ok = l[None], _converged(l, res, self.solver.tol)
        else:
            bottom = _closed_pair(levels[-1].base)
            if bottom is None:
                l = np.empty((len(levels),) + z.shape, dtype=complex)
                ok = np.zeros(z.shape, dtype=bool)
            else:
                shifts, scales = zip(*links)
                gammas = [level.gamma for level in levels]
                l, ok, _ = solve_chain_grid(gammas, shifts, scales, bottom, z, self.support_max(), self.solver)
            l = l.reshape(len(levels), -1)
            ok = ok.ravel()
            bad = np.flatnonzero(~ok)
            if bad.size:
                l[:, bad], ok[bad] = self._nested(z.ravel()[bad], links[0], levels[1])
            l, ok = l.reshape((len(levels),) + z.shape), ok.reshape(z.shape)
        g = (-1.0 / l[0] - (self.gamma - 1.0) / z) / self.gamma
        return g, l, ok

    def _nested(self, z, link, inner):
        """The nested route: Picard on the base, inner levels solved per evaluation.

        Inner solves flag instead of raising; the returned flags cover
        every level at the final iterate.
        """
        a, b = link
        l, _, res = solve_l_grid(_FlaggedPush(a, b, inner), self.gamma, z, self.solver)
        _, l_inner, ok_inner = inner._solve((l - a) / b)
        return np.concatenate([l[None], l_inner]), _converged(l, res, self.solver.tol) & ok_inner

    def stieltjes(self, z):
        g, ok = self.stieltjes_checked(z)
        bad = np.size(ok) - np.count_nonzero(ok)
        if bad:
            raise DivergenceError(
                f"no convergence at {bad} of {np.size(ok)} points of {self!r}"
            )
        _herglotz_check(g, z, True)
        return g

    def stieltjes_checked(self, z):
        """Stieltjes transform with per-point convergence flags.

        Returns ``(g, ok)`` where ok is a boolean mask shaped like z; entries
        with ok False did not meet the solver tolerance, at this level or at
        any level nested under it, and carry the last iterate rather than a
        trusted value.  Unlike ``stieltjes`` this never raises on divergence,
        of its own solve or of a nested one, so callers can flag bad grid
        points and move on.
        """
        z, scalar = _as_z(z)
        # lower half-plane points by reflection, g(conj z) = conj g(z)
        neg = z.imag < 0
        g, _, ok = self._solve(np.where(neg, np.conj(z), z))
        g = np.where(neg, np.conj(g), g)
        if scalar:
            return complex(g), bool(ok)
        return g, ok

    def support_min(self) -> float:
        return 0.0

    def support_max(self) -> float:
        edge = (1.0 + math.sqrt(self.gamma)) ** 2
        return self.base.support_max() * edge

    def _atom0(self) -> float:
        p0 = float(self.base.atom_mass(0.0))
        return max(p0, 1.0 - 1.0 / self.gamma, 0.0)

    def atom_points(self) -> np.ndarray:
        return np.array([0.0]) if self._atom0() > 0 else np.empty(0)

    def atom_mass(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(np.abs(t) <= 1e-12, self._atom0(), 0.0)
        return float(out) if t.shape == () else out

    def _cdf_table(self, eta: float):
        key = float(eta)
        with self._lock:
            cached = self._tables.get(key)
        if cached is not None:
            return cached
        m0 = self._atom0()
        pad = max(0.5, 300.0 * eta)
        hi = self.support_max() + pad
        lo = -pad
        step = eta / 3.0
        xs = np.linspace(lo, hi, int(np.ceil((hi - lo) / step)) + 1)
        g = self.stieltjes(xs + 1j * eta)
        dens = g.imag / np.pi
        if m0 > 0.0:
            dens = dens - m0 * (eta / np.pi) / (xs**2 + eta**2)
        dens = np.maximum(dens, 0.0)
        widths = np.diff(xs)
        cells = 0.5 * (dens[1:] + dens[:-1]) * widths
        cont = np.concatenate([[0.0], np.cumsum(cells)])
        total = cont[-1]
        if total > 0 and m0 < 1.0:
            cont *= (1.0 - m0) / total
        table = (xs, cont)
        with self._lock:
            self._tables[key] = table
        return table

    def cdf(self, t, eta: float = DEFAULT_ETA):
        # the atom at zero enters as an exact step, only the continuous part
        # comes from the interpolation table
        if eta <= 0:
            raise ValueError("eta must be positive")
        t = np.asarray(t, dtype=float)
        xs, cont = self._cdf_table(eta)
        out = np.interp(t, xs, cont, left=0.0, right=float(cont[-1]))
        out = out + self._atom0() * (t >= 0.0)
        return float(out) if t.shape == () else out


class _FlaggedPush:
    """The base t -> a + b t of an inner law, for the nested fallback.

    Its transform solves the inner law without raising, so a starved inner
    level shows up in the flags rather than as an exception.
    """

    def __init__(self, a: float, b: float, inner: MpBoxtimes):
        self.a, self.b, self.inner = a, b, inner

    def stieltjes(self, w):
        g, _ = self.inner.stieltjes_checked((w - self.a) / self.b)
        return g / self.b


def _closed_pair(mu):
    """Evaluator v -> (g(v), g'(v)) for a law needing no fixed-point solve, else None."""
    if isinstance(mu, DiscreteMeasure):
        return mu._stieltjes_pair
    if isinstance(mu, MpBoxtimes) and mu._closed_atom() is not None:
        return mu._closed_pair
    if isinstance(mu, AffinePush):
        if mu.b == 0.0:
            return lambda v: (1.0 / (mu.a - v), 1.0 / (mu.a - v) ** 2)
        inner = _closed_pair(mu.inner) if mu.b > 0.0 else None
        if inner is None:
            return None

        def pushed(v):
            g, dg = inner((v - mu.a) / mu.b)
            return g / mu.b, dg / (mu.b * mu.b)

        return pushed
    return None


# ---------------------------------------------------------------------------
# Module-level operations


def kolmogorov_distance(a: Measure, b: Measure, grid, eta: float = DEFAULT_ETA) -> float:
    """sup_t |F_a(t) - F_b(t)| over the grid, atoms and their left limits.

    The supplied grid is augmented with every atom of either measure, and
    both one-sided values are compared at each point, so the distance is
    exact when both measures are discrete.
    """
    if not (a.is_probability and b.is_probability):
        raise SignedMeasureError("Kolmogorov distance needs probability measures")
    pts = np.unique(np.concatenate([
        np.asarray(grid, dtype=float).ravel(),
        a.atom_points(),
        b.atom_points(),
    ]))
    if pts.size == 0:
        raise ValueError("empty evaluation grid")
    right = np.abs(a.cdf(pts, eta) - b.cdf(pts, eta))
    left = np.abs(a.cdf_left(pts, eta) - b.cdf_left(pts, eta))
    return float(max(right.max(), left.max()))

