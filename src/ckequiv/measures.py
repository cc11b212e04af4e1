"""Spectral measures and their transforms.

A law is one of two objects: a finite atomic measure
(:class:`DiscreteMeasure`), or a layer law MP(gamma) (x) (a + b base), the
multiplicative Marchenko-Pastur convolution of another law pushed forward by
t -> a + b t (b > 0), evaluated through the fixed-point solver, or in closed
form when the base is an unpushed single atom (:class:`MpBoxtimes`).  The
convolution serves every transform from one flagged solve,
``MpBoxtimes._solve``, which also hands the companion level of every layer
nested under it to the equivalent-resolvent rule of :mod:`ckequiv.detequiv`.

Both objects expose a vectorized Stieltjes transform
g(z) = integral of 1 / (t - z), defined off the real axis, which maps the
upper half-plane into itself: every law here is a probability measure.
Densities and distribution functions of solver-backed laws are recovered by
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
    chain_slope,
    mp_stieltjes_closed,
    solve_chain_grid,
)

DEFAULT_ETA = 1e-3
# layer scales (and point-mass locations) below this count as zero
B_ZERO_TOL = 1e-10

_CHUNK = 1 << 18
# a CDF table solves every _COARSE-th point cold and warm-starts the rest
_COARSE = 16


def _as_z(z):
    """z as a complex array and whether it was a scalar; a real z raises ValueError."""
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag == 0):
        raise ValueError("z must lie off the real axis")
    return z, z.shape == ()


def _herglotz_check(g, z):
    gi = np.atleast_1d(np.asarray(g).imag)
    zi = np.atleast_1d(np.asarray(z).imag)
    if not np.all(gi[zi > 0] > 0):
        raise ArithmeticError("Stieltjes transform left the upper half-plane")


class DiscreteMeasure:
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
        # F at and left of each atom: _cum[k] is the mass of the first k atoms
        self._cum = np.concatenate([[0.0], np.cumsum(self.weights)])

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
        _herglotz_check(out, z)
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
        out = self._cum[hi] - self._cum[lo]
        return float(out) if t.shape == () else out

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = self._cum[np.searchsorted(self.atoms, t, side="right")]
        return float(out) if t.shape == () else out

    def cdf_left(self, t):
        t = np.asarray(t, dtype=float)
        out = self._cum[np.searchsorted(self.atoms, t, side="left")]
        return float(out) if t.shape == () else out


def dirac(a: float) -> DiscreteMeasure:
    return DiscreteMeasure([float(a)], [1.0])


def _rounding_zero(eigenvalues) -> float:
    """1e-12 times the largest |eigenvalue|: eigenvalues this close to 0 are rounding."""
    return 1e-12 * float(np.max(np.abs(eigenvalues)))


def esd_from_eigenvalues(eigenvalues) -> DiscreteMeasure:
    """Empirical spectral distribution with near-duplicate atoms merged.

    Eigenvalues within ``_rounding_zero`` of 0 count as exactly 0, so the
    null space of a rank-deficient matrix is an atom at 0, as in its limit
    law.  Then eigenvalues closer than 1e-12 * max(1, |lambda|) collapse
    into a single atom at their mean, with summed weight.
    """
    ev = np.sort(np.asarray(eigenvalues, dtype=float).ravel())
    if ev.size == 0:
        raise ValueError("need at least one eigenvalue")
    ev[np.abs(ev) <= _rounding_zero(ev)] = 0.0
    tol = 1e-12 * np.maximum(1.0, np.abs(ev[1:]))
    breaks = np.nonzero(np.diff(ev) > tol)[0] + 1
    starts = np.concatenate([[0], breaks])
    stops = np.concatenate([breaks, [ev.size]])
    atoms = np.array([ev[a:b].mean() for a, b in zip(starts, stops)])
    weights = (stops - starts) / ev.size
    return DiscreteMeasure(atoms, weights)


class MpBoxtimes:
    """MP(gamma) (x) (a + b base), with transforms evaluated by the fixed point.

    The layer law: ``base`` (a :class:`DiscreteMeasure` or another
    MpBoxtimes) pushed forward by t -> a + b t with b > 0, then convolved
    with MP(gamma).  An unpushed single-atom base delta_c (a = 0, b = 1)
    gives the dilation c MP(gamma), whose transforms come from the closed
    form (delta_0 when c < B_ZERO_TOL).  Every other law heads a chain of
    solver levels: itself, then its base as long as that base is
    solver-backed, down to a last level whose base (atoms or a closed-form
    dilation) needs no fixed point of its own.  All levels, one or many, are
    solved at once by :func:`solve_chain_grid`, a stacked Newton solve whose
    cost per point grows linearly with depth.  A point counts as solved only
    when every level meets the tolerance inside its wedge D(u_k); that root
    is unique, so it equals the nested fixed point.
    Points of a chain of several levels that the stacked solve does not
    certify fall back to the nested route, with the same Newton solve: this
    level alone, a chain of one level whose bottom is the pushed base's g
    and g' from the base's own flagged solve (which falls back by this same
    rule).  A law of one level has no other route; its uncertified points
    stay flagged.
    A transform starts every point cold.  The CDF tables missing from one
    call are built together: one cold solve takes every _COARSE-th point
    of each table's line (and any transform points of the same call), and
    one warm solve the rest, each started from the levels' l interpolated
    between its line's cold points; a point that start does not certify is
    solved cold.  That start lives only inside one call: the object keeps
    no warm-start state between calls, so a transform depends only on its
    arguments, whichever thread asks.  Only the CDF tables are cached, per
    eta.
    """

    def __init__(
        self,
        gamma: float,
        base: DiscreteMeasure | MpBoxtimes,
        solver: FixedPointConfig = DEFAULT_CONFIG,
        *,
        a: float = 0.0,
        b: float = 1.0,
    ):
        gamma, a, b = float(gamma), float(a), float(b)
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if not isinstance(base, (DiscreteMeasure, MpBoxtimes)):
            raise TypeError("base must be a DiscreteMeasure or an MpBoxtimes")
        if b <= 0:
            raise ValueError("scale b must be positive")
        if a + b * base.support_min() < -1e-12:
            raise ValueError("pushed base must be supported on the nonnegative reals")
        self.gamma = gamma
        self.base = base
        self.a = a
        self.b = b
        self.solver = solver
        self._lock = threading.Lock()
        self._tables: dict = {}

    def __repr__(self):
        return f"MpBoxtimes(gamma={self.gamma:g}, {self.a:g} + {self.b:g} t, {self.base!r})"

    def _closed_atom(self) -> float | None:
        """c when the base is an unpushed single atom delta_c (0 below B_ZERO_TOL), else None."""
        base = self.base
        if self.a == 0.0 and self.b == 1.0 and isinstance(base, DiscreteMeasure) and base.atoms.size == 1:
            c = float(base.atoms[0])
            return 0.0 if c < B_ZERO_TOL else c
        return None

    def _stieltjes_pair(self, v):
        """g(v) and g'(v) on the upper half-plane, NaN where the solve is not certified.

        The closed-form law c MP(gamma) (delta_0 when c = 0) differentiates
        its quadratic gamma u g^2 + (u + gamma - 1) g + 1 = 0.  Any other
        law takes g from its flagged solve and g' = (l' / l^2 + (gamma - 1)
        / v^2) / gamma, with l' from one sweep of its chain's Jacobian at
        the certified root (:func:`chain_slope`).
        """
        c = self._closed_atom()
        if c == 0.0:
            return -1.0 / v, 1.0 / (v * v)
        if c is not None:
            u = v / c
            g = mp_stieltjes_closed(self.gamma, u)
            dg = -(self.gamma * g * g + g) / (2.0 * self.gamma * u * g + u + self.gamma - 1.0)
            return g / c, dg / (c * c)
        g, l, ok = self._solve(v)
        g, dg = np.where(ok, g, np.nan), np.full_like(g, np.nan)
        dl = chain_slope(*self._chain(), v[ok], l[:, ok])
        dg[ok] = (dl / l[0, ok] ** 2 + (self.gamma - 1.0) / v[ok] ** 2) / self.gamma
        return g, dg

    def _pushed_pair(self, w):
        """g(w) and g'(w) of the pushed base a + b base."""
        g, dg = self.base._stieltjes_pair((w - self.a) / self.b)
        return g / self.b, dg / (self.b * self.b)

    def _inner(self) -> MpBoxtimes | None:
        """The level nested under this one: the base when it needs a solve of its own."""
        base = self.base
        return base if isinstance(base, MpBoxtimes) and base._closed_atom() is None else None

    def _chain(self):
        """(gammas, shifts, scales, bottom) of this law's levels, as :func:`solve_chain_grid` takes them."""
        levels = self._levels()
        gammas = [level.gamma for level in levels]
        shifts = [level.a for level in levels[:-1]]
        scales = [level.b for level in levels[:-1]]
        return gammas, shifts, scales, levels[-1]._pushed_pair

    def _levels(self) -> list:
        """Levels of the solver chain under this law, top first.

        Level k + 1 is the base of level k, pushed by level k's (a, b); the
        last level's base needs no solve of its own.
        """
        levels = [self]
        while (inner := levels[-1]._inner()) is not None:
            levels.append(inner)
        return levels

    def _solve(self, z, start=None):
        """The one solve behind every transform, on the upper half-plane.

        Returns ``(g, l, ok)``: l stacks l(z) of this law and of each solver
        level nested under it (top first, shaped (m,) + z.shape), g is this
        law's transform recovered from the top level, and ok holds per point
        when every level converged.  Nothing here raises on divergence.
        ``start``, shaped like l, warm-starts the chain: Newton begins from
        it at the requested height, and a point it does not certify is
        solved again cold.  A closed-form law ignores it.
        """
        if self._closed_atom() is not None:
            g, _ = self._stieltjes_pair(z)
            l = (-1.0 / ((self.gamma - 1.0) / z + self.gamma * g))[None]
            ok = np.ones(z.shape, dtype=bool)
        else:
            l, ok, _ = solve_chain_grid(*self._chain(), z, self.support_max(), self.solver, start=start)
            m = l.shape[0]
            l = l.reshape(m, -1)
            ok = ok.ravel()
            bad = np.flatnonzero(~ok)
            if bad.size and start is not None:
                _, l[:, bad], ok[bad] = self._solve(z.ravel()[bad])
            elif bad.size and m > 1:
                l[:, bad], ok[bad] = self._nested(z.ravel()[bad])
            l, ok = l.reshape((m,) + z.shape), ok.reshape(z.shape)
        g = (-1.0 / l[0] - (self.gamma - 1.0) / z) / self.gamma
        return g, l, ok

    def _nested(self, z):
        """The fallback for points the stacked solve leaves: Newton on this level alone.

        Its bottom is the pushed base's g and g', so the base is solved,
        again by this rule, at every evaluation.  A base point that is not
        certified has g NaN, which flags the point instead of raising.  The
        returned l stacks this level's root over the base's levels, solved
        at its argument where the root is certified and NaN elsewhere, and
        the flags cover every level.
        """
        l, ok, _ = solve_chain_grid([self.gamma], [], [], self._pushed_pair, z, self.support_max(), self.solver)
        l_base = np.full((len(self.base._levels()), z.size), np.nan, dtype=complex)
        _, l_base[:, ok], ok[ok] = self.base._solve((l[0, ok] - self.a) / self.b)
        return np.concatenate([l, l_base]), ok

    def stieltjes(self, z):
        g, ok = self.stieltjes_checked(z)
        return self._trusted(g, ok, z)

    def _trusted(self, g, ok, z):
        """g, once every point is flagged converged and g is in the upper half-plane."""
        bad = np.size(ok) - np.count_nonzero(ok)
        if bad:
            raise DivergenceError(
                f"no convergence at {bad} of {np.size(ok)} points of {self!r}"
            )
        _herglotz_check(g, z)
        return g

    def stieltjes_checked(self, z):
        """Stieltjes transform with per-point convergence flags.

        Returns ``(g, ok)`` where ok is a boolean mask shaped like z; entries
        with ok False did not meet the solver tolerance, at this level or at
        any level nested under it, and carry the last iterate rather than a
        trusted value.  Unlike ``stieltjes`` this never raises on divergence,
        of its own solve or of a nested one, so callers can flag bad grid
        points and move on; a real z raises ValueError before any solve.
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
        return (self.a + self.b * self.base.support_max()) * edge

    def _atom0(self) -> float:
        p0 = float(self.base.atom_mass(-self.a / self.b))
        return max(p0, 1.0 - 1.0 / self.gamma, 0.0)

    def atom_points(self) -> np.ndarray:
        return np.array([0.0]) if self._atom0() > 0 else np.empty(0)

    def atom_mass(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(np.abs(t) <= 1e-12, self._atom0(), 0.0)
        return float(out) if t.shape == () else out

    def inversion(self, x, etas):
        """Stieltjes inversion at the real points x, at every eta of etas.

        Returns one ``(g, ok, cdf)`` per eta: the flagged transform at
        x + i eta, as :meth:`stieltjes_checked` gives it, and the distribution
        function at x, as :meth:`cdf` gives it, or, when the eta's CDF table
        did not converge, the DivergenceError it raised.  The transforms and
        every missing table come from one cold and one warm solve.
        """
        x = np.asarray(x, dtype=float).ravel()
        etas = [float(eta) for eta in etas]
        if any(eta <= 0 for eta in etas):
            raise ValueError("eta must be positive")
        z = (x[None, :] + 1j * np.array(etas)[:, None]).ravel()
        g, ok, tables = self._fill_tables(etas, z)
        g, ok = g.reshape(len(etas), x.size), ok.reshape(len(etas), x.size)
        out = []
        for eta, g_eta, ok_eta in zip(etas, g, ok):
            table = tables[eta]
            cdf = table if isinstance(table, DivergenceError) else self._table_cdf(table, x)
            out.append((g_eta, ok_eta, cdf))
        return out

    def _cdf_table(self, eta: float):
        table = self._fill_tables([eta])[2][float(eta)]
        if isinstance(table, DivergenceError):
            raise table
        return table

    def _fill_tables(self, etas, extra=()):
        """The CDF table of every eta, missing ones built by one :meth:`_line_solve`.

        That solve takes the points ``extra`` cold too.  Returns their flagged
        transform (g, ok) and a dict from each eta to its table, or to the
        DivergenceError its line raised, which fails that eta alone.  Only
        tables that converged are cached.
        """
        keys = list(dict.fromkeys(float(eta) for eta in etas))
        with self._lock:
            tables = {key: self._tables[key] for key in keys if key in self._tables}
        missing = [key for key in keys if key not in tables]
        m0 = self._atom0()
        lines = []
        for eta in missing:
            pad = max(0.5, 300.0 * eta)
            hi = self.support_max() + pad
            lo = -pad
            step = eta / 3.0
            xs = np.linspace(lo, hi, int(np.ceil((hi - lo) / step)) + 1)
            lines.append(xs + 1j * eta)
        g, ok = self._line_solve(lines, extra)
        bounds = np.cumsum([np.size(extra)] + [zs.size for zs in lines])
        for eta, zs, lo, hi in zip(missing, lines, bounds, bounds[1:]):
            try:
                g_line = self._trusted(g[lo:hi], ok[lo:hi], zs)
            except DivergenceError as ex:
                tables[eta] = ex
                continue
            xs = zs.real.copy()
            dens = g_line.imag / np.pi
            if m0 > 0.0:
                dens = dens - m0 * (eta / np.pi) / (xs**2 + eta**2)
            dens = np.maximum(dens, 0.0)
            widths = np.diff(xs)
            cells = 0.5 * (dens[1:] + dens[:-1]) * widths
            cont = np.concatenate([[0.0], np.cumsum(cells)])
            total = cont[-1]
            if total > 0 and m0 < 1.0:
                cont *= (1.0 - m0) / total
            tables[eta] = (xs, cont)
            with self._lock:
                self._tables[eta] = tables[eta]
        return g[: bounds[0]], ok[: bounds[0]], tables

    def _line_solve(self, lines, extra=()):
        """(g, ok) at the points ``extra``, then along each line Im z = eta sorted by Re z.

        One cold solve takes the extra points with every _COARSE-th point and
        the last of each line; one warm solve takes the rest of every line,
        each point starting from each level's l interpolated linearly in Re z
        between the cold points of its line.
        """
        extra = np.asarray(extra, dtype=complex)
        z = np.concatenate([extra, *lines])
        g = np.empty_like(z)
        ok = np.empty(z.shape, dtype=bool)
        if not z.size:
            return g, ok
        coarse = np.zeros(z.shape, dtype=bool)
        coarse[: extra.size] = True
        bounds = np.cumsum([extra.size] + [zs.size for zs in lines])
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            coarse[lo:hi:_COARSE] = True
            coarse[hi - 1] = True
        g[coarse], l_coarse, ok[coarse] = self._solve(z[coarse])
        l = np.empty((l_coarse.shape[0], z.size), dtype=complex)
        l[:, coarse] = l_coarse
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            x, cold = z.real[lo:hi], coarse[lo:hi]
            for lk in l[:, lo:hi]:
                xw, xc, lc = x[~cold], x[cold], lk[cold]
                lk[~cold] = np.interp(xw, xc, lc.real) + 1j * np.interp(xw, xc, lc.imag)
        warm = ~coarse
        if warm.any():
            g[warm], _, ok[warm] = self._solve(z[warm], l[:, warm])
        return g, ok

    def cdf(self, t, eta: float = DEFAULT_ETA):
        if eta <= 0:
            raise ValueError("eta must be positive")
        t = np.asarray(t, dtype=float)
        out = self._table_cdf(self._cdf_table(eta), t)
        return float(out) if t.shape == () else out

    def _table_cdf(self, table, t):
        # the atom at zero enters as an exact step, only the continuous part
        # comes from the interpolation table
        xs, cont = table
        out = np.interp(t, xs, cont, left=0.0, right=float(cont[-1]))
        return out + self._atom0() * (t >= 0.0)

    def cdf_left(self, t, eta: float = DEFAULT_ETA):
        """Left limit of the distribution function."""
        return self.cdf(t, eta) - self.atom_mass(t)


# ---------------------------------------------------------------------------
# Module-level operations


def kolmogorov_distance(a: DiscreteMeasure | MpBoxtimes, b: DiscreteMeasure | MpBoxtimes) -> float:
    """sup_t |F_a(t) - F_b(t)|, from both one-sided values at every atom.

    At least one law must be discrete.  Its distribution function is
    constant between its atoms and the other's is nondecreasing, so the
    supremum is attained at an atom of either law, from the left or from
    the right; no grid is needed.
    """
    if not (isinstance(a, DiscreteMeasure) or isinstance(b, DiscreteMeasure)):
        raise TypeError("kolmogorov_distance needs at least one DiscreteMeasure")
    pts = np.unique(np.concatenate([a.atom_points(), b.atom_points()]))
    right = np.abs(a.cdf(pts) - b.cdf(pts))
    left = np.abs(a.cdf_left(pts) - b.cdf_left(pts))
    return float(max(right.max(), left.max()))

