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
A discrete law sums over its atoms only near them: from twice their
half-span away from their midpoint, a truncated multipole series in their
moments gives g and g' to rounding at a cost that does not grow with the
atom count.  Densities and distribution functions of solver-backed laws
are recovered by Stieltjes inversion at a small imaginary offset eta: the
density estimate is Im g(x + i eta) / pi, and the distribution function
integrates it on a grid of step eta / 3 (the CDF table), with any atom at
zero split off explicitly and the continuous part renormalized to the
remaining mass (this removes the O(eta) tail bias of the Poisson kernel).
A table's grid is solved coarse to fine, each rung warm-started from the
roots of the rungs before.
"""

from __future__ import annotations

import itertools
import math
import threading

import numpy as np

from .freeconv import (
    DEFAULT_CONFIG,
    DivergenceError,
    FixedPointConfig,
    mp_stieltjes_closed,
    solve_chain_grid,
)

DEFAULT_ETA = 1e-3
# layer scales (and point-mass locations) below this count as zero
B_ZERO_TOL = 1e-10

# a discrete transform runs in blocks of about this many numbers per array
# (atom-point pairs of the direct sum, powers of the series), sized for a
# 2 MiB L2 cache
_CHUNK = 1 << 15
# terms of the far-field series: at |s| <= 1/2 the tail of g' after p terms
# is at most (9/4) (p + 2) 2^(1 - p) of its scale, sum of w / |t - v|^2,
# and this p keeps it below 2^-53
_TERMS = next(p for p in itertools.count(1) if 2.25 * (p + 2) * 2.0 ** (1 - p) <= 2.0**-53)
# a CDF table's line is solved on a ladder of strides: every _LADDER[0]-th
# point cold, then each finer rung warm-started from the points solved so far
_LADDER = (512, 64, 8, 1)
# a height of MpBoxtimes._descend above Im z hands over at this residual
_HANDOVER_TOL = 1e-6


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
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms must be finite")
        if not np.all(weights > 0):
            raise ValueError("weights must be positive")
        if not abs(weights.sum() - 1.0) <= 1e-12:
            raise ValueError("weights must sum to 1")
        order = np.argsort(atoms, kind="stable")
        self.atoms = atoms[order]
        self.weights = weights[order]
        # F at and left of each atom: _cum[k] is the mass of the first k atoms
        self._cum = np.concatenate([[0.0], np.cumsum(self.weights)])
        # the far-field series: center c, radius R and, per power s^(j+1) of
        # s = R / (v - c), the coefficients of g and of g' / s, from the
        # moments m_j = sum of w x^j, x = (t - c) / R; numpy sums each
        # contiguous row pairwise, which keeps m_j within a few ulps
        self._series = None
        radius = 0.5 * (self.atoms[-1] - self.atoms[0])
        # the series costs a point about what a direct sum over _TERMS / 2 atoms does
        if self.atoms.size > _TERMS // 2 and radius > 0:
            center = 0.5 * (self.atoms[-1] + self.atoms[0])
            x = (self.atoms - center) / radius
            powers = np.cumprod(np.broadcast_to(x, (_TERMS - 1, x.size)), axis=0)
            m = np.concatenate([[self.weights.sum()], (self.weights * powers).sum(axis=1)])
            j = np.arange(_TERMS)
            coef = np.stack([-m / radius, (j + 1) * (m / radius) / radius], axis=1)
            self._series = (center, radius, coef)

    def __repr__(self):
        return f"DiscreteMeasure({self.atoms.size} atoms on [{self.atoms[0]:g}, {self.atoms[-1]:g}])"

    def stieltjes(self, z):
        z, scalar = _as_z(z)
        out = self._stieltjes_pair(z.ravel())[0].reshape(z.shape)
        _herglotz_check(out, z)
        return complex(out) if scalar else out

    def _stieltjes_pair(self, v):
        """g(v) and g'(v) = sum of w / (t - v)^2 on a flat complex array v.

        A point at least 2R from the atoms' midpoint c, R their half-span,
        takes the far-field series: with s = R / (v - c), |s| <= 1/2,
        g = -(s / R) P(s) and g' = (s / R)^2 (P(s) + s P'(s)) for
        P(s) = sum of m_j s^j, truncated at _TERMS terms (Greengard and
        Rokhlin 1987).  Every other point, and every point of a measure
        with at most _TERMS / 2 atoms, takes the direct sum over the atoms.
        Both run in blocks of about _CHUNK numbers.
        """
        g = np.empty(v.shape, dtype=complex)
        dg = np.empty(v.shape, dtype=complex)
        far = np.zeros(v.shape, dtype=bool)
        if self._series is not None:
            center, radius, _ = self._series
            far = np.abs(v - center) >= 2.0 * radius
        for points, pair, width in ((far, self._far_pair, _TERMS), (~far, self._direct_pair, self.atoms.size)):
            points = np.flatnonzero(points)
            block = max(1, _CHUNK // width)
            for i in range(0, points.size, block):
                idx = points[i : i + block]
                g[idx], dg[idx] = pair(v[idx])
        return g, dg

    def _far_pair(self, v):
        center, radius, coef = self._series
        s = radius / (v - center)
        powers = np.cumprod(np.broadcast_to(s[:, None], (s.size, _TERMS)), axis=1)
        g, dg = (powers @ coef).T
        return g, s * dg

    def _direct_pair(self, v):
        # in real arithmetic: with d = t - Re v, eta = Im v and
        # q = 1 / (d^2 + eta^2), atoms along the rows, 1 / (t - v) = d q + i eta q
        w = self.weights
        eta = v.imag
        d = self.atoms[:, None] - v.real
        q = d * d
        q += eta * eta
        np.reciprocal(q, out=q)
        d *= q
        g = w @ d + 1j * eta * (w @ q)
        q_sq = w @ (q * q)
        q *= d
        return g, w @ (d * d) - eta * eta * q_sq + 2j * eta * (w @ q)

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
    if not np.all(np.isfinite(ev)):
        raise ValueError("eigenvalues must be finite")
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
    cost per point grows linearly with depth.  A point counts as solved once
    every level meets the tolerance inside its wedge D(u_k), at the
    requested height; that root is unique, so it equals the nested fixed
    point, however ill-conditioned a deep chain's Jacobian there.  Points
    the stacked solve leaves before ``max_iter`` take a descent in height
    made of the same solve (``_descend``).
    A transform starts every point cold.  The CDF tables missing from one
    call are built together, on a ladder of strides (_LADDER): one cold
    solve takes every 512th point of each table's line (and any transform
    points of the same call), then one warm solve per finer rung takes
    every 64th, 8th and finally every point not solved yet, each started
    from the levels' l interpolated between the points of its line solved
    before; a point that start does not certify is solved cold.  That
    start lives only inside one call: the object keeps no warm-start state
    between calls, so a transform depends only on its arguments, whichever
    thread asks.  Only the CDF tables are cached, per eta.
    Construction fixes what the parameters decide, once: the closed-form c
    (``_c``, None for a solver-backed law), a solver-backed law's chain as
    :func:`solve_chain_grid` takes it (``_chain``: one (gamma, a, b) per
    solver level, the law's own first, and the bottom's ``_stieltjes_pair``;
    numbers and the bottom's method, never the law itself, so no reference
    cycle), and the mass at 0 (``_mass0``), the larger of the pushed base's
    mass there and 1 - 1/gamma.  Atoms are pushed then, once: a law over
    atoms has a + b atoms at its bottom and t -> t as its level's push; a
    closed-form bottom keeps (a, b), which the solver applies.
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
        # each check is written to fail on NaN
        if not 0 < gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        if not isinstance(base, (DiscreteMeasure, MpBoxtimes)):
            raise TypeError("base must be a DiscreteMeasure or an MpBoxtimes")
        if not 0 < b < math.inf:
            raise ValueError("scale b must be positive and finite")
        if not math.isfinite(a):
            raise ValueError("shift a must be finite")
        if a + b * base.support_min() < -1e-12:
            raise ValueError("pushed base must be supported on the nonnegative reals")
        self.gamma = gamma
        self.base = base
        self.a = a
        self.b = b
        self.solver = solver
        # the cold start and every CDF table are laid out up to the support bound
        edge = self.support_max()
        if not math.isfinite(edge):
            raise ValueError(f"support bound {edge!r} overflows")
        self._c = None
        if a == 0.0 and b == 1.0 and isinstance(base, DiscreteMeasure) and base.atoms.size == 1:
            c = float(base.atoms[0])
            self._c = 0.0 if c < B_ZERO_TOL else c
        if self._c is None:
            # a solver-backed base hands its levels over; atoms are pushed here, once
            if isinstance(base, DiscreteMeasure):
                push, below = (0.0, 1.0), ((), (), (), DiscreteMeasure(a + b * base.atoms, base.weights)._stieltjes_pair)
            else:
                push, below = (a, b), base._chain if base._c is None else ((), (), (), base._stieltjes_pair)
            self._chain = (gamma,) + below[0], (push[0],) + below[1], (push[1],) + below[2], below[3]
        self._mass0 = max(float(base.atom_mass(-a / b)), 1.0 - 1.0 / gamma, 0.0)
        self._lock = threading.Lock()
        self._tables: dict = {}

    def __repr__(self):
        return f"MpBoxtimes(gamma={self.gamma:g}, {self.a:g} + {self.b:g} t, {self.base!r})"

    def _stieltjes_pair(self, v):
        """g(v) and g'(v) of the closed-form law on the upper half-plane.

        c MP(gamma) (delta_0 when c = 0) differentiates its quadratic
        gamma u g^2 + (u + gamma - 1) g + 1 = 0.  Only such a law, or atoms,
        is ever the base of a chain's last level.
        """
        c = self._c
        if c == 0.0:
            return -1.0 / v, 1.0 / (v * v)
        u = v / c
        g = mp_stieltjes_closed(self.gamma, u)
        dg = -(self.gamma * g * g + g) / (2.0 * self.gamma * u * g + u + self.gamma - 1.0)
        return g / c, dg / (c * c)

    def _solve(self, z, start=None):
        """The one solve behind every transform, on the upper half-plane.

        Returns ``(g, l, ok)``: l stacks l(z) of this law and of each solver
        level nested under it (top first, shaped (m,) + z.shape), g is this
        law's transform recovered from the top level, and ok holds per point
        when every level converged.  Nothing here raises on divergence.
        ``start``, shaped like l, warm-starts the chain: Newton begins from
        it at the requested height, and a point it does not certify is
        solved again cold.  A closed-form law ignores it.  A point the cold
        solve leaves goes down :meth:`_descend`, unless ``max_iter`` cut it
        off: such a point is starved, not stalled, and stays flagged.
        """
        if self._c is not None:
            g, _ = self._stieltjes_pair(z)
            l = (-1.0 / ((self.gamma - 1.0) / z + self.gamma * g))[None]
            ok = np.ones(z.shape, dtype=bool)
        else:
            l, ok, steps = solve_chain_grid(*self._chain, z, self.support_max(), self.solver, start=start)
            m = l.shape[0]
            l, ok, zf = l.reshape(m, -1), ok.ravel(), z.ravel()
            # a warm start's failures are solved cold; the cold solve's stalled points descend
            redo = np.flatnonzero(~ok if start is not None else ~ok & (steps.ravel() < self.solver.max_iter))
            if redo.size:
                l[:, redo], ok[redo] = self._solve(zf[redo])[1:] if start is not None else self._descend(zf[redo])
            l, ok = l.reshape((m,) + z.shape), ok.reshape(z.shape)
        g = (-1.0 / l[0] - (self.gamma - 1.0) / z) / self.gamma
        return g, l, ok

    def _descend(self, z):
        """(l, ok) at the flat points z by a descent in height.

        Solved cold at the cold solve's raised height max(Im z, 1, radius / 4),
        then at heights halved towards Im z, each warm from the roots at the
        one above.  A height above Im z hands over at _HANDOVER_TOL (or the
        solver's tol, if looser); only Im z must meet the solver's tol.
        Where a height fails, each tail of the chain, levels k+1 to m-1, is
        solved again at its fixed argument u_{k+1} = (l_k - a_k) / b_k, top
        first, warm from the stalled iterate, and then the whole chain once
        more: near the hard edge u_{k+1} cancels digits that the coupled
        Newton step cannot win back.  A point that still fails leaves flagged.
        """
        gammas, shifts, scales, bottom = chain = self._chain
        cfgs = self.solver, FixedPointConfig(max(self.solver.tol, _HANDOVER_TOL), self.solver.max_iter)
        radius = self.support_max()
        l = np.empty((len(gammas), z.size), dtype=complex)
        ok = np.zeros(z.shape, dtype=bool)
        live, height = np.arange(z.size), np.maximum(z.imag, max(1.0, radius / 4.0))
        cold = True
        while live.size:
            final = height == z.imag[live]
            good = np.empty(live.size, dtype=bool)
            for part, cfg in zip((final, ~final), cfgs):
                cols, zh = live[part], z.real[live[part]] + 1j * height[part]
                lp, okp, _ = solve_chain_grid(*chain, zh, radius, cfg, start=None if cold else l[:, cols])
                bad = ~okp
                stalled = lp[:, bad]
                for k in range(len(gammas) - 1):
                    with np.errstate(all="ignore"):
                        u = (stalled[k] - shifts[k]) / scales[k]
                    tail = gammas[k + 1 :], shifts[k + 1 :], scales[k + 1 :], bottom
                    lt, okt, _ = solve_chain_grid(*tail, u, radius, cfg, start=stalled[k + 1 :])
                    stalled[k + 1 :, okt] = lt[:, okt]
                lp[:, bad], okp[bad], _ = solve_chain_grid(*chain, zh[bad], radius, cfg, start=stalled)
                l[:, cols], good[part] = lp, okp
            ok[live] = good & final
            live, height, cold = live[good & ~final], height[good & ~final], False
            height = np.maximum(height / 2.0, z.imag[live])
        return l, ok

    def stieltjes(self, z):
        g, ok = self.stieltjes_checked(z)
        bad = np.size(ok) - np.count_nonzero(ok)
        if bad:
            raise DivergenceError(f"no convergence at {bad} of {np.size(ok)} points of {self!r}")
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

    def atom_points(self) -> np.ndarray:
        return np.array([0.0]) if self._mass0 > 0 else np.empty(0)

    def atom_mass(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(np.abs(t) <= 1e-12, self._mass0, 0.0)
        return float(out) if t.shape == () else out

    def inversion(self, x, etas):
        """Stieltjes inversion at the real points x, at every eta of etas.

        Returns one ``(g, ok, cdf)`` per eta: the flagged transform at
        x + i eta, as :meth:`stieltjes_checked` gives it, and the distribution
        function at x, as :meth:`cdf` gives it, or None where the eta's CDF
        table did not converge.  The transforms and every missing table come
        from one cold solve and one warm solve per later rung of the ladder.
        """
        x = np.asarray(x, dtype=float).ravel()
        etas = [float(eta) for eta in etas]
        z = (x[None, :] + 1j * np.array(etas)[:, None]).ravel()
        g, ok, tables = self._fill_tables(etas, z)
        g, ok = g.reshape(len(etas), x.size), ok.reshape(len(etas), x.size)
        out = []
        for eta, g_eta, ok_eta in zip(etas, g, ok):
            table = tables[eta]
            out.append((g_eta, ok_eta, None if table is None else self._table_cdf(table, x)))
        return out

    def _cdf_table(self, eta: float):
        table = self._fill_tables([eta])[2][float(eta)]
        if table is None:
            raise DivergenceError(f"no convergence on the CDF table of {self!r} at eta = {float(eta)!r}")
        return table

    def _table_span(self, eta: float):
        """(lo, hi, count): the CDF table of eta takes count points from lo to hi, about eta / 3 apart.

        count is inf where the span overflows.
        """
        pad = max(0.5, 300.0 * eta)
        hi = self.support_max() + pad
        lo = -pad
        gaps = np.ceil((hi - lo) / (eta / 3.0))
        return lo, hi, int(gaps) + 1 if np.isfinite(gaps) else math.inf

    def _fill_tables(self, etas, extra=()):
        """The CDF table of every eta, missing ones built by one :meth:`_line_solve`.

        That solve takes the points ``extra`` cold too.  Returns their flagged
        transform (g, ok) and a dict from each eta to its table, or to None
        where a point of its line did not converge, which fails that eta
        alone.  Only tables that converged are cached.
        """
        keys = list(dict.fromkeys(float(eta) for eta in etas))
        if not all(0 < key < math.inf for key in keys):
            raise ValueError("eta must be positive and finite")
        with self._lock:
            tables = {key: self._tables[key] for key in keys if key in self._tables}
        missing = [key for key in keys if key not in tables]
        m0 = self._mass0
        lines = [np.linspace(*self._table_span(eta)) + 1j * eta for eta in missing]
        g, ok = self._line_solve(lines, extra)
        bounds = np.cumsum([np.size(extra)] + [zs.size for zs in lines])
        for eta, zs, lo, hi in zip(missing, lines, bounds, bounds[1:]):
            if not ok[lo:hi].all():
                tables[eta] = None
                continue
            g_line = g[lo:hi]
            _herglotz_check(g_line, zs)
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

        The lines are solved on the ladder of strides _LADDER, every rung
        in one solve for all of them.  The first rung takes, cold, the extra
        points with every _LADDER[0]-th point and the last of each line.
        Each later rung takes the points of its stride not solved yet, each
        starting from each level's l interpolated linearly in Re z between
        the points of its line solved on the rungs before.
        """
        extra = np.asarray(extra, dtype=complex)
        z = np.concatenate([extra, *lines])
        g = np.empty_like(z)
        ok = np.empty(z.shape, dtype=bool)
        if not z.size:
            return g, ok
        bounds = np.cumsum([extra.size] + [zs.size for zs in lines])
        solved = np.zeros(z.shape, dtype=bool)
        solved[: extra.size] = True
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            solved[lo:hi : _LADDER[0]] = True
            solved[hi - 1] = True
        g[solved], l_cold, ok[solved] = self._solve(z[solved])
        l = np.empty((l_cold.shape[0], z.size), dtype=complex)
        l[:, solved] = l_cold
        for stride in _LADDER[1:]:
            rung = np.zeros(z.shape, dtype=bool)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                rung[lo:hi:stride] = True
            rung &= ~solved
            if not rung.any():
                continue
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                x, known, new = z.real[lo:hi], solved[lo:hi], rung[lo:hi]
                for lk in l[:, lo:hi]:
                    xn, xk, lk_known = x[new], x[known], lk[known]
                    lk[new] = np.interp(xn, xk, lk_known.real) + 1j * np.interp(xn, xk, lk_known.imag)
            g[rung], l[:, rung], ok[rung] = self._solve(z[rung], l[:, rung])
            solved |= rung
        return g, ok

    def cdf(self, t, eta: float = DEFAULT_ETA):
        t = np.asarray(t, dtype=float)
        out = self._table_cdf(self._cdf_table(eta), t)
        return float(out) if t.shape == () else out

    def _table_cdf(self, table, t):
        # the atom at zero enters as an exact step, only the continuous part
        # comes from the interpolation table
        xs, cont = table
        out = np.interp(t, xs, cont, left=0.0, right=float(cont[-1]))
        return out + self._mass0 * (t >= 0.0)

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

