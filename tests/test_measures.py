"""Spectral measure objects: transforms and CDF tables."""

import gc
import inspect
import math
import os
import subprocess
import sys
import time
import warnings
import weakref

import numpy as np
import pytest

import ckequiv
import ckequiv.freeconv as freeconv
import ckequiv.measures as measures
from ckequiv.detequiv import LayerSpec, build_chain
from ckequiv.freeconv import (
    DEFAULT_CONFIG,
    DivergenceError,
    FixedPointConfig,
    mp_stieltjes_closed,
)
from ckequiv.hermite import tanh_activation
from ckequiv.measures import (
    DiscreteMeasure,
    MpBoxtimes,
    dirac,
    esd_from_eigenvalues,
    kolmogorov_distance,
)
from ckequiv.netsim import ExplicitData, IidData, NetworkSpec, run_network

from nested_oracle import PicardLaw, Pushed, converged_l

# exact CDF of the square aspect-ratio MP law at 1: 1/3 + sqrt(3)/(2 pi)
MP1_CDF_AT_1 = 1.0 / 3.0 + math.sqrt(3.0) / (2.0 * math.pi)
# frozen from this table construction (regression pin, not an exact value)
MP1_CDF_AT_1_TABLE = 0.6087787802305679


class TestDiscreteMeasure:
    def test_sorted_and_validated(self):
        m = DiscreteMeasure([2.0, 0.5], [0.25, 0.75])
        assert m.atoms.tolist() == [0.5, 2.0]
        assert m.weights.tolist() == [0.75, 0.25]
        with pytest.raises(ValueError):
            DiscreteMeasure([1.0], [0.9])
        with pytest.raises(ValueError):
            DiscreteMeasure([1.0, 2.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            DiscreteMeasure([1.0, 2.0], [0.5])

    def test_stieltjes_is_exact_rational_sum(self):
        m = DiscreteMeasure([0.5, 1.5, 3.0], [0.2, 0.3, 0.5])
        z = 0.7 + 0.4j
        want = 0.2 / (0.5 - z) + 0.3 / (1.5 - z) + 0.5 / (3.0 - z)
        assert abs(m.stieltjes(z) - want) < 1e-15

    def test_real_z_is_rejected(self):
        # on an atom, between atoms and beyond them, as the layer law does
        m = DiscreteMeasure([1.0, 2.0], [0.5, 0.5])
        for z in (1.0, 1.5, -3.0, np.array([1.0 + 1j, 1.5 + 0j])):
            with pytest.raises(ValueError, match="off the real axis"):
                m.stieltjes(z)

    @pytest.mark.parametrize("chunk", [measures._CHUNK, 64])
    def test_real_arithmetic_transform_matches_mpmath(self, monkeypatch, chunk):
        # a small chunk splits the points into blocks of 3
        monkeypatch.setattr(measures, "_CHUNK", chunk)
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(17)
        atoms = np.sort(rng.uniform(0.0, 4.0, 20))
        weights = rng.uniform(0.5, 1.5, 20)
        m = DiscreteMeasure(atoms, weights / weights.sum())
        near = [t + s * d for t in atoms[::4] for d in (1e-3, 1e-6, 1e-9) for s in (-1, 1)]
        upper = [x + 1j * eta for x in near + [-1.0, 2.0, 7.0] for eta in (1.0, 1e-3, 1e-6, 1e-10)]
        mids = 0.5 * (atoms[1:] + atoms[:-1])
        v = np.array(upper + [z.conjugate() for z in upper] + list(mids) + [t + 1e-7 for t in atoms[::5]])
        g, dg = m._stieltjes_pair(v)
        off = v.imag != 0
        assert np.array_equal(m.stieltjes(v[off]), g[off])
        with mpmath.workdps(40):
            for k, z in enumerate(v):
                zz = mpmath.mpc(z.real, z.imag)
                inv = [mpmath.mpf(w) / (mpmath.mpf(t) - zz) for t, w in zip(m.atoms, m.weights)]
                want_g = complex(mpmath.fsum(inv))
                want_dg = complex(mpmath.fsum(q / (mpmath.mpf(t) - zz) for q, t in zip(inv, m.atoms)))
                scale = np.abs(m.atoms - z)
                assert abs(g[k] - want_g) <= 1e-13 * np.sum(m.weights / scale), z
                assert abs(dg[k] - want_dg) <= 1e-13 * np.sum(m.weights / scale**2), z

    def test_atom_mass_and_support(self):
        m = DiscreteMeasure([1.0, 2.0], [0.4, 0.6])
        assert m.atom_mass(1.0) == pytest.approx(0.4)
        assert m.atom_mass(1.5) == 0.0
        assert m.support_min() == 1.0
        assert m.support_max() == 2.0

    def test_cdf_smoothing_and_left_limit(self):
        m = DiscreteMeasure([1.0], [1.0])
        # far from the atom the cdf saturates
        assert m.cdf(5.0) > 1.0 - 1e-3
        assert m.cdf(-3.0) < 1e-3
        assert m.cdf(1.0) == pytest.approx(1.0, abs=1e-3)
        assert m.cdf_left(1.0) == pytest.approx(0.0, abs=1e-3)

    def test_esd_builder(self):
        lam = np.array([3.0, 1.0, 1.0, 2.0])
        m = esd_from_eigenvalues(lam)
        assert m.atom_mass(1.0) == pytest.approx(0.5)
        assert abs(m.stieltjes(1j) - np.mean(1.0 / (lam - 1j))) < 1e-15

    def test_esd_puts_a_null_space_at_exactly_zero(self):
        # rounding-level eigenvalues, relative to the largest, are the null space
        m = esd_from_eigenvalues([4.0, -3e-15, 2e-15, 2e-15, 1.0])
        assert m.atoms.tolist() == [0.0, 1.0, 4.0]
        assert m.atom_mass(0.0) == pytest.approx(0.6)
        # above 1e-12 of the largest, an eigenvalue keeps its place
        assert esd_from_eigenvalues([1.0, 1e-9]).atoms.tolist() == [1e-9, 1.0]

    def test_dirac(self):
        d = dirac(2.0)
        assert d.atoms.tolist() == [2.0]
        assert abs(d.stieltjes(1j) - 1.0 / (2.0 - 1j)) < 1e-16


def explicit_esd(n, seed=0):
    """The ESD of X^T X / n for n x n Gaussian X with columns of variance 0.5 or 1.5."""
    rng = np.random.default_rng([seed, n])
    x = rng.standard_normal((n, n)) * np.sqrt(rng.choice([0.5, 1.5], size=n))
    return esd_from_eigenvalues(np.linalg.eigvalsh(x.T @ x / n))


class TestFarField:
    """Points at least 2R from the atoms' midpoint take the truncated multipole series."""

    @pytest.mark.parametrize("n", [100, 600, 2000])
    def test_matches_mpmath_and_the_direct_sum(self, n):
        mpmath = pytest.importorskip("mpmath")
        m = explicit_esd(n)
        center, radius, _ = m._series

        def at(f, angle):
            # c + f R e^(i angle), moved out by ulps until |v - c| >= f R holds
            grow = 1.0 + 2.0**-52 * np.arange(8)
            v = center + f * radius * grow * np.exp(1j * angle)
            return v[np.argmax(np.abs(v - center) >= f * radius)]

        # on the circle |v - c| = 2R, on the real axis and in the upper half-plane,
        # beyond it, and inside it, where the direct sum must serve; each at
        # heights from 1e-12 to 10 on both sides of the atoms, and reflected
        ring = [at(2.0, a) for a in (0.0, np.pi, 0.3, 1.5, 2.5)]
        outside = [at(f, a) for f in (2.0 + 1e-9, 3.0, 40.0) for a in (0.0, 0.05, 3.1)]
        inside = [center + f * radius * np.exp(1j * a) for f in (1.2, 1.5, 2.0 - 1e-9) for a in (0.0, 0.05, 3.1)]
        base = np.array(ring + outside + inside)
        heights = [1e-12, 1e-6, 1e-3, 1.0, 10.0]
        v = np.concatenate([base, base.real] + [base.real + 1j * h for h in heights])
        v = np.concatenate([v, np.conj(v)])
        far = np.abs(v - center) >= 2.0 * radius
        assert np.all(np.abs(np.array(ring) - center) >= 2.0 * radius)
        assert not np.any(np.abs(np.array(inside) - center) >= 2.0 * radius)
        assert 0.3 < np.mean(far) < 0.7
        g, dg = m._stieltjes_pair(v)
        g_direct, dg_direct = m._direct_pair(v)
        # the transform is the g half of the same evaluator; the direct sum's
        # BLAS products may round with the batch, so both take the same one
        off = v[v.imag != 0]
        assert np.array_equal(m.stieltjes(off), m._stieltjes_pair(off)[0])
        scale = np.abs(m.atoms[:, None] - v[None, :])
        scale_g = m.weights @ (1.0 / scale)
        scale_dg = m.weights @ (1.0 / scale**2)
        assert np.all(np.abs(g - g_direct) <= 1e-14 * scale_g)
        assert np.all(np.abs(dg - dg_direct) <= 1e-14 * scale_dg)
        atoms = [mpmath.mpf(t) for t in m.atoms]
        weights = [mpmath.mpf(w) for w in m.weights]
        with mpmath.workdps(40):
            for k in np.flatnonzero(far)[::3]:
                z = mpmath.mpc(v[k].real, v[k].imag)
                inv = [w / (t - z) for t, w in zip(atoms, weights)]
                want_g = complex(mpmath.fsum(inv))
                want_dg = complex(mpmath.fsum(q / (t - z) for q, t in zip(inv, atoms)))
                assert abs(g[k] - want_g) <= 1e-14 * scale_g[k], v[k]
                assert abs(dg[k] - want_dg) <= 1e-14 * scale_dg[k], v[k]

    def test_few_atoms_sum_directly(self):
        # a single atom, or a span of zero, has no series; nor have 31 atoms,
        # whose direct sum costs about what the series does
        assert dirac(2.0)._series is None
        assert DiscreteMeasure([1.0] * 40, [1 / 40] * 40)._series is None
        assert DiscreteMeasure(np.arange(31.0), np.full(31, 1 / 31))._series is None
        assert DiscreteMeasure(np.arange(32.0), np.full(32, 1 / 32))._series is not None

    def test_a_span_beyond_the_square_root_of_the_double_range(self):
        # 40 atoms spread over about 2^525: 1 / R^2 alone would overflow.  s
        # is a power of two, so the scaled series is the unscaled one over s
        s = 2.0**520
        m = DiscreteMeasure(np.arange(40.0), np.full(40, 1 / 40))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = DiscreteMeasure(m.atoms * s, m.weights)
        center, radius, _ = m._series
        v = center + radius * np.array([2.0 + 1e-12j, -3.0 + 1e-3j, 40.0j, 5.0 + 10.0j])
        assert np.all(np.abs(v - center) >= 2.0 * radius)
        want = m.stieltjes(v) / s
        assert np.all(np.abs(huge.stieltjes(v * s) - want) <= 1e-14 * np.abs(want))

    def test_compare_table_needs_a_fraction_of_the_direct_sums(self, monkeypatch):
        # compare's Kolmogorov table at eta = 1e-3 on one tanh layer over an
        # explicit input with n = d0 = 600, against the same solve with the
        # series switched off and the two-rung ladder (16, 1)
        rng = np.random.default_rng([7, 600])
        x0 = rng.standard_normal((600, 600)) * np.sqrt(rng.choice([0.5, 1.5], size=600))
        spec = LayerSpec(1.0, 1.0, 0.0, tanh_activation(), 1.0)
        net = NetworkSpec(n=600, d0=600, data=ExplicitData(x0), layers=(spec,))
        counts = {}
        real_pair, real_direct = DiscreteMeasure._stieltjes_pair, DiscreteMeasure._direct_pair

        def pair(self, v):
            counts["points"] += v.size
            return real_pair(self, v)

        def direct(self, v):
            counts["pairs"] += self.atoms.size * v.size
            return real_direct(self, v)

        monkeypatch.setattr(DiscreteMeasure, "_stieltjes_pair", pair)
        monkeypatch.setattr(DiscreteMeasure, "_direct_pair", direct)

        def table(terms, ladder):
            with monkeypatch.context() as patch:
                patch.setattr(measures, "_TERMS", terms)
                patch.setattr(measures, "_LADDER", ladder)
                chi = build_chain(net).layers[0].chi
                counts.update(points=0, pairs=0)
                return chi._cdf_table(1e-3), dict(counts)

        (xs_off, cdf_off), off = table(10**9, (16, 1))
        (xs_on, cdf_on), on = table(measures._TERMS, measures._LADDER)
        assert np.array_equal(xs_on, xs_off)
        assert np.max(np.abs(cdf_on - cdf_off)) <= 1e-12
        assert on["pairs"] <= 0.4 * off["pairs"]
        assert on["points"] <= 0.75 * off["points"]


def pushed_base_pair(law, w):
    """h(w) and h'(w) of a one-level law's pushed base a + b base, read off the stacked system.

    ``freeconv._chain_system`` at gamma = 1 and u_0 = 0 gives the residual
    w^2 h(w) and its derivative 2 w h(w) + w^2 h'(w) in l_0 = w.
    """
    _, shifts, scales, bottom = law._chain
    assert len(shifts) == 1
    col = lambda v: np.asarray(v, dtype=float)[:, None]  # noqa: E731
    l = np.asarray(w, dtype=complex)[None]
    u = freeconv._chain_args(l, 0.0, col(shifts), col(scales))
    r, diag, _ = freeconv._chain_system(l, u, np.ones((1, 1)), col(scales), bottom)
    h = r[0] / (l[0] * l[0])
    return h, (diag[0] - 2.0 * l[0] * h) / (l[0] * l[0])


class TestPushedBase:
    """MpBoxtimes(gamma, base, a=, b=) is MP(gamma) (x) (a + b base)."""

    def test_stieltjes_shift_scale_identity(self):
        inner = DiscreteMeasure([1.0, 2.0], [0.5, 0.5])
        m = MpBoxtimes(1.5, inner, a=0.5, b=2.0)
        z = 1.2 + 0.7j
        g, _ = pushed_base_pair(m, np.array([z]))
        assert abs(g[0] - inner.stieltjes((z - 0.5) / 2.0) / 2.0) < 1e-15
        # the pushforward of atoms is the law with the atoms moved
        moved = MpBoxtimes(1.5, DiscreteMeasure([2.5, 4.5], [0.5, 0.5]))
        zs = np.array([z, 0.3 + 0.05j, 6.0 + 1e-2j, -1.0 + 2.0j])
        assert np.max(np.abs(m.stieltjes(zs) - moved.stieltjes(zs))) < 1e-10

    def test_atoms_are_pushed_once_when_the_law_is_built(self):
        # the chain's bottom holds the moved atoms and its level the push t -> t
        inner = DiscreteMeasure([1.0, 2.0], [0.25, 0.75])
        gammas, shifts, scales, bottom = MpBoxtimes(1.5, inner, a=0.5, b=2.0)._chain
        assert (gammas, shifts, scales) == ((1.5,), (0.0,), (1.0,))
        assert bottom.__self__.atoms.tolist() == [2.5, 4.5]
        assert bottom.__self__.weights.tolist() == [0.25, 0.75]
        # a closed-form law stores no chain, and as a base it keeps its push
        closed = MpBoxtimes(1.0, dirac(2.0))
        assert not hasattr(closed, "_chain")
        gammas, shifts, scales, bottom = MpBoxtimes(1.5, closed, a=0.5, b=2.0)._chain
        assert (gammas, shifts, scales) == ((1.5,), (0.5,), (2.0,))
        assert bottom == closed._stieltjes_pair

    def test_support_and_atoms(self):
        inner = DiscreteMeasure([1.0, 3.0], [0.5, 0.5])
        m = MpBoxtimes(0.25, inner, a=1.0, b=2.0)
        assert m.support_min() == 0.0
        assert m.support_max() == pytest.approx(7.0 * 2.25)
        assert m.atom_points().size == 0
        # t -> t - 1 moves the atom at 1 to 0, where the law keeps its mass
        m = MpBoxtimes(0.5, inner, a=-1.0, b=1.0)
        assert m.atom_points().tolist() == [0.0]
        assert m.atom_mass(0.0) == pytest.approx(0.5)
        assert m.cdf_left(0.0) == pytest.approx(0.0, abs=1e-3)

    def test_push_is_validated(self):
        # the scale of the push must be positive, and the pushed base nonnegative
        for scale in (0.0, -1.0):
            with pytest.raises(ValueError, match="scale"):
                MpBoxtimes(1.0, dirac(1.0), a=2.0, b=scale)
        two = DiscreteMeasure([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="nonnegative"):
            MpBoxtimes(1.0, two, a=-1.5, b=1.0)
        MpBoxtimes(1.0, two, a=-1.0, b=1.0)
        # a support bound beyond the double range is refused before the atoms are pushed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="support bound inf overflows"):
                MpBoxtimes(1.0, two, b=1e308)
        # a base is a law of this module, not any object with a transform
        with pytest.raises(TypeError):
            MpBoxtimes(1.0, PicardLaw(1.0, dirac(1.0)))


class TestHugeExplicitInput:
    """A layer law over an explicit input certifies at any scale of the input."""

    Z = np.array([0.5j, 1.0 + 0.5j, 2.0 + 0.5j])

    @staticmethod
    def law(depth, scale):
        x0 = np.random.default_rng(0).standard_normal((20, 20)) * scale
        spec = LayerSpec(1.0, 1.0, 0.0, tanh_activation(), 1.0)
        net = NetworkSpec(n=20, d0=20, data=ExplicitData(x0), layers=(spec,) * depth)
        return build_chain(net).layers[-1].chi

    @pytest.mark.parametrize("depth", [1, 2])
    def test_every_scale_certifies_and_huge_ones_agree(self, depth):
        # at these scales b is 6.5e-155 and 6.5e-301, so an unpushed bottom
        # would be read at (l - a) / b, beyond the double range
        g = {}
        for scale in (1.0, 1e10, 1e77, 1e150):
            g[scale], ok = self.law(depth, scale).stieltjes_checked(self.Z)
            assert np.all(ok), scale
        # from 1e10 on, sigma_b^2 no longer shapes the law (at 1 it moves g
        # in the second digit), so the huge scales agree with 1e10 to rounding
        for scale in (1e77, 1e150):
            assert rel_gap(g[scale], g[1e10]) <= 1e-14, scale


class TestMpBoxtimes:
    def test_validation(self):
        with pytest.raises(ValueError):
            MpBoxtimes(0.0, dirac(1.0))
        with pytest.raises(ValueError):
            MpBoxtimes(1.0, dirac(-1.0))

    def test_matches_closed_form_for_point_base(self):
        zs = np.array([0.5 + 0.05j, 2.0 + 1j, -1.0 + 0.3j, 4.0 + 0.01j])
        for gamma in (0.5, 1.0, 2.0):
            m = MpBoxtimes(gamma, dirac(1.0))
            assert np.max(np.abs(m.stieltjes(zs) - mp_stieltjes_closed(gamma, zs))) < 1e-10

    def test_lower_half_plane_by_reflection(self):
        m = MpBoxtimes(1.0, dirac(1.0))
        z = 1.0 + 0.5j
        assert abs(m.stieltjes(np.conj(z)) - np.conj(m.stieltjes(z))) < 1e-14

    def test_companion_reciprocal_identity(self):
        m = MpBoxtimes(2.0, dirac(1.0))
        z = 1.5 + 0.4j
        l = m._solve(np.asarray(z))[1][0]
        g = m.stieltjes(z)
        assert abs(g - (-1.0 / l - 1.0 / z) / 2.0) < 1e-12

    def test_resolvent_bound_and_herglotz_on_grid(self):
        m = MpBoxtimes(1.5, DiscreteMeasure([0.5, 2.0], [0.5, 0.5]))
        zs = (np.linspace(-2.0, 8.0, 21)[:, None] + 1j * np.array([0.05, 1.0])).ravel()
        g = m.stieltjes(zs)
        assert np.all(g.imag > 0)
        assert np.all(np.abs(g) <= 1.0 / zs.imag + 1e-12)

    def test_atom_at_origin_for_wide_aspect(self):
        m = MpBoxtimes(2.0, dirac(1.0))
        assert m.atom_mass(0.0) == pytest.approx(0.5)
        assert m.cdf(0.0) == pytest.approx(0.5, abs=1e-3)
        assert m.cdf_left(0.0) == pytest.approx(0.0, abs=1e-3)

    def test_square_aspect_cdf_value(self):
        m = MpBoxtimes(1.0, dirac(1.0))
        got = float(m.cdf(1.0))
        assert abs(got - MP1_CDF_AT_1) < 5e-3
        assert abs(got - MP1_CDF_AT_1_TABLE) < 1e-6

    def test_cdf_monotone_saturates(self):
        m = MpBoxtimes(0.5, dirac(1.0))
        t = np.linspace(-1.0, m.support_max() + 1.0, 200)
        vals = m.cdf(t)
        assert np.all(np.diff(vals) > -1e-12)
        assert vals[-1] > 1.0 - 5e-3
        assert vals[0] < 5e-3

    def test_support_max_is_edge_product(self):
        base = DiscreteMeasure([0.5, 2.0], [0.5, 0.5])
        m = MpBoxtimes(0.25, base)
        assert m.support_max() == pytest.approx(2.0 * 2.25)

    def test_checked_route_agrees_when_converged(self):
        m = MpBoxtimes(1.0, dirac(1.0))
        zs = np.linspace(0.5, 3.5, 7) + 0.2j
        g, ok = m.stieltjes_checked(zs)
        assert np.all(ok)
        assert np.max(np.abs(g - m.stieltjes(zs))) < 1e-12
        g1, ok1 = m.stieltjes_checked(1.0 + 1j)
        assert isinstance(g1, complex) and ok1 is True

    def test_point_base_closed_form_matches_iterative_solver(self):
        xs = np.linspace(-1.0, 7.0, 81)
        zs = np.concatenate([xs + 1e-3j, xs + 0.1j, xs + 1.0j])
        for gamma in (0.5, 1.0, 2.0):
            for c in (0.0, 0.3, 1.0):
                m = MpBoxtimes(gamma, dirac(c))
                l_fp = converged_l(dirac(c), gamma, zs)
                l_cf = m._solve(zs)[1][0]
                assert np.max(np.abs(l_cf - l_fp) / np.maximum(1.0, np.abs(l_fp))) <= 1e-10
                # g = (-1/l - (gamma - 1)/z) / gamma amplifies an error in l by
                # 1/|l|^2 near z = 0, so g is checked against the dilation
                # c MP(gamma) directly rather than against the solver's l
                want = -1.0 / zs if c == 0.0 else mp_stieltjes_closed(gamma, zs / c) / c
                g, ok = m.stieltjes_checked(zs)
                assert np.all(ok)
                assert np.max(np.abs(g - want) / np.abs(want)) <= 1e-12

    def test_checked_route_flags_starved_solver(self):
        # a two-atom base: a point-mass base is taken in closed form
        base = DiscreteMeasure([1.0, 3.0], [0.5, 0.5])
        m = MpBoxtimes(1.0, base, solver=FixedPointConfig(max_iter=2))
        g, ok = m.stieltjes_checked(np.array([1.0 + 1e-3j]))
        assert not ok[0]
        with pytest.raises(DivergenceError):
            m.stieltjes(np.array([1.0 + 1e-3j]))
        with pytest.raises(DivergenceError, match="1 of 1 points"):
            m.stieltjes(1.0 + 1e-3j)

    @pytest.mark.parametrize("z", [-1.0, 20.0, 100.0, np.array([1.0 + 0.1j, 2.0])], ids=["-1", "20", "100", "array"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_real_z_is_rejected_at_every_depth(self, monkeypatch, depth, z):
        chi = iid_tanh_law(depth, 1.0)

        def no_solve(*args):
            raise AssertionError("a real z reached the solver")

        monkeypatch.setattr(MpBoxtimes, "_solve", no_solve)
        for transform in (chi.stieltjes, chi.stieltjes_checked):
            with pytest.raises(ValueError, match="real axis"):
                transform(z)

    @pytest.mark.parametrize("gamma", [0.25, 1.0])
    def test_one_layer_transform_matches_high_precision_root(self, gamma):
        mpmath = pytest.importorskip("mpmath")
        chi = iid_tanh_law(1, gamma)
        # the base is the input's law c MP(gamma0), taken in closed form
        c, gamma0 = float(chi.base.base.atoms[0]), chi.base.gamma
        zs = np.arange(-1.0, 5.0 + 1e-9, 0.25) + 0.1j
        got = chi.stieltjes(zs)
        l_start = chi._solve(zs)[1][0]
        with mpmath.workdps(40):
            a, b, gam = mpmath.mpf(chi.a), mpmath.mpf(chi.b), mpmath.mpf(chi.gamma)

            def g_base(u):
                # root in the upper half-plane of gamma0 v g^2 + (v + gamma0 - 1) g + 1 = 0, v = u / c
                v = u / c
                disc = mpmath.sqrt((v + gamma0 - 1) ** 2 - 4 * gamma0 * v)
                roots = [(-(v + gamma0 - 1) + s * disc) / (2 * gamma0 * v) for s in (1, -1)]
                return next(r for r in roots if r.imag > 0) / c

            for z, g, start in zip(zs, got, l_start):
                zz = mpmath.mpc(z.real, z.imag)

                def f(l):
                    return zz + (gam - 1) * l + gam * l * l * g_base((l - a) / b) / b

                root = mpmath.findroot(f, mpmath.mpc(start.real, start.imag))
                assert root.imag >= zz.imag and (root / zz).imag >= 0
                want = complex((-1 / root - (gam - 1) / zz) / gam)
                assert abs(g - want) <= 1e-13 * abs(want)


def iid_tanh_law(depth, gamma, n=100):
    """The top law of ``depth`` tanh layers (unit weight and bias variances) on iid input."""
    spec = LayerSpec(1.0, 1.0, 0.0, tanh_activation(), gamma)
    net = NetworkSpec(n=n, d0=n, data=IidData(1.0), layers=(spec,) * depth)
    return build_chain(net).layers[-1].chi


# links t -> a + b t of tanh layers with unit variances, with aspect ratios
TANH_LINKS = [(0.3298, 0.2865, 1.0), (0.3250, 0.2802, 2.0), (0.2896, 0.2304, 1.0), (0.2750, 0.2200, 2.0)]


def layer_chain(depth, cfg=DEFAULT_CONFIG, gamma=None):
    """MpBoxtimes layers over the closed-form law MP(1), and the nested oracle.

    ``gamma``, when given, replaces every layer's aspect ratio.
    """
    chi = MpBoxtimes(1.0, dirac(1.0), cfg)
    oracle = chi
    for a, b, link_gamma in TANH_LINKS[:depth]:
        g = link_gamma if gamma is None else gamma
        chi = MpBoxtimes(g, chi, cfg, a=a, b=b)
        oracle = PicardLaw(g, Pushed(a, b, oracle))
    return chi, oracle


def chain_grid(chi, etas):
    edge = chi.support_max()
    # below the support, inside the bulk and past its upper edge
    xs = np.array([-1.0, -0.2, 0.2 * edge, 0.5 * edge, 0.8 * edge, edge + 0.5, 2.0 * edge])
    return np.concatenate([xs + 1j * eta for eta in etas])


class TestLayerChain:
    """Nested MpBoxtimes layers, solved by one stacked Newton solve."""

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_stacked_route_matches_nested_oracle(self, monkeypatch, depth):
        def no_descent(*args):
            raise AssertionError("a point was left to the descent in height")

        monkeypatch.setattr(MpBoxtimes, "_descend", no_descent)
        chi, oracle = layer_chain(depth)
        zs = chain_grid(chi, (1e-3, 1e-2, 0.5))
        g, ok = chi.stieltjes_checked(zs)
        assert np.all(ok)
        want = oracle.stieltjes(zs)
        assert np.max(np.abs(g - want) / np.maximum(1.0, np.abs(want))) <= 1e-10
        assert chi._solve(zs)[1].shape == (depth,) + zs.shape

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_descent_alone_gives_nested_values(self, depth):
        # the descent in height, called on every point with no cold solve
        # before it, lands on the nested root wherever the cold solve does
        chi, oracle = layer_chain(depth)
        zs = chain_grid(chi, (1e-3, 1e-2, 0.5))
        l, ok = chi._descend(zs)
        assert np.all(ok)
        g = (-1.0 / l[0] - (chi.gamma - 1.0) / zs) / chi.gamma
        want = oracle.stieltjes(zs)
        assert np.max(np.abs(g - want) / np.maximum(1.0, np.abs(want))) <= 1e-12

    def test_only_stalled_points_reach_the_descent(self, monkeypatch):
        # a point that max_iter cut off is starved and stays flagged; one the
        # line search or a stage's step cap left gets the descent
        descended = []
        descend = MpBoxtimes._descend

        def spy(self, z):
            descended.append(z)
            return descend(self, z)

        def cold_left(chi, zs):
            _, ok, steps = freeconv.solve_chain_grid(*chi._chain, zs, chi.support_max(), chi.solver)
            assert np.all(steps[~ok] < chi.solver.max_iter)
            return ~ok

        monkeypatch.setattr(MpBoxtimes, "_descend", spy)
        zs = np.array([1.0 + 8.0j, 1.0 + 1e-3j, 3.0 + 10.0j, 0.5 + 1e-2j, -1.0 + 0.5j])
        starved, _ = layer_chain(3, FixedPointConfig(max_iter=9))
        assert starved.stieltjes_checked(zs)[1].tolist() == [True, False, True, False, True]
        assert not descended
        # a stage's step cap of 2 leaves five points of the grid
        chi, _ = layer_chain(3)
        zs = chain_grid(chi, (1e-3, 1e-2, 0.5))
        with monkeypatch.context() as m:
            m.setattr(freeconv, "_STAGE_STEPS", 2)
            left = cold_left(chi, zs)
            assert np.sum(left) == 5
            assert np.all(chi.stieltjes_checked(zs)[1])
        assert np.array_equal(np.concatenate(descended), zs[left])
        # the line search leaves this point near the hard edge of two tanh
        # layers: no cap on a stage's steps would keep it
        spec = LayerSpec(1.0, 0.0, 0.0, tanh_activation(), 0.5)
        chi = build_chain(NetworkSpec(n=4, d0=4, data=IidData(1.0), layers=(spec, spec))).layers[-1].chi
        zs = np.array([0.00265872 + 1e-6j])
        with monkeypatch.context() as m:
            m.setattr(freeconv, "_STAGE_STEPS", 10**6)
            assert cold_left(chi, zs)[0]
        descended.clear()
        assert chi.stieltjes_checked(zs)[1][0]
        assert np.array_equal(np.concatenate(descended), zs)

    def test_closed_form_bottoms_give_exact_derivatives(self):
        # each bottom is the last level's base, pushed by that level's (a, b)
        # inside the stacked system: atoms or a closed-form law, the only
        # bases a chain ends on
        bases = [
            (DiscreteMeasure([0.5, 1.0, 2.5], [0.2, 0.5, 0.3]), 0.0, 1.0),
            (DiscreteMeasure([0.5, 2.0], [0.5, 0.5]), 0.4, 1.7),
            (dirac(3.0), 0.8, 0.5),
            (MpBoxtimes(2.0, dirac(1.5)), 0.0, 1.0),
            (MpBoxtimes(0.5, dirac(0.0)), 0.0, 1.0),
            (MpBoxtimes(1.0, dirac(1.0)), 0.3, 0.6),
        ]
        v = np.array([0.9 + 0.2j, -0.5 + 1.0j, 3.0 + 0.05j])
        h = 1e-6
        for base, a, b in bases:
            law = MpBoxtimes(1.0, base, a=a, b=b)
            g, dg = pushed_base_pair(law, v)
            assert np.max(np.abs(g - base.stieltjes((v - a) / b) / b)) <= 1e-13
            fd = (pushed_base_pair(law, v + h)[0] - pushed_base_pair(law, v - h)[0]) / (2 * h)
            assert np.max(np.abs(dg - fd) / np.abs(dg)) <= 1e-6

    def test_levels_are_freed_without_the_cyclic_collector(self):
        # a law holds the levels under it but never itself, so dropping the
        # top law frees every level, and its cached CDF tables, by refcount
        law = MpBoxtimes(1.0, dirac(1.0))
        for a, b, gamma in TANH_LINKS[:3]:
            law = MpBoxtimes(gamma, law, a=a, b=b)
        refs = []
        level = law
        while isinstance(level, MpBoxtimes):
            refs.append(weakref.ref(level))
            level = level.base
        gc.disable()
        try:
            law.cdf(np.array([0.5, 1.0]), eta=1e-2)
            law.stieltjes(np.array([1.0 + 0.5j, 2.0 + 1e-2j]))
            law.inversion([0.5, 1.0], [0.1])
            del law, level
            assert [ref() for ref in refs] == [None] * 4
        finally:
            gc.enable()

    def test_starved_inner_layers_flag_instead_of_raising(self):
        zs = np.array([1.0 + 8.0j, 1.0 + 1e-3j, 3.0 + 10.0j, 0.5 + 1e-2j, -1.0 + 0.5j])
        starved, _ = layer_chain(3, FixedPointConfig(max_iter=9))
        # no DivergenceError from a nested layer: every failure is a flag
        g, ok = starved.stieltjes_checked(zs)
        assert ok.tolist() == [True, False, True, False, True]
        want = layer_chain(3)[0].stieltjes(zs)
        gap = np.abs(g - want) / np.maximum(1.0, np.abs(want))
        assert np.all(gap[ok] <= 1e-10)
        assert np.all(gap[~ok] > 1e-10)
        with pytest.raises(DivergenceError, match="2 of 5 points"):
            starved.stieltjes(zs)


class TestDeepChains:
    """The benchmark's tanh layer repeated L times over iid input at n = 1000,
    on theory-deep's 131 x values at eta = 0.01.

    Past about 28 layers |l_k| grows by about 1/b per level down the chain,
    and the Jacobian's condition number with it, so the polishing Newton step
    after convergence can fail on a point that has already met tol inside
    its wedges.  Such a point is certified all the same, and no point needs
    the nested fallback, whose cost compounds with depth.
    """

    Z = -0.5 + 0.05 * np.arange(131) + 0.01j

    @pytest.fixture(scope="class")
    def g24(self):
        # the law has converged in depth by 24 layers, to rounding
        return iid_tanh_law(24, 1.0, n=1000).stieltjes(self.Z)

    @pytest.mark.parametrize("depth", [32, 64])
    def test_the_stacked_solve_certifies_every_point(self, depth):
        chi = iid_tanh_law(depth, 1.0, n=1000)
        gammas, shifts, scales, bottom = chi._chain
        l, ok, _ = freeconv.solve_chain_grid(gammas, shifts, scales, bottom, self.Z, chi.support_max(), chi.solver)
        assert np.all(ok)
        # what is returned is what was certified: every level in its wedge,
        # within tol, also where the polishing step was refused
        gammas, shifts, scales = (np.asarray(v, dtype=float)[:, None] for v in (gammas, shifts, scales))
        u = freeconv._chain_args(l, self.Z, shifts, scales)
        assert np.all(freeconv.in_wedge(l, u[:-1]))
        r, _, _ = freeconv._chain_system(l, u, gammas, scales, bottom)
        assert np.max(freeconv._scaled_residual(r, l)) <= chi.solver.tol

    @pytest.mark.parametrize("depth", [32, 64])
    def test_no_point_falls_back(self, monkeypatch, g24, depth):
        def refuse(self, z):
            raise AssertionError(f"descent in height at {z}")

        monkeypatch.setattr(MpBoxtimes, "_descend", refuse)
        chi = iid_tanh_law(depth, 1.0, n=1000)
        start = time.perf_counter()
        g, ok = chi.stieltjes_checked(self.Z)
        assert time.perf_counter() - start < 10.0
        assert np.all(ok)
        assert np.max(np.abs(g - g24) / np.abs(g24)) <= 1e-12

    def test_a_point_the_fallback_used_to_take_keeps_its_value(self):
        # at 28 layers the refused polishing step sent x = 5.0 to the fallback
        chi = iid_tanh_law(28, 1.0, n=1000)
        z = np.array([5.0 + 0.01j])
        g, ok = chi.stieltjes_checked(z)
        l, descent_ok = chi._descend(z)
        want = (-1.0 / l[0] - (chi.gamma - 1.0) / z) / chi.gamma
        assert ok[0] and descent_ok[0]
        assert abs(g[0] - want[0]) <= 1e-14 * abs(want[0])


def table_line(eta):
    """Three windows of a CDF table's line Im z = eta at its spacing eta / 3.

    They lie across 0, in the bulk and towards the upper edge.
    """
    xs = np.concatenate([x0 + (eta / 3.0) * np.arange(400) for x0 in (-0.1, 0.45, 1.3)])
    return np.unique(xs) + 1j * eta


def record_warm_flags(monkeypatch):
    """Certificates of every warm-started chain solve, recorded as they happen."""
    flags = []
    real = measures.solve_chain_grid

    def spy(*args, start=None):
        l, ok, steps = real(*args, start=start)
        if start is not None:
            flags.append(ok)
        return l, ok, steps

    monkeypatch.setattr(measures, "solve_chain_grid", spy)
    return flags


def rel_gap(g, want):
    return np.max(np.abs(g - want) / np.abs(want))


class TestWarmTable:
    """A CDF table's line: a coarse cold pass, then Newton warm-started from it."""

    @pytest.mark.parametrize("eta", [1e-3, 1e-2])
    @pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_warm_line_matches_cold_solve(self, monkeypatch, depth, gamma, eta):
        warm = record_warm_flags(monkeypatch)
        chi, oracle = layer_chain(depth, gamma=gamma)
        zs = table_line(eta)
        g, ok = chi._line_solve([zs])
        # every point is certified, and by the warm Newton itself
        assert np.all(ok)
        assert sum(f.size for f in warm) >= zs.size * 15 // 16 - 1 and all(np.all(f) for f in warm)
        g_cold, _, ok_cold = chi._solve(zs)
        assert np.all(ok_cold)
        assert rel_gap(g, g_cold) <= 1e-12
        if depth < 4:
            # the nested oracle's cost multiplies with depth; depth 4 is
            # checked against it through the cold solve. Its Picard stops at
            # the residual tol, so near the axis its own error reaches
            # tol / (1 - k): 3.9e-10 at depth 2, gamma 0.25, eta 1e-3, where
            # Picard at tol 1e-15 agrees with g exactly
            sub = slice(7, None, 150)
            assert rel_gap(g[sub], oracle.stieltjes(zs[sub])) <= 1e-9

    @pytest.mark.parametrize("eta", [1e-3, 1e-2])
    def test_warm_line_on_a_discrete_bottom(self, monkeypatch, eta):
        # one and two layers over an explicit input: the chain's bottom is the input's ESD
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((60, 40)) * np.sqrt(rng.choice([0.5, 1.5], size=40))
        spec = LayerSpec(1.0, 1.0, 0.0, tanh_activation(), 1.0)
        warm = record_warm_flags(monkeypatch)
        zs = table_line(eta)
        for depth in (1, 2):
            net = NetworkSpec(n=40, d0=60, data=ExplicitData(x0), layers=(spec,) * depth)
            chi = build_chain(net).layers[-1].chi
            gammas, shifts, scales, bottom = chi._chain
            assert len(gammas) == depth and isinstance(bottom.__self__, DiscreteMeasure)
            warm.clear()
            g, ok = chi._line_solve([zs])
            assert np.all(ok) and warm and all(np.all(f) for f in warm)
            g_cold, _, ok_cold = chi._solve(zs)
            assert np.all(ok_cold)
            assert rel_gap(g, g_cold) <= 1e-12
            oracle = bottom.__self__
            for gamma, a, b in reversed(list(zip(gammas, shifts, scales))):
                oracle = PicardLaw(gamma, Pushed(a, b, oracle))
            sub = slice(7, None, 150)
            assert rel_gap(g[sub], oracle.stieltjes(zs[sub])) <= 1e-10

    def test_uncertified_warm_points_get_the_cold_solve(self, monkeypatch):
        # a starved solver: the cold solve itself leaves three points unconverged
        chi, _ = layer_chain(3, FixedPointConfig(max_iter=9))
        zs = np.array([1.0 + 8.0j, 1.0 + 1e-3j, 3.0 + 10.0j, 0.5 + 1e-2j, -1.0 + 0.5j, 2.0 + 0.1j])
        g_cold, l_cold, ok_cold = chi._solve(zs)
        assert ok_cold.tolist() == [True, False, True, False, True, False]
        real = measures.solve_chain_grid
        dropped = np.array([True, True, False, True, False, True])

        def drops_some(*args, start=None):
            l, ok, steps = real(*args, start=start)
            if start is not None:
                l[:, dropped], ok[dropped] = np.nan, False
            return l, ok, steps

        monkeypatch.setattr(measures, "solve_chain_grid", drops_some)
        # the warm start is the cold root: the points it keeps agree to rounding
        g, l, ok = chi._solve(zs, l_cold)
        assert ok.tolist() == ok_cold.tolist()
        assert np.array_equal(g[dropped], g_cold[dropped], equal_nan=True)
        assert np.array_equal(l[:, dropped], l_cold[:, dropped], equal_nan=True)
        kept = ~dropped & ok_cold
        assert rel_gap(g[kept], g_cold[kept]) <= 1e-12

    def test_inversion_solves_every_eta_at_once(self, monkeypatch):
        starts = []
        real = measures.solve_chain_grid

        def spy(*args, start=None):
            starts.append(start is not None)
            return real(*args, start=start)

        monkeypatch.setattr(measures, "solve_chain_grid", spy)
        # two tanh layers on iid input: the closed-form bottom is pointwise,
        # so batching the etas moves no bits
        chi = iid_tanh_law(2, 1.0)
        xs = np.linspace(-0.5, 4.0, 19)
        etas = (0.05, 0.01)
        got = chi.inversion(xs, etas)
        # every eta's transform and table cold points, then each later rung
        # of the ladder on both tables at once
        assert starts == [False] + [True] * (len(measures._LADDER) - 1)
        assert sorted(chi._tables) == [0.01, 0.05]
        starts.clear()
        # the tables are cached: a second call solves its transforms alone
        again = chi.inversion(xs, etas)
        assert starts == [False]
        fresh = iid_tanh_law(2, 1.0)
        for eta, (g, ok, cdf), (g2, ok2, cdf2) in zip(etas, got, again):
            g_want, ok_want = fresh.stieltjes_checked(xs + 1j * eta)
            assert np.all(ok) and np.array_equal(ok, ok_want) and np.array_equal(ok2, ok_want)
            assert np.array_equal(g, g_want) and np.array_equal(g2, g_want)
            assert np.array_equal(cdf, fresh.cdf(xs, eta)) and np.array_equal(cdf2, cdf)
        with pytest.raises(ValueError, match="eta must be positive"):
            chi.inversion(xs, (0.05, 0.0))

    def test_a_table_that_fails_fails_its_eta_alone(self):
        # three layers on a starved solver: the eta = 0.01 table cannot converge
        starved = FixedPointConfig(max_iter=3)
        chi, _ = layer_chain(3, starved)
        xs = np.linspace(-2.0, 8.0, 11)
        (g_hi, ok_hi, cdf_hi), (g_lo, ok_lo, cdf_lo) = chi.inversion(xs, (4.0, 0.01))
        # a failed table is a flag, not an exception
        assert cdf_lo is None
        assert np.all(ok_hi) and not np.all(ok_lo)
        alone = layer_chain(3, starved)[0]
        assert np.array_equal(cdf_hi, alone.cdf(xs, 4.0))
        g_want, ok_want = alone.stieltjes_checked(xs + 0.01j)
        assert np.array_equal(ok_lo, ok_want) and np.array_equal(g_lo[ok_lo], g_want[ok_want])
        # only the trusted table is cached; the failed one raises again when asked for
        assert list(chi._tables) == [4.0]
        with pytest.raises(DivergenceError, match="no convergence on the CDF table"):
            chi.cdf(xs, 0.01)
        with pytest.raises(DivergenceError, match="no convergence on the CDF table"):
            chi._cdf_table(0.01)
        assert list(chi._tables) == [4.0]

    def test_a_converged_line_still_meets_the_herglotz_check(self, monkeypatch):
        # every point of the line converged, but its g left the upper half-plane
        chi = iid_tanh_law(1, 1.0)
        real = MpBoxtimes._line_solve

        def reflected(self, lines, extra=()):
            g, ok = real(self, lines, extra)
            return np.conj(g), ok

        monkeypatch.setattr(MpBoxtimes, "_line_solve", reflected)
        with pytest.raises(ArithmeticError, match="left the upper half-plane"):
            chi.cdf(0.5, 0.1)
        assert not chi._tables

    def test_warm_table_needs_a_fraction_of_the_bottom_evaluations(self, monkeypatch):
        # theory-deep's law: four tanh layers with unit variances at gamma = 1,
        # whose bottom is the closed-form input law; a law takes its bottom's
        # method when it is built, so the count goes in first
        points = [0]
        real = MpBoxtimes._stieltjes_pair

        def counted(self, v):
            points[0] += v.size
            return real(self, v)

        monkeypatch.setattr(MpBoxtimes, "_stieltjes_pair", counted)
        chi = iid_tanh_law(4, 1.0, n=1000)
        assert chi._chain[3].__func__ is counted
        xs, _ = chi._cdf_table(0.01)
        warm = points[0]
        points[0] = 0
        _, _, ok = chi._solve(xs + 0.01j)
        assert np.all(ok)
        assert points[0] >= 3 * warm


def test_kolmogorov_distance_properties():
    a = DiscreteMeasure([1.0, 2.0], [0.5, 0.5])
    b = DiscreteMeasure([1.2, 2.0], [0.5, 0.5])
    assert kolmogorov_distance(a, a) == 0.0
    d_ab = kolmogorov_distance(a, b)
    assert d_ab == pytest.approx(kolmogorov_distance(b, a))
    assert 0.3 < d_ab <= 0.5 + 1e-9


class TestKolmogorovAtTheAtoms:
    """The distance is taken at the atoms alone, with no grid."""

    @staticmethod
    def gridded(esd, law):
        # sup over an 801-point grid padded past both supports, joined with
        # every atom, both one-sided values at each point
        lo = min(law.support_min(), esd.support_min())
        hi = max(law.support_max(), esd.support_max())
        pad = 0.05 * max(hi - lo, 1.0)
        pts = np.unique(np.concatenate([np.linspace(lo - pad, hi + pad, 801), esd.atom_points(), law.atom_points()]))
        right = np.abs(esd.cdf(pts) - law.cdf(pts))
        left = np.abs(esd.cdf_left(pts) - law.cdf_left(pts))
        return float(max(right.max(), left.max()))

    @staticmethod
    def pair(data, gamma=1.0, n=120):
        layer = LayerSpec(1.0, 1.0, 0.0, tanh_activation(), gamma)
        net = NetworkSpec(n=n, d0=n, data=data, layers=(layer,))
        (lam,) = run_network(net, seed=3).eigenvalues[1:]
        return esd_from_eigenvalues(lam), build_chain(net).layers[0].chi

    def test_takes_two_laws_only(self):
        assert list(inspect.signature(kolmogorov_distance).parameters) == ["a", "b"]

    @pytest.mark.parametrize("case", ["iid", "explicit", "gamma2"])
    def test_matches_the_gridded_supremum(self, case):
        if case == "explicit":
            x0 = np.random.default_rng(8).standard_normal((120, 120)) * np.sqrt(np.linspace(0.5, 1.5, 120))
            esd, law = self.pair(ExplicitData(x0))
        else:
            esd, law = self.pair(IidData(1.0), gamma=2.0 if case == "gamma2" else 1.0)
        if case == "gamma2":
            assert law.atom_points().tolist() == [0.0] and esd.atom_mass(0.0) == 0.5
        want = self.gridded(esd, law)
        assert kolmogorov_distance(esd, law) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert kolmogorov_distance(law, esd) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_needs_a_discrete_side(self):
        mp = MpBoxtimes(1.0, dirac(1.0))
        with pytest.raises(TypeError, match="DiscreteMeasure"):
            kolmogorov_distance(mp, MpBoxtimes(0.5, dirac(1.0)))


def test_module_level_cdf_helper_dispatches():
    m = dirac(1.0)
    assert m.cdf(2.0) == pytest.approx(1.0, abs=1e-3)


def test_herglotz_check_raises_under_optimize():
    # the check must survive python -O, which strips assert statements
    src = os.path.dirname(os.path.dirname(os.path.abspath(ckequiv.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import numpy as np\n"
        "from ckequiv.measures import _herglotz_check\n"
        "_herglotz_check(np.array([1.0 + 1.0j]), np.array([0.5 + 0.1j]))\n"
        "try:\n"
        "    _herglotz_check(np.array([1.0 - 1e-3j]), np.array([0.5 + 0.1j]))\n"
        "except ArithmeticError as ex:\n"
        "    print('raised:', ex)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert "raised: Stieltjes transform left the upper half-plane" in out.stdout
