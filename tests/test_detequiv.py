"""Layer constants and deterministic equivalent resolvents."""

import numpy as np
import pytest

import ckequiv.detequiv as detequiv
from ckequiv.detequiv import (
    _BLOCK,
    B_ZERO_TOL,
    LayerSpec,
    SpectralFactory,
    _Point,
    _compose,
    _gap_target,
    _resolvent_blocks,
    _screen_error,
    _ungated_constants,
    build_chain,
    equicorrelated_equivalent,
    equicorrelated_stieltjes,
    layer_constants,
)
from ckequiv.freeconv import DivergenceError, FixedPointConfig, mp_stieltjes_closed
from ckequiv.hermite import (
    activation_by_name,
    hermite2_activation,
    identity_activation,
    tanh_activation,
)
from ckequiv.measures import MpBoxtimes, dirac, esd_from_eigenvalues
from ckequiv.netsim import ExplicitData, IidData, NetworkSpec, conjugate_kernel, run_network
from nested_oracle import PicardLaw, Pushed, compose, gbox_from_sigma

# frozen one-layer constants for tanh with every variance set to 1
TANH_A = 1.2895524620057048
TANH_B = 0.23042328480765903
TANH_NORM2 = 0.5199757468133639
TANH_SY2 = 1.519975746813364


def with_input_map(monkeypatch, wrap):
    """Have iid data hand ``build_chain`` the map wrap(G0) instead of its own G0."""
    law = IidData._input_law

    def wrapped(self, d0, n):
        chi0, g0 = law(self, d0, n)
        return chi0, wrap(g0)

    monkeypatch.setattr(IidData, "_input_law", wrapped)


def random_psd(n, seed, lift=0.05):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, 2 * n))
    return m @ m.T / (2 * n) + lift * np.eye(n)


def symmetric_targets(n, rng):
    """Symmetric matrices of the kinds a gap is taken against: dense, scalar * I, aI + bJ."""
    t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return [t + t.T, (0.3 - 0.7j) * np.eye(n), (0.2 + 0.4j) * np.eye(n) + (-0.1 + 0.05j) * np.ones((n, n))]


class TestResolventBlocks:
    """The column-block resolvent against a dense inverse, across block boundaries."""

    SIZES = (1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 37)

    @staticmethod
    def points(k):
        # one z just above the middle of the spectrum, one away from it
        lam = np.linalg.eigvalsh(k)
        return (complex(lam[lam.size // 2], 0.05), complex(-0.5, 2.0))

    @pytest.mark.parametrize("n", SIZES)
    def test_resolvent_matches_inverse(self, n):
        k = random_psd(n, n)
        fac = SpectralFactory(k)
        for z in self.points(k):
            direct = np.linalg.inv(k - z * np.eye(n))
            assert np.max(np.abs(fac.resolvent(z) - direct)) < 1e-12

    @pytest.mark.parametrize("n", SIZES)
    def test_gap_matches_dense_reduction(self, n):
        k = random_psd(n, n + 1)
        fac = SpectralFactory(k)
        rng = np.random.default_rng(n)
        for z in self.points(k):
            direct = np.linalg.inv(k - z * np.eye(n))
            for t in symmetric_targets(n, rng):
                want = np.max(np.abs(direct - t))
                assert abs(fac._max_gap(z, t) - want) <= 1e-13 * want

    @pytest.mark.parametrize("n", SIZES)
    def test_nan_in_the_target_gives_nan(self, n):
        fac = SpectralFactory(random_psd(n, n + 2))
        # a zero target is screened; the resolvent itself is redone in double
        for base in (np.zeros((n, n), dtype=complex), fac.resolvent(1.0 + 0.1j)):
            for i, j in ((0, n - 1), (n - 1, 0), (n // 2, n // 2)):
                t = base.copy()
                t[i, j] = t[j, i] = np.nan
                assert np.isnan(fac._max_gap(1.0 + 0.1j, t))

    @pytest.mark.parametrize("n", SIZES)
    def test_single_precision_blocks_keep_their_bound(self, n):
        k = random_psd(n, n + 3)
        fac = SpectralFactory(k)
        for z in self.points(k):
            core = 1.0 / (fac.eigenvalues - z)
            err = _screen_error(core)
            assert 0 < err < 1e-3 * np.max(np.abs(core))
            pairs = zip(_resolvent_blocks(fac._vectors32, core), _resolvent_blocks(fac._vectors, core))
            for (lo, hi, single), (_, _, double) in pairs:
                assert single.dtype == np.complex64 and double.dtype == complex
                assert np.max(np.abs(single - double)) <= err

    @staticmethod
    def count_fallbacks(monkeypatch):
        blocks = []
        exact = detequiv._exact_gap

        def counted(s, t, lo, hi):
            blocks.append(lo)
            return exact(s, t, lo, hi)

        monkeypatch.setattr(detequiv, "_exact_gap", counted)
        return blocks

    @pytest.mark.parametrize("n", SIZES)
    def test_near_ties_are_resolved_in_double(self, n, monkeypatch):
        fallbacks = self.count_fallbacks(monkeypatch)
        k = random_psd(n, n + 4)
        fac = SpectralFactory(k)
        rng = np.random.default_rng(n + 4)
        for z in self.points(k):
            direct = np.linalg.inv(k - z * np.eye(n))
            # |R - t| is 0.5 or less except at up to four entries that tie to 1e-9
            d = 0.5 * rng.random((n, n)) * np.exp(2j * np.pi * rng.random((n, n)))
            rows, cols = np.triu_indices(n)
            for rank, p in enumerate(rng.permutation(rows.size)[:4]):
                d[rows[p], cols[p]] = (1.0 - 1e-9 * rank) * np.exp(2j * np.pi * rng.random())
            d = np.triu(d) + np.triu(d, 1).T
            t = direct - d
            want = np.max(np.abs(direct - t))
            assert abs(fac._max_gap(z, t) - want) <= 1e-13 * want
        assert fallbacks == [] or n < 3

    @pytest.mark.parametrize("n", SIZES)
    def test_target_equal_to_the_resolvent_falls_back_to_double(self, n, monkeypatch):
        fallbacks = self.count_fallbacks(monkeypatch)
        k = random_psd(n, n + 5)
        fac = SpectralFactory(k)
        for z in self.points(k):
            fallbacks.clear()
            t = fac.resolvent(z)
            # every entry ties within the single-precision error, so every block
            # of more than one row is redone by the kernel that built t
            got = fac._max_gap(z, t)
            if n == 1:
                assert fallbacks == [] and got <= 1e-15 * abs(t[0, 0])
            else:
                assert fallbacks == list(range(0, n, _BLOCK)) and got == 0.0

    def test_cores_beyond_single_precision_run_in_double(self, monkeypatch):
        fallbacks = self.count_fallbacks(monkeypatch)
        n = _BLOCK + 1
        k = random_psd(n, 6)
        fac = SpectralFactory(k)
        rng = np.random.default_rng(6)
        for z in (1e12j, complex(fac.eigenvalues[n // 2], 1e-12)):
            core = 1.0 / (fac.eigenvalues - z)
            assert _screen_error(core) == np.inf
            # K - zI is too ill-conditioned at the second point for a dense inverse
            direct = (fac._vectors * core) @ fac._vectors.T
            for t in symmetric_targets(n, rng):
                t = t * np.max(np.abs(direct))
                want = np.max(np.abs(direct - t))
                assert abs(fac._max_gap(z, t) - want) <= 1e-12 * want
        # two blocks for each of two points and three targets
        assert len(fallbacks) == 2 * 2 * 3

    def test_factored_target_beyond_single_precision_runs_in_double(self, monkeypatch):
        # an explicit input's equivalent coef (K_X - u I)^{-1} stays factored;
        # with coef near 1e-12 its core lies below the screened range
        fallbacks = self.count_fallbacks(monkeypatch)
        n = _BLOCK + 1
        base = SpectralFactory(random_psd(n, 7))
        point = _Point(1e-12 * (0.6 + 0.8j), base, 0.5 + 1.0j)
        target = _gap_target(point)
        assert target.t32 is None and target.err == np.inf
        assert np.max(np.abs(target.exact.core)) < detequiv._SCREEN_RANGE[0]
        k = random_psd(n, 8)
        fac = SpectralFactory(k)
        for z in self.points(k):
            fallbacks.clear()
            want = np.max(np.abs(np.linalg.inv(k - z * np.eye(n)) - point.coef * base.resolvent(point.u)))
            assert abs(fac._max_gap(z, target) - want) <= 1e-12 * want
            assert fallbacks == list(range(0, n, _BLOCK))

    def test_gap_needs_the_upper_half_plane(self):
        fac = SpectralFactory(random_psd(5, 3))
        for bad in (1.0, 1 - 0.5j, 2 + 0j):
            with pytest.raises(ValueError, match="upper half-plane"):
                fac._max_gap(bad, np.zeros((5, 5)))


class TestLayerConstants:
    def test_identity_layer_reduces_to_bias_and_weight(self):
        spec = LayerSpec(2.0, 0.5, 0.25, identity_activation(), 1.0)
        c = layer_constants(spec, 1.5)
        assert c.sigma_tilde2 == pytest.approx(3.5)
        assert c.b == pytest.approx(2.0, abs=1e-12)
        assert c.a == pytest.approx(0.75, abs=1e-12)
        assert c.sigma_y2 == pytest.approx(3.75, abs=1e-12)

    def test_tanh_unit_variances_frozen(self):
        spec = LayerSpec(1.0, 1.0, 1.0, tanh_activation(), 1.0)
        c = layer_constants(spec, 1.0)
        assert c.sigma_tilde2 == pytest.approx(2.0)
        assert c.norm2 == pytest.approx(TANH_NORM2, abs=1e-12)
        assert c.a == pytest.approx(TANH_A, abs=1e-12)
        assert c.b == pytest.approx(TANH_B, abs=1e-12)
        assert c.sigma_y2 == pytest.approx(TANH_SY2, abs=1e-12)

    def test_variance_bookkeeping_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(6):
            spec = LayerSpec(
                float(rng.uniform(0.3, 2.0)),
                float(rng.uniform(0.0, 1.0)),
                float(rng.uniform(0.0, 0.5)),
                tanh_activation(),
                1.0,
            )
            sx2 = float(rng.uniform(0.5, 2.0))
            c = layer_constants(spec, sx2)
            assert c.a + c.b * sx2 == pytest.approx(c.sigma_y2, abs=1e-10)
            assert c.a >= 0 and c.b >= 0

    def test_pure_even_mode_kills_linear_term(self):
        spec = LayerSpec(1.0, 0.0, 0.0, hermite2_activation(), 1.0)
        c = layer_constants(spec, 1.0)
        assert c.b == 0.0
        assert c.a == pytest.approx(1.0, abs=1e-10)

    def test_rounding_floor_scales_with_output_variance(self):
        # a = |ft|^2 - zeta_1^2 cancels terms of size 1e6 here: its rounding
        # error is above an absolute 1e-10, yet a is exactly 0 for the identity
        spec = LayerSpec(1e6, 0.0, 0.0, identity_activation(), 1.0)
        c = layer_constants(spec, 1.0)
        assert c.a == 0.0
        assert c.b == pytest.approx(1e6, rel=1e-12)
        assert c.sigma_y2 == pytest.approx(1e6, rel=1e-12)
        net = NetworkSpec(n=8, d0=8, dims=(8,), data=IidData(1.0), layers=(spec,))
        assert run_network(net, seed=0).stats[1].max_dev > 0

    @pytest.mark.parametrize("sigma_w2", [1e6, 1e306, 1e308])
    def test_identity_constants_at_any_finite_scale(self, sigma_w2):
        # unscaled, the quadrature samples' squares and zeta_1^2 * sigma_w2
        # overflow from about 1e306 on, while a, b and sigma_y2 stay finite
        with np.errstate(over="raise"):
            c = _ungated_constants(identity_activation(), sigma_w2, 1.0, 0.0, 0.0)
        assert c.a == 0.0
        assert c.b == pytest.approx(sigma_w2, rel=1e-12)
        assert c.sigma_y2 == pytest.approx(sigma_w2, rel=1e-12)

    def test_off_center_activation_rejected(self):
        spec = LayerSpec(1.0, 0.0, 0.0, identity_activation().shifted(-0.2), 1.0)
        with pytest.raises(ValueError, match="shifted"):
            layer_constants(spec, 1.0)

    def test_off_center_error_names_a_plain_float_shift(self):
        # hermite2 at sigma_tilde2 = 2 has Gaussian mean (2 - 1) / sqrt(2)
        spec = LayerSpec(2.0, 0.0, 0.0, hermite2_activation(), 1.0)
        with pytest.raises(ValueError, match=r"f\.shifted\(0\.70710678") as info:
            layer_constants(spec, 1.0)
        assert "np.float64" not in str(info.value)

    def test_layer_spec_validation(self):
        with pytest.raises(ValueError):
            LayerSpec(-1.0, 0.0, 0.0, tanh_activation(), 1.0)
        with pytest.raises(ValueError):
            LayerSpec(1.0, 0.0, 0.0, tanh_activation(), 0.0)
        for args, message in (
            ((np.nan, 0.0, 0.0), "sigma_w2 must be finite"),
            ((1.0, np.inf, 0.0), "sigma_b2 must be finite"),
            ((1.0, -1.0, 0.0), "bias and noise variances must be nonnegative"),
            ((1.0, 0.0, -1.0), "bias and noise variances must be nonnegative"),
        ):
            with pytest.raises(ValueError, match=message):
                LayerSpec(*args, tanh_activation(), 1.0)


class TestEquivalentResolvents:
    def test_scalar_covariance_matches_closed_form(self):
        n = 30
        z = 1.0 + 0.5j
        for c, gamma in ((1.0, 1.0), (2.5, 0.5)):
            g_mat = gbox_from_sigma(c * np.eye(n), gamma, z)
            g = mp_stieltjes_closed(gamma, z / c) / c
            assert np.max(np.abs(g_mat - g * np.eye(n))) < 1e-11

    def test_trace_identity_and_bounds(self):
        n = 60
        sigma = random_psd(n, 1)
        mu = esd_from_eigenvalues(np.linalg.eigvalsh(sigma))
        for z in (0.5 + 0.05j, -1.0 + 1j, 3.0 + 0.2j):
            g_mat = gbox_from_sigma(sigma, 1.3, z)
            g = MpBoxtimes(1.3, mu).stieltjes(z)
            assert abs(np.trace(g_mat) / n - g) < 1e-10
            assert np.linalg.norm(g_mat, 2) <= 1.0 / z.imag + 1e-9
            assert (np.trace(g_mat) / n).imag > 0

    def test_composed_route_equals_direct_route(self):
        n = 80
        kx = random_psd(n, 2)
        lam, vec = np.linalg.eigh(kx)
        tau = esd_from_eigenvalues(lam)

        def resolvent(w):
            return (vec * (1.0 / (lam - w))) @ vec.T

        a, b, gamma, z = 0.7, 0.4, 1.5, 1.2 + 0.3j
        ((_, build, ok),) = _compose(MpBoxtimes(gamma, tau, a=a, b=b), 1, resolvent, [z])
        right = gbox_from_sigma(a * np.eye(n) + b * kx, gamma, z)
        assert ok
        assert np.linalg.norm(build() - right, 2) < 1e-9

    def test_composed_without_linear_part_ignores_input(self, monkeypatch):
        n = 24
        z = 0.8 + 0.4j

        def must_not_be_called(w):
            raise AssertionError("input resolvent used despite b = 0")

        with_input_map(monkeypatch, lambda g0: must_not_be_called)
        # hermite2 has no linear part; sigma_d2 = 0.7 puts a at 1.7
        layers = (
            LayerSpec(1.0, 0.0, 0.7, hermite2_activation(), 0.8),
            LayerSpec(1.0, 0.0, 0.0, identity_activation(), 1.0),
        )
        net = NetworkSpec(n=n, d0=n, dims=(30, 24), data=IidData(1.0), layers=layers)
        chain = build_chain(net)
        const = chain.layers[0].constants
        assert const.b == 0.0 and const.a == pytest.approx(1.7, abs=1e-10)
        ((g, build, ok),) = chain.layers[0].gbuilder([z])
        want = mp_stieltjes_closed(0.8, z / const.a) / const.a
        assert ok and abs(g - want) < 1e-11
        assert np.max(np.abs(build() - want * np.eye(n))) < 1e-11
        # the layer above composes on g_chi1(w) I, still without the input
        ((g2, build2, ok2),) = chain.layers[1].gbuilder([z])
        assert ok2 and abs(np.trace(build2()) / n - g2) < 1e-10

    def test_unconverged_points_are_flagged_and_raise_in_gbox_from_sigma(self):
        n = 30
        sigma = random_psd(n, 4)
        starved = FixedPointConfig(max_iter=3)
        with pytest.raises(DivergenceError):
            gbox_from_sigma(sigma, 1.0, 1.0 + 1e-3j, starved)
        lam, vec = np.linalg.eigh(sigma)
        chi = MpBoxtimes(1.0, esd_from_eigenvalues(lam), starved)
        calls = []

        def resolvent(w):
            calls.append(w)
            return (vec / (lam - w)) @ vec.T

        zs = [1.0 + 1e-3j, 1.0 + 10j]
        out = _compose(chi, 1, resolvent, zs)
        assert [ok for _, _, ok in out] == [False, True]
        assert out[0][1] is None and not calls
        out[1][1]()
        assert len(calls) == 1

    def test_argument_leaving_the_upper_half_plane_is_flagged(self, monkeypatch):
        chi = MpBoxtimes(1.0, dirac(1.0), a=0.5, b=2.0)
        solve = MpBoxtimes._solve

        def solve_below_axis(self, z):
            # a converged level whose l sits below the real axis
            g, l, ok = solve(self, z)
            return g, np.conj(l), ok

        monkeypatch.setattr(MpBoxtimes, "_solve", solve_below_axis)

        def must_not_be_called(w):
            raise AssertionError("base map evaluated off the upper half-plane")

        ((g, build, ok),) = _compose(chi, 1, must_not_be_called, [1.0 + 0.5j])
        assert not ok and build is None

    def test_b_smaller_than_snap_tolerance_counts_as_zero(self):
        assert B_ZERO_TOL < 1e-6


class TestEquicorrelated:
    def test_closed_form_matches_generic_builder(self):
        n = 100
        a, b = TANH_A, TANH_B
        sigma = np.full((n, n), b / n)
        np.fill_diagonal(sigma, a + b)
        for z in (1j, 1.5 + 0.2j, -0.5 + 0.8j):
            g, g_mat = equicorrelated_equivalent(n, a, b, z)
            generic = gbox_from_sigma(sigma, 1.0, z)
            assert np.linalg.norm(g_mat - generic, 2) < 1e-9
            assert abs(np.trace(g_mat) / n - g) < 1e-11
            assert abs(g - equicorrelated_stieltjes(n, a, b, z)) < 1e-10

    def test_degenerate_rank_one_weight(self):
        # b = 0 collapses the two atoms onto a single point mass at a
        g, g_mat = equicorrelated_equivalent(50, 2.0, 0.0, 1j)
        want = mp_stieltjes_closed(1.0, 1j / 2.0) / 2.0
        assert abs(g - want) < 1e-11
        assert np.max(np.abs(g_mat - g * np.eye(50))) < 1e-11

    def test_validation(self):
        with pytest.raises(ValueError):
            equicorrelated_stieltjes(1, 1.0, 1.0, 1j)
        with pytest.raises(ValueError):
            equicorrelated_stieltjes(10, -0.5, 1.0, 1j)


class TestChain:
    def network(self, layers, n=64):
        return NetworkSpec(
            n=n,
            d0=n,
            dims=tuple(n for _ in layers),
            data=IidData(1.0),
            layers=tuple(layers),
        )

    def test_two_identity_layers_unroll(self, monkeypatch):
        n = 64
        net = self.network([LayerSpec(1.0, 0.0, 0.0, identity_activation(), 1.0)] * 2, n)
        calls = []

        def counted(g0):
            def g(w):
                calls.append(complex(w))
                return g0(w)

            return g

        with_input_map(monkeypatch, counted)
        chain = build_chain(net)
        assert chain.depth == 2
        z = 0.9 + 0.35j
        # iid input with n = d0: the input law is MP(1) (x) delta_1
        chi0 = MpBoxtimes(1.0, dirac(1.0))
        assert chain.chi0.stieltjes(z) == chi0.stieltjes(z)

        # identity layers have a = 0, b = 1, so each step is a plain
        # multiplicative convolution of the previous spectrum
        chi1 = MpBoxtimes(1.0, chi0)
        chi2 = MpBoxtimes(1.0, chi1)
        assert abs(chain.layers[0].chi.stieltjes(z) - chi1.stieltjes(z)) < 1e-10
        assert abs(chain.layers[1].chi.stieltjes(z) - chi2.stieltjes(z)) < 1e-10

        calls.clear()
        ((_, build, ok),) = chain.layers[1].gbuilder([z])
        g2 = build()
        assert ok
        assert len(calls) == 1
        assert abs(np.trace(g2) / n - chi2.stieltjes(z)) < 1e-9
        assert np.linalg.norm(g2, 2) <= 1.0 / z.imag + 1e-9

    def test_depth_three_builder_matches_layer_by_layer_composition(self, monkeypatch):
        def no_fallback(*args):
            raise AssertionError("a point was left to the nested fallback")

        monkeypatch.setattr(MpBoxtimes, "_nested", no_fallback)
        # explicit input kernel K_X = x0^T x0 / d0: a discrete input law and a full resolvent
        n, d0 = 40, 80
        x0 = np.random.default_rng(3).standard_normal((d0, n))
        lam, vec = np.linalg.eigh(conjugate_kernel(x0))
        chi0 = esd_from_eigenvalues(lam)

        def g0(w):
            return (vec * (1.0 / (lam - w))) @ vec.T

        layers = [LayerSpec(1.0, 1.0, 0.0, tanh_activation(), gamma) for gamma in (1.0, 2.0, 1.0)]
        net = NetworkSpec(n=n, d0=d0, dims=(40, 20, 40), data=ExplicitData(x0), layers=tuple(layers))
        chain = build_chain(net)
        consts = [layer.constants for layer in chain.layers]

        # one oracle composition per layer, each law solved by the nested route
        laws = [chi0]
        for c, spec in zip(consts[:-1], layers):
            laws.append(PicardLaw(spec.gamma, Pushed(c.a, c.b, laws[-1])))

        def composed(k, w):
            inner = g0 if k == 0 else (lambda v: composed(k - 1, v))
            c = consts[k]
            return compose(inner, laws[k], c.a, c.b, layers[k].gamma, w)

        zs = [0.8 + 1e-3j, 2.5 + 0.05j, -0.5 + 0.5j]
        for z, (_, build, ok) in zip(zs, chain.layers[2].gbuilder(zs)):
            assert ok
            got = build()
            want = composed(2, z)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_single_atom_input_composes_through_every_layer(self):
        # an explicit input with K_X = I: the law delta_1 and the map w -> I / (1 - w).
        # Layer 1 pushes that atom, so it is no closed form: layer 2 must walk
        # both layers' l down to the input map to land on its own g
        n = 16
        layers = [LayerSpec(1.0, 1.0, 0.0, tanh_activation(), gamma) for gamma in (1.0, 2.0)]
        data = ExplicitData(np.sqrt(n) * np.eye(n))
        net = NetworkSpec(n=n, d0=n, dims=(16, 8), data=data, layers=tuple(layers))
        chain = build_chain(net)
        assert np.array_equal(chain.chi0.atoms, [1.0]) and np.array_equal(chain.chi0.weights, [1.0])
        # off the axis, where every layer's solve leaves l exact to rounding
        zs = [0.5 + 0.1j, 1.0 + 0.1j, 2.0 + 1.0j, -0.5 + 0.5j, 3.0 + 0.2j]
        for layer in chain.layers:
            for z, (g, build, ok) in zip(zs, layer.gbuilder(zs)):
                assert ok
                assert abs(g - layer.chi.stieltjes(z)) <= 1e-12
                assert np.max(np.abs(build() - g * np.eye(n))) <= 1e-12

    @staticmethod
    def solve_with_spy(monkeypatch, gamma, dims, z):
        """The top law of tanh layers at gamma, its g and ok at z, the laws sent to the fallback, and the oracle g."""
        layers = (LayerSpec(1.0, 0.0, 0.0, tanh_activation(), gamma),) * len(dims)
        net = NetworkSpec(n=4, d0=4, dims=dims, data=IidData(1.0), layers=layers)
        chain = build_chain(net)
        fallen_back = []
        nested = MpBoxtimes._nested

        def spy(self, z):
            fallen_back.append(self)
            return nested(self, z)

        monkeypatch.setattr(MpBoxtimes, "_nested", spy)
        g, ok = chain.layers[-1].chi.stieltjes_checked(z)
        oracle = chain.chi0
        for layer in chain.layers:
            oracle = PicardLaw(gamma, Pushed(layer.constants.a, layer.constants.b, oracle))
        return chain.layers[-1].chi, g, ok, fallen_back, complex(oracle.stieltjes(z))

    def test_newton_certifies_a_point_where_l_is_small(self, monkeypatch):
        # near the hard edge at 0 of two gamma = 1/4 tanh layers, |l| is about
        # 7e-3; Newton's stop test must be relative to |l| to certify it
        _, g, ok, fallen_back, want = self.solve_with_spy(monkeypatch, 0.25, (16, 16), 0.0051 + 1e-4j)
        assert not fallen_back
        assert ok and abs(g - want) <= 1e-10 * abs(want)

    def test_nested_fallback_rescues_a_point_newton_leaves(self, monkeypatch):
        # closer still to the hard edge of two or three gamma = 1/2 tanh
        # layers, the stacked Newton solve leaves these points uncertified;
        # the nested route must then give the converged value, so the
        # fallback is not dead code. At three layers the fallback's pushed
        # base is itself a chain of two levels
        for dims, z in (((8, 8), 0.00265872 + 1e-6j), ((8, 8, 8), 0.0010916 + 1e-4j)):
            with monkeypatch.context() as m:
                chi, g, ok, fallen_back, want = self.solve_with_spy(m, 0.5, dims, z)
            assert fallen_back and fallen_back[0] is chi
            assert ok and abs(g - want) <= 1e-10 * abs(want)

    def test_constants_propagate_output_variance(self):
        net = self.network([LayerSpec(1.0, 1.0, 1.0, tanh_activation(), 1.0)] * 2)
        first, second = build_chain(net).layers
        assert first.constants.sigma_y2 == pytest.approx(TANH_SY2, abs=1e-12)
        assert second.constants.sigma_x2 == pytest.approx(first.constants.sigma_y2)

    def test_layer_errors_name_their_layer(self):
        net = self.network(
            [
                LayerSpec(1.0, 1.0, 0.0, tanh_activation(), 1.0),
                LayerSpec(1.0, 0.0, 0.0, hermite2_activation(), 1.0),
            ]
        )
        with pytest.raises(ValueError, match="layer 2"):
            build_chain(net)

    def test_registry_activation_round_trip(self):
        f = activation_by_name("tanh")
        spec = LayerSpec(1.0, 1.0, 1.0, f, 1.0)
        c = layer_constants(spec, 1.0)
        assert c.a == pytest.approx(TANH_A, abs=1e-12)
