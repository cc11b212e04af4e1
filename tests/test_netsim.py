"""Sampled networks, their kernels, and the seeded randomness layout."""

import csv
import json
import tracemalloc

import numpy as np
import pytest

from ckequiv.cli import main
from ckequiv.detequiv import LayerSpec, _ungated_constants, layer_constants
from ckequiv.hermite import hermite2_activation, identity_activation, tanh_activation
from ckequiv.measures import MpBoxtimes, dirac, esd_from_eigenvalues, kolmogorov_distance
from ckequiv.netsim import (
    EquicorrelatedData,
    ExplicitData,
    IidData,
    NetworkSpec,
    SimResult,
    SpectralFactory,
    conjugate_kernel,
    forward_layer,
    layer_outputs,
    orthogonality_stats,
    run_network,
    sample_gaussian,
    stream,
)


def identity_layer(gamma=1.0):
    return LayerSpec(1.0, 0.0, 0.0, identity_activation(), gamma)


class TestRandomnessLayout:
    def test_stream_is_reproducible(self):
        a = stream(7, 1, "W").standard_normal(5)
        b = stream(7, 1, "W").standard_normal(5)
        assert np.array_equal(a, b)

    def test_streams_are_separated_by_key(self):
        base = stream(7, 1, "W").standard_normal(5)
        for other in (stream(7, 1, "B"), stream(7, 2, "W"), stream(8, 1, "W")):
            assert not np.array_equal(base, other.standard_normal(5))

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="role"):
            stream(0, 0, "Q")

    def test_sample_gaussian_scaling(self):
        a = sample_gaussian(6, 4, 4.0, np.random.default_rng(3))
        b = sample_gaussian(6, 4, 1.0, np.random.default_rng(3))
        assert np.allclose(a, 2.0 * b)

    def test_sample_gaussian_zero_variance(self):
        out = sample_gaussian(3, 5, 0.0, np.random.default_rng(0))
        assert out.shape == (3, 5)
        assert np.all(out == 0.0)
        with pytest.raises(ValueError):
            sample_gaussian(2, 2, -1.0, np.random.default_rng(0))


class TestDataModels:
    def test_iid_moments(self):
        x = IidData(2.0).materialize(400, 300, np.random.default_rng(0))
        assert x.shape == (400, 300)
        assert abs(x.mean()) < 0.02
        assert x.var() == pytest.approx(2.0, rel=0.05)
        assert IidData(2.0).input_variance() == 2.0
        with pytest.raises(ValueError):
            IidData(0.0)

    def test_equicorrelated_kernel_is_exact(self):
        n = 50
        x = EquicorrelatedData().materialize(n, n, np.random.default_rng(0))
        k = conjugate_kernel(x)
        want = np.eye(n) + (np.ones((n, n)) - np.eye(n)) / n
        assert np.max(np.abs(k - want)) < 1e-13
        with pytest.raises(ValueError):
            EquicorrelatedData().materialize(n + 1, n, np.random.default_rng(0))

    def test_explicit_data(self):
        x0 = np.arange(6.0).reshape(2, 3)
        data = ExplicitData(x0)
        out = data.materialize(2, 3, np.random.default_rng(0))
        assert np.array_equal(out, x0)
        out[0, 0] = 99.0
        assert data.x0[0, 0] == 0.0
        k = conjugate_kernel(x0)
        assert data.input_variance() == pytest.approx(np.mean(np.diag(k)))
        with pytest.raises(ValueError):
            data.materialize(3, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ExplicitData(np.ones(4))

    def test_complex_explicit_data_is_rejected(self):
        # a float cast would drop the imaginary part with only a ComplexWarning
        with pytest.raises(ValueError, match="x0 must be real"):
            ExplicitData(np.ones((2, 3)) + 0.5j)


class TestForwardPass:
    def test_identity_layer_is_scaled_matmul(self):
        rng_w = np.random.default_rng(42)
        x = np.arange(12.0).reshape(4, 3)
        w_expected = np.random.default_rng(42).standard_normal((3, 4))
        rngs = (rng_w, np.random.default_rng(0), np.random.default_rng(1))
        out = forward_layer(x, identity_layer(), rngs)
        assert np.allclose(out, w_expected @ x / 2.0)

    def test_shape_checks(self):
        rngs = tuple(np.random.default_rng(i) for i in range(3))
        with pytest.raises(ValueError, match="at least one row"):
            forward_layer(np.ones((0, 3)), identity_layer(), rngs)
        with pytest.raises(ValueError, match="width"):
            forward_layer(np.ones((4, 3)), identity_layer(gamma=2.0), rngs)

    def test_conjugate_kernel_properties(self):
        y = np.random.default_rng(0).standard_normal((30, 20))
        k = conjugate_kernel(y)
        assert k.shape == (20, 20)
        assert np.array_equal(k, k.T)
        assert np.linalg.eigvalsh(k)[0] > -1e-12
        with pytest.raises(ValueError, match="at least one row"):
            conjugate_kernel(y[:0])

    @pytest.mark.parametrize("d, n", [(300, 200), (200, 300), (250, 250)])
    def test_conjugate_kernel_is_exactly_symmetric_in_any_layout(self, d, n):
        # eigvalsh reads one triangle of K, so K must be symmetric to the bit
        wide = np.random.default_rng(1).standard_normal((d, 2 * n))
        layouts = {
            "C": np.ascontiguousarray(wide[:, :n]),
            "F": np.asfortranarray(wide[:, :n]),
            "strided": wide[:, ::2],
        }
        for name, y in layouts.items():
            k = conjugate_kernel(y)
            assert k.shape == (n, n)
            assert np.array_equal(k, k.T), name
            want = np.einsum("ki,kj->ij", y, y) / d
            assert np.max(np.abs(k - want)) <= 1e-12 * np.max(np.abs(want)), name

    @pytest.mark.parametrize("sigma_d2", [0.0, 0.25])
    def test_in_place_layer_matches_the_plain_expression(self, sigma_d2):
        # same IEEE operations as f(W x / sqrt(d) + B) + D, D added only when sampled
        lspec = LayerSpec(1.0, 0.5, sigma_d2, tanh_activation(), 2.0)
        x = np.random.default_rng(4).standard_normal((20, 30))
        out = forward_layer(x, lspec, tuple(np.random.default_rng(s) for s in (7, 8, 9)))
        rng_w, rng_b, rng_d = (np.random.default_rng(s) for s in (7, 8, 9))
        w = rng_w.standard_normal((15, 20))
        b = np.sqrt(0.5) * rng_b.standard_normal((15, 30))
        d = np.sqrt(sigma_d2) * rng_d.standard_normal((15, 30))
        want = np.tanh(w @ x / np.sqrt(20) + b) + d
        assert np.array_equal(out, want)


class TestSpectralFactory:
    def test_stieltjes_matches_eigenvalue_sum(self):
        k = conjugate_kernel(np.random.default_rng(1).standard_normal((50, 40)))
        fac = SpectralFactory(k)
        z = 1.2 + 0.3j
        lam = np.linalg.eigvalsh(k)
        direct = np.mean(1.0 / (lam - z))
        # the normalized trace of the factory's resolvent is the ESD's transform
        assert abs(np.trace(fac.resolvent(z)) / lam.size - direct) < 1e-12
        assert np.max(np.abs(fac.eigenvalues - lam)) < 1e-12

    def test_resolvent_matches_inverse(self):
        k = conjugate_kernel(np.random.default_rng(2).standard_normal((60, 40)))
        fac = SpectralFactory(k)
        for z in (0.8 + 0.25j, -0.5 + 1e-3j, 3.0 + 2.0j):
            direct = np.linalg.inv(k - z * np.eye(40))
            assert np.max(np.abs(fac.resolvent(z) - direct)) < 1e-12

    def test_upper_half_plane_only(self):
        fac = SpectralFactory(np.eye(3))
        for bad in (1.0, 1 - 0.5j):
            with pytest.raises(ValueError):
                fac.resolvent(bad)
        with pytest.raises(ValueError):
            SpectralFactory(np.ones((2, 3)))

    def test_orthogonality_stats_small_case(self):
        k = np.array([[2.0, 1.0], [1.0, 2.0]])
        st = orthogonality_stats(k, 1.0, np.linalg.eigvalsh(k))
        assert st.max_dev == pytest.approx(1.0)
        assert st.diag_norm == pytest.approx(np.sqrt(2.0))
        assert st.spec_norm == pytest.approx(3.0)
        with pytest.raises(ValueError, match="eigenvalues"):
            orthogonality_stats(k, 1.0, [3.0])

    @pytest.mark.parametrize("shift", [-4.0, 0.0, 4.0])
    def test_spec_norm_matches_svd_norm_on_indefinite_matrices(self, shift):
        # the shift moves the largest |eigenvalue| from one end of the spectrum to the other
        a = np.random.default_rng(3).standard_normal((50, 50))
        k = 0.5 * (a + a.T) + shift * np.eye(50)
        lam = np.linalg.eigvalsh(k)
        assert lam[0] < 0 < lam[-1]
        want = np.linalg.norm(k, 2)
        got = orthogonality_stats(k, 1.0, lam).spec_norm
        assert abs(got - want) <= 1e-12 * want


class TestRunNetwork:
    def network(self, n=32, layers=None, data=None):
        layers = layers or [LayerSpec(1.0, 1.0, 0.0, tanh_activation(), 1.0)]
        return NetworkSpec(
            n=n,
            d0=n,
            dims=tuple(n for _ in layers),
            data=data or IidData(1.0),
            layers=tuple(layers),
        )

    def kernels(self, net, seed):
        return [conjugate_kernel(y) for y, _ in layer_outputs(net, seed)]

    def test_deterministic_given_seed(self):
        net = self.network()
        r1 = run_network(net, seed=5)
        r2 = run_network(net, seed=5)
        k1, k2 = self.kernels(net, 5)[1], self.kernels(net, 5)[1]
        assert np.array_equal(k1, k2)
        assert np.array_equal(r1.eigenvalues[1], r2.eigenvalues[1])
        assert np.array_equal(SpectralFactory(k1).resolvent(1j), SpectralFactory(k2).resolvent(1j))
        assert not np.array_equal(k1, self.kernels(net, 6)[1])

    def test_result_layout(self):
        net = self.network(layers=[LayerSpec(1.0, 1.0, 0.0, tanh_activation(), 1.0)] * 2)
        res = run_network(net, seed=0)
        kernels = self.kernels(net, 0)
        assert len(kernels) == len(res.eigenvalues) == len(res.stats) == 3
        assert all(lam.size == net.n for lam in res.eigenvalues)
        assert all(lam[0] >= -1e-8 for lam in res.eigenvalues)
        z = 1.0 + 0.5j
        direct = np.linalg.inv(kernels[2] - z * np.eye(net.n))
        assert np.max(np.abs(SpectralFactory(kernels[2]).resolvent(z) - direct)) < 1e-10

    def test_result_checks_counts_and_the_psd_floor(self):
        # the floor is -1e-12 max |lambda|; an eigenvalue exactly on it passes
        lam = np.array([-1e-12 * 4.0, 1.0, 4.0])
        SimResult(seed=0, eigenvalues=(lam, lam), stats=())
        with pytest.raises(ValueError, match="eigenvalue count must equal n at every layer"):
            SimResult(seed=0, eigenvalues=(lam, lam[1:]), stats=())
        below = lam.copy()
        below[0] = np.nextafter(lam[0], -np.inf)
        with pytest.raises(ValueError, match="kernel has eigenvalue -4.000e-12 < -4.000e-12"):
            SimResult(seed=0, eigenvalues=(lam, below), stats=())

    def test_uncentered_layer_uses_shared_output_variance(self):
        # hermite2 at sigma_tilde2 = 2 has a nonzero Gaussian mean, which the
        # theory side rejects; the simulation side samples it all the same
        lspec = LayerSpec(2.0, 0.0, 0.0, hermite2_activation(), 1.0)
        with pytest.raises(ValueError, match="shifted"):
            layer_constants(lspec, 1.0)
        net = self.network(n=16, layers=[lspec])
        res = run_network(net, seed=1)
        sy2 = _ungated_constants(lspec.f, 2.0, 1.0, 0.0, 0.0).sigma_y2
        # E[f(sqrt(2) N)^2] = (3 * 4 - 2 * 2 + 1) / 2 for f(t) = (t^2 - 1) / sqrt(2)
        assert sy2 == pytest.approx(4.5, rel=1e-12)
        (_, sx2), (y1, sigma2) = layer_outputs(net, seed=1)
        assert (sx2, sigma2) == (1.0, sy2)
        k1 = conjugate_kernel(y1)
        assert res.stats[1] == orthogonality_stats(k1, sy2, res.eigenvalues[1])

    def test_eigenvalues_match_full_decomposition(self):
        net = self.network(n=120, layers=[LayerSpec(1.0, 1.0, 0.0, tanh_activation(), 1.0)] * 2)
        res = run_network(net, seed=4)
        for k, lam, st in zip(self.kernels(net, 4), res.eigenvalues, res.stats):
            want = np.linalg.eigh(k)[0]
            assert np.max(np.abs(lam - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
            assert st.spec_norm == pytest.approx(np.linalg.norm(k, 2), rel=1e-12)

    def test_one_eigenvalue_only_decomposition_per_kernel(self, monkeypatch):
        calls = {"eigh": 0, "eigvalsh": 0, "svd": 0, "norm2": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        norm = np.linalg.norm

        def counted_norm(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2:
                calls["norm2"] += 1
            return norm(x, ord, *args, **kwargs)

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        net = self.network(layers=[LayerSpec(1.0, 1.0, 0.0, tanh_activation(), 1.0)] * 2)
        run_network(net, seed=0)
        assert calls == {"eigh": 0, "eigvalsh": 3, "svd": 0, "norm2": 0}

    @pytest.mark.parametrize("depth", [1, 4])
    def test_peak_memory_is_flat_in_depth(self, depth):
        # each kernel is dropped before the next layer is sampled: activations,
        # one kernel and one n x n temporary are alive at once, whatever the depth
        n = 300
        net = self.network(n=n, layers=[LayerSpec(1.0, 1.0, 0.5, tanh_activation(), 1.0)] * depth)
        tracemalloc.start()
        try:
            run_network(net, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n * n * 8

    def test_kernel_norms_stay_bounded_in_width(self):
        norms = {}
        for n in (100, 400):
            norms[n] = max(
                run_network(self.network(n=n), seed).stats[1].spec_norm
                for seed in (0, 1)
            )
        assert norms[400] <= 2.0 * norms[100]

    def test_spec_validation(self):
        good = identity_layer()
        with pytest.raises(ValueError, match="gamma"):
            NetworkSpec(32, 32, (16,), IidData(1.0), (good,))
        with pytest.raises(ValueError):
            NetworkSpec(32, 32, (32, 32), IidData(1.0), (good,))
        with pytest.raises(TypeError):
            NetworkSpec(32, 32, (32,), IidData(1.0), ("not a layer",))
        with pytest.raises(ValueError):
            NetworkSpec(32, 16, (32,), EquicorrelatedData(), (good,))

    def test_csv_round_trips(self, tmp_path, capsys):
        # the simulate tables carry run_network's values exactly
        res = run_network(self.network(n=8), seed=3)
        layer = {"sigma_w2": 1.0, "sigma_b2": 1.0, "sigma_d2": 0.0, "activation": "tanh", "gamma": 1.0}
        tree = {
            "network": {"n": 8, "d0": 8, "dims": [8], "data": {"kind": "iid"}, "layers": [layer]},
            "sim": {"seeds": [3]},
        }
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(tree))
        assert main(["simulate", "--config", str(cpath), "--out", str(tmp_path), "--no-timestamp"]) == 0
        capsys.readouterr()
        with open(tmp_path / "simulate_eigenvalues.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8 * 2
        for k in (0, 1):
            back = np.array([float(r["eigenvalue"]) for r in rows if r["layer"] == str(k)])
            assert np.array_equal(back, res.eigenvalues[k])

        with open(tmp_path / "simulate_stats.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert [float(r["max_dev"]) for r in rows] == [st.max_dev for st in res.stats]


class TestAgainstLimitLaws:
    """Moderate-size spectra versus their limiting distributions.

    The input model matters: deterministic near-identity inputs give a
    single multiplicative convolution with a point mass, while i.i.d.
    inputs push a full extra factor through the layer.  Both routes are
    pinned here so neither can silently replace the other.
    """

    def _layer_esd(self, data, n=400, seed=0):
        net = NetworkSpec(
            n=n, d0=n, dims=(n,), data=data, layers=(identity_layer(),)
        )
        res = run_network(net, seed=seed)
        return esd_from_eigenvalues(res.eigenvalues[1])

    def test_near_identity_input_gives_plain_mp(self):
        esd = self._layer_esd(EquicorrelatedData())
        mp = MpBoxtimes(1.0, dirac(1.0))
        assert kolmogorov_distance(esd, mp) < 0.05

    def test_iid_input_gives_the_product_law(self):
        esd = self._layer_esd(IidData(1.0))
        mp = MpBoxtimes(1.0, dirac(1.0))
        product = MpBoxtimes(1.0, mp)
        assert kolmogorov_distance(esd, product) < 0.06
        assert kolmogorov_distance(esd, mp) > 0.1
