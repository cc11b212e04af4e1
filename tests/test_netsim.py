"""Sampled networks, their kernels, and the seeded randomness layout."""

import csv
import json
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import ckequiv.detequiv as detequiv
import ckequiv.netsim as netsim
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

    @pytest.mark.parametrize("sigma_d2", [0.0, 0.25])
    def test_row_blocked_layer_is_the_whole_matrix_layer(self, sigma_d2):
        # three row blocks, the last of 3 rows: W, B and D are drawn block by
        # block from their streams, yet the layer keeps the whole draw's bits
        d_prev, n, d_out = 40, 48, 2 * netsim._ROWS + 3
        lspec = LayerSpec(1.5, 0.5, sigma_d2, tanh_activation(), n / d_out)
        x = np.random.default_rng(4).standard_normal((d_prev, n))
        out = forward_layer(x, lspec, tuple(np.random.default_rng(s) for s in (7, 8, 9)))
        rng_w, rng_b, rng_d = (np.random.default_rng(s) for s in (7, 8, 9))
        w = np.sqrt(1.5) * rng_w.standard_normal((d_out, d_prev))
        b = np.sqrt(0.5) * rng_b.standard_normal((d_out, n))
        d = np.sqrt(sigma_d2) * rng_d.standard_normal((d_out, n))
        want = np.tanh(w @ x / np.sqrt(d_prev) + b) + d
        assert out.shape == (d_out, n)
        assert np.array_equal(out, want)

    def test_kernel_of_a_huge_matrix_does_not_overflow(self):
        # d max|Y|^2 exceeds the double range, K does not: Y is scaled by a
        # power of two, exactly, so K is the small kernel times 2^1020 to the bit
        g = np.random.default_rng(2).standard_normal((30, 20))
        with np.errstate(over="raise"):
            k = conjugate_kernel(np.ldexp(g, 510))
        assert np.array_equal(k, np.ldexp(conjugate_kernel(g), 1020))
        assert np.array_equal(k, k.T)
        # a kernel that fits is formed unscaled
        assert np.array_equal(conjugate_kernel(g), g.T @ g / 30)

    def test_kernel_beyond_the_double_range_raises(self):
        # K_11 = 4e308 itself overflows: the scaled kernel is not multiplied back
        with np.errstate(all="raise"), pytest.raises(ArithmeticError, match="overflows the double range"):
            conjugate_kernel(np.full((4, 3), 2e154))
        # K_ij = 1.69e308 fits, through the same scaled path
        assert np.isfinite(conjugate_kernel(np.full((4, 3), 1.3e154))).all()


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

    @staticmethod
    def copied_entry_stats(k, sigma2):
        """max_dev and diag_norm read from a copy of K with its diagonal shifted."""
        diag = np.diag(k) - sigma2
        delta = k.copy()
        np.fill_diagonal(delta, diag)
        scale = np.ldexp(1.0, np.frexp(np.max(np.abs(diag)))[1] - 1)
        return float(np.max(np.abs(delta))), scale * float(np.linalg.norm(diag / scale))

    @pytest.mark.parametrize("where", ["none", "diagonal", "first block", "last block"])
    def test_entry_stats_read_k_in_blocks_and_leave_it_unchanged(self, where):
        # three row blocks; the largest deviation is put in each of them in turn
        n = 2 * netsim._ROWS + 5
        a = np.random.default_rng(6).standard_normal((n, n))
        k = a + a.T + 10.0 * np.eye(n)
        spot = {"none": None, "diagonal": (n - 1, n - 1), "first block": (3, n - 2), "last block": (n - 1, 7)}[where]
        if spot is not None:
            k[spot] = k[spot[::-1]] = -50.0
        want = self.copied_entry_stats(k, 10.0)
        frozen = k.copy()
        frozen.flags.writeable = False
        assert netsim._entry_stats(frozen, 10.0) == want
        lam = np.linalg.eigvalsh(k)
        st = orthogonality_stats(frozen, 10.0, lam)
        assert (st.max_dev, st.diag_norm) == want
        assert np.array_equal(frozen, k)

    @pytest.mark.parametrize("spot", ["first diagonal", "first block", "second block", "last diagonal"])
    def test_a_nan_anywhere_in_k_gives_a_nan_max_dev(self, spot):
        rows = netsim._ROWS
        n = 2 * rows + 7
        k = np.eye(n)
        k[{"first diagonal": (0, 0), "first block": (5, rows + 12), "second block": (rows + 9, 2),
           "last diagonal": (n - 1, n - 1)}[spot]] = np.nan
        assert np.isnan(netsim._entry_stats(k, 1.0)[0])

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


class TestEigvalsh:
    """The eigenvalue-only kernel that decomposes every K of run_network."""

    @staticmethod
    def kernel(n, gamma):
        d = max(1, round(n / gamma))
        return conjugate_kernel(np.random.default_rng(n).standard_normal((d, n)))

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 159, 160, 600])
    def test_matches_numpy_and_keeps_the_psd_floor(self, n, gamma):
        # gamma = 2 leaves n - d eigenvalues that are zero up to rounding
        k = self.kernel(n, gamma)
        want = np.linalg.eigvalsh(k)
        lam = netsim._eigvalsh(k.copy())
        tol = 1e-12 * np.max(np.abs(want))
        assert lam.shape == (n,) and np.all(np.diff(lam) >= 0)
        assert np.max(np.abs(lam - want)) <= tol
        assert np.max(np.abs(lam - np.linalg.eigh(k)[0])) <= tol
        SimResult(seed=0, eigenvalues=(lam,), stats=())

    def test_concurrent_calls_give_the_same_bits(self):
        k = self.kernel(600, 1.0)
        want = netsim._eigvalsh(k.copy())
        with ThreadPoolExecutor(2) as pool:
            got = list(pool.map(netsim._eigvalsh, [k.copy() for _ in range(4)]))
        assert all(np.array_equal(lam, want) for lam in got)

    def test_fallback_is_numpys_eigvalsh(self, monkeypatch):
        layer = LayerSpec(1.0, 1.0, 0.0, tanh_activation(), 2.0)
        net = NetworkSpec(n=40, d0=40, data=IidData(1.0), layers=(layer, layer))
        fast = run_network(net, seed=3)
        monkeypatch.setattr(detequiv, "_lapacke", lambda driver: None)
        slow = run_network(net, seed=3)
        kernels = [conjugate_kernel(y) for y, _ in layer_outputs(net, 3)]
        for k, a, b in zip(kernels, fast.eigenvalues, slow.eigenvalues):
            assert np.array_equal(b, np.linalg.eigvalsh(k))
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    @pytest.mark.skipif(detequiv._lapacke("dsyevd_2stage") is None, reason="numpy's LAPACK has no two-stage routine")
    def test_nan_kernel_raises(self):
        # numpy's eigvalsh returns [0, -0, 2] here
        with pytest.raises(np.linalg.LinAlgError, match="info = -5"):
            netsim._eigvalsh(np.diag([np.nan, 1.0, 2.0]))

    def test_nan_kernel_raises_on_the_fallback(self, monkeypatch):
        monkeypatch.setattr(detequiv, "_lapacke", lambda driver: None)
        with pytest.raises(np.linalg.LinAlgError, match="holds a NaN"):
            netsim._eigvalsh(np.diag([np.nan, 1.0, 2.0]))
        # the triangle read is K's upper one, as LAPACK's column-major read of C order
        k = np.diag([3.0, 1.0, 2.0])
        k[2, 0] = np.nan
        assert netsim._eigvalsh(k).tolist() == [1.0, 2.0, 3.0]

    def test_two_stage_routine_binds_on_numpys_own_openblas(self):
        # numpy's wheels link scipy-openblas, which exports the two-stage
        # routine: a renamed symbol would fall back silently and lose its speed
        try:
            lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]
        except TypeError:
            pytest.skip("numpy < 1.26 does not report its LAPACK as a dict")
        if lapack != "scipy-openblas":
            pytest.skip(f"numpy links {lapack}")
        assert detequiv._lapacke("dsyevd_2stage") is not None

    def test_rejects_a_kernel_it_cannot_overwrite_in_place(self):
        k = self.kernel(10, 1.0)
        frozen = k.copy()
        frozen.flags.writeable = False
        for bad in (np.asfortranarray(k), k.astype(np.float32), frozen):
            with pytest.raises(ValueError, match="writeable C-contiguous float64"):
                netsim._eigvalsh(bad)


class TestFactoryDecomposition:
    """SpectralFactory's eigendecomposition, behind every resolvent of compare."""

    @staticmethod
    def matrix(n):
        # not symmetric: only the lower triangle may be read
        return np.random.default_rng(n).standard_normal((n, n))

    @staticmethod
    def assert_is_eigh(k):
        frozen = k.copy()
        fac = SpectralFactory(k)
        lam, vec = np.linalg.eigh(k)
        assert np.array_equal(fac.eigenvalues, lam) and np.array_equal(fac._vectors, vec)
        assert np.array_equal(fac._vectors32, vec.astype(np.float32))
        assert np.array_equal(k, frozen)

    @pytest.mark.parametrize("n", [1, 2, 159, 160, 600])
    def test_matches_numpys_eigh_bit_for_bit(self, n):
        self.assert_is_eigh(self.matrix(n))

    def test_matches_numpys_eigh_on_a_kernel(self):
        self.assert_is_eigh(conjugate_kernel(np.random.default_rng(1).standard_normal((600, 600))))

    @pytest.mark.parametrize("bound", [True, False], ids=["bound", "fallback"])
    def test_reads_the_lower_triangle_only(self, monkeypatch, bound):
        if not bound:
            monkeypatch.setattr(detequiv, "_lapacke", lambda driver: None)
        k = self.matrix(40)
        k[np.triu_indices(40, 1)] = np.nan
        want = np.linalg.eigh(np.nan_to_num(k, nan=0.0), UPLO="L")
        fac = SpectralFactory(k)
        assert np.array_equal(fac.eigenvalues, want[0]) and np.array_equal(fac._vectors, want[1])

    def test_concurrent_calls_give_the_same_bits(self):
        k = conjugate_kernel(np.random.default_rng(2).standard_normal((300, 600)))
        want = SpectralFactory(k)
        with ThreadPoolExecutor(2) as pool:
            got = list(pool.map(SpectralFactory, [k] * 4))
        for fac in got:
            assert np.array_equal(fac.eigenvalues, want.eigenvalues) and np.array_equal(fac._vectors, want._vectors)

    def test_fallback_is_numpys_eigh(self, monkeypatch):
        monkeypatch.setattr(detequiv, "_lapacke", lambda driver: None)
        for n in (1, 159):
            self.assert_is_eigh(self.matrix(n))

    @pytest.mark.parametrize("bound", [True, False], ids=["bound", "fallback"])
    def test_nan_kernel_raises(self, monkeypatch, bound):
        if bound and detequiv._lapacke("dsyevd") is None:
            pytest.skip("numpy's LAPACK does not export dsyevd")
        if not bound:
            monkeypatch.setattr(detequiv, "_lapacke", lambda driver: None)
        with pytest.raises(np.linalg.LinAlgError, match="info = -5" if bound else "holds a NaN"):
            SpectralFactory(np.diag([np.nan, 1.0, 2.0]))

    def test_binds_on_numpys_own_openblas(self):
        try:
            lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]
        except TypeError:
            pytest.skip("numpy < 1.26 does not report its LAPACK as a dict")
        if lapack != "scipy-openblas":
            pytest.skip(f"numpy links {lapack}")
        assert detequiv._lapacke("dsyevd") is not None
        assert detequiv._lapacke("no_such_driver") is None

    def test_peak_memory_of_one_decomposition(self):
        # a fresh process, so that ru_maxrss is this decomposition's: K is
        # formed from n x n activations, freed, and the decomposition then
        # holds K's copy and dsyevd's 2 n^2 workspace, about 2.05 n^2 above
        # that peak; numpy's eigh also holds its own copy and its output, 3.05 n^2
        code = (
            "import resource\n"
            "import numpy as np\n"
            "from ckequiv.netsim import SpectralFactory, conjugate_kernel\n"
            "def peak():\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024\n"
            "n = 1000\n"
            "SpectralFactory(conjugate_kernel(np.ones((8, 8))))\n"
            "k = conjugate_kernel(np.random.default_rng(0).standard_normal((n, n)))\n"
            "before = peak()\n"
            "fac = SpectralFactory(k)\n"
            "print((peak() - before) / (8 * n * n))\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert float(out.stdout) <= 2.5


class TestRunNetwork:
    def network(self, n=32, layers=None, data=None):
        layers = layers or [LayerSpec(1.0, 1.0, 0.0, tanh_activation(), 1.0)]
        return NetworkSpec(n=n, d0=n, data=data or IidData(1.0), layers=tuple(layers))

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
        for (y, sigma2), lam, st in zip(layer_outputs(net, 4), res.eigenvalues, res.stats):
            k = conjugate_kernel(y)
            want = np.linalg.eigh(k)[0]
            assert np.max(np.abs(lam - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
            assert st.spec_norm == pytest.approx(np.linalg.norm(k, 2), rel=1e-12)
            # run_network decomposes K in place, so it must read K's entries first
            assert st == orthogonality_stats(k, sigma2, lam)

    def test_one_eigenvalue_only_decomposition_per_kernel(self, monkeypatch):
        calls = {"_eigvalsh": 0, "eigh": 0, "eigvalsh": 0, "svd": 0, "norm2": 0}

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
        monkeypatch.setattr(netsim, "_eigvalsh", counted("_eigvalsh", netsim._eigvalsh))
        net = self.network(layers=[LayerSpec(1.0, 1.0, 0.0, tanh_activation(), 1.0)] * 2)
        run_network(net, seed=0)
        # numpy's eigvalsh runs only as the fallback, inside _eigvalsh
        fallback = 3 if detequiv._lapacke("dsyevd_2stage") is None else 0
        assert calls == {"_eigvalsh": 3, "eigh": 0, "eigvalsh": fallback, "svd": 0, "norm2": 0}

    @staticmethod
    def traced_peak(net):
        """run_network's traced peak, in n x n matrices of doubles."""
        tracemalloc.start()
        try:
            run_network(net, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (8 * net.n * net.n)

    @pytest.mark.parametrize(
        "depth, n, budget",
        [pytest.param(depth, n, budget, id=f"{depth}" if n == 300 else f"{depth}-n{n}")
         for n, budget in ((300, 4.0), (1024, 2.4)) for depth in (1, 4)],
    )
    def test_peak_memory_is_flat_in_depth(self, depth, n, budget):
        # each kernel is dropped before the next layer is sampled, and a layer
        # is sampled a block of rows at a time: a layer's input and output, or
        # a kernel and its activations, plus one block are alive at once,
        # whatever the depth.  At n = 1024 that is 2 + 288 / 1024 = 2.28 n^2;
        # two live blocks would be 2.56 n^2, and whole matrices held 3 n^2.
        net = self.network(n=n, layers=[LayerSpec(1.0, 1.0, 0.5, tanh_activation(), 1.0)] * depth)
        assert self.traced_peak(net) <= budget

    @pytest.mark.parametrize("n, whole", [(64, 3.30), (300, 3.02), (1000, 3.00)])
    def test_peak_memory_never_exceeds_whole_matrix_sampling(self, n, whole):
        # whole is the traced peak when W, B and the activation's result were
        # each drawn as whole matrices beside x and y, and the entry stats
        # copied K.  Where one block covers the layer (n <= 288) the peak is
        # the same three matrices, and no more
        net = self.network(n=n, layers=[LayerSpec(1.0, 1.0, 0.5, tanh_activation(), 1.0)])
        assert self.traced_peak(net) < whole

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
        # a layer's width is n / gamma, so it must be a positive integer
        with pytest.raises(ValueError, match=r"layer 2: n/gamma = 10\.6+ is not a positive integer width"):
            NetworkSpec(32, 32, IidData(1.0), (good, identity_layer(gamma=3.0)))
        with pytest.raises(ValueError, match="layer 1: n/gamma = 0.5 is not"):
            NetworkSpec(32, 32, IidData(1.0), (identity_layer(gamma=64.0),))
        with pytest.raises(ValueError, match="layer 1: n/gamma = inf is not"):
            NetworkSpec(32, 32, IidData(1.0), (identity_layer(gamma=5e-324),))
        with pytest.raises(TypeError):
            NetworkSpec(32, 32, IidData(1.0), ("not a layer",))
        with pytest.raises(ValueError):
            NetworkSpec(32, 16, EquicorrelatedData(), (good,))

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
        net = NetworkSpec(n=n, d0=n, data=data, layers=(identity_layer(),))
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
