"""The batch driver end to end: config parsing, tables, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

import ckequiv.cli as cli
import ckequiv.detequiv as detequiv
import ckequiv.measures as measures
import ckequiv.netsim as netsim
from ckequiv.cli import (
    ConfigError,
    ZGridConfig,
    load_config,
    main,
    parse_config,
)
from ckequiv.detequiv import LayerSpec, layer_constants
from ckequiv.hermite import MAX_DEGREE, centered_relu, identity_activation, tanh_activation
from ckequiv.measures import MpBoxtimes, dirac, esd_from_eigenvalues, kolmogorov_distance
from ckequiv.netsim import EquicorrelatedData, ExplicitData, IidData, NetworkSpec, SpectralFactory
from paper_oracle import mp_density_closed


def write_cfg(tmp_path, tree, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree))
    return str(path)


def smoke_tree(outdir, **overrides):
    """Small tanh network, tiny z grid: fast enough for every test here."""
    tree = {
        "network": {
            "n": 64,
            "d0": 64,
            "dims": [64],
            "data": {"kind": "iid", "sigma_x2": 1.0},
            "layers": [
                {
                    "sigma_w2": 1.0,
                    "sigma_b2": 1.0,
                    "sigma_d2": 0.0,
                    "activation": "tanh",
                    "gamma": 1.0,
                }
            ],
        },
        "z_grid": {"x_min": 0.0, "x_max": 2.0, "step": 1.0, "eta": [0.5]},
        "sim": {"seeds": [0, 1], "replicas": 2},
        "output": {"directory": str(outdir), "formats": ["csv"]},
    }
    tree.update(overrides)
    return tree


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_npy(tmp_path, shape, name="x0.npy"):
    path = tmp_path / name
    np.save(path, np.random.default_rng(5).standard_normal(shape))
    return str(path)


def nonfinite_input_tree(tmp_path):
    x0 = np.ones((64, 64))
    x0[3, 5] = np.nan
    path = tmp_path / "x0.npy"
    np.save(path, x0)
    tree = smoke_tree(tmp_path)
    tree["network"]["data"] = {"kind": "explicit", "path": str(path)}
    return tree


class TestConfigParsing:
    def test_defaults_without_network(self):
        cfg = parse_config({})
        assert cfg.network is None
        assert cfg.seeds == (0, 1, 2)
        assert cfg.formats == ("csv",)

    @pytest.mark.parametrize("kind", ["iid", "equicorrelated", "explicit"])
    def test_network_section_is_the_library_spec(self, tmp_path, kind):
        tree = smoke_tree(tmp_path)
        layer = {"sigma_w2": 2.0, "sigma_b2": 0.5, "activation": "centered-relu", "gamma": 0.5}
        tree["network"].update(dims=[64, 128], layers=tree["network"]["layers"] + [layer])
        if kind == "iid":
            tree["network"]["data"] = {"kind": "iid", "sigma_x2": 2.0}
            data = IidData(2.0)
        elif kind == "equicorrelated":
            tree["network"]["data"] = {"kind": "equicorrelated"}
            data = EquicorrelatedData()
        else:
            path = write_npy(tmp_path, (64, 64))
            tree["network"]["data"] = {"kind": "explicit", "path": path}
            data = ExplicitData(np.load(path))
        want = NetworkSpec(
            n=64,
            d0=64,
            data=data,
            layers=(
                LayerSpec(1.0, 1.0, 0.0, tanh_activation(), 1.0),
                LayerSpec(2.0, 0.5, 0.0, centered_relu(), 0.5),
            ),
        )
        got = parse_config(tree).network
        assert isinstance(got, NetworkSpec)
        assert (got.n, got.d0) == (want.n, want.d0)
        assert type(got.data) is type(data)
        if kind == "explicit":
            assert np.array_equal(got.data.x0, data.x0)
        else:
            assert got.data == data

        # each centered-relu holds its own lambda, so activations compare by name
        def layer_fields(spec):
            return [(l.sigma_w2, l.sigma_b2, l.sigma_d2, l.f.name, l.gamma) for l in spec.layers]

        assert layer_fields(got) == layer_fields(want)

    @pytest.mark.parametrize(
        "tree",
        [
            {"bogus": 1},
            {"network": {"n": 4, "d0": 4, "dims": [4], "data": {"kind": "iid"}, "layers": [], "extra": 0}},
            {"z_grid": {"xmin": 0.0}},
            {"sim": {"seed": 3}},
            {"solver": {"tolerance": 1e-9}},
            {"output": {"dir": "x"}},
        ],
    )
    def test_unknown_keys_are_errors(self, tree):
        with pytest.raises(ConfigError, match="unknown key|nonempty"):
            parse_config(tree)

    @pytest.mark.parametrize(
        "tree,hint",
        [
            ({"sim": {"seeds": [0, 1], "replicas": 3}}, "replicas"),
            ({"z_grid": {"eta": []}}, "eta"),
            ({"z_grid": {"eta": [0.1, -0.2]}}, "positive"),
            ({"z_grid": {"step": 0.0}}, "step"),
            ({"z_grid": {"x_min": 2.0, "x_max": 1.0}}, "empty"),
            ({"output": {"formats": ["csv", "yaml"]}}, "csv or json"),
            ({"solver": {"tol": 0.0}}, "solver"),
            ({"z_grid": {"eta": [0.1, 0.1]}}, "z_grid.eta values name columns"),
            ({"z_grid": {"eta": [0.1, 0.10000001]}}, "z_grid.eta values name columns"),
            ({"sim": {"seeds": [0, 2, 0]}}, "sim.seeds must not repeat"),
            (nonfinite_input_tree, r"network\.data\.path: x0 must be finite"),
            ([], "config must be a mapping, got list"),
            ({"network": [64]}, "network must be a mapping, got list"),
            ({"network": {"n": 64}}, "network.d0 is required"),
            ({"output": {"directory": ""}}, "output.directory must be a nonempty string"),
        ],
    )
    def test_value_validation(self, tmp_path, tree, hint):
        if callable(tree):
            tree = tree(tmp_path)
        with pytest.raises(ConfigError, match=hint):
            parse_config(tree)

    @pytest.mark.parametrize(
        "data,hint",
        [
            ({"kind": "uniform"}, "kind"),
            ({"kind": "equicorrelated", "sigma_x2": 1.0}, "no parameters"),
            ({"kind": "explicit"}, "path"),
            ({"kind": "iid", "path": "x.npy"}, "explicit"),
            ({"kind": "explicit", "sigma_x2": 1.0, "path": "x.npy"}, "sigma_x2 only applies to iid data"),
        ],
    )
    def test_data_section_validation(self, tmp_path, data, hint):
        tree = smoke_tree(tmp_path)
        tree["network"]["data"] = data
        with pytest.raises(ConfigError, match=hint):
            parse_config(tree)

    def test_dims_layers_must_align(self, tmp_path):
        tree = smoke_tree(tmp_path)
        tree["network"]["dims"] = [64, 64]
        with pytest.raises(ConfigError, match="same length"):
            parse_config(tree)

    @pytest.mark.parametrize(
        "n, dims, message",
        [
            (16, [8], "network: layer 1: gamma 1.0 != n/d_l = 2.0"),
            (64, [64, 64], "network.layers and network.dims must have the same length"),
            (64, [0], "network: layer widths must be >= 1"),
        ],
    )
    def test_dims_must_restate_the_layer_widths(self, tmp_path, capsys, n, dims, message):
        # dims is checked against n / gamma_l and dropped: the spec has no widths of its own
        tree = smoke_tree(tmp_path)
        tree["network"].update(n=n, d0=n, dims=dims)
        cpath = write_cfg(tmp_path, tree)
        assert main(["density", "--config", cpath, "--no-timestamp"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_zgrid_points(self):
        assert np.allclose(ZGridConfig(0.0, 2.0, 1.0).points(), [0.0, 1.0, 2.0])


class TestCoeffsCommand:
    def run_json(self, tmp_path, argv):
        rc = main(argv + ["--out", str(tmp_path), "--format", "json", "--no-timestamp"])
        coeffs = json.load(open(tmp_path / "coeffs.json"))
        summary = json.load(open(tmp_path / "coeffs_summary.json"))
        table = {row[0]: row[1] for row in summary["rows"]}
        return rc, coeffs, table

    def test_identity_table(self, tmp_path, capsys):
        rc, coeffs, summary = self.run_json(tmp_path, ["coeffs", "identity"])
        assert rc == 0
        assert coeffs["columns"] == ["r", "zeta", "is_zero"]
        by_r = {row[0]: row for row in coeffs["rows"]}
        assert by_r[1][1] == pytest.approx(1.0, abs=1e-12)
        assert by_r[1][2] is False
        assert by_r[0][2] is True
        assert summary["a"] == pytest.approx(0.0, abs=1e-12)
        assert summary["b"] == pytest.approx(1.0, abs=1e-12)
        assert summary["sigma_y2"] == pytest.approx(1.0, abs=1e-12)
        assert "identity" in capsys.readouterr().out

    def test_rescaling_flag(self, tmp_path):
        rc, coeffs, summary = self.run_json(
            tmp_path, ["coeffs", "tanh", "--sigma-w2", "2.0"]
        )
        assert rc == 0
        assert summary["sigma_tilde2"] == 2.0
        assert summary["norm_sq"] == pytest.approx(0.5199757468133639, abs=1e-12)
        assert summary["a"] + summary["b"] == pytest.approx(summary["sigma_y2"], abs=1e-10)
        by_r = {row[0]: row for row in coeffs["rows"]}
        # odd activation: every even coefficient is flagged as zero
        assert by_r[0][2] is True and by_r[2][2] is True and by_r[4][2] is True
        assert by_r[1][2] is False and by_r[3][2] is False

    def test_identity_scales_linear_coefficient(self, tmp_path):
        rc, coeffs, _ = self.run_json(
            tmp_path, ["coeffs", "identity", "--sigma-w2", "4.0"]
        )
        assert rc == 0
        by_r = {row[0]: row for row in coeffs["rows"]}
        assert by_r[1][1] == pytest.approx(2.0, abs=1e-12)
        assert all(row[2] for row in coeffs["rows"] if row[0] != 1)

    def test_summary_constants_are_the_theory_constants(self, tmp_path, capsys):
        # the same a, b, sigma_y2 as layer_constants, to the last bit; at the
        # identity defaults a is a rounding error that only its clamp zeroes
        cases = [
            (["identity"], LayerSpec(1.0, 0.0, 0.0, identity_activation(), 1.0), 1.0),
            (
                ["tanh", "--sigma-w2", "2", "--sigma-x2", "0.8", "--sigma-b2", "0.5", "--sigma-d2", "0.1"],
                LayerSpec(2.0, 0.5, 0.1, tanh_activation(), 1.0),
                0.8,
            ),
        ]
        for argv, spec, sx2 in cases:
            out = tmp_path / argv[0]
            assert main(["coeffs", *argv, "--out", str(out), "--no-timestamp"]) == 0
            summary = {r["quantity"]: r["value"] for r in read_csv(out / "coeffs_summary.csv")}
            const = layer_constants(spec, sx2)
            for key in ("a", "b", "sigma_y2"):
                assert summary[key] == repr(float(getattr(const, key)))
        capsys.readouterr()

    def test_uncentered_activation_is_shown(self, tmp_path, capsys):
        # the table has no zero-mean gate: layer_constants would reject this
        rc, coeffs, summary = self.run_json(tmp_path, ["coeffs", "centered-relu", "--sigma-w2", "2"])
        assert rc == 0
        assert coeffs["rows"][0][2] is False
        assert summary["a"] + summary["b"] == pytest.approx(summary["sigma_y2"], abs=1e-10)
        capsys.readouterr()

    def test_unknown_activation(self, capsys):
        assert main(["coeffs", "swish"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_r_max(self, capsys):
        assert main(["coeffs", "tanh", "--r-max", "0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag", ["--sigma-w2=nan", "--sigma-w2=inf", "--sigma-x2=nan", "--sigma-b2=-1", "--sigma-d2=-inf"]
    )
    def test_nonfinite_or_negative_variance_is_config_error(self, tmp_path, capsys, flag):
        assert main(["coeffs", "tanh", flag, "--out", str(tmp_path / "out")]) == 2
        assert "config error: variances must be finite and nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_preactivation_variance_is_config_error(self, tmp_path, capsys):
        # each variance is finite, but sigma_w2 * sigma_x2 is not
        argv = ["coeffs", "tanh", "--sigma-w2", "1e200", "--sigma-x2", "1e200", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "with 0 < sigma_w2*sigma_x2 + sigma_b2 < inf" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, nonzero",
        [
            (["identity"], {1}),
            (["hermite2"], {2}),
            (["hermite2", "--sigma-w2", "4"], {0, 2}),
        ],
        ids=["identity", "hermite2", "hermite2-sigma_w2-4"],
    )
    def test_only_the_nonzero_modes_are_flagged(self, tmp_path, capsys, argv, nonzero):
        # polynomials of degree <= 2 have exactly these modes; the rule's
        # weights must be accurate enough out to r = 64 to show no others
        rc, coeffs, _ = self.run_json(tmp_path, ["coeffs", *argv, "--r-max", str(MAX_DEGREE)])
        assert rc == 0
        assert {row[0] for row in coeffs["rows"] if not row[2]} == nonzero
        capsys.readouterr()

    def test_r_max_beyond_hermite_degrees_is_config_error(self, capsys):
        assert main(["coeffs", "tanh", "--r-max", "100"]) == 2
        assert f"config error: --r-max must lie in [1, {MAX_DEGREE}]" in capsys.readouterr().err
        assert main(["coeffs", "tanh", "--r-max", str(MAX_DEGREE)]) == 0
        capsys.readouterr()


class TestDensityCommand:
    def test_recovers_known_density(self, tmp_path, capsys):
        # wide layer (gamma = 1/2) on a near-identity input kernel; the
        # limiting density is known in closed form, with support ending
        # near 2.914, so the grid reaches past the upper edge
        tree = {
            "network": {
                "n": 4000,
                "d0": 4000,
                "dims": [8000],
                "data": {"kind": "equicorrelated"},
                "layers": [{"sigma_w2": 1.0, "activation": "identity", "gamma": 0.5}],
            },
            "z_grid": {"x_min": 0.5, "x_max": 3.0, "step": 0.05, "eta": [0.001]},
            "output": {"directory": str(tmp_path), "formats": ["csv"]},
        }
        cpath = write_cfg(tmp_path, tree)
        assert main(["density", "--config", cpath, "--no-timestamp"]) == 0
        capsys.readouterr()
        rows = read_csv(tmp_path / "density.csv")
        assert len(rows) == 51
        assert all(r["converged_eta0.001"] == "1" for r in rows)
        xs = np.array([float(r["x"]) for r in rows])
        dens = np.array([float(r["density_eta0.001"]) for r in rows])
        cdf = np.array([float(r["cdf_eta0.001"]) for r in rows])
        assert np.all(dens >= 0.0)
        # the eta-smoothed density is biased within ~0.4 of the edge, so
        # the pointwise comparison stays on the interior window
        interior = xs <= 2.4
        assert np.max(np.abs(dens[interior] - mp_density_closed(0.5, xs[interior]))) < 1e-3
        assert np.all(np.diff(cdf) > -1e-9)
        assert abs(cdf[-1] - 1.0) < 5e-3

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        cpath = write_cfg(tmp_path, smoke_tree(tmp_path))
        for d in ("one", "two"):
            assert main(["density", "--config", cpath, "--out", str(tmp_path / d), "--no-timestamp"]) == 0
        capsys.readouterr()
        a = (tmp_path / "one" / "density.csv").read_bytes()
        b = (tmp_path / "two" / "density.csv").read_bytes()
        assert a == b

    def test_every_eta_shares_one_cold_and_one_warm_solve(self, tmp_path, capsys, monkeypatch):
        # the benchmark's theory-deep run: four tanh layers at gamma = 1, two
        # eta; the grid and every table's first rung are solved cold in one
        # call, then each later rung of the ladder warm in one call for both
        # tables, never one per eta
        starts = []
        real = measures.solve_chain_grid

        def spy(*args, start=None):
            starts.append(start is not None)
            return real(*args, start=start)

        monkeypatch.setattr(measures, "solve_chain_grid", spy)
        layer = {"sigma_w2": 1.0, "sigma_b2": 1.0, "sigma_d2": 0.0, "activation": "tanh", "gamma": 1.0}
        tree = smoke_tree(tmp_path, z_grid={"x_min": -0.5, "x_max": 6.0, "step": 0.05, "eta": [0.02, 0.01]})
        tree["network"].update(n=1000, d0=1000, dims=[1000] * 4, layers=[layer] * 4)
        cpath = write_cfg(tmp_path, tree)
        assert main(["density", "--config", cpath, "--no-timestamp"]) == 0
        capsys.readouterr()
        assert starts == [False] + [True] * (len(measures._LADDER) - 1)
        rows = read_csv(tmp_path / "density.csv")
        assert len(rows) == 131 and all(r["converged_eta0.02"] == r["converged_eta0.01"] == "1" for r in rows)

    def test_timestamp_header_line(self, tmp_path, capsys):
        cpath = write_cfg(tmp_path, smoke_tree(tmp_path))
        assert main(["density", "--config", cpath]) == 0
        capsys.readouterr()
        first = open(tmp_path / "density.csv").readline()
        assert first.startswith("# generated ")

    def test_network_section_required(self, tmp_path, capsys):
        cpath = write_cfg(tmp_path, {"z_grid": {"eta": [0.1]}})
        assert main(["density", "--config", cpath]) == 2
        assert "network" in capsys.readouterr().err


    def test_a_centered_layer_at_a_huge_scale_is_accepted(self, tmp_path, capsys):
        # the quadrature reads zeta_0 of identity at sigma_tilde = 1e20 as
        # 3.3e2, rounding of ||ft|| = 1e20
        tree = {
            "network": {
                "n": 20, "d0": 20, "dims": [20], "data": {"kind": "iid", "sigma_x2": 1.0},
                "layers": [{"sigma_w2": 1e40, "activation": "identity", "gamma": 1.0}],
            },
            "z_grid": {"x_min": 0.0, "x_max": 6e40, "step": 5e39, "eta": [1e39]},
            "output": {"directory": str(tmp_path), "formats": ["csv"]},
        }
        cpath = write_cfg(tmp_path, tree)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["density", "--config", cpath, "--no-timestamp"]) == 0
        capsys.readouterr()
        rows = read_csv(tmp_path / "density.csv")
        assert len(rows) == 13
        assert all(r["converged_eta1e+39"] == "1" for r in rows)


class TestDeterminism:
    """Reruns write the same bytes whatever the worker count."""

    def _tree(self, outdir):
        layer = {"sigma_w2": 1.0, "sigma_b2": 1.0, "sigma_d2": 0.0, "activation": "tanh", "gamma": 1.0}
        tree = smoke_tree(outdir, z_grid={"x_min": 0.0, "x_max": 4.0, "step": 0.25, "eta": [0.05, 0.02]})
        tree["network"].update(dims=[64, 64], layers=[layer, layer])
        return tree

    @pytest.mark.parametrize(
        "command, names",
        [
            ("density", ["density.csv"]),
            ("compare", ["compare_rows.csv", "compare_layers.csv"]),
            ("simulate", ["simulate_eigenvalues.csv", "simulate_stats.csv"]),
        ],
    )
    def test_worker_count_does_not_change_bytes(self, tmp_path, capsys, monkeypatch, command, names):
        self._check(tmp_path, capsys, monkeypatch, command, names, self._tree(tmp_path))

    def test_worker_count_does_not_change_explicit_density_bytes(self, tmp_path, capsys, monkeypatch):
        # the bottom law is the input's ESD, a discrete base, summed by
        # blocks of points: where the composition of a batch could move bits
        tree = self._tree(tmp_path)
        tree["network"]["data"] = {"kind": "explicit", "path": write_npy(tmp_path, (64, 64))}
        self._check(tmp_path, capsys, monkeypatch, "density", ["density.csv"], tree)

    def _check(self, tmp_path, capsys, monkeypatch, command, names, tree):
        cpath = write_cfg(tmp_path, tree)
        for workers in ("1", "4"):
            monkeypatch.setenv("CKEQUIV_WORKERS", workers)
            out = str(tmp_path / f"w{workers}")
            assert main([command, "--config", cpath, "--out", out, "--no-timestamp"]) == 0
        capsys.readouterr()
        for name in names:
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w4" / name).read_bytes()


class TestSimulateCommand:
    def test_row_counts_and_seed_override(self, tmp_path, capsys):
        cpath = write_cfg(tmp_path, smoke_tree(tmp_path))
        assert main(["simulate", "--config", cpath, "--no-timestamp"]) == 0
        capsys.readouterr()
        eig = read_csv(tmp_path / "simulate_eigenvalues.csv")
        # two seeds, input kernel plus one layer, 64 eigenvalues each
        assert len(eig) == 2 * 2 * 64
        assert {r["seed"] for r in eig} == {"0", "1"}
        stats = read_csv(tmp_path / "simulate_stats.csv")
        assert len(stats) == 2 * 2
        assert all(float(r["max_dev"]) > 0 for r in stats)

        sub = tmp_path / "single"
        assert main(["simulate", "--config", cpath, "--seed", "5", "--out", str(sub), "--no-timestamp"]) == 0
        capsys.readouterr()
        eig5 = read_csv(sub / "simulate_eigenvalues.csv")
        assert {r["seed"] for r in eig5} == {"5"}
        assert len(eig5) == 2 * 64

    def test_diag_norm_of_a_huge_input_kernel_does_not_overflow(self, tmp_path, capsys):
        # K_X's diagonal deviations are about 1e200, so a plain 2-norm's squares overflow
        tree = {
            "network": {
                "n": 16, "d0": 16, "dims": [16], "data": {"kind": "iid", "sigma_x2": 1e200},
                "layers": [{"sigma_w2": 1e-200, "activation": "tanh", "gamma": 1.0}],
            },
            "sim": {"seeds": [0]},
        }
        cpath = write_cfg(tmp_path, tree)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simulate", "--config", cpath, "--out", str(tmp_path), "--no-timestamp"]) == 0
        capsys.readouterr()
        x, sigma2 = next(netsim.layer_outputs(load_config(cpath).network, 0))
        want = math.hypot(*(np.diag(netsim.conjugate_kernel(x)) - sigma2))
        got = float(read_csv(tmp_path / "simulate_stats.csv")[0]["diag_norm"])
        assert math.isfinite(want) and abs(got - want) <= 1e-15 * want

    def test_output_variance_of_a_huge_layer_does_not_overflow(self, tmp_path, capsys):
        # sigma_w2 = 1e306 makes sigma_1^2 = 1e306, finite, though the
        # quadrature samples' squares and zeta_1^2 * sigma_w2 are not
        tree = {
            "network": {
                "n": 20, "d0": 20, "dims": [20], "data": {"kind": "iid", "sigma_x2": 1.0},
                "layers": [{"sigma_w2": 1e306, "activation": "identity", "gamma": 1.0}],
            },
            "sim": {"seeds": [0]},
        }
        cpath = write_cfg(tmp_path, tree)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simulate", "--config", cpath, "--out", str(tmp_path), "--no-timestamp"]) == 0
        capsys.readouterr()
        stats = read_csv(tmp_path / "simulate_stats.csv")[1]
        assert stats["layer"] == "1"
        assert all(math.isfinite(float(stats[key])) for key in ("max_dev", "diag_norm", "spec_norm"))
        _, (_, sigma2) = netsim.layer_outputs(load_config(cpath).network, 0)
        assert abs(sigma2 - 1e306) <= 1e-12 * 1e306

    def test_kernel_of_a_huge_layer_does_not_overflow(self, tmp_path, capsys):
        # sigma_1^2 = 1e307 and K_1 are finite, though d_1 max|Y_1|^2, the
        # bound on Y_1^T Y_1's sums, is not
        tree = {
            "network": {
                "n": 20, "d0": 20, "dims": [20], "data": {"kind": "iid", "sigma_x2": 1.0},
                "layers": [{"sigma_w2": 1e307, "activation": "identity", "gamma": 1.0}],
            },
            "sim": {"seeds": [0]},
        }
        cpath = write_cfg(tmp_path, tree)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simulate", "--config", cpath, "--out", str(tmp_path), "--no-timestamp"]) == 0
        capsys.readouterr()
        stats = read_csv(tmp_path / "simulate_stats.csv")[1]
        assert stats["layer"] == "1"
        values = [float(stats[key]) for key in ("max_dev", "diag_norm", "spec_norm")]
        assert all(math.isfinite(v) for v in values)
        # the spectrum of an identity layer at gamma = 1 spans about 4 sigma_1^2
        assert 1e306 < values[2] < 1e308

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        cpath = write_cfg(tmp_path, smoke_tree(tmp_path))
        for d in ("one", "two"):
            assert main(["simulate", "--config", cpath, "--out", str(tmp_path / d), "--no-timestamp"]) == 0
        capsys.readouterr()
        for name in ("simulate_eigenvalues.csv", "simulate_stats.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_identity_layer_spectrum_matches_limit_law(self, tmp_path, capsys):
        tree = {
            "network": {
                "n": 1000,
                "d0": 1000,
                "dims": [1000],
                "data": {"kind": "equicorrelated"},
                "layers": [{"sigma_w2": 1.0, "activation": "identity", "gamma": 1.0}],
            },
            "sim": {"seeds": [0], "replicas": 1},
            "output": {"directory": str(tmp_path), "formats": ["csv"]},
        }
        cpath = write_cfg(tmp_path, tree)
        assert main(["simulate", "--config", cpath, "--no-timestamp"]) == 0
        capsys.readouterr()
        eig = read_csv(tmp_path / "simulate_eigenvalues.csv")
        lam = np.array([float(r["eigenvalue"]) for r in eig if r["layer"] == "1"])
        assert lam.size == 1000
        law = MpBoxtimes(1.0, dirac(1.0))
        assert kolmogorov_distance(esd_from_eigenvalues(lam), law) < 0.05

    def test_kernel_floor_scales_with_the_kernel(self, tmp_path, capsys):
        # at sigma_w2 = 1e8 the null space of K_1 (gamma = 2) rounds to about
        # -2e-7, below an absolute floor of -1e-8 but far inside 1e-12 |K_1|
        tree = {
            "network": {
                "n": 200,
                "d0": 200,
                "dims": [100],
                "data": {"kind": "iid"},
                "layers": [{"sigma_w2": 1e8, "activation": "identity", "gamma": 2.0}],
            },
            "sim": {"seeds": [0]},
            "output": {"directory": str(tmp_path), "formats": ["csv"]},
        }
        cpath = write_cfg(tmp_path, tree)
        assert main(["simulate", "--config", cpath, "--no-timestamp"]) == 0
        capsys.readouterr()
        eig = read_csv(tmp_path / "simulate_eigenvalues.csv")
        lam = np.array([float(r["eigenvalue"]) for r in eig if r["layer"] == "1"])
        assert lam[0] < -1e-8 and lam[0] >= -1e-12 * lam[-1]


def explicit_two_layer_tree(outdir, **overrides):
    """smoke_tree on a fixed explicit input, with two tanh layers and one seed."""
    path = outdir / "x0.npy"
    np.save(path, np.random.default_rng(5).standard_normal((64, 64)))
    tree = smoke_tree(outdir, sim={"seeds": [0], "replicas": 1}, **overrides)
    tree["network"]["data"] = {"kind": "explicit", "path": str(path)}
    tree["network"]["dims"] = [64, 64]
    tree["network"]["layers"] = tree["network"]["layers"] * 2
    return tree


def count_factory_work(monkeypatch):
    """Lists of the SpectralFactory objects built and of the factory of each product.

    A product is a _factored(w) call: each factored resolvent, sampled or
    the input's, is reduced once by column blocks.
    """
    factories, calls = [], []
    init = SpectralFactory.__init__

    def counted_init(self, k):
        factories.append(self)
        init(self, k)

    monkeypatch.setattr(SpectralFactory, "__init__", counted_init)
    factored = SpectralFactory._factored

    def counted(self, *args):
        calls.append(self)
        return factored(self, *args)

    monkeypatch.setattr(SpectralFactory, "_factored", counted)
    return factories, calls


class TestCompareCommand:
    def test_one_level_solve_per_layer_for_the_whole_grid(self, tmp_path, capsys, monkeypatch):
        sizes = []
        solve = MpBoxtimes._solve

        def counted(self, z):
            sizes.append(np.size(z))
            return solve(self, z)

        monkeypatch.setattr(MpBoxtimes, "_solve", counted)
        # the Kolmogorov distance solves on CDF grids of its own
        monkeypatch.setattr(cli, "kolmogorov_distance", lambda a, b: 0.5)
        cpath = write_cfg(tmp_path, explicit_two_layer_tree(tmp_path))
        assert main(["compare", "--config", cpath, "--no-timestamp"]) == 0
        capsys.readouterr()
        rows = read_csv(tmp_path / "compare_rows.csv")
        assert len(rows) == 6 and all(r["converged"] == "1" for r in rows)
        assert sizes == [3, 3]

    def test_the_last_layers_activations_are_dead_at_its_decomposition(self, tmp_path, capsys, monkeypatch):
        # layer 1's Y feeds layer 2, so the layer generator holds it; the last
        # layer's Y has no reader once its kernel is formed
        monkeypatch.setenv("CKEQUIV_WORKERS", "1")
        refs, alive = [], []
        kernel = cli.conjugate_kernel

        def tracked_kernel(y):
            refs.append(weakref.ref(y))
            return kernel(y)

        monkeypatch.setattr(cli, "conjugate_kernel", tracked_kernel)
        init = SpectralFactory.__init__

        def tracked_init(self, k):
            alive.append(refs[-1]() is not None if refs else None)
            init(self, k)

        monkeypatch.setattr(SpectralFactory, "__init__", tracked_init)
        tree = explicit_two_layer_tree(tmp_path)
        tree["sim"] = {"seeds": [0, 1], "replicas": 2}
        assert main(["compare", "--config", write_cfg(tmp_path, tree), "--no-timestamp"]) == 0
        capsys.readouterr()
        # the explicit input's factory, then layers 1 and 2 of each seed
        assert alive == [None, True, False, True, False]

    def test_work_budget_is_one_product_per_seed_point_and_layer(self, tmp_path, capsys, monkeypatch):
        factories, products = count_factory_work(monkeypatch)
        resolvents = []
        assembled = SpectralFactory.resolvent

        def counted_resolvent(self, z):
            resolvents.append(self)
            return assembled(self, z)

        monkeypatch.setattr(SpectralFactory, "resolvent", counted_resolvent)
        grids = []
        compose = detequiv._compose

        def counted_compose(chi, depth, H, z):
            grids.append(np.size(z))
            return compose(chi, depth, H, z)

        monkeypatch.setattr(detequiv, "_compose", counted_compose)
        decomps = {"vectors": 0, "values": 0}
        syevd = detequiv._syevd

        def counted_decomp(a, vectors):
            decomps["vectors" if vectors else "values"] += 1
            return syevd(a, vectors)

        for module in (detequiv, netsim):
            monkeypatch.setattr(module, "_syevd", counted_decomp)
        kernels = []
        kernel = netsim.conjugate_kernel

        def counted_kernel(y):
            kernels.append(y.shape[0])
            return kernel(y)

        for module in (netsim, cli):
            monkeypatch.setattr(module, "conjugate_kernel", counted_kernel, raising=False)
        passes = []
        blocks = detequiv._resolvent_blocks

        def counted_blocks(vec, core):
            passes.append(vec.dtype)
            return blocks(vec, core)

        monkeypatch.setattr(detequiv, "_resolvent_blocks", counted_blocks)
        fallbacks = []
        exact_gap = detequiv._exact_gap

        def counted_fallback(s, t, lo, hi):
            fallbacks.append(lo)
            return exact_gap(s, t, lo, hi)

        monkeypatch.setattr(detequiv, "_exact_gap", counted_fallback)
        tree = explicit_two_layer_tree(tmp_path)
        tree["sim"] = {"seeds": [0, 1], "replicas": 2}
        cpath = write_cfg(tmp_path, tree)
        assert main(["compare", "--config", cpath, "--no-timestamp"]) == 0
        capsys.readouterr()
        seeds, depth, points = 2, 2, 3
        # K_X once for the equivalent, then one kernel per sampled (seed, layer >= 1)
        assert len(kernels) == 1 + seeds * depth
        # the explicit input's factory, then one per sampled (seed, layer)
        assert len(factories) == 1 + seeds * depth
        # each factory is the one decomposition of its kernel; layer 0 is never decomposed
        assert decomps == {"vectors": 1 + seeds * depth, "values": 0}
        # each seed's gap plus the input side's factored H(u) per (layer, z)
        assert len(products) == depth * points * (seeds + 1)
        assert sum(f is factories[0] for f in products) == depth * points
        # every product is one single-precision pass, and no block is redone in double
        assert passes == [np.dtype(np.float32)] * (depth * points * (seeds + 1))
        assert fallbacks == []
        # no resolvent is assembled, on either side
        assert resolvents == []
        assert grids == [points] * depth

    @pytest.mark.parametrize("n", [159, 161])
    @pytest.mark.parametrize("data", ["iid", "equicorrelated", "explicit", "explicit_b0"])
    def test_entry_gap_matches_a_dense_inverse(self, tmp_path, capsys, n, data):
        """max_entry_gap against inv(K_l - z I) - build(), around the block width."""
        tree = smoke_tree(tmp_path, z_grid={"x_min": 0.5, "x_max": 1.5, "step": 1.0, "eta": [0.2]})
        net = tree["network"]
        net["n"] = net["d0"] = n
        net["data"] = {"kind": data.split("_")[0]}
        if data == "iid":
            net["data"]["sigma_x2"] = 1.0
        if data.startswith("explicit"):
            path = tmp_path / "x0.npy"
            x0 = np.random.default_rng(n).standard_normal((n, n)) * np.sqrt([0.5, 1.5] * n)[:n]
            np.save(path, x0)
            net["data"]["path"] = str(path)
        if data == "explicit_b0":
            # an even activation at unit pre-activation variance has b = 0: a
            # dense g I equivalent above the explicit input's factored one
            sx2 = ExplicitData(x0).input_variance()
            sy2 = layer_constants(LayerSpec(1.0, 1.0, 0.0, tanh_activation(), 1.0), sx2).sigma_y2
            net["layers"] = [dict(net["layers"][0], sigma_d2=0.0),
                             {"sigma_w2": 1.0 / sy2, "activation": "hermite2", "gamma": 1.0}]
        net["dims"] = [n] * len(net["layers"])
        cpath = write_cfg(tmp_path, tree)
        assert main(["compare", "--config", cpath, "--no-timestamp"]) == 0
        capsys.readouterr()
        rows = read_csv(tmp_path / "compare_rows.csv")
        spec = load_config(cpath).network
        chain = detequiv.build_chain(spec)
        if data == "explicit_b0":
            assert chain.layers[1].constants.b == 0.0
        kernels = [[netsim.conjugate_kernel(y) for y, _ in netsim.layer_outputs(spec, seed)] for seed in (0, 1)]
        zs = np.array([complex(float(r["z_re"]), float(r["z_im"])) for r in rows[:2]])
        for li, layer in enumerate(chain.layers, start=1):
            for z, (_, build, ok), row in zip(zs, layer.gbuilder(zs), rows[2 * (li - 1):]):
                g_eq = build()
                want = max(float(np.max(np.abs(np.linalg.inv(ks[li] - z * np.eye(n)) - g_eq))) for ks in kernels)
                assert ok and abs(float(row["max_entry_gap"]) - want) <= 1e-12 * want

    def test_starved_flags_pass_through_the_pool(self, tmp_path, capsys, monkeypatch):
        factories, calls = count_factory_work(monkeypatch)
        # three Newton steps solve the eta = 4 rows but not the eta = 0.01 ones
        grid = {"x_min": 0.0, "x_max": 2.0, "step": 1.0, "eta": [4.0, 0.01]}
        tree = explicit_two_layer_tree(tmp_path, solver={"max_iter": 3}, z_grid=grid)
        tree["sim"] = {"seeds": [0, 1], "replicas": 2}
        cpath = write_cfg(tmp_path, tree)
        # frequent thread switches, so tasks interleave inside the shared reads
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in ("1", "4"):
                factories.clear()
                calls.clear()
                monkeypatch.setenv("CKEQUIV_WORKERS", workers)
                out = tmp_path / f"w{workers}"
                assert main(["compare", "--config", cpath, "--out", str(out), "--no-timestamp"]) == 3
                capsys.readouterr()
                rows = read_csv(out / "compare_rows.csv")
                flagged = [r for r in rows if r["converged"] == "0"]
                assert flagged and all(math.isnan(float(r["max_entry_gap"])) for r in flagged)
                # the input factory is built first; its factored resolvent is H at
                # the composed argument, which only converged rows may ask for
                converged = len(rows) - len(flagged)
                assert converged == 6
                assert sum(f is factories[0] for f in calls) == converged
                assert len(calls) == converged * 3
        finally:
            sys.setswitchinterval(interval)
        for name in ("compare_rows.csv", "compare_layers.csv"):
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w4" / name).read_bytes()

    def test_starved_solver_flags_rows_and_exits_3(self, tmp_path, capsys):
        tree = explicit_two_layer_tree(tmp_path, solver={"max_iter": 2})
        cpath = write_cfg(tmp_path, tree)
        assert main(["compare", "--config", cpath, "--no-timestamp"]) == 3
        assert "did not converge" in capsys.readouterr().err
        rows = read_csv(tmp_path / "compare_rows.csv")
        assert len(rows) == 6 and len(read_csv(tmp_path / "compare_layers.csv")) == 2
        bad = [r for r in rows if r["converged"] == "0"]
        assert bad
        for r in bad:
            assert math.isnan(float(r["max_entry_gap"])) and math.isnan(float(r["g_det_re"]))

    def test_row_layout_and_internal_consistency(self, tmp_path, capsys):
        cpath = write_cfg(tmp_path, smoke_tree(tmp_path))
        assert main(["compare", "--config", cpath, "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        assert "2 seed(s), 3 grid point(s), 1 layer(s)" in out
        rows = read_csv(tmp_path / "compare_rows.csv")
        assert len(rows) == 3
        for r in rows:
            assert r["converged"] == "1"
            g_sim = complex(float(r["g_sim_mean_re"]), float(r["g_sim_mean_im"]))
            g_det = complex(float(r["g_det_re"]), float(r["g_det_im"]))
            assert abs(g_sim - g_det) == pytest.approx(float(r["abs_dg"]), abs=1e-12)
            assert float(r["max_entry_gap"]) > 0
        layers = read_csv(tmp_path / "compare_layers.csv")
        assert len(layers) == 1
        assert 0.0 < float(layers[0]["kolmogorov"]) < 1.0

    @pytest.mark.parametrize("d0, width, layer", [
        (200, 100, {"sigma_w2": 1.0, "sigma_b2": 1.0, "activation": "tanh", "gamma": 2.0}),
        (100, 200, {"sigma_w2": 1.0, "activation": "identity", "gamma": 1.0}),
    ], ids=["tanh-gamma2", "identity-d0-half"])
    def test_rank_deficient_kernel_meets_the_atom_at_zero(self, tmp_path, capsys, d0, width, layer):
        # K_1 has rank 100 of 200: its null space must be the law's atom at 0,
        # not an atom at the eigenvalues' rounding-level mean beside it
        tree = smoke_tree(
            tmp_path,
            network={"n": 200, "d0": d0, "dims": [width], "data": {"kind": "iid"}, "layers": [layer]},
            z_grid={"x_min": 1.0, "x_max": 1.0, "step": 1.0, "eta": [0.1]},
            sim={"seeds": [0]},
        )
        cpath = write_cfg(tmp_path, tree)
        assert main(["compare", "--config", cpath, "--no-timestamp"]) == 0
        capsys.readouterr()
        assert float(read_csv(tmp_path / "compare_layers.csv")[0]["kolmogorov"]) <= 0.05

    def test_json_format(self, tmp_path, capsys):
        cpath = write_cfg(tmp_path, smoke_tree(tmp_path))
        assert main(["compare", "--config", cpath, "--format", "json", "--no-timestamp"]) == 0
        capsys.readouterr()
        doc = json.load(open(tmp_path / "compare_rows.json"))
        assert doc["columns"][0] == "layer"
        assert len(doc["rows"]) == 3
        assert all(row[-1] is True for row in doc["rows"])

    def test_compensated_variances_give_the_same_comparison(self, tmp_path, capsys):
        """A purely even activation has no linear kernel term, so moving
        variance from the data into the weights (keeping the product fixed)
        must not change either side of the comparison."""

        def tree(outdir, sx2, sw2):
            t = smoke_tree(outdir)
            t["network"]["data"] = {"kind": "iid", "sigma_x2": sx2}
            t["network"]["layers"] = [
                {"sigma_w2": sw2, "sigma_b2": 0.0, "sigma_d2": 0.0,
                 "activation": "hermite2", "gamma": 1.0}
            ]
            t["sim"] = {"seeds": [0], "replicas": 1}
            return t

        outs = []
        for tag, sx2, sw2 in (("a", 1.0, 1.0), ("b", 2.0, 0.5)):
            sub = tmp_path / tag
            cpath = write_cfg(tmp_path, tree(sub, sx2, sw2), name=f"{tag}.json")
            assert main(["compare", "--config", cpath, "--no-timestamp"]) == 0
            outs.append(read_csv(sub / "compare_rows.csv"))
        capsys.readouterr()
        assert len(outs[0]) == len(outs[1]) == 3
        for ra, rb in zip(*outs):
            assert float(ra["g_det_re"]) == pytest.approx(float(rb["g_det_re"]), abs=1e-12)
            assert float(ra["g_det_im"]) == pytest.approx(float(rb["g_det_im"]), abs=1e-12)
            assert float(ra["g_sim_mean_re"]) == pytest.approx(float(rb["g_sim_mean_re"]), abs=1e-10)
            assert float(ra["g_sim_mean_im"]) == pytest.approx(float(rb["g_sim_mean_im"]), abs=1e-10)
            assert float(ra["max_entry_gap"]) == pytest.approx(float(rb["max_entry_gap"]), abs=1e-8)


class TestClosedFormCommand:
    def test_grid_and_shrinking_gap(self, tmp_path, capsys):
        ctree = {"z_grid": {"x_min": 0.0, "x_max": 1.0, "step": 0.5, "eta": [0.3]}}
        cpath = write_cfg(tmp_path, ctree)
        rc = main(
            ["example55", "--config", cpath, "--n", "80",
             "--out", str(tmp_path), "--format", "json", "--no-timestamp"]
        )
        assert rc == 0
        capsys.readouterr()
        grid = json.load(open(tmp_path / "example55_grid.json"))
        cols = grid["columns"]
        for row in grid["rows"]:
            r = dict(zip(cols, row))
            assert r["agreement"] < 1e-9
            assert r["trace_gap"] < 1e-9
        sweep = json.load(open(tmp_path / "example55_sweep.json"))
        ns = [row[0] for row in sweep["rows"]]
        gaps = [row[1] for row in sweep["rows"]]
        assert ns == [100, 1000, 10000]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_one_decomposition_for_the_whole_grid(self, tmp_path, capsys, monkeypatch):
        shapes = []
        syevd = detequiv._syevd

        def counted(a, vectors):
            shapes.append((np.shape(a), vectors))
            return syevd(a, vectors)

        monkeypatch.setattr(detequiv, "_syevd", counted)
        ctree = {"z_grid": {"x_min": 0.0, "x_max": 1.0, "step": 0.25, "eta": [0.3, 0.1]}}
        cpath = write_cfg(tmp_path, ctree)
        assert main(["example55", "--config", cpath, "--n", "40", "--out", str(tmp_path), "--no-timestamp"]) == 0
        capsys.readouterr()
        assert len(read_csv(tmp_path / "example55_grid.csv")) == 10
        assert shapes == [((40, 40), True)]

    def test_argument_validation(self, capsys):
        assert main(["example55", "--n", "1"]) == 2
        assert main(["example55", "--a", "-0.5"]) == 2
        capsys.readouterr()

    def test_n_beyond_physical_memory_is_config_error(self, tmp_path, capsys):
        # 8e15 bytes is more than any address space holds, so it is refused before np.full
        out = tmp_path / "out"
        assert main(["example55", "--n", "10000000", "--out", str(out)]) == 2
        assert "config error: --n: ten 10000000 x 10000000 matrices need 8e+15 bytes, more than the " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--a", "nan"], "--a must be finite and nonnegative, got nan"),
            (["--a", "inf"], "--a must be finite and nonnegative, got inf"),
            (["--b", "nan"], "--b must be finite and nonnegative, got nan"),
            (["--b", "inf"], "--b must be finite and nonnegative, got inf"),
            (["--a", "1e308", "--b", "1e308"], "--a + --b must be finite"),
            (["--a", "0", "--b", "0"], "--a + --b must be positive"),
        ],
        ids=["a-nan", "a-inf", "b-nan", "b-inf", "sum-overflows", "sum-zero"],
    )
    def test_nonfinite_a_or_b_is_config_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert main(["example55", "--n", "10", *flags, "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        tree = smoke_tree(tmp_path)
        tree["network"]["widths"] = [64]
        cpath = write_cfg(tmp_path, tree)
        assert main(["density", "--config", cpath]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["density", "--config", str(tmp_path / "absent.json")]) == 4
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, target", [("simulate", (netsim, "_eigvalsh")), ("compare", (detequiv, "_syevd"))])
    def test_a_kernel_lapack_cannot_decompose_exits_3(self, tmp_path, capsys, monkeypatch, command, target):
        # LinAlgError subclasses ValueError, not ArithmeticError
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(*target, fail)
        cpath = write_cfg(tmp_path, smoke_tree(tmp_path))
        assert main([command, "--config", cpath, "--no-timestamp"]) == 3
        err = capsys.readouterr().err
        assert err == "numerical divergence: Eigenvalues did not converge\n"

    @pytest.mark.parametrize("bound", [True, False], ids=["bound", "fallback"])
    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_a_nan_kernel_exits_3(self, tmp_path, capsys, monkeypatch, command, bound):
        # numpy's own drivers would decompose it; LAPACKE and the fallback both refuse it
        if bound and detequiv._lapacke("dsyevd" if command == "compare" else "dsyevd_2stage") is None:
            pytest.skip("numpy's LAPACK does not export the driver")
        if not bound:
            monkeypatch.setattr(detequiv, "_lapacke", lambda driver: None)
        kernel = netsim.conjugate_kernel

        def nan_kernel(y):
            k = kernel(y)
            k[0, 0] = np.nan
            return k

        for module in (netsim, cli):
            monkeypatch.setattr(module, "conjugate_kernel", nan_kernel)
        cpath = write_cfg(tmp_path, smoke_tree(tmp_path))
        assert main([command, "--config", cpath, "--no-timestamp"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical divergence: ") and err.count("\n") == 1
        assert ("info = -5" if bound else "holds a NaN") in err

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_network_beyond_physical_memory_is_config_error(self, tmp_path, capsys, command):
        # one 10^6 x 10^6 input alone is 8e12 bytes; refused before anything is sampled
        tree = smoke_tree(tmp_path)
        tree["network"].update(n=10**6, d0=10**6, dims=[10**6])
        cpath = write_cfg(tmp_path, tree)
        sampled = []
        real = netsim.sample_gaussian
        with pytest.MonkeyPatch.context() as m:
            m.setenv("CKEQUIV_WORKERS", "2")
            m.setattr(netsim, "sample_gaussian", lambda *args: sampled.append(1) or real(*args))
            assert main([command, "--config", cpath, "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        # two workers each hold an input and a kernel; compare also keeps 12 n^2 bytes per seed
        nbytes = 3.2e13 + (2.4e13 if command == "compare" else 0)
        assert err.startswith(f"config error: network.n: the sampled arrays of 2 worker(s) at n = 1000000 need {nbytes:.3g} bytes")
        assert not sampled and not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "command, gamma, width, sizes",
        [
            ("simulate", 1e-6, 10**8, "1e+08 need 1.6e+11"),
            ("compare", 1e-6, 10**8, "1e+08 need 1.6e+11"),
            # 1.6e310 bytes, beyond the double range (compare's theory side fails first)
            ("simulate", 1e-305, 10**307, "1e+307 need inf"),
        ],
        ids=["simulate", "compare", "simulate-beyond-double-range"],
    )
    def test_layer_wider_than_physical_memory_is_config_error(self, tmp_path, capsys, command, gamma, width, sizes):
        # n = d0 = 100 is small, but each worker holds the input and layer 1's
        # width x 100 activations while it samples layer 1: 8e10 bytes at 10^8
        tree = smoke_tree(tmp_path)
        tree["network"].update(n=100, d0=100, dims=[width])
        tree["network"]["layers"][0]["gamma"] = gamma
        cpath = write_cfg(tmp_path, tree)
        sampled = []
        real = netsim.sample_gaussian
        with pytest.MonkeyPatch.context() as m:
            m.setenv("CKEQUIV_WORKERS", "2")
            m.setattr(netsim, "sample_gaussian", lambda *args: sampled.append(1) or real(*args))
            assert main([command, "--config", cpath, "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: layer 1: the sampled arrays of 2 worker(s) at n = 100 and width {sizes} bytes"
        )
        assert err.count("\n") == 1
        assert not sampled and not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_wide_layer_that_fits_runs(self, tmp_path, capsys, command):
        tree = smoke_tree(tmp_path)
        tree["network"].update(n=16, d0=16, dims=[1024])
        tree["network"]["layers"][0]["gamma"] = 1 / 64
        cpath = write_cfg(tmp_path, tree)
        assert main([command, "--config", cpath, "--no-timestamp"]) == 0
        capsys.readouterr()
        # simulate states layers 0 and 1 of both seeds; compare states layer 1
        table, count = {"simulate": ("simulate_stats", 4), "compare": ("compare_layers", 1)}[command]
        assert len(read_csv(tmp_path / f"{table}.csv")) == count

    def test_example55_divergence_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # the generic builder raises at the first point that does not converge,
        # so unlike density and compare no flagged table is written
        out = tmp_path / "out"
        cpath = write_cfg(tmp_path, {"solver": {"max_iter": 1}})
        assert main(["example55", "--config", cpath, "--n", "50", "--out", str(out), "--no-timestamp"]) == 3
        assert capsys.readouterr().err.startswith("numerical divergence: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, literal, message",
        [
            (("network", "data", "sigma_x2"), "1e999", "network.data.sigma_x2 must be finite, got inf"),
            (("network", "layers", 0, "sigma_w2"), "-Infinity", "network.layers[0].sigma_w2 must be finite, got -inf"),
            (("network", "n"), "1e999", "network.n must be finite, got inf"),
            (("z_grid", "eta"), "[1e999]", "z_grid.eta[0] must be finite, got inf"),
            (("z_grid", "step"), "NaN", "z_grid.step must be finite, got nan"),
            (("z_grid", "x_min"), "NaN", "z_grid.x_min must be finite, got nan"),
            (("z_grid", "x_max"), "1e999", "z_grid.x_max must be finite, got inf"),
            (("network", "n"), '"64"', "network.n must be a number"),
            (("sim", "seeds"), "[0, true]", "sim.seeds[1] must be a number"),
            (("network", "n"), "64.5", "network.n must be an integer"),
            (("z_grid", "x_max"), "10000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000", "z_grid.x_max must be finite, got inf"),
            (("z_grid", "x_min"), "-10000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000", "z_grid.x_min must be finite, got -inf"),
            (("network", "n"), "10000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000", "network.n must be finite, got inf"),
            (
                ("z_grid",),
                '{"x_min": 0, "x_max": 1e300, "step": 1e-300}',
                "z_grid: (x_max - x_min) / step must be finite",
            ),
            (
                ("z_grid",),
                '{"x_min": 0, "x_max": 1e6, "step": 1e-8}',
                "z_grid: 100000000000001 x values at 1 eta need 1.6e+15 bytes, more than the ",
            ),
        ],
        ids=["sigma_x2-inf", "sigma_w2-neg-inf", "n-inf", "eta-inf", "step-nan", "x_min-nan", "x_max-inf",
             "n-string", "seed-bool", "n-fraction", "x_max-long-int", "x_min-long-int", "n-long-int",
             "point-count-inf", "point-count-beyond-memory"],
    )
    def test_every_number_in_the_config_is_checked(self, tmp_path, capsys, path, literal, message):
        # json reads 1e999, Infinity and NaN, so the file is written as text
        tree = smoke_tree(tmp_path)
        node = tree
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = "@value@"
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(tree).replace('"@value@"', literal))
        assert main(["density", "--config", str(cpath), "--no-timestamp"]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["density", "simulate"])
    @pytest.mark.parametrize("workers, message", [("two", "an integer, got 'two'"), ("0", ">= 1, got 0"), ("-1", ">= 1, got -1")])
    def test_bad_worker_count_is_config_error(self, tmp_path, capsys, monkeypatch, command, workers, message):
        monkeypatch.setenv("CKEQUIV_WORKERS", workers)
        cpath = write_cfg(tmp_path, smoke_tree(tmp_path))
        assert main([command, "--config", cpath, "--no-timestamp"]) == 2
        assert f"config error: CKEQUIV_WORKERS must be {message}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["coeffs", "density", "compare", "simulate"])
    def test_overflowing_output_variance_is_config_error(self, tmp_path, capsys, command):
        # hermite2 at sigma_w2 = 1e300 has a finite preactivation variance and
        # zeta_0, but ||ft||^2 = sigma_1^2 overflows; simulate refuses the layer
        # before it samples anything
        if command == "coeffs":
            argv, where = ["coeffs", "hermite2", "--sigma-w2", "1e300", "--out", str(tmp_path)], ""
        else:
            tree = smoke_tree(tmp_path)
            tree["network"]["layers"][0].update(sigma_w2=1e300, sigma_b2=0.0, activation="hermite2")
            argv, where = [command, "--config", write_cfg(tmp_path, tree), "--no-timestamp"], "layer 1: "
        sampled = []
        real = netsim.sample_gaussian
        with pytest.MonkeyPatch.context() as m:
            m.setattr(netsim, "sample_gaussian", lambda *args: sampled.append(1) or real(*args))
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {where}output variance |ft|^2 + sigma_d2 = inf overflows\n"
        assert not sampled and not list(tmp_path.glob("*.csv"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["simulate"])
    def test_kernel_beyond_the_double_range_is_numerical_divergence(self, tmp_path, capsys, command):
        # sigma_1^2 = 1.5e308 is finite, but K_1's largest entries are not;
        # the theory's support bound overflows first (the test below)
        tree = smoke_tree(tmp_path)
        tree["network"].update(n=20, d0=20, dims=[20])
        tree["network"]["layers"][0].update(sigma_w2=1.5e308, sigma_b2=0.0, activation="identity")
        cpath = write_cfg(tmp_path, tree)
        assert main([command, "--config", cpath, "--no-timestamp"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical divergence: conjugate kernel overflows the double range")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["density", "compare"])
    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("x, eta", [(1e200, 0.1), (0.5, 1e300)], ids=["far-x", "far-eta"])
    def test_a_z_point_far_from_the_origin_is_flagged(self, tmp_path, capsys, command, depth, x, eta):
        # the solve overflows there: the point is flagged, with no RuntimeWarning
        tree = smoke_tree(tmp_path, z_grid={"x_min": x, "x_max": x, "step": 1.0, "eta": [eta]})
        tree["network"].update(n=20, d0=20, dims=[20] * depth, layers=tree["network"]["layers"] * depth)
        cpath = write_cfg(tmp_path, tree)
        assert main([command, "--config", cpath, "--no-timestamp"]) == 3
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["simulate", "density", "compare"])
    def test_explicit_input_whose_kernel_overflows_is_config_error(self, tmp_path, capsys, command):
        # |x_j|^2 / d0 overflows at entries near 1e160, not at 1e150; the
        # input is refused before anything is sampled or solved, while at
        # 1e150 every command runs, the theory certifying every point
        for scale, code in ((1e160, 2), (1e150, 0)):
            np.save(tmp_path / "x0.npy", np.random.default_rng(0).standard_normal((20, 20)) * scale)
            tree = smoke_tree(tmp_path, sim={"seeds": [0], "replicas": 1})
            tree["network"].update(n=20, d0=20, dims=[20], data={"kind": "explicit", "path": str(tmp_path / "x0.npy")})
            cpath = write_cfg(tmp_path, tree)
            assert main([command, "--config", cpath, "--no-timestamp"]) == code
            err = capsys.readouterr().err
            if code == 2:
                assert err == (
                    "config error: network.data.path: the kernel diagonal |x_j|^2 / d0 of x0 overflows the double range\n"
                )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["simulate", "density", "compare"])
    @pytest.mark.parametrize("scale", [1e77, 1e150])
    def test_huge_explicit_input_past_the_series_threshold_runs(self, tmp_path, capsys, command, scale):
        # 80 columns give the input law more atoms than the direct sum takes,
        # so its far-field series is built, on a radius near scale^2
        np.save(tmp_path / "x0.npy", np.random.default_rng(0).standard_normal((80, 80)) * scale)
        tree = smoke_tree(tmp_path, sim={"seeds": [0], "replicas": 1})
        tree["network"].update(n=80, d0=80, dims=[80], data={"kind": "explicit", "path": str(tmp_path / "x0.npy")})
        assert main([command, "--config", write_cfg(tmp_path, tree), "--no-timestamp"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["density", "compare"])
    def test_overflowing_support_bound_is_config_error(self, tmp_path, capsys, command):
        # identity layers over iid input, n = d0 = 20: sigma_w2 = 1.5e308 puts
        # layer 1's support bound past the double range, and 1e307 then 1
        # layer 2's alone; 1e306 then 1 keeps the bound finite but not its
        # CDF table's point count.  Each is refused before anything is solved.
        cases = [
            ([1.5e308], "layer 1: support bound inf overflows\n"),
            ([1e307, 1.0], "layer 2: support bound inf overflows\n"),
            ([1e306, 1.0], "z_grid.eta: inf CDF table points at eta 0.5 need inf bytes"
             if command == "density" else "layer 1: inf CDF table points at eta 0.001 need inf bytes"),
        ]
        solves = []
        real = measures.solve_chain_grid
        for weights, message in cases:
            tree = smoke_tree(tmp_path)
            layers = [dict(tree["network"]["layers"][0], sigma_w2=w, sigma_b2=0.0, activation="identity")
                      for w in weights]
            tree["network"].update(n=20, d0=20, dims=[20] * len(weights), layers=layers)
            cpath = write_cfg(tmp_path, tree)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(measures, "solve_chain_grid", lambda *a, **k: solves.append(1) or real(*a, **k))
                assert main([command, "--config", cpath, "--no-timestamp"]) == 2
            assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not solves and not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command, code", [("density", 2), ("compare", 2), ("simulate", 0)])
    def test_overflowing_preactivation_variance(self, tmp_path, capsys, command, code):
        # sigma_w2 * sigma_x2 overflows to inf: the theory has no constants
        # there, while a sampled tanh layer saturates and is well defined
        tree = smoke_tree(tmp_path)
        tree["network"]["data"]["sigma_x2"] = 1e10
        tree["network"]["layers"][0]["sigma_w2"] = 1e300
        cpath = write_cfg(tmp_path, tree)
        assert main([command, "--config", cpath, "--no-timestamp"]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("config error: layer 1: sigma_w2*sigma_x2 + sigma_b2 must be finite")
            assert not list(tmp_path.glob("*.csv"))
        else:
            assert read_csv(tmp_path / "simulate_stats.csv")

    @pytest.mark.parametrize("command, where, eta", [("density", "z_grid.eta", "0.5"), ("compare", "layer 1", "0.001")])
    def test_cdf_table_beyond_physical_memory_is_config_error(self, tmp_path, capsys, command, where, eta):
        # one identity layer of weight variance 1e12 bounds the support near
        # 5.8e12, so the CDF table density reads at eta = 0.5, and the one
        # compare's Kolmogorov distance reads at eta = 1e-3, would have 3.5e13
        # and 1.7e16 points, more than a 47-bit address space holds as doubles;
        # both are refused before anything is solved
        tree = smoke_tree(tmp_path)
        tree["network"].update(n=16, d0=16, dims=[8])
        tree["network"]["layers"][0].update(sigma_w2=1e12, sigma_b2=0.0, activation="identity", gamma=2.0)
        cpath = write_cfg(tmp_path, tree)
        assert main([command, "--config", cpath, "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {where}: ") and f"CDF table points at eta {eta} need " in err
        assert "bytes of physical memory" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["density", "compare"])
    def test_layer_the_theory_rejects_is_config_error(self, tmp_path, capsys, command):
        # unit sigma_x2, sigma_w2 and sigma_b2 put hermite2 at sigma_tilde^2 = 2,
        # where its Gaussian mean is 1/sqrt(2), not 0
        tree = smoke_tree(tmp_path)
        tree["network"]["layers"][0]["activation"] = "hermite2"
        cpath = write_cfg(tmp_path, tree)
        assert main([command, "--config", cpath, "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: layer 1: ") and "use f.shifted(0.70710678" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_out_path_collides_with_file(self, tmp_path, capsys):
        cpath = write_cfg(tmp_path, smoke_tree(tmp_path))
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["simulate", "--config", cpath, "--out", str(blocker)]) == 4
        capsys.readouterr()

    def test_starved_inner_layers_flag_only_their_rows(self, tmp_path, capsys):
        # three layers: a starved inner layer clears its points' flags
        # instead of raising, so only the unconverged rows lose their values
        layer = {"sigma_w2": 1.0, "sigma_b2": 1.0, "sigma_d2": 0.0, "activation": "tanh", "gamma": 1.0}
        grid = {"x_min": -2.0, "x_max": 8.0, "step": 1.0, "eta": [4.0, 0.01]}
        tree = smoke_tree(tmp_path, z_grid=grid, solver={"max_iter": 14})
        tree["network"].update(dims=[64] * 3, layers=[layer] * 3)
        cpath = write_cfg(tmp_path, tree)
        assert main(["density", "--config", cpath, "--no-timestamp"]) == 3
        capsys.readouterr()
        starved = read_csv(tmp_path / "density.csv")
        del tree["solver"]
        cpath = write_cfg(tmp_path, tree, "full.json")
        assert main(["density", "--config", cpath, "--out", str(tmp_path / "full"), "--no-timestamp"]) == 0
        capsys.readouterr()
        full = read_csv(tmp_path / "full" / "density.csv")
        assert all(r["converged_eta4"] == "1" for r in starved)
        dens = np.array([float(r["density_eta0.01"]) for r in starved])
        want = np.array([float(r["density_eta0.01"]) for r in full])
        solved = ~np.isnan(dens)
        # x = 0, 1, 2 sit in the bulk near the axis, where 14 Newton steps are too few
        assert (~solved).tolist() == [False, False, True, True, True] + [False] * 6
        assert np.max(np.abs(dens[solved] - want[solved])) <= 1e-10
        # the eta's CDF table did not converge, which clears the whole column
        assert all(r["converged_eta0.01"] == "0" for r in starved)
        assert all(r["cdf_eta0.01"] == "nan" for r in starved)

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize(
        "seeds, flag, message",
        [
            ([0, -1], [], "sim.seeds[1] must be nonnegative, got -1"),
            ([0], ["--seed", "-3"], "--seed must be nonnegative, got -3"),
        ],
        ids=["config", "flag"],
    )
    def test_negative_seed_is_config_error(self, tmp_path, capsys, command, seeds, flag, message):
        tree = smoke_tree(tmp_path, sim={"seeds": seeds})
        cpath = write_cfg(tmp_path, tree)
        assert main([command, "--config", cpath, "--no-timestamp"] + flag) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["density", "simulate", "compare"])
    def test_explicit_input_of_the_wrong_shape_is_config_error(self, tmp_path, capsys, command):
        tree = smoke_tree(tmp_path)
        tree["network"]["data"] = {"kind": "explicit", "path": write_npy(tmp_path, (64, 50))}
        cpath = write_cfg(tmp_path, tree)
        assert main([command, "--config", cpath, "--no-timestamp"]) == 2
        assert "config error: network: x0 has shape (64, 50)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["density", "simulate", "compare"])
    def test_nonfinite_explicit_input_is_config_error(self, tmp_path, capsys, command):
        cpath = write_cfg(tmp_path, nonfinite_input_tree(tmp_path))
        assert main([command, "--config", cpath, "--no-timestamp"]) == 2
        assert "config error: network.data.path: x0 must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["density", "simulate", "compare"])
    def test_complex_explicit_input_is_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "x0.npy"
        np.save(path, np.ones((64, 64)) + 0.5j)
        tree = smoke_tree(tmp_path)
        tree["network"]["data"] = {"kind": "explicit", "path": str(path)}
        cpath = write_cfg(tmp_path, tree)
        assert main([command, "--config", cpath, "--no-timestamp"]) == 2
        assert "config error: network.data.path: x0 must be real" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "shape, code, message",
        [((64,), 2, "config error: network.data: x0 must be a matrix"), (None, 4, "i/o error")],
    )
    def test_unusable_explicit_input(self, tmp_path, capsys, shape, code, message):
        path = str(tmp_path / "absent.npy") if shape is None else write_npy(tmp_path, shape)
        tree = smoke_tree(tmp_path)
        tree["network"]["data"] = {"kind": "explicit", "path": path}
        cpath = write_cfg(tmp_path, tree)
        assert main(["density", "--config", cpath]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["density", "compare"])
    def test_a_failed_cdf_table_is_named_not_counted_as_points(self, tmp_path, capsys, monkeypatch, command):
        # every grid point converges, but the tables at eta 0.01 (density's
        # column) and 1e-3 (compare's Kolmogorov distance) do not: one
        # stderr line names them, and counts no point or row
        real = MpBoxtimes._fill_tables

        def failing(self, etas, extra=()):
            g, ok, tables = real(self, etas, extra)
            return g, ok, {eta: None if eta in (0.01, 1e-3) else table for eta, table in tables.items()}

        monkeypatch.setattr(MpBoxtimes, "_fill_tables", failing)
        layer = {"sigma_w2": 1.0, "sigma_b2": 1.0, "sigma_d2": 0.0, "activation": "tanh", "gamma": 1.0}
        grid = {"x_min": -0.5, "x_max": 3.0, "step": 0.5, "eta": [0.1, 0.01]}
        tree = smoke_tree(tmp_path, z_grid=grid)
        tree["network"].update(n=40, d0=40, dims=[40] * 2, layers=[layer] * 2)
        cpath = write_cfg(tmp_path, tree)
        assert main([command, "--config", cpath, "--no-timestamp"]) == 3
        err = capsys.readouterr().err
        if command == "density":
            assert err == "the CDF table(s) at eta 0.01 did not converge; see converged_* columns\n"
            rows = read_csv(tmp_path / "density.csv")
            assert len(rows) == 8
            assert all(r["converged_eta0.1"] == "1" and r["converged_eta0.01"] == "0" for r in rows)
            assert all(r["cdf_eta0.01"] == "nan" and r["density_eta0.01"] != "nan" for r in rows)
        else:
            assert err == (
                "the CDF table(s) at eta 0.001 of layer(s) 1, 2 did not converge; "
                "see the converged and kolmogorov columns\n"
            )
            assert all(r["converged"] == "1" for r in read_csv(tmp_path / "compare_rows.csv"))
            assert [r["kolmogorov"] for r in read_csv(tmp_path / "compare_layers.csv")] == ["nan", "nan"]

    def test_starved_solver_still_writes_flagged_table(self, tmp_path, capsys):
        tree = smoke_tree(tmp_path, solver={"max_iter": 2})
        cpath = write_cfg(tmp_path, tree)
        assert main(["density", "--config", cpath, "--no-timestamp"]) == 3
        err = capsys.readouterr().err
        assert "did not converge" in err
        rows = read_csv(tmp_path / "density.csv")
        assert len(rows) == 3
        assert all(r["converged_eta0.5"] == "0" for r in rows)


# One command in a fresh interpreter; prints its exit code, the scipy modules
# it left loaded, whether a bare `import numpy` had already loaded
# numpy.random, and the thread that first imported numpy.random, if any
_FRESH_RUN = (
    "import json, sys, threading\n"
    "class Watch:\n"
    "    thread = None\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'numpy.random' and Watch.thread is None:\n"
    "            Watch.thread = threading.current_thread().name\n"
    "sys.meta_path.insert(0, Watch())\n"
    "import numpy\n"
    "bare = 'numpy.random' in sys.modules\n"
    "from ckequiv.cli import main\n"
    "code = main(json.loads(sys.argv[1]) + ['--no-timestamp'])\n"
    "scipy = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
    "random = Watch.thread if 'numpy.random' in sys.modules else None\n"
    "print(json.dumps({'code': code, 'scipy': scipy, 'bare': bare, 'random': random}))\n"
)


@pytest.fixture(scope="module")
def fresh_runs(tmp_path_factory):
    """Every command, each in a fresh interpreter; simulate and compare at one and two workers.

    The in-process tests cannot see what a command imports, or in which
    thread: the test process has imported all of it already.
    """
    tmp_path = tmp_path_factory.mktemp("fresh")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    small = write_cfg(tmp_path, {"z_grid": {"x_min": 0.0, "x_max": 1.0, "step": 0.5, "eta": [0.3]}}, "small.json")
    runs = {
        "coeffs": ("2", ["coeffs", "tanh", "--out", str(tmp_path / "coeffs")]),
        "density": ("2", ["density", "--config", write_cfg(tmp_path, smoke_tree(tmp_path / "density"), "density.json")]),
        "example55": ("2", ["example55", "--config", small, "--n", "40", "--out", str(tmp_path / "example55")]),
    }
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}"
        out.mkdir()
        runs[f"simulate{workers}"] = (workers, ["simulate", "--config", write_cfg(out, smoke_tree(out), "smoke.json")])
        # two seeds, so that the seeds fan out to the pool
        explicit = dict(explicit_two_layer_tree(out), sim={"seeds": [0, 1], "replicas": 2})
        explicit = write_cfg(out, explicit, "explicit.json")
        runs[f"compare{workers}"] = (workers, ["compare", "--config", explicit])
    reports = {}
    for name, (workers, argv) in runs.items():
        env["CKEQUIV_WORKERS"] = workers
        out = subprocess.run(
            [sys.executable, "-c", _FRESH_RUN, json.dumps(argv)], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        reports[name] = json.loads(out.stdout.strip().splitlines()[-1])
    return tmp_path, reports


_THEORY = ("coeffs", "density", "example55")
_SAMPLING = ("simulate2", "compare2")


def test_no_command_loads_scipy(fresh_runs):
    # the package needs numpy only; scipy would add start-up time and
    # resident memory to every run
    _, reports = fresh_runs
    assert {name: (r["code"], r["scipy"]) for name, r in reports.items()} == {name: (0, []) for name in reports}


def test_only_sampling_commands_load_numpy_random(fresh_runs):
    # numpy.random costs the theory commands about 6 MiB resident and 20 ms
    # of start-up; simulate and compare import it in the main thread, since
    # its first import from a pool thread leaves the process larger
    _, reports = fresh_runs
    if any(r["bare"] for r in reports.values()):
        pytest.skip("this numpy loads numpy.random in `import numpy` itself (numpy < 2)")
    assert {name: reports[name]["random"] for name in _THEORY + _SAMPLING} == {
        **{name: None for name in _THEORY},
        **{name: "MainThread" for name in _SAMPLING},
    }


@pytest.mark.parametrize("command, tables", [
    ("simulate", ["simulate_eigenvalues", "simulate_stats"]),
    ("compare", ["compare_rows", "compare_layers"]),
])
def test_fresh_process_tables_do_not_depend_on_worker_count(fresh_runs, command, tables):
    # a fresh process imports numpy.random just before its seeds fan out
    tmp_path, _ = fresh_runs
    for table in tables:
        one, two = ((tmp_path / f"workers{w}" / f"{table}.csv").read_bytes() for w in "12")
        assert one == two
