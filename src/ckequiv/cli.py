"""Batch experiment driver for spectra of random-feature kernels.

Subcommands
-----------
coeffs     Hermite coefficient table and layer constants for one activation.
density    Density and CDF of the deepest layer's limiting spectral measure.
simulate   Sample networks; write per-seed eigenvalue and statistics tables.
compare    Simulated spectra and resolvents against deterministic equivalents.
example55  Equicorrelated closed form against the generic resolvent builder.

Configuration is a single JSON tree that ``parse_config`` walks once,
straight into the library's objects: a ``NetworkSpec`` (its ``LayerSpec``
layers and data model, an explicit ``.npy`` input read at that point), a
``ZGridConfig`` and a ``FixedPointConfig``.  Unknown keys anywhere in the
tree are errors, not warnings, and every subcommand given a config checks
its whole network section before running.  Tables are written as CSV
and/or JSON with complex columns split into ``_re``/``_im`` pairs and floats
rendered with ``repr`` so identical runs produce identical bytes.  The first
CSV line is a ``# generated <timestamp>`` comment unless ``--no-timestamp``
is given.

Exit codes: 0 success, 2 configuration error, 3 numerical divergence,
4 I/O error.  On exit 3 ``density`` and ``compare`` still write their
tables, with the bad grid points flagged; ``example55`` stops at the first
point that does not converge and writes no table.  The worker pool size
is taken from the ``CKEQUIV_WORKERS`` environment variable; a value that
is not an integer >= 1 is a configuration error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _pool
from .freeconv import DEFAULT_CONFIG, DivergenceError, FixedPointConfig, mp_stieltjes_closed
from .hermite import MAX_DEGREE, activation_by_name
from .measures import DEFAULT_ETA, esd_from_eigenvalues, kolmogorov_distance
from .detequiv import (
    LayerSpec,
    SpectralFactory,
    _gap_target,
    _sigma_builders,
    _ungated_constants,
    build_chain,
    equicorrelated_equivalent,
    equicorrelated_stieltjes,
    layer_constants,
)
from .netsim import (
    EquicorrelatedData,
    ExplicitData,
    IidData,
    NetworkSpec,
    _width,
    conjugate_kernel,
    layer_outputs,
    layer_variances,
    orthogonality_stats,
    run_network,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class ConfigError(Exception):
    """Invalid configuration content (maps to exit code 2)."""


# ---------------------------------------------------------------------------
# Configuration tree


@dataclass(frozen=True)
class ZGridConfig:
    x_min: float = -1.0
    x_max: float = 5.0
    step: float = 0.25
    eta: tuple = (0.1,)

    def count(self) -> int:
        return int(math.floor((self.x_max - self.x_min) / self.step + 1e-9)) + 1

    def points(self) -> np.ndarray:
        return self.x_min + self.step * np.arange(self.count())


@dataclass(frozen=True)
class ExperimentConfig:
    network: NetworkSpec | None
    z_grid: ZGridConfig
    seeds: tuple
    solver: FixedPointConfig
    directory: str
    formats: tuple


_REQUIRED = object()


def _section(tree, where: str, fields: dict) -> dict:
    """Check one mapping of the tree against {key: (kind, default)}.

    kind is float, int, str, a section builder ``(tree, where) -> value``
    or a one-element list of one of these for a nonempty list.  A missing
    key takes its default, checked like a given value; a None default
    stays None and a _REQUIRED one is an error.  Returns {key: value}.
    """
    if not isinstance(tree, dict):
        raise ConfigError(f"{where or 'config'} must be a mapping, got {type(tree).__name__}")
    unknown = sorted(set(tree) - set(fields))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where or 'config'}: {', '.join(unknown)}")
    out = {}
    for key, (kind, default) in fields.items():
        name = f"{where}.{key}" if where else key
        if key in tree:
            out[key] = _value(tree[key], kind, name)
        elif default is _REQUIRED:
            raise ConfigError(f"{name} is required")
        else:
            out[key] = None if default is None else _value(default, kind, name)
    return out


def _value(v, kind, where: str):
    if isinstance(kind, list):
        if not isinstance(v, list) or not v:
            raise ConfigError(f"{where} must be a nonempty list")
        return tuple(_value(item, kind[0], f"{where}[{i}]") for i, item in enumerate(v))
    if kind is str:
        if not isinstance(v, str) or not v:
            raise ConfigError(f"{where} must be a nonempty string")
        return v
    if kind not in (int, float):
        return kind(v, where)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where} must be a number")
    # json reads 1e999, Infinity and NaN as floats, and an integer literal of
    # any length as an int, which may be too large for a double
    try:
        x = float(v)
    except OverflowError:
        x = math.inf if v > 0 else -math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{where} must be finite, got {x!r}")
    if kind is int and not x.is_integer():
        raise ConfigError(f"{where} must be an integer")
    return int(v) if kind is int else x


def _check_fits(where: str, what: str, nbytes: int) -> None:
    """Reject a size whose arrays alone would exceed physical memory, before they are allocated."""
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > total:
        try:
            size = float(nbytes)
        except OverflowError:  # an integer byte count beyond the double range
            size = math.inf
        raise ConfigError(f"{where}: {what} need {size:.3g} bytes, more than the {total:.3g} bytes of physical memory")


def _check_sampling_fits(spec, seeds, kept: int = 0) -> None:
    """Reject, before any sampling, a network whose arrays alone would exceed physical memory.

    A lower bound: per running worker, the doubles of the layer l that holds
    most, of width d_l = n / gamma_l (d_0 = d0): (d_{l-1} + d_l) n while it
    is sampled from its input, (d_l + n) n while its kernel is formed, and
    (d0 + n) n for the input's kernel; plus ``kept`` bytes per kernel entry
    of each (seed, layer >= 1).
    """
    running = min(_pool.worker_count(), len(seeds))
    n = spec.n
    widths = [spec.d0] + [_width(n, lspec.gamma) for lspec in spec.layers]
    held = [spec.d0 + n] + [max(d_in, n) + d_out for d_in, d_out in zip(widths, widths[1:])]
    top = max(range(len(held)), key=held.__getitem__)
    nbytes = 8 * running * n * held[top] + kept * n * n * len(seeds) * len(spec.layers)
    where, width = ("network.n", "") if top == 0 else (f"layer {top}", f" and width {widths[top]:.4g}")
    _check_fits(where, f"the sampled arrays of {running} worker(s) at n = {n}{width}", nbytes)


def _load_sampler() -> None:
    """Import numpy.random in the main thread, before the seeds fan out to the pool.

    numpy 2 imports it lazily, at the first generator ``netsim.stream``
    makes, and the theory commands never do.  Imported first from a pool
    thread instead, it left compare-data's peak RSS about 2.7 MiB higher:
    86.2-86.3 against 83.3-83.9 MiB in 4 alternating pairs (2 vCPUs,
    Python 3.11, numpy 2.4).
    """
    import numpy.random  # noqa: F401


def _check_tables_fit(where: str, chi, etas) -> None:
    """Reject the CDF tables of chi at etas, built together, when their arrays alone exceed physical memory.

    A table point holds at least 64 bytes: its complex z, g and top-level l,
    and the table's x and F.
    """
    count = sum(chi._table_span(eta)[2] for eta in etas)
    tags = ", ".join(_eta_tag(eta) for eta in etas)
    _check_fits(where, f"{count} CDF table points at eta {tags}", 64 * count)


def _build(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError reported as a config error at where, if given."""
    try:
        return make(*args, **kwargs)
    except ValueError as ex:
        raise ConfigError(f"{where}: {ex}" if where else str(ex)) from None


def _layer(tree, where: str) -> LayerSpec:
    v = _section(tree, where, {
        "sigma_w2": (float, _REQUIRED),
        "sigma_b2": (float, 0.0),
        "sigma_d2": (float, 0.0),
        "activation": (str, _REQUIRED),
        "gamma": (float, _REQUIRED),
    })
    f = _build(where, activation_by_name, v.pop("activation"))
    return _build(where, LayerSpec, f=f, **v)


def _data(tree, where: str):
    fields = {"kind": (str, _REQUIRED), "sigma_x2": (float, None), "path": (str, None)}
    kind, sigma_x2, path = _section(tree, where, fields).values()
    if kind not in ("iid", "equicorrelated", "explicit"):
        raise ConfigError(f"{where}.kind must be one of iid, equicorrelated, explicit")
    if kind == "iid":
        if path is not None:
            raise ConfigError(f"{where}.path only applies to explicit data")
        return _build(where, IidData, 1.0 if sigma_x2 is None else sigma_x2)
    if kind == "equicorrelated":
        if sigma_x2 is not None or path is not None:
            raise ConfigError(f"{where}: equicorrelated data takes no parameters")
        return EquicorrelatedData()
    if sigma_x2 is not None:
        raise ConfigError(f"{where}.sigma_x2 only applies to iid data")
    if path is None:
        raise ConfigError(f"{where}.path is required for explicit data")
    x0 = _build(f"{where}.path", np.load, path)
    if np.ndim(x0) != 2:
        raise ConfigError(f"{where}: x0 must be a matrix")
    # a matrix with a NaN or inf entry is a fault of the file it came from
    return _build(f"{where}.path", ExplicitData, x0)


def _network(tree, where: str) -> NetworkSpec:
    v = _section(tree, where, {
        "n": (int, _REQUIRED),
        "d0": (int, _REQUIRED),
        "dims": ([int], _REQUIRED),
        "layers": ([_layer], _REQUIRED),
        "data": (_data, _REQUIRED),
    })
    dims = v.pop("dims")
    if len(v["layers"]) != len(dims):
        raise ConfigError(f"{where}.layers and {where}.dims must have the same length")
    spec = _build(where, NetworkSpec, **v)
    # dims restates the widths n / gamma_l that the spec carries: check, then drop it
    if any(d < 1 for d in dims):
        raise ConfigError(f"{where}: layer widths must be >= 1")
    for i, (d, lspec) in enumerate(zip(dims, spec.layers), start=1):
        if abs(spec.n / d - lspec.gamma) > 1e-12 * max(1.0, lspec.gamma):
            raise ConfigError(f"{where}: layer {i}: gamma {lspec.gamma} != n/d_l = {spec.n / d}")
    return spec


def _z_grid(tree, where: str) -> ZGridConfig:
    d = ZGridConfig()
    g = ZGridConfig(**_section(tree, where, {
        "x_min": (float, d.x_min),
        "x_max": (float, d.x_max),
        "step": (float, d.step),
        "eta": ([float], list(d.eta)),
    }))
    if any(e <= 0 for e in g.eta):
        raise ConfigError(f"{where}.eta values must be positive")
    if len({_eta_tag(e) for e in g.eta}) < len(g.eta):
        raise ConfigError(f"{where}.eta values name columns and must differ in 6 significant digits")
    if g.step <= 0:
        raise ConfigError(f"{where}.step must be positive")
    if g.x_max < g.x_min:
        raise ConfigError(f"{where} range is empty")
    if not math.isfinite((g.x_max - g.x_min) / g.step):
        raise ConfigError(f"{where}: (x_max - x_min) / step must be finite")
    # one complex z per (x, eta) point
    _check_fits(where, f"{g.count()} x values at {len(g.eta)} eta", 16 * g.count() * len(g.eta))
    return g


def _seeds(tree, where: str) -> tuple:
    # replicas is only a consistency check on the seed list
    seeds, replicas = _section(tree, where, {"seeds": ([int], [0, 1, 2]), "replicas": (int, None)}).values()
    if replicas is not None and replicas != len(seeds):
        raise ConfigError(f"{where}.replicas must equal the number of seeds")
    for i, seed in enumerate(seeds):
        _nonnegative_seed(seed, f"{where}.seeds[{i}]")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"{where}.seeds must not repeat")
    return seeds


def _nonnegative_seed(seed: int, where: str) -> None:
    # numpy's SeedSequence takes no negative entropy
    if seed < 0:
        raise ConfigError(f"{where} must be nonnegative, got {seed}")


def _solver(tree, where: str) -> FixedPointConfig:
    d = DEFAULT_CONFIG
    fields = {"tol": (float, d.tol), "max_iter": (int, d.max_iter)}
    return _build(where, FixedPointConfig, **_section(tree, where, fields))


def _output(tree, where: str) -> tuple:
    directory, formats = _section(tree, where, {"directory": (str, "out"), "formats": ([str], ["csv"])}).values()
    bad = sorted(set(formats) - {"csv", "json"})
    if bad:
        raise ConfigError(f"{where}.formats entries must be csv or json, got {bad}")
    return directory, tuple(dict.fromkeys(formats))


def parse_config(tree: dict) -> ExperimentConfig:
    """Strictly validate a JSON-style config tree into the library's objects.

    Unknown keys are errors; the network section, when given, is built in
    full (its explicit input read from disk) before any command runs.
    """
    v = _section(tree, "", {
        "network": (_network, None),
        "z_grid": (_z_grid, {}),
        "sim": (_seeds, {}),
        "solver": (_solver, {}),
        "output": (_output, {}),
    })
    directory, formats = v["output"]
    return ExperimentConfig(v["network"], v["z_grid"], v["sim"], v["solver"], directory, formats)


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    with open(path, "r") as fh:
        try:
            tree = json.load(fh)
        except json.JSONDecodeError as ex:
            raise ConfigError(f"{path}: {ex}") from None
    return parse_config(tree)


# ---------------------------------------------------------------------------
# Heavy objects from config


def to_network_spec(cfg: ExperimentConfig) -> NetworkSpec:
    if cfg.network is None:
        raise ConfigError("this command needs a network section in the config")
    return cfg.network


def _chain(cfg: ExperimentConfig):
    """The network's equivalent chain; a layer the theory rejects, or whose support bound overflows, is a config error."""
    return _build("", build_chain, to_network_spec(cfg), cfg.solver)


# ---------------------------------------------------------------------------
# Table output


def _stamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _csv_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return int(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _json_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        v = float(v)
        return v if math.isfinite(v) else repr(v)
    return str(v)


def write_table(outdir, name, header, rows, formats, stamp=None) -> list:
    """Write one table in every requested format; returns the paths written.

    stamp=None suppresses the generated-at line (CSV) / key (JSON).
    """
    paths = []
    for fmt in formats:
        path = os.path.join(outdir, f"{name}.{fmt}")
        if fmt == "csv":
            with open(path, "w", newline="") as fh:
                if stamp is not None:
                    fh.write(f"# generated {stamp}\n")
                w = csv.writer(fh)
                w.writerow(header)
                w.writerows([[_csv_cell(v) for v in row] for row in rows])
        else:
            doc: dict = {}
            if stamp is not None:
                doc["generated"] = stamp
            doc["columns"] = list(header)
            doc["rows"] = [[_json_cell(v) for v in row] for row in rows]
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
        paths.append(path)
    return paths


def _print_table(header, rows, file=sys.stdout) -> None:
    cells = [[str(_csv_cell(v)) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h) for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(), file=file)
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip(), file=file)


def _write_tables(cfg: ExperimentConfig, args, tables) -> None:
    """Write (name, header, rows) tables where flags or config say; print each path."""
    outdir = args.out if args.out is not None else cfg.directory
    os.makedirs(outdir, exist_ok=True)
    stamp = None if args.no_timestamp else _stamp()
    formats = args.formats or cfg.formats
    for name, header, rows in tables:
        for path in write_table(outdir, name, header, rows, formats, stamp):
            print(f"wrote {path}")


def _eta_tag(eta: float) -> str:
    return f"{eta:g}"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_coeffs(args) -> int:
    f = _build("", activation_by_name, args.activation)
    if not 1 <= args.r_max <= MAX_DEGREE:
        raise ConfigError(f"--r-max must lie in [1, {MAX_DEGREE}]")
    sw2, sx2, sb2, sd2 = args.sigma_w2, args.sigma_x2, args.sigma_b2, args.sigma_d2
    # the chained comparisons are False for NaN and inf as well as for negatives
    if not all(0.0 <= v < math.inf for v in (sw2, sx2, sb2, sd2)) or not 0 < sw2 * sx2 + sb2 < math.inf:
        raise ConfigError("variances must be finite and nonnegative with 0 < sigma_w2*sigma_x2 + sigma_b2 < inf")
    # the constants the theory uses, without its zero-mean gate: this table
    # is diagnostic and should also show activations that need recentering
    const = _build("", _ungated_constants, f, sw2, sx2, sb2, sd2, r_max=args.r_max)
    zeta, norm2, st2 = const.zeta, const.norm2, const.sigma_tilde2
    coeff_rows = [(r, zeta[r], abs(zeta[r]) < 1e-10) for r in range(args.r_max + 1)]
    summary_rows = [
        ("sigma_w2", sw2),
        ("sigma_x2", sx2),
        ("sigma_b2", sb2),
        ("sigma_d2", sd2),
        ("sigma_tilde2", st2),
        ("norm_sq", norm2),
        ("tail", norm2 - float(zeta @ zeta)),
        ("a", const.a),
        ("b", const.b),
        ("sigma_y2", const.sigma_y2),
    ]
    coeff_header = ["r", "zeta", "is_zero"]
    summary_header = ["quantity", "value"]
    print(f"activation {f.name!r} rescaled to input variance {st2!r}")
    _print_table(coeff_header, coeff_rows)
    print()
    _print_table(summary_header, summary_rows)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        stamp = None if args.no_timestamp else _stamp()
        formats = args.formats or ("csv",)
        write_table(args.out, "coeffs", coeff_header, coeff_rows, formats, stamp)
        write_table(args.out, "coeffs_summary", summary_header, summary_rows, formats, stamp)
    return EXIT_OK


def cmd_density(cfg: ExperimentConfig, args) -> int:
    chi = _chain(cfg).layers[-1].chi
    xs = cfg.z_grid.points()
    etas = cfg.z_grid.eta
    _check_tables_fit("z_grid.eta", chi, etas)

    # the checked transform flags unconverged points of every layer; a CDF
    # table that did not converge, None, clears its whole column instead
    columns = []
    bad, failed = 0, []
    for eta, (g, ok, cdf) in zip(etas, chi.inversion(xs, etas)):
        dens = np.where(ok, np.maximum(g.imag, 0.0) / math.pi, np.nan)
        bad += int(np.sum(~ok))
        if cdf is None:
            failed.append(_eta_tag(eta))
            cdf, ok = np.full(xs.shape, np.nan), np.zeros_like(ok)
        columns.append((dens, cdf, ok))
    header = ["x"]
    for eta in etas:
        t = _eta_tag(eta)
        header += [f"density_eta{t}", f"cdf_eta{t}", f"converged_eta{t}"]
    rows = []
    for i, x in enumerate(xs):
        row = [x]
        for dens, cdf, conv in columns:
            row += [dens[i], cdf[i], bool(conv[i])]
        rows.append(row)
    _write_tables(cfg, args, [("density", header, rows)])
    what = [f"{bad} grid point(s)"] if bad else []
    what += [f"the CDF table(s) at eta {', '.join(failed)}"] if failed else []
    if what:
        print(f"{' and '.join(what)} did not converge; see converged_* columns", file=sys.stderr)
    return EXIT_NUMERIC if what else EXIT_OK


def _resolved_seeds(cfg: ExperimentConfig, args) -> tuple:
    if args.seed is not None:
        _nonnegative_seed(args.seed, "--seed")
        return (args.seed,)
    return cfg.seeds


def cmd_simulate(cfg: ExperimentConfig, args) -> int:
    spec = to_network_spec(cfg)
    seeds = _resolved_seeds(cfg, args)
    # a layer whose output variance overflows, or a network too large to sample,
    # is refused before any sampling
    _build("", layer_variances, spec)
    _check_sampling_fits(spec, seeds)
    _load_sampler()
    results = _pool.pmap(lambda s: run_network(spec, s), seeds)
    eig_rows = []
    stat_rows = []
    for res in results:
        for layer, lam in enumerate(res.eigenvalues):
            eig_rows.extend(
                (res.seed, layer, idx, float(v)) for idx, v in enumerate(lam)
            )
        for layer, st in enumerate(res.stats):
            stat_rows.append((res.seed, layer, st.max_dev, st.diag_norm, st.spec_norm))
    _write_tables(cfg, args, [
        ("simulate_eigenvalues", ["seed", "layer", "index", "eigenvalue"], eig_rows),
        ("simulate_stats", ["seed", "layer", "max_dev", "diag_norm", "spec_norm"], stat_rows),
    ])
    return EXIT_OK


def cmd_compare(cfg: ExperimentConfig, args) -> int:
    chain = _chain(cfg)
    # each layer's Kolmogorov distance reads its law's CDF table at DEFAULT_ETA
    for li, layer in enumerate(chain.layers, start=1):
        _check_tables_fit(f"layer {li}", layer.chi, [DEFAULT_ETA])
    spec = cfg.network
    seeds = _resolved_seeds(cfg, args)
    xs = cfg.z_grid.points()
    zs = np.array([complex(x, eta) for eta in cfg.z_grid.eta for x in xs])
    # each factory keeps its eigenvectors in double and single precision
    _check_sampling_fits(spec, seeds, kept=12)

    def sample(seed):
        # a seed keeps the stats and factory of each layer >= 1 and never forms
        # layer 0's kernel.  Closing the generator frees the last layer's Y, which
        # it holds, before that kernel is decomposed; enumerate() over it would
        # keep Y alive in the result tuple it reuses
        layers = layer_outputs(spec, seed)
        next(layers)
        stats, factories = [], []
        for li in range(1, len(spec.layers) + 1):
            y, sigma2 = next(layers)
            k = conjugate_kernel(y)
            del y
            if li == len(spec.layers):
                layers.close()
            fac = SpectralFactory(k)
            stats.append(orthogonality_stats(k, sigma2, fac.eigenvalues))
            factories.append(fac)
            del k
        return stats, factories

    _load_sampler()
    samples = _pool.pmap(sample, seeds)
    # one solve per layer gives g, the flags and a builder of each point's equivalent
    solved = [layer.gbuilder(zs) for layer in chain.layers]

    def kolmogorov(li):
        chi = chain.layers[li - 1].chi
        spectra = [factories[li - 1].eigenvalues for _, factories in samples]
        try:
            return float(np.mean([kolmogorov_distance(esd_from_eigenvalues(lam), chi) for lam in spectra]))
        except DivergenceError:
            return None

    def entry_gap(li, z, build):
        # one equivalent per task, prepared once and reduced against every seed's resolvent
        target = _gap_target(build)
        return float(np.max([factories[li - 1]._max_gap(z, target) for _, factories in samples]))

    # the KS tasks go first, so their CDF tables overlap the gap products
    tasks = [partial(kolmogorov, li) for li in range(1, len(chain.layers) + 1)]
    tasks += [
        partial(entry_gap, li, complex(z), build)
        for li, points in enumerate(solved, start=1)
        for z, (_, build, ok) in zip(zs, points)
        if ok
    ]
    done = iter(_pool.pmap(lambda task: task(), tasks))
    ks_values = [next(done) for _ in chain.layers]
    rows = []
    layer_rows = []
    n_bad, failed = 0, []
    for li, (points, ks) in enumerate(zip(solved, ks_values), start=1):
        g_sim = np.array([
            np.mean(1.0 / (factories[li - 1].eigenvalues[None, :] - zs[:, None]), axis=1)
            for _, factories in samples
        ])
        g_mean = g_sim.mean(axis=0)
        g_std = g_sim.std(axis=0)
        for z, gm, gs, (g_det, _, ok) in zip(zs, g_mean, g_std, points):
            gap = next(done) if ok else np.nan
            n_bad += not ok
            rows.append(
                (
                    li,
                    z.real,
                    z.imag,
                    gm.real,
                    gm.imag,
                    float(gs),
                    g_det.real if ok else np.nan,
                    g_det.imag if ok else np.nan,
                    abs(gm - g_det) if ok else np.nan,
                    gap,
                    ok,
                )
            )
        if ks is None:
            ks = np.nan
            failed.append(str(li))
        stats = np.array([st[li - 1] for st, _ in samples])
        layer_rows.append((li, ks, *stats.mean(axis=0)))
    row_header = [
        "layer",
        "z_re",
        "z_im",
        "g_sim_mean_re",
        "g_sim_mean_im",
        "g_sim_std",
        "g_det_re",
        "g_det_im",
        "abs_dg",
        "max_entry_gap",
        "converged",
    ]
    _write_tables(cfg, args, [
        ("compare_rows", row_header, rows),
        ("compare_layers", ["layer", "kolmogorov", "max_dev", "diag_norm", "spec_norm"], layer_rows),
    ])
    print(f"{len(seeds)} seed(s), {zs.size} grid point(s), {len(chain.layers)} layer(s)")
    what = [f"{n_bad} row(s)"] if n_bad else []
    what += [f"the CDF table(s) at eta {DEFAULT_ETA:g} of layer(s) {', '.join(failed)}"] if failed else []
    if what:
        print(f"{' and '.join(what)} did not converge; see the converged and kolmogorov columns", file=sys.stderr)
    return EXIT_NUMERIC if what else EXIT_OK


def cmd_example55(cfg: ExperimentConfig, args) -> int:
    if args.n < 2:
        raise ConfigError("--n must be >= 2")
    # Sigma, its eigenvectors and, per z, two complex equivalents and their
    # difference: ten n x n matrices of doubles
    _check_fits("--n", f"ten {args.n} x {args.n} matrices", 80 * args.n**2)
    a, b = args.a, args.b
    if a is None or b is None:
        const = layer_constants(
            LayerSpec(1.0, 1.0, 1.0, activation_by_name("tanh"), 1.0), 1.0
        )
        a = float(const.a) if a is None else a
        b = float(const.b) if b is None else b
    for flag, v in (("--a", a), ("--b", b)):
        if not 0 <= v < math.inf:
            raise ConfigError(f"{flag} must be finite and nonnegative, got {v!r}")
    if not 0 < a + b < math.inf:
        raise ConfigError(f"--a + --b must be {'positive' if a + b == 0 else 'finite'}")
    n = args.n
    sigma = np.full((n, n), b / n)
    np.fill_diagonal(sigma, a + b)
    xs = cfg.z_grid.points()
    zs = [complex(x, eta) for eta in cfg.z_grid.eta for x in xs]
    rows = []
    for z, build in zip(zs, _sigma_builders(sigma, 1.0, zs, cfg.solver)):
        g, g_mat = equicorrelated_equivalent(n, a, b, z, cfg.solver)
        # the largest entry of the difference, O(n^2), as compare's max_entry_gap
        agreement = float(np.max(np.abs(g_mat - build())))
        trace_gap = abs(np.trace(g_mat) / n - g)
        rows.append((z.real, z.imag, g.real, g.imag, agreement, trace_gap))
    sweep_rows = []
    g_inf = mp_stieltjes_closed(1.0, 1j / (a + b)) / (a + b)
    for m in (100, 1000, 10000):
        gm = equicorrelated_stieltjes(m, a, b, 1j, cfg.solver)
        sweep_rows.append((m, abs(gm - g_inf)))
    grid_header = ["z_re", "z_im", "g_re", "g_im", "agreement", "trace_gap"]
    sweep_header = ["n", "abs_gap_at_i"]
    print(f"n={n}, a={a!r}, b={b!r}")
    _print_table(grid_header, rows)
    print()
    _print_table(sweep_header, sweep_rows)
    _write_tables(cfg, args, [
        ("example55_grid", grid_header, rows),
        ("example55_sweep", sweep_header, sweep_rows),
    ])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckequiv",
        description="deterministic spectral equivalents of random-feature kernels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument(
            "--format",
            dest="formats",
            action="append",
            choices=("csv", "json"),
            default=None,
            help="output format; repeat for several (overrides config)",
        )
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit the generated-at line so identical runs are byte-identical",
        )

    p = sub.add_parser("coeffs", help="Hermite coefficients and layer constants")
    p.add_argument("activation", help="activation name (see hermite.ACTIVATIONS)")
    p.add_argument("--r-max", type=int, default=20)
    p.add_argument("--sigma-w2", type=float, default=1.0)
    p.add_argument("--sigma-x2", type=float, default=1.0)
    p.add_argument("--sigma-b2", type=float, default=0.0)
    p.add_argument("--sigma-d2", type=float, default=0.0)
    add_output_flags(p)

    for name, needs_seed in (("density", False), ("simulate", True), ("compare", True)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        if needs_seed:
            p.add_argument("--seed", type=int, default=None, help="single-seed override of sim.seeds")
        add_output_flags(p)

    p = sub.add_parser("example55", help="equicorrelated closed form vs generic builder")
    p.add_argument("--config", default=None, help="optional config for z grid / solver / output")
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--a", type=float, default=None, help="linear-term offset (default: tanh layer)")
    p.add_argument("--b", type=float, default=None, help="linear-term weight (default: tanh layer)")
    add_output_flags(p)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    args.formats = tuple(args.formats) if args.formats else None
    try:
        if args.command == "coeffs":
            return cmd_coeffs(args)
        _build("", _pool.worker_count)
        # example55's config is optional; the other commands require one
        cfg = load_config(args.config) if args.config else parse_config({})
        command = {
            "density": cmd_density, "simulate": cmd_simulate, "compare": cmd_compare, "example55": cmd_example55,
        }[args.command]
        return command(cfg, args)
    except ConfigError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return EXIT_CONFIG
    # LinAlgError, a kernel LAPACK cannot decompose, subclasses ValueError
    except (DivergenceError, ArithmeticError, np.linalg.LinAlgError) as ex:
        print(f"numerical divergence: {ex}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as ex:
        print(f"i/o error: {ex}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
