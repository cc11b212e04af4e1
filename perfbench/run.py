"""Benchmark of the ``ckequiv`` command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload theory-deep --seed 0 --seconds 36 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

    theory-deep   ``ckequiv density``: iid input, n = d0 = 1000, four tanh
                  layers (sigma_w2 = sigma_b2 = 1, gamma = 1), x from -0.5
                  to 6 in steps of 0.05, eta 0.02 and 0.01.  No random input.
    sim-wide      ``ckequiv simulate``: iid input, n = d0 = 2000, two tanh
                  layers, sampling seeds 2s and 2s + 1.
    compare-data  ``ckequiv compare``: explicit input, n = d0 = 600, columns
                  of variance 0.5 or 1.5 drawn from the seed, one tanh layer,
                  x from -1 to 5 in steps of 0.25 at eta 0.1, sampling seeds
                  3s, 3s + 1 and 3s + 2.

The benchmark writes the configs and the explicit ``.npy`` input from the
seed into a scratch directory of the checkout, so the program only sees
generated files.  Every repetition calls ``ckequiv.cli.main`` once in a
fresh process (``child.py``) with CKEQUIV_WORKERS=2 and the BLAS pinned to
one thread.  Set-up time is first sampled in processes that stop after set-up; then
repetitions go on while the next one is expected to end within
``--seconds`` of the start; at least two always run.

Every table is checked: against the stored reference in ``ref/`` (for
theory-deep always, for the seeded workloads at seed 0) and against
invariants on every seed.  A row fails when it is flagged unconverged, is
NaN or fails a check; a crash or a nonzero exit fails every row.

With ``--trace 0`` the last line reports the end-to-end metrics as the
median over repetitions.  With ``--trace 1`` one untraced repetition is
followed by at least two traced ones (``hooks.py``), and the last line reports the
per-layer metrics as medians over the traced repetitions.  The line
before it is a record of the run: environment, every repetition with its
table digest, and the notes of failed checks; it is also appended to
``perfbench_out/runs.jsonl``.

``--write-reference`` runs the workload once at seed 0 and stores its
tables in ``ref/`` after the invariant checks pass.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# the BLAS thread count must be set before numpy loads; child processes
# inherit it with the rest of this environment
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import hooks  # noqa: E402
import tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKERS = "2"
SETUP_SAMPLES = 8
RUN_LIMIT_S = 165.0
REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# Tables and checks


class Check:
    """Per-row pass flags of one table plus the reasons rows failed."""

    def __init__(self, rows: int):
        self.ok = np.ones(rows, dtype=bool)
        self.notes: list = []

    def require(self, mask, what: str) -> None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), self.ok.shape)
        bad = int(np.sum(self.ok & ~mask))
        if bad:
            self.notes.append(f"{what}: {bad} row(s)")
        self.ok &= mask


def read_csv(path: str):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)
    return header, data.reshape(len(rows) - 1, len(header))


def close(a, b):
    """Elementwise |a - b| <= REL_TOL * max(1, |b|); NaN never matches."""
    return np.abs(a - b) <= REL_TOL * np.maximum(1.0, np.abs(b))


def ref_path(workload: str) -> str:
    return os.path.join(HERE, "ref", f"{workload}.npz")


def against_reference(check: Check, path: str, table: str, header, data) -> None:
    with np.load(path, allow_pickle=False) as ref:
        want = ref[table]
        same = list(ref[table + ".header"]) == list(header) and want.shape == data.shape
    if not same:
        check.require(False, f"{table}: layout differs from the reference")
        return
    check.require(np.all(close(data, want), axis=1), f"{table}: differs from the reference")


def check_density(out: str, job: dict):
    xs = np.asarray(job["xs"])
    header = ["x"]
    for tag in job["eta_tags"]:
        header += [f"density_eta{tag}", f"cdf_eta{tag}", f"converged_eta{tag}"]
    check = Check(xs.size)
    got_header, d = read_csv(os.path.join(out, "density.csv"))
    if got_header != header or d.shape[0] != xs.size:
        check.require(False, "density: unexpected layout")
        return (check,)
    check.require(np.all(np.isfinite(d), axis=1), "density: NaN or inf")
    check.require(close(d[:, 0], xs), "density: x grid")
    for k in range(len(job["eta_tags"])):
        dens, cdf, conv = d[:, 1 + 3 * k], d[:, 2 + 3 * k], d[:, 3 + 3 * k]
        check.require(conv == 1, "density: unconverged")
        check.require(dens >= 0, "density: negative density")
        check.require((cdf >= 0) & (cdf <= 1), "density: CDF outside [0, 1]")
        check.require(np.concatenate([[True], np.diff(cdf) >= 0]), "density: CDF decreases")
    if job["ref"]:
        against_reference(check, job["ref"], "density", header, d)
    return (check,)


def check_simulate(out: str, job: dict):
    n, depth, seeds = job["n"], job["depth"], job["seeds"]
    groups = [(s, layer) for s in seeds for layer in range(depth + 1)]
    eig_check = Check(len(groups) * n)
    stat_check = Check(len(groups))
    eh, eig = read_csv(os.path.join(out, "simulate_eigenvalues.csv"))
    sh, st = read_csv(os.path.join(out, "simulate_stats.csv"))
    if (eh != ["seed", "layer", "index", "eigenvalue"] or eig.shape[0] != eig_check.ok.size
            or sh != ["seed", "layer", "max_dev", "diag_norm", "spec_norm"]
            or st.shape[0] != len(groups)):
        eig_check.require(False, "simulate: unexpected layout or row count")
        stat_check.require(False, "simulate: unexpected layout or row count")
        return eig_check, stat_check
    keys = np.array(groups, dtype=float)
    want_keys = np.repeat(keys, n, axis=0)
    eig_check.require(np.all(eig[:, :2] == want_keys, axis=1), "eigenvalues: seed/layer order")
    eig_check.require(eig[:, 2] == np.tile(np.arange(n), len(groups)), "eigenvalues: index")
    eig_check.require(np.isfinite(eig[:, 3]), "eigenvalues: NaN or inf")
    eig_check.require(eig[:, 3] >= -1e-8, "eigenvalues: below -1e-8")
    lam_max = eig[:, 3].reshape(len(groups), n).max(axis=1)
    stat_check.require(np.all(st[:, :2] == keys, axis=1), "stats: seed/layer order")
    stat_check.require(np.all(np.isfinite(st), axis=1), "stats: NaN or inf")
    stat_check.require(close(st[:, 4], lam_max), "stats: spec_norm differs from the largest eigenvalue")
    if job["ref"]:
        against_reference(eig_check, job["ref"], "simulate_eigenvalues", eh, eig)
        against_reference(stat_check, job["ref"], "simulate_stats", sh, st)
    return eig_check, stat_check


ROW_HEADER = ["layer", "z_re", "z_im", "g_sim_mean_re", "g_sim_mean_im", "g_sim_std",
              "g_det_re", "g_det_im", "abs_dg", "max_entry_gap", "converged"]
LAYER_HEADER = ["layer", "kolmogorov", "max_dev", "diag_norm", "spec_norm"]


def check_compare(out: str, job: dict):
    zs = np.asarray(job["zs"])
    depth = job["depth"]
    row_check = Check(depth * zs.shape[0])
    layer_check = Check(depth)
    rh, rows = read_csv(os.path.join(out, "compare_rows.csv"))
    lh, layers = read_csv(os.path.join(out, "compare_layers.csv"))
    if rh != ROW_HEADER or rows.shape[0] != row_check.ok.size or lh != LAYER_HEADER or layers.shape[0] != depth:
        row_check.require(False, "compare: unexpected layout or row count")
        layer_check.require(False, "compare: unexpected layout or row count")
        return row_check, layer_check
    want = np.column_stack([np.repeat(np.arange(1, depth + 1), zs.shape[0]), np.tile(zs, (depth, 1))])
    row_check.require(np.all(close(rows[:, :3], want), axis=1), "compare_rows: layer/z grid")
    row_check.require(np.all(np.isfinite(rows), axis=1), "compare_rows: NaN or inf")
    row_check.require(rows[:, 10] == 1, "compare_rows: unconverged")
    row_check.require((rows[:, 4] > 0) & (rows[:, 7] > 0), "compare_rows: transform left the upper half-plane")
    dg = np.hypot(rows[:, 3] - rows[:, 6], rows[:, 4] - rows[:, 7])
    row_check.require(np.abs(dg - rows[:, 8]) <= 1e-12 * np.maximum(1.0, dg), "compare_rows: abs_dg inconsistent")
    row_check.require(rows[:, 9] >= 0, "compare_rows: negative entry gap")
    layer_check.require(layers[:, 0] == np.arange(1, depth + 1), "compare_layers: layer index")
    layer_check.require(np.all(np.isfinite(layers), axis=1), "compare_layers: NaN or inf")
    layer_check.require((layers[:, 1] > 0) & (layers[:, 1] <= 1), "compare_layers: Kolmogorov distance outside (0, 1]")
    layer_check.require(np.all(layers[:, 2:] >= 0, axis=1) & (layers[:, 4] > 0), "compare_layers: negative stats")
    if job["ref"]:
        against_reference(row_check, job["ref"], "compare_rows", rh, rows)
        against_reference(layer_check, job["ref"], "compare_layers", lh, layers)
    return row_check, layer_check


# ---------------------------------------------------------------------------
# Workload inputs


def tanh_layers(count: int) -> list:
    return [{"sigma_w2": 1.0, "sigma_b2": 1.0, "sigma_d2": 0.0, "activation": "tanh", "gamma": 1.0}] * count


def grid(x_min: float, x_max: float, step: float) -> np.ndarray:
    # the same point count as the CLI's ZGridConfig.points
    count = int(np.floor((x_max - x_min) / step + 1e-9)) + 1
    return x_min + step * np.arange(count)


def theory_deep(seed: int, work: str) -> dict:
    # the seed selects nothing: the density of the iid limit has no random input
    zg = {"x_min": -0.5, "x_max": 6.0, "step": 0.05, "eta": [0.02, 0.01]}
    config = {
        "network": {"n": 1000, "d0": 1000, "dims": [1000] * 4,
                    "data": {"kind": "iid", "sigma_x2": 1.0}, "layers": tanh_layers(4)},
        "z_grid": zg,
    }
    return {"command": "density", "config": config, "check": "density", "ref": ref_path("theory-deep"),
            "xs": grid(zg["x_min"], zg["x_max"], zg["step"]).tolist(),
            "eta_tags": [f"{e:g}" for e in zg["eta"]]}


def sim_wide(seed: int, work: str) -> dict:
    seeds = [2 * seed, 2 * seed + 1]
    config = {
        "network": {"n": 2000, "d0": 2000, "dims": [2000] * 2,
                    "data": {"kind": "iid", "sigma_x2": 1.0}, "layers": tanh_layers(2)},
        "sim": {"seeds": seeds, "replicas": len(seeds)},
    }
    return {"command": "simulate", "config": config, "check": "simulate",
            "ref": ref_path("sim-wide") if seed == 0 else None, "n": 2000, "depth": 2, "seeds": seeds}


def compare_data(seed: int, work: str) -> dict:
    n = d0 = 600
    rng = np.random.default_rng([seed, 600])
    variance = rng.choice([0.5, 1.5], size=n)
    x0 = rng.standard_normal((d0, n)) * np.sqrt(variance)
    path = os.path.join(work, "x0.npy")
    np.save(path, x0)
    zg = {"x_min": -1.0, "x_max": 5.0, "step": 0.25, "eta": [0.1]}
    seeds = [3 * seed, 3 * seed + 1, 3 * seed + 2]
    config = {
        "network": {"n": n, "d0": d0, "dims": [n], "data": {"kind": "explicit", "path": path},
                    "layers": tanh_layers(1)},
        "z_grid": zg,
        "sim": {"seeds": seeds, "replicas": len(seeds)},
    }
    xs = grid(zg["x_min"], zg["x_max"], zg["step"])
    zs = [[x, eta] for eta in zg["eta"] for x in xs]
    return {"command": "compare", "config": config, "check": "compare",
            "ref": ref_path("compare-data") if seed == 0 else None, "zs": zs, "depth": 1}


WORKLOADS = {"theory-deep": theory_deep, "sim-wide": sim_wide, "compare-data": compare_data}
CHECKS = {"density": check_density, "simulate": check_simulate, "compare": check_compare}


# ---------------------------------------------------------------------------
# Repetitions


class Runner:
    def __init__(self, work: str, job: dict, workers: str = WORKERS):
        self.work = work
        self.job = job
        self.count = 0
        self.config = os.path.join(work, "config.json")
        with open(self.config, "w") as fh:
            json.dump(job["config"], fh, indent=1)
        self.env = dict(os.environ)
        self.env["CKEQUIV_WORKERS"] = workers
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)

    def spawn(self, mode: str, trace: bool, timeout: float) -> dict:
        """Start one child process and wait for it; rc is None when it gave no result."""
        self.count += 1
        tag = f"{mode}{self.count}"
        out = os.path.join(self.work, tag)
        os.makedirs(out)
        job = {
            "root": ROOT, "config": self.config, "mode": mode, "trace": trace,
            "argv": [self.job["command"], "--config", self.config, "--out", out, "--no-timestamp"],
            "result": os.path.join(self.work, tag + ".json"),
        }
        job_path = os.path.join(self.work, tag + ".job.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), job_path, repr(start)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return {"rc": None, "error": f"{mode} process timed out", "out": out,
                    "elapsed_s": time.monotonic() - start}
        elapsed = time.monotonic() - start
        if proc.returncode != 0 or not os.path.exists(job["result"]):
            return {"rc": None, "error": f"{mode} process exited {proc.returncode}: {proc.stderr[-2000:]}",
                    "out": out, "elapsed_s": elapsed}
        with open(job["result"]) as fh:
            result = json.load(fh)
        result.update(elapsed_s=elapsed, out=out)
        return result

    def rep(self, trace: bool, timeout: float) -> dict:
        """One checked repetition of the workload."""
        res = self.spawn("run", trace, timeout)
        parts = None
        if res.get("rc") == 0:
            try:
                parts = CHECKS[self.job["check"]](res["out"], self.job)
            except (OSError, ValueError, IndexError) as ex:
                res["error"] = f"tables unreadable: {ex}"
        if parts is None:
            # a crash or a nonzero exit fails every row the run should have written
            expected = expected_rows(self.job)
            res.update(attempted=expected, failed=expected)
        else:
            res["attempted"] = sum(p.ok.size for p in parts)
            res["failed"] = sum(int(np.sum(~p.ok)) for p in parts)
            res["notes"] = [note for p in parts for note in p.notes]
            res["digest"] = digest(res["out"])
        res["traced"] = trace
        shutil.rmtree(res.pop("out"))
        return res


def expected_rows(job: dict) -> int:
    if job["check"] == "density":
        return len(job["xs"])
    if job["check"] == "simulate":
        return len(job["seeds"]) * (job["depth"] + 1) * (job["n"] + 1)
    return job["depth"] * (len(job["zs"]) + 1)


def digest(out: str) -> str:
    h = hashlib.md5()
    for name in sorted(os.listdir(out)):
        h.update(name.encode())
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def median(values) -> float:
    return float(statistics.median(values))


def schedule(runner: Runner, trace: bool, seconds: float, started: float) -> tuple:
    """Set-up samples, then repetitions while the next should end within the budget.

    An untraced run makes at least two repetitions; a traced run makes one
    untraced and at least two traced ones, so solver counts can be compared.
    """
    hard = started + RUN_LIMIT_S
    deadline = started + seconds
    runner.spawn("setup", False, hard - time.monotonic())  # warms the caches; not counted
    samples = [runner.spawn("setup", False, hard - time.monotonic()) for _ in range(SETUP_SAMPLES)]
    reps = [runner.rep(False, hard - time.monotonic())]
    while reps[-1]["rc"] == 0:
        same = [r["elapsed_s"] for r in reps if r["traced"] == trace]
        if len(same) >= 2 and time.monotonic() + median(same) > deadline:
            break
        reps.append(runner.rep(trace, hard - time.monotonic()))
    setups = [r["setup_s"] for r in samples + reps if "setup_s" in r]
    return setups, reps


def end_to_end(setups, reps) -> dict:
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    timed = [r for r in reps if not r["traced"] and "wall_s" in r]
    if not timed:
        # nothing measured: the child crashed; its elapsed time stands in
        timed = [{"wall_s": r["elapsed_s"], "cpu_s": r["elapsed_s"], "peak_rss_mb": 0.0} for r in reps]
    return {
        "wall_s": median(r["wall_s"] for r in timed),
        "cpu_s": median(r["cpu_s"] for r in timed),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in timed),
        "setup_s": median(setups or [r["elapsed_s"] for r in reps]),
        "ok_share": (attempted - failed) / attempted,
    }


def per_layer(reps) -> dict:
    traced = [r for r in reps if r["traced"] and "layers" in r]
    untraced = [r["wall_s"] for r in reps if not r["traced"] and "wall_s" in r]
    if not traced:
        # nothing traced ran to the end: every per-layer metric reads 0
        traced = [{"layers": hooks.layer_metrics(tracer.Tracer()), "wall_s": 0.0}]
    out = {k: median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    wall = median(r["wall_s"] for r in traced)

    def spread(key):
        values = [r["layers"][key] for r in traced]
        return max(values) - min(values)

    out.update({
        "trace.wall_s": wall,
        "trace.overhead_s": wall - median(untraced) if untraced else 0.0,
        "det.table_digests": len({r["digest"] for r in reps if "digest" in r}),
        "det.solve_calls_range": spread("freeconv.solve.calls"),
        "det.depth0_calls_range": spread("freeconv.depth0.calls"),
    })
    return out


def write_reference(runner: Runner) -> int:
    """Run once and store the tables as the reference, if the invariants hold."""
    res = runner.spawn("run", False, RUN_LIMIT_S)
    if res["rc"] != 0:
        print(f"the run failed: {res.get('error', res['rc'])}", file=sys.stderr)
        return 1
    path = runner.job["ref"]
    parts = CHECKS[runner.job["check"]](res["out"], dict(runner.job, ref=None))
    notes = [note for p in parts for note in p.notes]
    if notes:
        print(f"invariant checks failed, no reference written: {notes}", file=sys.stderr)
        return 1
    arrays = {}
    for name in sorted(os.listdir(res["out"])):
        header, data = read_csv(os.path.join(res["out"], name))
        table = os.path.splitext(name)[0]
        arrays[table] = data
        arrays[table + ".header"] = np.array(header)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(path, **arrays)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "ckequiv", "cli.py")):
        print(f"no ckequiv sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    seed = 0 if args.write_reference else args.seed
    work = os.path.join(ROOT, "perfbench_out", f"{args.workload}-s{seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(work, WORKLOADS[args.workload](seed, work))
        if args.write_reference:
            return write_reference(runner)
        setups, reps = schedule(runner, bool(args.trace), args.seconds, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = per_layer(reps) if args.trace else end_to_end(setups, reps)
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    record = {
        "workload": args.workload, "seed": seed, "trace": args.trace, "seconds": args.seconds,
        "env": next((r["env"] for r in reps if "env" in r), None),
        "setup_s": setups,
        "reps": [{k: r.get(k) for k in ("traced", "rc", "wall_s", "cpu_s", "peak_rss_mb", "setup_s",
                                        "elapsed_s", "attempted", "failed", "digest", "notes",
                                        "missing_hooks", "error")} for r in reps],
    }
    line = json.dumps({"record": record})
    with open(os.path.join(ROOT, "perfbench_out", "runs.jsonl"), "a") as fh:
        fh.write(line + "\n")
    print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
