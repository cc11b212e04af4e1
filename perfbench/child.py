"""One run process of the benchmark: set up, call ckequiv.cli.main once.

Usage: python3 child.py <job.json> <spawned>

The job file names the package root, the config, the argument list for
``main`` and where to write the result.  ``spawned`` is the
``time.monotonic()`` reading of the parent just before it started this
process; the monotonic clock is shared by all processes of the machine,
so set-up time includes interpreter start.  Set-up ends once the package
is imported and the config and input files are loaded and validated.
With ``mode`` "setup" the process stops there.  With ``trace`` set, the
package's names are rebound to timing wrappers for the ``main`` call and
restored afterwards; a name left rebound is an error.
"""

import json
import os
import resource
import sys
import time


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "env": {k: os.environ.get(k) for k in (
            "CKEQUIV_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    from ckequiv import cli

    src = os.path.realpath(os.path.join(job["root"], "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"ckequiv imported from {cli.__file__}, not from {src}")
    cli.to_network_spec(cli.load_config(job["config"]))
    result = {"setup_s": time.monotonic() - float(sys.argv[2])}
    if job["mode"] == "run":
        main_fn = cli.main
        tr = None
        if job["trace"]:
            import hooks
            import tracer

            tr = tracer.Tracer()
            hooks.install(tr)
            main_fn = tr.timed("cli.main", cli.main)
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            rc = main_fn(job["argv"])
        finally:
            wall = time.perf_counter() - t0
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            if tr is not None:
                tr.restore()
        result.update({
            "rc": rc,
            "wall_s": wall,
            "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            "peak_rss_mb": ru1.ru_maxrss / 1024.0,
            "env": environment(),
        })
        if tr is not None:
            left = tracer.leftovers(hooks.PACKAGE)
            if left:
                raise SystemExit(f"names still rebound after the traced run: {left}")
            result["layers"] = hooks.layer_metrics(tr)
            result["missing_hooks"] = sorted(tr.missing)
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
