"""Trace points in ckequiv and the per-layer metrics built from them.

``install`` rebinds public names of the package's modules, from outside
the package, so that each call into a layer opens a span or bumps a
counter.  ``layer_metrics`` turns the aggregates into the per-layer
metrics named in BENCHMARK.json.  A name that a later version of the
package no longer has, or no longer calls as expected, is skipped and
listed in ``Tracer.missing``; its metrics then read 0.

Definitions that the names do not carry:

* ``freeconv.depth{k}``: solves whose measure ``mu`` is the base of chain
  layer k (k = 0 is the input law's own base);
* ``point_iters``: Picard iterations times grid points, per solve call;
* ``measures.cdf.table_points``: grid points of CDF tables built, not
  those served from a table built before;
* ``measures.discrete.pair_evals``: atoms times points of every discrete
  Stieltjes transform evaluated;
* ``netsim.decomp_per_seed_layer``: eigendecompositions of sampled kernels
  plus orthogonality statistics (a full SVD each), per kernel sampled;
* ``pool.busy_ratio``: process CPU seconds while a pool call runs, over
  its wall time times the threads that ran its tasks;
* ``cli.self_s``: time in ``main`` outside every traced call.

``run.py`` adds run-level metrics: ``trace.wall_s`` and ``trace.overhead_s``
(median traced minus untraced wall time), ``det.table_digests`` (distinct
table digests over the run's repetitions) and ``det.*_range`` (largest
minus smallest solver count over the traced repetitions).
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import threading
import time

import numpy as np

from tracer import Tracer

PACKAGE = "ckequiv"
DEPTHS = range(5)


def _param_getter(fn, name):
    """Fast lookup of one argument of fn from (args, kwargs)."""
    params = inspect.signature(fn).parameters
    names = list(params)
    at = names.index(name)
    default = params[name].default

    def get(args, kwargs):
        return args[at] if at < len(args) else kwargs.get(name, default)

    return get


def install(tr: Tracer) -> None:
    import ckequiv._pool as pool
    import ckequiv.cli as cli
    import ckequiv.detequiv as detequiv
    import ckequiv.freeconv as freeconv
    import ckequiv.hermite as hermite
    import ckequiv.measures as measures
    import ckequiv.netsim as netsim

    # id(base measure) -> (depth, base); the base is kept so the id stays unique
    depth_of: dict = {}

    def function(module, attr, make):
        orig = getattr(module, attr, None)
        new = None
        if orig is not None:
            try:
                new = make(orig)
            except ValueError:  # no longer has the argument its wrapper reads
                pass
        if new is None:
            tr.missing.add(f"{module.__name__}.{attr}")
            return
        tr.rebind_everywhere(orig, new, PACKAGE)

    def method(cls, attr, make):
        orig = vars(cls).get(attr)
        if orig is None:
            tr.missing.add(f"{cls.__module__}.{cls.__name__}.{attr}")
            return
        tr.rebind(cls, attr, make(orig))

    def timed(name):
        return lambda orig: tr.timed(name, orig)

    # -- freeconv: the fixed point, per call and per chain depth ---------------
    def make_solve(orig):
        get_mu = _param_getter(orig, "mu")
        get_z = _param_getter(orig, "z")
        get_cfg = _param_getter(orig, "cfg")

        def solve_l_grid(*args, **kwargs):
            size = np.size(get_z(args, kwargs))
            entry = depth_of.get(id(get_mu(args, kwargs)))
            key = None if entry is None else f"freeconv.depth{entry[0]}"
            span = tr.begin("freeconv.solve")
            out = None
            try:
                out = orig(*args, **kwargs)
            finally:
                _, own = tr.end(span)
                if key is not None:
                    tr.add(key + ".calls", 1)
                    tr.add(key + ".self_s", own)
                if out is None:
                    tr.add("freeconv.solve.unconverged", size)
            try:
                l, iterations, res = out
            except (TypeError, ValueError):
                tr.missing.add("ckequiv.freeconv.solve_l_grid return value")
                return out
            tol = get_cfg(args, kwargs).tol
            tr.add("freeconv.solve.iterations", iterations)
            tr.add("freeconv.solve.point_iters", iterations * size)
            tr.add("freeconv.solve.unconverged", int(np.sum(res > tol * np.maximum(1.0, np.abs(l)))))
            if key is not None:
                tr.add(key + ".point_iters", iterations * size)
            return out

        return solve_l_grid

    function(freeconv, "solve_l_grid", make_solve)

    # -- measures --------------------------------------------------------------
    def make_discrete(orig):
        def stieltjes(self, z):
            tr.add("measures.discrete.pair_evals", self.atoms.size * np.size(z))
            return orig(self, z)

        return stieltjes

    def make_table(orig):
        def _cdf_table(self, eta):
            # tables are cached per eta; count only the ones built here
            fresh = float(eta) not in getattr(self, "_tables", {})
            table = orig(self, eta)
            if fresh:
                tr.add("measures.cdf.table_points", len(table[0]))
            return table

        return _cdf_table

    method(measures.DiscreteMeasure, "stieltjes", make_discrete)
    method(measures.MpBoxtimes, "cdf", timed("measures.cdf"))
    method(measures.MpBoxtimes, "_cdf_table", make_table)
    method(measures.MpBoxtimes, "stieltjes_checked", timed("measures.stieltjes_checked"))
    function(measures, "kolmogorov_distance", timed("measures.kolmogorov"))

    # -- detequiv: the chain, its depths and its resolvent builders -------------
    def make_build_chain(orig):
        def build_chain(*args, **kwargs):
            span = tr.begin("detequiv.build_chain")
            try:
                chain = orig(*args, **kwargs)
            finally:
                tr.end(span)
            base0 = getattr(chain.chi0, "base", None)
            if base0 is not None:
                depth_of[id(base0)] = (0, base0)
            layers = []
            for k, layer in enumerate(chain.layers, start=1):
                depth_of[id(layer.chi.base)] = (k, layer.chi.base)
                layers.append(
                    dataclasses.replace(layer, gbuilder=tr.timed("detequiv.gbuilder", layer.gbuilder))
                )
            return dataclasses.replace(chain, layers=tuple(layers))

        return build_chain

    function(detequiv, "build_chain", make_build_chain)
    function(hermite, "coeff_vector", timed("hermite.coeff_vector"))

    # -- netsim: sampling, kernels and decompositions ---------------------------
    def make_run_network(orig):
        def run_network(*args, **kwargs):
            span = tr.begin("netsim.run_network")
            try:
                res = orig(*args, **kwargs)
            finally:
                tr.end(span)
            tr.add("netsim.kernels", len(res.eigenvalues))
            return res

        return run_network

    def make_factory(orig):
        def __init__(self, *args, **kwargs):
            span = tr.begin("netsim.eigh")
            try:
                return orig(self, *args, **kwargs)
            finally:
                tr.end(span)
                # the explicit input's own spectrum belongs to the theory side
                if not span.within("cli.chain_inputs"):
                    tr.add("netsim.eigh.sampled", 1)

        return __init__

    function(netsim, "run_network", make_run_network)
    function(netsim, "forward_layer", timed("netsim.forward_layer"))
    function(netsim, "conjugate_kernel", timed("netsim.conjugate_kernel"))
    function(netsim, "orthogonality_stats", timed("netsim.ortho"))
    method(netsim.SpectralFactory, "__init__", make_factory)
    method(netsim.SpectralFactory, "resolvent", timed("netsim.resolvent"))

    # -- _pool: tasks, their time and how busy the threads were -----------------
    def make_pmap(orig):
        def pmap(fn, items):
            items = list(items)
            span = tr.begin("pool.pmap")
            threads = set()
            lock = threading.Lock()

            def task(item):
                with lock:
                    threads.add(threading.get_ident())
                sub = tr.begin("pool.task", parent=span)
                try:
                    return fn(item)
                finally:
                    tr.end(sub)

            cpu0 = time.process_time()
            try:
                return orig(task, items)
            finally:
                cpu = time.process_time() - cpu0
                dur, _ = tr.end(span)
                tr.add("pool.cpu_s", cpu)
                tr.add("pool.thread_s", dur * max(1, len(threads)))

        return pmap

    function(pool, "pmap", make_pmap)

    # -- cli -------------------------------------------------------------------
    def make_write_table(orig):
        def write_table(*args, **kwargs):
            span = tr.begin("cli.write_table")
            try:
                paths = orig(*args, **kwargs)
            finally:
                tr.end(span)
            tr.add("cli.write_table.bytes", sum(os.path.getsize(p) for p in paths))
            return paths

        return write_table

    function(cli, "write_table", make_write_table)
    function(cli, "chain_inputs", timed("cli.chain_inputs"))


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced run (all but the run-level trace.*/det.*)."""
    c, calls, total, own = tr.counts, tr.calls, tr.total, tr.own
    m = {
        "freeconv.solve.calls": calls["freeconv.solve"],
        "freeconv.solve.iterations": c["freeconv.solve.iterations"],
        "freeconv.solve.point_iters": c["freeconv.solve.point_iters"],
        "freeconv.solve.self_s": own["freeconv.solve"],
        "freeconv.solve.unconverged": c["freeconv.solve.unconverged"],
    }
    for d in DEPTHS:
        for part in ("calls", "point_iters", "self_s"):
            m[f"freeconv.depth{d}.{part}"] = c[f"freeconv.depth{d}.{part}"]
    kernels = c["netsim.kernels"]
    decomps = c["netsim.eigh.sampled"] + calls["netsim.ortho"]
    m.update({
        "measures.cdf.calls": calls["measures.cdf"],
        "measures.cdf.s": total["measures.cdf"],
        "measures.cdf.self_s": own["measures.cdf"],
        "measures.cdf.table_points": c["measures.cdf.table_points"],
        "measures.kolmogorov.calls": calls["measures.kolmogorov"],
        "measures.kolmogorov.s": total["measures.kolmogorov"],
        "measures.stieltjes_checked.s": total["measures.stieltjes_checked"],
        "measures.discrete.pair_evals": c["measures.discrete.pair_evals"],
        "detequiv.build_chain.s": total["detequiv.build_chain"],
        "detequiv.gbuilder.calls": calls["detequiv.gbuilder"],
        "detequiv.gbuilder.self_s": own["detequiv.gbuilder"],
        "netsim.resolvent.calls": calls["netsim.resolvent"],
        "netsim.resolvent.s": total["netsim.resolvent"],
        "netsim.run_network.s": total["netsim.run_network"],
        "netsim.forward_layer.s": total["netsim.forward_layer"],
        "netsim.conjugate_kernel.s": total["netsim.conjugate_kernel"],
        "netsim.eigh.calls": calls["netsim.eigh"],
        "netsim.eigh.s": total["netsim.eigh"],
        "netsim.ortho.calls": calls["netsim.ortho"],
        "netsim.ortho.s": total["netsim.ortho"],
        "netsim.decomp_per_seed_layer": decomps / kernels if kernels else 0.0,
        "pool.tasks": calls["pool.task"],
        "pool.task_s": total["pool.task"],
        "pool.busy_ratio": c["pool.cpu_s"] / c["pool.thread_s"] if c["pool.thread_s"] else 0.0,
        "cli.self_s": own["cli.main"],
        "cli.write_table.s": total["cli.write_table"],
        "cli.write_table.bytes": c["cli.write_table.bytes"],
        "hermite.coeff_vector.calls": calls["hermite.coeff_vector"],
        "hermite.coeff_vector.s": total["hermite.coeff_vector"],
    })
    return m
