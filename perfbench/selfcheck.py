"""Checks of the benchmark's own machinery.

Usage: python3 perfbench/selfcheck.py    (exit code 0 when every check passes)

* ``covered`` and the tracer's self time subtract overlapping children,
  including children on other threads, once;
* installing the trace points and restoring them leaves every name of the
  package bound to exactly what it was bound to before;
* with one worker, a traced and an untraced run of each subcommand the
  workloads use write byte-identical tables (small sizes, so this runs in
  seconds).
"""

import os
import shutil
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hooks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def test_covered_counts_overlap_once():
    assert tracer.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert tracer.covered([(1, 4), (2, 3)], 0, 10) == 3
    assert tracer.covered([(-1, 2), (8, 12)], 0, 10) == 4
    assert tracer.covered([], 0, 10) == 0


def test_self_time_subtracts_threaded_children_once():
    tr = tracer.Tracer()
    parent = tr.begin("parent")

    def child():
        span = tr.begin("child", parent=parent)
        time.sleep(0.2)
        tr.end(span)

    threads = [threading.Thread(target=child) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    dur, own = tr.end(parent)
    assert tr.calls["child"] == 2
    # two overlapping 0.2 s children: the union, not the 0.4 s sum, is removed
    assert 0.0 <= own < dur - 0.15, (dur, own)
    assert tr.total["child"] >= 0.4


def _bindings():
    found = {}
    for modname, mod in tracer.modules(hooks.PACKAGE):
        for attr, value in list(vars(mod).items()):
            found[(modname, attr)] = value
            if isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in list(vars(value).items()):
                    found[(modname, attr, cattr)] = cvalue
    return found


def test_restore_puts_every_name_back():
    import ckequiv.cli  # noqa: F401

    before = _bindings()
    tr = tracer.Tracer()
    hooks.install(tr)
    assert not tr.missing, tr.missing
    assert tracer.leftovers(hooks.PACKAGE)
    tr.restore()
    after = _bindings()
    assert not tracer.leftovers(hooks.PACKAGE)
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


SMALL = {
    "density": {
        "network": {"n": 200, "d0": 200, "dims": [200] * 2,
                    "data": {"kind": "iid", "sigma_x2": 1.0}, "layers": run.tanh_layers(2)},
        "z_grid": {"x_min": 0.0, "x_max": 4.0, "step": 0.5, "eta": [0.1, 0.05]},
    },
    "simulate": {
        "network": {"n": 120, "d0": 120, "dims": [120] * 2,
                    "data": {"kind": "iid", "sigma_x2": 1.0}, "layers": run.tanh_layers(2)},
        "sim": {"seeds": [0, 1], "replicas": 2},
    },
    "compare": {
        "network": {"n": 80, "d0": 80, "dims": [80], "data": {"kind": "iid", "sigma_x2": 1.0},
                    "layers": run.tanh_layers(1)},
        "z_grid": {"x_min": 0.0, "x_max": 4.0, "step": 1.0, "eta": [0.2]},
        "sim": {"seeds": [0, 1], "replicas": 2},
    },
}


def test_traced_tables_match_untraced_with_one_worker():
    work = os.path.join(ROOT, "perfbench_out", f"selfcheck-{os.getpid()}")
    os.makedirs(work)
    try:
        for command, config in SMALL.items():
            sub = os.path.join(work, command)
            os.makedirs(sub)
            runner = run.Runner(sub, {"command": command, "config": config}, workers="1")
            plain = runner.spawn("run", False, 120)
            traced = runner.spawn("run", True, 120)
            for res in (plain, traced):
                assert res["rc"] == 0, res.get("error")
            assert run.digest(plain["out"]) == run.digest(traced["out"]), command
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as ex:
            failed += 1
            print(f"FAIL {test.__name__}: {ex}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
