"""Certify every point of a 324,000-point sweep towards the hard edge at 0.

The laws: 240 chains.  The input is iid (n = d0 = 4), or an 80 x 80
explicit input drawn from ``default_rng(s)``, s in {5, 6, 7}, with column
variances 0.5 or 1.5.  The layers are tanh with sigma_b^2 in {0, 1}, or
identity, at gamma in {1/4, 1/2, 1, 2, 4} and depths 1 to 4.  The points
of each law: 200 x evenly spaced on [0, support_max()], 60 geometric on
[1e-5, 0.05] and 10 negative, at each eta in {1e-8, 1e-6, 1e-4, 1e-2, 1}.

Exits 1 if any point is left uncertified, and prints how many points the
cold solve left to ``MpBoxtimes._descend``.  pytest does not collect it;
run it as

    PYTHONPATH=src python tests/hard_edge_sweep.py

It takes about 20 s on two vCPUs with one BLAS thread.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from ckequiv.detequiv import LayerSpec, build_chain
from ckequiv.hermite import identity_activation, tanh_activation
from ckequiv.measures import MpBoxtimes
from ckequiv.netsim import ExplicitData, IidData, NetworkSpec

GAMMAS = (0.25, 0.5, 1.0, 2.0, 4.0)
DEPTHS = (1, 2, 3, 4)
ETAS = (1e-8, 1e-6, 1e-4, 1e-2, 1.0)


def inputs():
    """(label, n, d0, data) of the four inputs."""
    yield "iid", 4, 4, IidData(1.0)
    for s in (5, 6, 7):
        rng = np.random.default_rng(s)
        x0 = rng.standard_normal((80, 80)) * np.sqrt(rng.choice([0.5, 1.5], size=80))
        yield f"explicit{s}", 80, 80, ExplicitData(x0)


def layer_kinds():
    """(label, layer at gamma) of the three layer kinds."""
    yield "tanh-b0", lambda gamma: LayerSpec(1.0, 0.0, 0.0, tanh_activation(), gamma)
    yield "tanh-b1", lambda gamma: LayerSpec(1.0, 1.0, 0.0, tanh_activation(), gamma)
    yield "identity", lambda gamma: LayerSpec(1.0, 0.0, 0.0, identity_activation(), gamma)


def laws():
    """(label, law) of the 240 chains, each the top law of its network."""
    for data_label, n, d0, data in inputs():
        for kind, layer in layer_kinds():
            for gamma in GAMMAS:
                for depth in DEPTHS:
                    net = NetworkSpec(n=n, d0=d0, data=data, layers=(layer(gamma),) * depth)
                    yield f"{data_label} {kind} gamma={gamma:g} depth={depth}", build_chain(net).layers[-1].chi


def points(law):
    """The 1,350 points of a law: 270 x at each of the five etas."""
    xs = np.concatenate(
        [np.linspace(0.0, law.support_max(), 200), np.geomspace(1e-5, 0.05, 60), -np.geomspace(1e-5, 1.0, 10)]
    )
    return np.concatenate([xs + 1j * eta for eta in ETAS])


def main() -> int:
    descended = []
    real = MpBoxtimes._descend

    def counted(self, z):
        descended.append(z.size)
        return real(self, z)

    MpBoxtimes._descend = counted
    start = time.perf_counter()
    total = failed = 0
    for label, law in laws():
        zs = points(law)
        _, ok = law.stieltjes_checked(zs)
        total += zs.size
        if not np.all(ok):
            failed += zs.size - np.count_nonzero(ok)
            print(f"uncertified: {label} at z = {zs[~ok].tolist()}")
    MpBoxtimes._descend = real
    print(
        f"{total} points, {failed} uncertified; {len(descended)} descent calls took {sum(descended)} points"
        f" ({time.perf_counter() - start:.1f} s)"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
