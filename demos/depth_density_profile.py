"""How the limiting spectral density deforms with depth.

Builds the deterministic chain for a stack of identical tanh layers on
iid Gaussian data and prints a coarse profile of the density of each
layer's limiting measure, all on a shared x grid. The layer constants
converge to a depth fixed point within a few layers and the density
columns converge with them, which is visible directly in the table.
"""

import numpy as np

from ckequiv import (
    IidData,
    LayerSpec,
    MpBoxtimes,
    NetworkSpec,
    activation_by_name,
    build_chain,
    dirac,
)

depth = 4
n = 512
layer = LayerSpec(1.0, 0.5, 0.1, activation_by_name("tanh"), 1.0)
spec = NetworkSpec(
    n=n, d0=n, dims=(n,) * depth, data=IidData(1.0), layers=(layer,) * depth
)
chi0 = MpBoxtimes(1.0, dirac(1.0))
chain = build_chain(spec, chi0, lambda w: chi0.stieltjes(w) * np.eye(n), 1.0)

sx2 = 1.0
for i, cl in enumerate(chain.layers, start=1):
    c = cl.constants
    print(f"layer {i}: a = {c.a:.4f}, b = {c.b:.4f}, output variance = {c.sigma_y2:.4f}")
    sx2 = c.sigma_y2

xs = np.linspace(0.0, 6.0, 61)
eta = 0.02
print(f"\ndensity profile at eta = {eta} (rows: x, columns: layer 1..{depth})")
dens = []
for cl in chain.layers:
    g = cl.chi.stieltjes(xs + 1j * eta)
    dens.append(np.maximum(g.imag, 0.0) / np.pi)
dens = np.array(dens)

for j, x in enumerate(xs):
    cells = "  ".join(f"{dens[i, j]:.4f}" for i in range(depth))
    bar = "*" * int(round(50 * dens[-1, j] / dens[-1].max()))
    print(f"x = {x:4.1f}  {cells}  {bar}")

masses = 0.5 * ((dens[:, 1:] + dens[:, :-1]) * np.diff(xs)).sum(axis=1)
print("\napprox bulk mass on [0, 6] per layer:", np.round(masses, 4))
