"""One tanh layer on the correlated data model, theory vs simulation.

Samples the layer at a moderate width, then compares three predictions
of the deterministic theory against the sampled kernel:

  * the scalar Stieltjes transform at a few z,
  * the full equivalent resolvent, entry by entry,
  * the limiting spectral law via the Kolmogorov distance.

Everything here has an exact closed form because the input kernel is
I + (J - I)/n, so no fixed-point solve is needed on the scalar side.
"""

import numpy as np

from ckequiv import (
    DiscreteMeasure,
    EquicorrelatedData,
    LayerSpec,
    MpBoxtimes,
    NetworkSpec,
    SpectralFactory,
    activation_by_name,
    equicorrelated_equivalent,
    esd_from_eigenvalues,
    kolmogorov_distance,
    layer_constants,
    layer_kernels,
)

n = 600
layer = LayerSpec(1.0, 1.0, 1.0, activation_by_name("tanh"), 1.0)
const = layer_constants(layer, 1.0)
a, b = float(const.a), float(const.b)
print(f"n = {n}, layer constants a = {a:.6f}, b = {b:.6f}")

alpha = a + b - b / n
chi = MpBoxtimes(1.0, DiscreteMeasure([alpha, alpha + b], [(n - 1) / n, 1.0 / n]))
spec = NetworkSpec(
    n=n, d0=n, dims=(n,), data=EquicorrelatedData(), layers=(layer,)
)

zs = (1j, 0.5 + 0.5j, 2.0 + 0.25j)
print(f"\n{'z':>12}  {'seed':>4}  {'|g_sim - g_det|':>16}  {'max entry gap':>14}")
for seed in (0, 1, 2):
    # the input kernel, then the layer's kernel: its one decomposition gives both
    # the spectrum and the resolvents
    _, (kernel, _) = layer_kernels(spec, seed)
    fac = SpectralFactory(kernel)
    lam = fac.eigenvalues
    for z in zs:
        g_det, g_mat = equicorrelated_equivalent(n, a, b, z)
        g_sim = np.mean(1.0 / (lam - z))
        entry_gap = np.max(np.abs(fac.resolvent(z) - g_mat))
        print(f"{str(z):>12}  {seed:>4}  {abs(g_sim - g_det):16.3e}  {entry_gap:14.3e}")

grid = np.linspace(0.0, float(lam[-1]) + 0.5, 800)
ks = kolmogorov_distance(esd_from_eigenvalues(lam), chi, grid)
print(f"\nKolmogorov distance, seed 2 spectrum vs limit law: {ks:.4f}")
print("expected scale for both gaps is sqrt(log n / n) =", f"{np.sqrt(np.log(n) / n):.4f}")
