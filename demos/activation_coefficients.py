"""Print the Hermite coefficient decay for each bundled activation.

The kernel theory only sees an activation through these numbers: the
linear coefficient feeds the b term, everything else is absorbed into
the diagonal constant a. Run with no arguments.
"""

import numpy as np

from ckequiv import ACTIVATIONS, coeff_vector, gaussian_norm_sq

r_max = 8

for name, make in sorted(ACTIVATIONS.items()):
    f = make()
    zeta = coeff_vector(f, r_max)
    norm2 = gaussian_norm_sq(f)
    tail = norm2 - float(zeta @ zeta)
    print(f"{name}  (|f|^2 = {norm2:.6f}, tail beyond r={r_max}: {tail:.2e})")
    for r, z in enumerate(zeta):
        bar = "#" * int(round(40 * min(z * z / max(norm2, 1e-30), 1.0)))
        print(f"  r={r}  zeta={z:+.6f}  {bar}")
    print()

print("input-scale dependence of the linear coefficient, tanh:")
for st2 in (0.25, 0.5, 1.0, 2.0, 4.0):
    f = ACTIVATIONS["tanh"]().scaled(np.sqrt(st2))
    zeta = coeff_vector(f, 4)
    print(f"  sigma_tilde^2 = {st2:<4}  zeta_1 = {zeta[1]:.6f}  zeta_3 = {zeta[3]:+.6f}")
