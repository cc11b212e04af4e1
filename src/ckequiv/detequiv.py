"""Deterministic equivalents for conjugate-kernel resolvents.

A random layer Y = f(W X / sqrt(d) + B) + D acts on spectra through
three scalars derived from the rescaled activation ft(t) = f(st * t),
st^2 = sw2 * sx2 + sb2:

    a = |ft|^2 - (sw2 * sx2 / st^2) * zeta_1(ft)^2 + sd2,
    b = zeta_1(ft)^2 * sw2 / st^2,
    sy2 = |ft|^2 + sd2            (the output variance; a + b*sx2 = sy2).

The limiting kernel spectrum of the layer output is MP(gamma) boxtimes
(a + b * chi_in), and its equivalent resolvent matrix comes from one rule,
applied once per layer on the companion fixed point l(z):

    K(z) = (l / (z b)) H((l - a) / b),

with H the equivalent resolvent map of the layer's input.  ``_compose``
writes it once, over a whole z grid: one flagged solve gives l of every
nested layer, and walking them down gives each point its prefactor and the
argument of the base map, which is the input resolvent for a chain, or the
resolvent of Sigma for an explicit covariance (a = 0, b = 1, so
G(z) = (l/z) (Sigma - l I)^{-1}).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from .freeconv import DEFAULT_CONFIG, DivergenceError, FixedPointConfig
from .hermite import Activation, coeff_vector, gaussian_norm_sq
from .measures import B_ZERO_TOL, DiscreteMeasure, MpBoxtimes, dirac, esd_from_eigenvalues

if TYPE_CHECKING:
    from .netsim import NetworkSpec

DEFAULT_R_MAX = 20


@dataclass(frozen=True)
class LayerSpec:
    """Variance parameters of one random layer and its activation.

    gamma is the shape ratio n / d of the layer's kernel matrix.
    """

    sigma_w2: float
    sigma_b2: float
    sigma_d2: float
    f: Activation
    gamma: float

    def __post_init__(self):
        for name in ("sigma_w2", "sigma_b2", "sigma_d2", "gamma"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        if self.sigma_w2 <= 0:
            raise ValueError("sigma_w2 must be positive")
        if self.sigma_b2 < 0 or self.sigma_d2 < 0:
            raise ValueError("bias and noise variances must be nonnegative")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")


@dataclass(frozen=True)
class LayerConstants:
    sigma_x2: float
    sigma_tilde2: float
    zeta: np.ndarray
    norm2: float
    a: float
    b: float
    sigma_y2: float

    def __post_init__(self):
        # a is a difference of terms of size sigma_y2, so its rounding error is too
        scale = max(1.0, self.sigma_y2)
        if self.a < -1e-10 * scale:
            raise ValueError(f"a must be nonnegative, got {self.a:.3e}")
        gap = abs(self.a + self.b * self.sigma_x2 - self.sigma_y2)
        if gap > 1e-8 * scale:
            raise ValueError(f"constants violate a + b*sx2 = sy2 by {gap:.3e}")


def _ungated_constants(
    f: Activation,
    sigma_w2: float,
    sigma_x2: float,
    sigma_b2: float,
    sigma_d2: float,
    r_max: int = DEFAULT_R_MAX,
) -> LayerConstants:
    """Constants of one layer, whatever the Gaussian mean of ft.

    b counts as zero where |zeta_1| < B_ZERO_TOL, and an a that rounding
    left just below zero (by 1e-10 max(1, sigma_y2) at most) is clamped to 0.
    """
    st2 = sigma_w2 * sigma_x2 + sigma_b2
    ft = f.scaled(np.sqrt(st2))
    zeta = coeff_vector(ft, r_max)
    norm2 = gaussian_norm_sq(ft)
    z1 = zeta[1]
    b = 0.0 if abs(z1) < B_ZERO_TOL else z1 * z1 * sigma_w2 / st2
    a = norm2 - (sigma_w2 * sigma_x2 / st2) * z1 * z1 + sigma_d2
    sigma_y2 = norm2 + sigma_d2
    if -1e-10 * max(1.0, sigma_y2) < a < 0:
        a = 0.0
    return LayerConstants(
        sigma_x2=sigma_x2,
        sigma_tilde2=st2,
        zeta=zeta,
        norm2=norm2,
        a=a,
        b=b,
        sigma_y2=sigma_y2,
    )


def layer_constants(spec: LayerSpec, sigma_x2: float) -> LayerConstants:
    """Scalar constants of one layer for input entry variance sigma_x2.

    The rescaled activation ft must have zero Gaussian mean; otherwise
    the error names the recentering shift to subtract.
    """
    sigma_x2 = float(sigma_x2)
    if sigma_x2 <= 0:
        raise ValueError("sigma_x2 must be positive")
    const = _ungated_constants(spec.f, spec.sigma_w2, sigma_x2, spec.sigma_b2, spec.sigma_d2)
    zeta0 = const.zeta[0]
    if abs(zeta0) >= 1e-6:
        name = spec.f.scaled(np.sqrt(const.sigma_tilde2)).name
        raise ValueError(
            f"rescaled activation {name!r} is not Gaussian-centered "
            f"(zeta_0 = {zeta0:.3e}); use f.shifted({zeta0!r})"
        )
    return const


# ---------------------------------------------------------------------------
# Equivalent resolvent matrices


def _upper_half(z):
    """z as a complex, or a complex array; ValueError off the open upper half-plane."""
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0):
        raise ValueError("z must lie in the open upper half-plane")
    return complex(z) if z.ndim == 0 else z


def _compose(chi: MpBoxtimes, depth: int, H: Callable[[complex], np.ndarray], z):
    """The layer composition rule K(z) = (l / (z b)) H((l - a) / b) on a z grid.

    chi's top ``depth`` levels are laws MP(gamma) (x) (a + b t) of the level
    below; H is the equivalent resolvent map under the last of them.  One
    flagged solve gives every level's l at every point; the walk
    u_0 = z, coef <- coef l_k / (u_k b_k), u_{k+1} = (l_k - a_k) / b_k then
    gives each point its prefactor and the argument of H.  Returns a list
    of (g, build, ok) per point of z, with g chi's transform and build() the
    point's n x n equivalent, which any thread may call; build is None where
    ok is False: a level did not converge, or the argument left the upper
    half-plane.
    """
    z = _upper_half(np.ravel(z))
    g, l, ok = chi._solve(z)
    coef = np.ones(z.shape, dtype=complex)
    u = z
    for l_k, level in zip(l[:depth], chi._levels()):
        coef = coef * (l_k / (u * level.b))
        u = (l_k - level.a) / level.b
    ok = ok & (u.imag > 0)
    return [(g[j], partial(_scaled, coef[j], H, u[j]) if ok[j] else None, bool(ok[j])) for j in range(z.size)]


def _scaled(coef, H, u) -> np.ndarray:
    out = np.asarray(H(u))
    out *= coef
    return out


# Column width of the resolvent blocks: one real GEMM per block, and the
# workspace of a gap is the right factor plus one block.
_BLOCK = 160


def _resolvent_blocks(lam, vec, w):
    """Column blocks (lo, hi, R[:hi, lo:hi]) of R = (V diag(lam) V^T - w I)^{-1}.

    Together they cover the upper block triangle of the symmetric R.  The
    right factor diag(1/(lam - w)) V^T is stored C-contiguous, so its real
    view holds each column's real and imaginary parts side by side: a block
    is one real product whose output, viewed as complex, is R's columns.
    """
    n = lam.size
    right = np.empty((n, n), dtype=complex)
    np.multiply(vec.T, (1.0 / (lam - w))[:, None], out=right)
    flat = right.view(float)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        yield lo, hi, (vec[:hi] @ flat[:, 2 * lo:2 * hi]).view(complex)


class SpectralFactory:
    """One eigendecomposition of a symmetric matrix, reused for all z.

    Only the lower triangle of the matrix is read.  Per z, ``resolvent``
    assembles the n x n resolvent from the column blocks of its upper
    triangle, one real product each: about n^3 (1 + _BLOCK / n) real
    multiply-adds, against 2 n^3 for two full products.  ``_max_gap``
    reduces the same blocks against a symmetric matrix and never builds
    the resolvent.
    """

    def __init__(self, k):
        k = np.asarray(k, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError("need a square matrix")
        self.eigenvalues, self._vectors = np.linalg.eigh(k)

    def resolvent(self, z: complex) -> np.ndarray:
        # the part left of a diagonal block is the transpose of the part above it
        n = self.eigenvalues.size
        out = np.empty((n, n), dtype=complex)
        for lo, hi, block in _resolvent_blocks(self.eigenvalues, self._vectors, _upper_half(z)):
            out[:hi, lo:hi] = block
            out[lo:hi, :lo] = block[:lo].T
        return out

    def _max_gap(self, z: complex, t) -> float:
        """max |resolvent(z) - t| for a symmetric n x n t, block by block.

        Reads only t's upper block triangle; a NaN there gives NaN, as
        np.max does.
        """
        worst = []
        for lo, hi, block in _resolvent_blocks(self.eigenvalues, self._vectors, _upper_half(z)):
            block -= t[:hi, lo:hi]
            worst.append(np.max(np.abs(block)))
        return float(np.max(worst))


def _sigma_builders(sigma, gamma: float, zs, cfg: FixedPointConfig) -> list:
    """Builders of G(z) = (l/z)(Sigma - l I)^{-1} over zs from one eigh of Sigma.

    Sigma is read from its lower triangle; a spectrum below zero is
    refused by the law's support check.  Raises DivergenceError at the
    first point that did not converge.
    """
    fac = SpectralFactory(sigma)
    chi = MpBoxtimes(gamma, esd_from_eigenvalues(fac.eigenvalues), cfg)
    points = _compose(chi, 1, fac.resolvent, zs)
    for z, (_, _, ok) in zip(np.ravel(zs), points):
        if not ok:
            raise DivergenceError(f"no convergence at z = {complex(z)} for {chi!r}")
    return [build for _, build, _ in points]


# ---------------------------------------------------------------------------
# Multi-layer chain


@dataclass(frozen=True)
class ChainLayer:
    """Layer constants, limiting law chi and the equivalent resolvent builder.

    ``gbuilder(zs)`` solves once for the whole grid and hands out
    (g, build, ok) per point; build() makes that point's n x n matrix
    (see ``_compose``).
    """

    constants: LayerConstants
    chi: MpBoxtimes
    gbuilder: Callable[[np.ndarray], list]


@dataclass(frozen=True)
class EquivalentChain:
    """Per-layer limiting measures chi and equivalent resolvent builders.

    layers[k] describes layer k+1 of the network; chi0 is the input
    kernel's spectral measure.
    """

    chi0: DiscreteMeasure | MpBoxtimes
    layers: tuple[ChainLayer, ...]

    @property
    def depth(self) -> int:
        return len(self.layers)


def _scalar_equivalent(chi: MpBoxtimes, n: int, w) -> np.ndarray:
    return chi.stieltjes(w) * np.eye(n, dtype=complex)


def build_chain(net: "NetworkSpec", cfg: FixedPointConfig = DEFAULT_CONFIG) -> EquivalentChain:
    """Layer-by-layer deterministic equivalents for a whole network.

    The input kernel's spectral measure chi0 and its resolvent map come
    from the network's data model (its ``_input_law``), the input entry
    variance from its ``input_variance``.  Builders evaluate the input map
    once per z at the fully composed argument.  A layer with b = 0 forgets
    its input: its equivalent is g_chi(z) I, which is also the base map of
    the layers above it.
    """
    # H is the equivalent map under the run of b > 0 layers ending here
    chi0, H = net.data._input_law(net.d0, net.n, cfg)
    sx2 = net.data.input_variance()
    prev, depth = chi0, 0
    layers: list[ChainLayer] = []
    for i, lspec in enumerate(net.layers, start=1):
        try:
            const = layer_constants(lspec, sx2)
        except ValueError as ex:
            raise ValueError(f"layer {i}: {ex}") from ex
        if const.b == 0.0:
            chi = MpBoxtimes(lspec.gamma, dirac(const.a), solver=cfg)
            H, depth = partial(_scalar_equivalent, chi, net.n), 0
        else:
            chi = MpBoxtimes(lspec.gamma, prev, solver=cfg, a=const.a, b=const.b)
            depth += 1
        layers.append(ChainLayer(constants=const, chi=chi, gbuilder=partial(_compose, chi, depth, H)))
        prev = chi
        sx2 = const.sigma_y2
    return EquivalentChain(chi0=chi0, layers=tuple(layers))


# ---------------------------------------------------------------------------
# Closed-form equicorrelated example


def _two_atom_measure(n: int, a: float, b: float) -> DiscreteMeasure:
    if b == 0.0:
        return dirac(a)
    alpha = a + b - b / n
    return DiscreteMeasure([alpha, alpha + b], [(n - 1) / n, 1.0 / n])


def equicorrelated_stieltjes(
    n: int, a: float, b: float, z: complex, cfg: FixedPointConfig = DEFAULT_CONFIG
) -> complex:
    """g of MP(1) boxtimes the two-atom linearized equicorrelated spectrum."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if a < 0 or b < 0:
        raise ValueError("a and b must be nonnegative")
    return MpBoxtimes(1.0, _two_atom_measure(n, a, b), cfg).stieltjes(complex(z))


def equicorrelated_equivalent(
    n: int, a: float, b: float, z: complex, cfg: FixedPointConfig = DEFAULT_CONFIG
):
    """Closed-form equivalent resolvent for equicorrelated inputs.

    The linearized covariance (a + b - b/n) I + (b/n) J has two
    eigenvalues, so the square-ratio fixed point reduces to a scalar g
    and G assembles from the identity and the rank-one all-ones matrix.
    Returns (g, G).
    """
    z = _upper_half(z)
    g = equicorrelated_stieltjes(n, a, b, z, cfg)
    alpha = a + b - b / n
    c1 = g * alpha + 1.0
    c2 = g * (alpha + b) + 1.0
    G = (-1.0 / (z * c1)) * np.eye(n, dtype=complex)
    G += (g * b / (z * c1 * c2 * n)) * np.ones((n, n), dtype=complex)
    return g, G
