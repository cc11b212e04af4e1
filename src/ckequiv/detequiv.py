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

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .freeconv import DEFAULT_CONFIG, DivergenceError, FixedPointConfig
from .hermite import Activation, _pow2_floor, coeff_vector, gaussian_norm_sq
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

    b counts as zero where |zeta_1| < B_ZERO_TOL, and an a within rounding
    of zero (1e-10 max(1, sigma_y2), on either side) is set to exactly 0.
    An output variance sigma_y2 that overflows raises ValueError before any
    other constant is computed from it.
    """
    st2 = sigma_w2 * sigma_x2 + sigma_b2
    ft = f.scaled(np.sqrt(st2))
    norm2 = gaussian_norm_sq(ft)
    sigma_y2 = norm2 + sigma_d2
    if not math.isfinite(sigma_y2):
        raise ValueError(f"output variance |ft|^2 + sigma_d2 = {sigma_y2!r} overflows")
    zeta = coeff_vector(ft, r_max)
    z1 = zeta[1]
    # z1^2 * sigma_w2 taken on z1 / s, s a power of two above |z1|: the
    # scaling is exact, so b keeps its bits, and no product overflows unless b does
    s = 2.0 * _pow2_floor(z1)
    b = 0.0 if abs(z1) < B_ZERO_TOL else s * (s * ((z1 / s) * (z1 / s) * sigma_w2 / st2))
    a = norm2 - (sigma_w2 * sigma_x2 / st2) * z1 * z1 + sigma_d2
    if abs(a) <= 1e-10 * max(1.0, sigma_y2):
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

    The rescaled activation ft must have zero Gaussian mean, up to
    1e-6 max(1, ||ft||); otherwise the error names the recentering shift
    to subtract.
    """
    sigma_x2 = float(sigma_x2)
    if not sigma_x2 > 0:
        raise ValueError("sigma_x2 must be positive")
    if not math.isfinite(spec.sigma_w2 * sigma_x2 + spec.sigma_b2):
        raise ValueError("sigma_w2*sigma_x2 + sigma_b2 must be finite")
    const = _ungated_constants(spec.f, spec.sigma_w2, sigma_x2, spec.sigma_b2, spec.sigma_d2)
    zeta0 = const.zeta[0]
    # the quadrature's rounding in zeta_0 grows with ||ft||, so the gate does too
    if abs(zeta0) >= 1e-6 * max(1.0, math.sqrt(const.norm2)):
        name = spec.f.scaled(np.sqrt(const.sigma_tilde2)).name
        raise ValueError(
            f"rescaled activation {name!r} is not Gaussian-centered "
            f"(zeta_0 = {zeta0:.3e}); use f.shifted({float(zeta0)!r})"
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
    u_0 = z, coef <- coef l_k / (u_k b_k), u_{k+1} = (l_k - a_k) / b_k down
    chi, chi.base, ..., each law's own (a, b), not the pushes its solver
    chain holds (atoms are pushed when their law is built), then gives each
    point its prefactor and the argument of H.  Returns a list
    of (g, build, ok) per point of z, with g chi's transform and build a
    ``_Point``: build() is the point's n x n equivalent, which any thread
    may build, and where H is an explicit input's ``SpectralFactory`` the
    gaps read coef, H and u instead (``_gap_target``).  build is None where
    ok is False: a level did not converge, or the argument left the upper
    half-plane.
    """
    z = _upper_half(np.ravel(z))
    g, l, ok = chi._solve(z)
    coef = np.ones(z.shape, dtype=complex)
    u = z
    law = chi
    for l_k in l[:depth]:
        coef = coef * (l_k / (u * law.b))
        u, law = (l_k - law.a) / law.b, law.base
    ok = ok & (u.imag > 0)
    return [(g[j], _Point(coef[j], H, u[j]) if ok[j] else None, bool(ok[j])) for j in range(z.size)]


class _Point(NamedTuple):
    """One grid point's equivalent coef * H(u); calling it builds the n x n matrix."""

    coef: complex
    H: Callable[[complex], np.ndarray]
    u: complex

    def __call__(self) -> np.ndarray:
        out = np.asarray(self.H(self.u))
        out *= self.coef
        return out


# Column width of the resolvent blocks: one real GEMM per block, and the
# workspace of a product is one right factor and one block of this width.
_BLOCK = 160
# Unit roundoff of float32, and the range of max |core| over which a
# single-precision product neither overflows nor loses more to underflow
# than the spare rounding its bound keeps (see _screen_error).
_U32 = 2.0 ** -24
_SCREEN_RANGE = (2.0 ** -30, 2.0 ** 30)
# Relative error of the single-precision modulus |S - T| of a block entry:
# one rounding in the subtraction and a few in the modulus.
_RHO = 8 * _U32


def _resolvent_block(vec, core, lo, hi):
    """R[:hi, lo:hi] of the symmetric R = V diag(core) V^T, in vec's precision.

    The right factor diag(core) V[lo:hi]^T is stored C-contiguous, so its
    real view holds each column's real and imaginary parts side by side:
    the block is one real product (DGEMM for float64 V, SGEMM for float32)
    whose output, viewed as complex, is R's columns.
    """
    ctype = np.result_type(vec.dtype, np.complex64)
    right = np.empty((vec.shape[0], hi - lo), dtype=ctype)
    np.multiply(vec[lo:hi].T, core.astype(ctype, copy=False)[:, None], out=right)
    return (vec[:hi] @ right.view(vec.dtype)).view(ctype)


def _resolvent_blocks(vec, core):
    """Column blocks (lo, hi, R[:hi, lo:hi]) of R = V diag(core) V^T.

    Together they cover the upper block triangle of the symmetric R.  With
    float32 eigenvectors the core is rounded to complex64 once and every
    block is complex64 (error bound: ``_screen_error``); with float64 ones
    the blocks are complex128.
    """
    core = core.astype(np.result_type(vec.dtype, np.complex64), copy=False)
    for lo, hi in _block_bounds(vec.shape[0]):
        yield lo, hi, _resolvent_block(vec, core, lo, hi)


def _block_bounds(n: int):
    return ((lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK))


def _screen_error(core) -> float:
    """Bound E on |single-precision block entry - R_ij| for R = V diag(core) V^T.

    R_ij = sum_k V_ik V_jk c_k.  Each term of the float32 entry carries at
    most n + 5 roundings of unit u = 2^-24: c_k in double and then in
    complex64, V_ik and V_jk to float32, the product V_jk c_k in the right
    factor, and at most n in the SGEMM sum.  The inner-product bound
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 3.1)
    then bounds the real part's error by gamma_{n+5} sum_k |V_ik V_jk Re c_k|
    <= gamma_{n+5} max_k |c_k|, since V's rows are unit vectors, and the
    imaginary part's alike, so

        E = gamma_{n+6} sqrt(2) max_k |c_k|,  gamma_m = m u / (1 - m u).

    The one spare rounding covers the rows' departure from unit norm and
    underflow, for max_k |c_k| in _SCREEN_RANGE; outside it, or where
    (n + 6) u >= 1/2, E is inf and the product runs in double.
    """
    m = core.size + 6
    peak = float(np.max(np.abs(core)))
    if not (_SCREEN_RANGE[0] <= peak <= _SCREEN_RANGE[1] and m * _U32 < 0.5):
        return np.inf
    return m * _U32 / (1.0 - m * _U32) * math.sqrt(2.0) * peak


class _Factored(NamedTuple):
    """V diag(core) V^T, kept as its eigenvectors in double and single precision."""

    vectors: np.ndarray
    vectors32: np.ndarray
    core: np.ndarray

    def entries(self, i, j):
        """The entries at index arrays i, j, each a float64 sum over k."""
        return (self.vectors[i] * self.vectors[j]) @ self.core

    def block(self, lo, hi):
        return _resolvent_block(self.vectors, self.core, lo, hi)


class _Dense(NamedTuple):
    t: np.ndarray

    def entries(self, i, j):
        return self.t[i, j]

    def block(self, lo, hi):
        return self.t[:hi, lo:hi]


class _Target(NamedTuple):
    """A symmetric matrix T to take gaps against, prepared once per z.

    t32 holds T's upper block triangle in complex64 with |t32 - T| <= err
    entrywise (err is inf and t32 None where T is not screened); exact is T
    itself, a ``_Factored`` or a ``_Dense``, read in double precision.
    """

    t32: np.ndarray | None
    err: float
    exact: _Factored | _Dense


def _gap_target(t) -> _Target:
    """t, an n x n array or a ``_compose`` point, as a gap target.

    A point over a ``SpectralFactory`` base map stays factored: its
    complex64 triangle comes from the single-precision blocks of
    coef / (lam - u) and its exact entries from float64 sums.  Any other
    point is built dense, then cast to complex64 once; the cast errs by at
    most u |T_ij| (plus 2^-120 for numbers below float32's normal range).
    """
    if isinstance(t, _Point) and isinstance(t.H, SpectralFactory):
        exact = t.H._factored(t.u, t.coef)
        err = _screen_error(exact.core)
        if err == np.inf:
            return _Target(None, err, exact)
        n = exact.core.size
        t32 = np.empty((n, n), dtype=np.complex64)
        for lo, hi, block in _resolvent_blocks(exact.vectors32, exact.core):
            t32[:hi, lo:hi] = block
        return _Target(t32, err, exact)
    t = np.asarray(t() if isinstance(t, _Point) else t)
    scale = float(np.max(np.abs(t), where=np.isfinite(t), initial=0.0))
    if not scale <= _SCREEN_RANGE[1]:
        return _Target(None, np.inf, _Dense(t))
    return _Target(t.astype(np.complex64), _U32 * scale + 2.0 ** -120, _Dense(t))


def _screened_gap(s: _Factored, t: _Target) -> float:
    """max |S - T| over the upper block triangle, screened in single precision.

    Per block, d = |S32 - T32| is taken in float32, and the exact
    |S_ij - T_ij| lies between d_ij / (1 + rho) - E and d_ij / (1 - rho) + E,
    E the sum of both sides' errors.  So the largest d seen gives a lower
    bound on the gap, and only entries with d >= (1 - rho) (lower - E),
    within about 2E of the running maximum, can still attain it; each is
    recomputed in double at the end.  A block holding more candidates than
    its width (T close to S everywhere) is recomputed in double with the
    same kernel and enters exactly.  Where either side is not screened,
    every block runs in double.  A NaN read in T gives NaN, as np.max does.
    """
    err = _screen_error(s.core) + t.err
    n = s.core.size
    if err == np.inf:
        return float(np.max([_exact_gap(s, t, lo, hi) for lo, hi in _block_bounds(n)]))
    lower = best = -np.inf
    found = []
    for lo, hi, block in _resolvent_blocks(s.vectors32, s.core):
        block -= t.t32[:hi, lo:hi]
        d = np.abs(block)
        peak = float(np.max(d))
        if peak != peak:
            return math.nan
        lower = max(lower, peak / (1.0 + _RHO) - err)
        flat = np.flatnonzero(d >= _floor32((1.0 - _RHO) * (lower - err)))
        if flat.size > hi - lo:
            exact = _exact_gap(s, t, lo, hi)
            best, lower = max(best, exact), max(lower, exact)
        else:
            i, j = np.divmod(flat, hi - lo)
            found.append((i, j + lo, d.ravel()[flat]))
    if found:
        i, j, d = (np.concatenate(parts) for parts in zip(*found))
        keep = d >= _floor32((1.0 - _RHO) * (lower - err))
        i, j = i[keep], j[keep]
        if i.size:
            best = max(best, float(np.max(np.abs(s.entries(i, j) - t.exact.entries(i, j)))))
    return best


def _floor32(x: float) -> np.float32:
    """The largest float32 not above x, so a float32 comparison keeps every d >= x."""
    x32 = np.float32(x)
    return x32 if float(x32) <= x else np.nextafter(x32, np.float32(-np.inf))


def _exact_gap(s: _Factored, t: _Target, lo: int, hi: int) -> float:
    return float(np.max(np.abs(s.block(lo, hi) - t.exact.block(lo, hi))))


@cache
def _lapacke(driver: str):
    """LAPACKE_<driver> of numpy's own scipy-openblas (64-bit integers), or None where it has none.

    dsyevd and dsyevd_2stage both take (matrix_layout, jobz, uplo, n, a,
    lda, w) and return info.  Bound on first use; a ctypes call releases the GIL.
    """
    import ctypes

    from numpy.linalg import _umath_linalg

    try:
        # dlsym searches the module's own dependencies, the LAPACK among them
        fn = getattr(ctypes.CDLL(_umath_linalg.__file__), f"scipy_LAPACKE_{driver}64_")
    except (OSError, AttributeError):
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, i64, ptr, i64, ptr]
    fn.restype = i64
    return fn


def _syevd(a: np.ndarray, vectors: bool) -> np.ndarray:
    """Ascending eigenvalues of the symmetric a, read from its lower triangle, in a's own buffer.

    a is a writeable F-contiguous float64 matrix.  With vectors, dsyevd,
    ``np.linalg.eigh``'s driver, leaves in a's columns the eigenvectors, bit
    for bit eigh's; without, dsyevd_2stage takes the values alone.  Where the
    driver is not bound, eigh or eigvalsh stands in.  On either path a NaN in
    the triangle, or a driver that fails, raises LinAlgError.
    """
    if a.dtype != np.float64 or not (a.flags.f_contiguous and a.flags.writeable):
        raise ValueError("need a writeable F-contiguous float64 matrix")
    n = a.shape[0]
    driver = "dsyevd" if vectors else "dsyevd_2stage"
    fn = _lapacke(driver)
    if fn is None:
        # numpy's drivers run on a NaN (eigvalsh(diag([nan, 1, 2])) is [0, -0, 2])
        if any(np.isnan(a[j:, j]).any() for j in range(n)):
            raise np.linalg.LinAlgError("the symmetric matrix holds a NaN")
        if not vectors:
            return np.linalg.eigvalsh(a)
        w, a[...] = np.linalg.eigh(a)
        return w
    w = np.empty(n)
    info = fn(102, b"V" if vectors else b"N", b"L", n, a.ctypes.data, max(n, 1), w.ctypes.data)
    if info != 0:
        # info = -5 is LAPACKE's NaN check on the triangle; info > 0 did not converge
        raise np.linalg.LinAlgError(f"{driver} failed with info = {info}")
    return w


class SpectralFactory:
    """One eigendecomposition of a symmetric matrix, reused for all z.

    Only the lower triangle of the matrix is read, and the matrix is left as
    it is: the decomposition runs in one Fortran-order copy, which then
    holds the eigenvectors (``_syevd``).  Per z, ``resolvent``
    assembles the n x n resolvent in double precision from the column
    blocks of its upper triangle, one real product each: about
    n^3 (1 + _BLOCK / n) real multiply-adds, against 2 n^3 for two full
    products.  Called as H(w), a factory is the resolvent map of an
    explicit input.  It also keeps a float32 copy of its eigenvectors, so
    ``_max_gap`` screens the same blocks in single precision against a
    symmetric target and never builds the resolvent.
    """

    def __init__(self, k):
        v = self._vectors = np.array(k, dtype=float, order="F")
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("need a square matrix")
        self.eigenvalues = _syevd(v, vectors=True)
        self._vectors32 = v.astype(np.float32)

    def __call__(self, w: complex) -> np.ndarray:
        return self.resolvent(w)

    def resolvent(self, z: complex) -> np.ndarray:
        # the part left of a diagonal block is the transpose of the part above it
        n = self.eigenvalues.size
        out = np.empty((n, n), dtype=complex)
        for lo, hi, block in _resolvent_blocks(self._vectors, self._factored(_upper_half(z)).core):
            out[:hi, lo:hi] = block
            out[lo:hi, :lo] = block[:lo].T
        return out

    def _factored(self, w: complex, coef: complex = 1.0) -> _Factored:
        """coef (K - w I)^{-1} in factored form."""
        return _Factored(self._vectors, self._vectors32, coef / (self.eigenvalues - w))

    def _max_gap(self, z: complex, t) -> float:
        """max |resolvent(z) - t| for a symmetric n x n t, block by block.

        t is an array or a ``_gap_target``, which a caller reducing several
        resolvents against one t prepares once.  Reads only t's upper block
        triangle; a NaN there gives NaN, as np.max does.
        """
        s = self._factored(_upper_half(z))
        return _screened_gap(s, t if isinstance(t, _Target) else _gap_target(t))


def _sigma_builders(sigma, gamma: float, zs, cfg: FixedPointConfig) -> list:
    """Builders of G(z) = (l/z)(Sigma - l I)^{-1} over zs from one eigh of Sigma.

    Sigma is read from its lower triangle; a spectrum below zero is
    refused by the law's support check.  Raises DivergenceError at the
    first point that did not converge.
    """
    fac = SpectralFactory(sigma)
    chi = MpBoxtimes(gamma, esd_from_eigenvalues(fac.eigenvalues), cfg)
    points = _compose(chi, 1, fac, zs)
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


def _scalar_equivalent(chi: MpBoxtimes, n: int, w) -> np.ndarray:
    return chi.stieltjes(w) * np.eye(n, dtype=complex)


def build_chain(net: "NetworkSpec", cfg: FixedPointConfig = DEFAULT_CONFIG) -> EquivalentChain:
    """Layer-by-layer deterministic equivalents for a whole network.

    The input kernel's spectral measure chi0 and its resolvent map come
    from the network's data model (its ``_input_law``), the input entry
    variance from its ``input_variance``.  Builders evaluate the input map
    once per z at the fully composed argument.  A layer with b = 0 forgets
    its input: its equivalent is g_chi(z) I, which is also the base map of
    the layers above it.  A layer whose constants or law are refused, say
    for a support bound that overflows, raises ValueError naming it.
    """
    # H is the equivalent map under the run of b > 0 layers ending here
    chi0, H = net.data._input_law(net.d0, net.n)
    sx2 = net.data.input_variance()
    prev, depth = chi0, 0
    layers: list[ChainLayer] = []
    for i, lspec in enumerate(net.layers, start=1):
        try:
            const = layer_constants(lspec, sx2)
            if const.b == 0.0:
                chi = MpBoxtimes(lspec.gamma, dirac(const.a), solver=cfg)
                H, depth = partial(_scalar_equivalent, chi, net.n), 0
            else:
                chi = MpBoxtimes(lspec.gamma, prev, solver=cfg, a=const.a, b=const.b)
                depth += 1
        except ValueError as ex:
            raise ValueError(f"layer {i}: {ex}") from ex
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
