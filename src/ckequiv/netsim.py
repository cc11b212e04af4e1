"""Monte Carlo ground truth for random-network kernel spectra.

Samples the network X -> f(W X / sqrt(d) + B) + D layer by layer and
streams each depth's activations Y and shared variance through
``layer_outputs``, which holds only the current activations.  A layer is
sampled a block of rows at a time, so it holds its input, its output and
one row-block workspace.  A consumer forms the conjugate kernel
K = Y^T Y / d, d the row count of Y (``conjugate_kernel``), of the layers
it reads and no other.  ``run_network`` takes from every kernel the
quantities the deterministic theory predicts, the eigenvalues (one
eigenvalue-only decomposition per kernel) and the deviation stats of K
from a multiple of the identity, read a row block at a time, and drops it
before the next layer is sampled: per worker, memory stays at two n x n
arrays plus one row block, flat in depth.
Resolvents and Stieltjes transforms come from ``SpectralFactory(K)``,
which keeps the eigenvectors of one kernel for every z.

Randomness is fanned out from one master seed into independent
substreams keyed by (layer, role), so enlarging the evaluation grid or
adding probes never changes the sampled network.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Union

import numpy as np

from .detequiv import LayerSpec, SpectralFactory, _scalar_equivalent, _syevd, _two_atom_measure, _ungated_constants
from .hermite import _pow2_floor
from .measures import MpBoxtimes, _rounding_zero, dirac, esd_from_eigenvalues

_ROLES = {"X": 0, "W": 1, "B": 2, "D": 3}
_DBL_MAX = float(np.finfo(float).max)


def stream(master_seed: int, layer: int, role: str) -> np.random.Generator:
    """Independent generator for one random matrix of the network."""
    if role not in _ROLES:
        raise ValueError(f"unknown role {role!r}; expected one of {sorted(_ROLES)}")
    seq = np.random.SeedSequence([int(master_seed), int(layer), _ROLES[role]])
    return np.random.default_rng(seq)


def sample_gaussian(rows: int, cols: int, variance: float, rng: np.random.Generator):
    if not 0 <= variance < math.inf:
        raise ValueError("variance must be finite and nonnegative")
    if variance == 0.0:
        return np.zeros((rows, cols))
    out = rng.standard_normal((rows, cols))
    out *= math.sqrt(variance)
    return out


# ---------------------------------------------------------------------------
# Input data models


@dataclass(frozen=True)
class IidData:
    """Input matrix with i.i.d. centered Gaussian entries."""

    sigma_x2: float = 1.0

    def __post_init__(self):
        if not (self.sigma_x2 > 0):
            raise ValueError("sigma_x2 must be positive")

    def materialize(self, d0: int, n: int, rng) -> np.ndarray:
        return sample_gaussian(d0, n, self.sigma_x2, rng)

    def input_variance(self) -> float:
        return self.sigma_x2

    def _input_law(self, d0: int, n: int):
        """K_X's law and resolvent map, as ``build_chain`` takes them.

        The limit MP(n/d0) (x) delta_sigma_x2 and its equivalent g I, so
        the theory side is seed-free.
        """
        chi0 = MpBoxtimes(n / d0, dirac(self.sigma_x2))
        return chi0, partial(_scalar_equivalent, chi0, n)


@dataclass(frozen=True)
class EquicorrelatedData:
    """Deterministic input whose kernel is exactly S = I + (J - I)/n.

    Realized as X = sqrt(n) S^{1/2} with the closed-form square root of
    the rank-one update; requires d0 = n.
    """

    def materialize(self, d0: int, n: int, rng) -> np.ndarray:
        if d0 != n:
            raise ValueError("equicorrelated data needs d0 = n")
        lo = math.sqrt(1.0 - 1.0 / n)
        hi = math.sqrt(2.0 - 1.0 / n)
        root = lo * np.eye(n) + (hi - lo) / n * np.ones((n, n))
        return math.sqrt(n) * root

    def input_variance(self) -> float:
        return 1.0

    def _input_law(self, d0: int, n: int):
        """The exact two-atom spectrum of S and its resolvent.

        The resolvent is a multiple of I plus a rank-one all-ones correction.
        """
        alpha = 1.0 - 1.0 / n

        def g0(w):
            w = complex(w)
            out = np.full((n, n), -1.0 / (n * (alpha - w) * (alpha + 1.0 - w)), dtype=complex)
            np.fill_diagonal(out, np.diag(out) + 1.0 / (alpha - w))
            return out

        return _two_atom_measure(n, 0.0, 1.0), g0


@dataclass(frozen=True)
class ExplicitData:
    """A fixed input matrix supplied by the caller."""

    x0: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.x0):
            raise ValueError("x0 must be real")
        x0 = np.array(self.x0, dtype=float)
        if x0.ndim != 2 or not x0.size:
            raise ValueError("x0 must be a nonempty matrix")
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be finite")
        # |x_j|^2 = s^2 q_j, exact for s a power of two, with no overflow in q
        s = _pow2_floor(np.max(np.abs(x0)))
        y = x0 / s
        q = np.einsum("ij,ij->j", y, y)
        if not np.all(q / x0.shape[0] <= _DBL_MAX / s / s):
            raise ValueError("the kernel diagonal |x_j|^2 / d0 of x0 overflows the double range")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "_variance", s * (s * (float(np.mean(q)) / x0.shape[0])))

    def materialize(self, d0: int, n: int, rng) -> np.ndarray:
        if self.x0.shape != (d0, n):
            raise ValueError(f"x0 has shape {self.x0.shape}, expected {(d0, n)}")
        return self.x0.copy()

    def input_variance(self) -> float:
        return self._variance

    def _input_law(self, d0: int, n: int):
        """The spectrum of K_X and its factory, the resolvent map, from one eigh."""
        fac = SpectralFactory(conjugate_kernel(self.x0))
        return esd_from_eigenvalues(fac.eigenvalues), fac


DataModel = Union[IidData, EquicorrelatedData, ExplicitData]


def _width(n: int, gamma: float) -> int:
    """A layer's width d = n / gamma; ValueError unless it is a positive integer."""
    d = n / gamma
    width = int(round(d))
    if width < 1 or abs(d - width) > 1e-9:
        raise ValueError(f"n/gamma = {d} is not a positive integer width")
    return width


@dataclass(frozen=True)
class NetworkSpec:
    """n samples of width d0 through layers of widths n / gamma_l."""

    n: int
    d0: int
    data: DataModel
    layers: tuple

    def __post_init__(self):
        if self.n < 1 or self.d0 < 1:
            raise ValueError("dimensions must be >= 1")
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("need at least one layer")
        for i, lspec in enumerate(layers, start=1):
            if not isinstance(lspec, LayerSpec):
                raise TypeError(f"layer {i} is not a LayerSpec")
            try:
                _width(self.n, lspec.gamma)
            except ValueError as ex:
                raise ValueError(f"layer {i}: {ex}") from None
        if isinstance(self.data, EquicorrelatedData) and self.d0 != self.n:
            raise ValueError("equicorrelated data needs d0 = n")
        if isinstance(self.data, ExplicitData) and self.data.x0.shape != (self.d0, self.n):
            raise ValueError(f"x0 has shape {self.data.x0.shape}, expected (d0, n) = {(self.d0, self.n)}")
        object.__setattr__(self, "layers", layers)


# ---------------------------------------------------------------------------
# Forward pass and kernels


# Rows of a layer sampled at once, and of K read at once by _entry_stats:
# beside two n x n arrays one block is alive, 0.14 n^2 at n = 2000, and a
# layer of at most this many rows is one block, as large as a whole draw.
# A multiple of 96, so that with scipy-openblas on x86-64 each block lines
# up with the panels of the whole product and keeps its bits.
_ROWS = 288


def forward_layer(x, spec: LayerSpec, rngs) -> np.ndarray:
    """One layer: f(W x / sqrt(d_prev) + B) + D, with d_prev the row count of x.

    rngs supplies the (W, B, D) substreams.  The output width is fixed
    by the layer's shape ratio, d_out = n / gamma.  The output is built
    ``_ROWS`` rows at a time: each block of W, B and D rows is drawn in
    stream order, so W, B and D are those of a whole-matrix draw, and only
    x, the output and one block are alive at once.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("x must be a matrix with at least one row")
    d_prev, n = x.shape
    d_out = _width(n, spec.gamma)
    rng_w, rng_b, rng_d = rngs
    root = math.sqrt(d_prev)
    y = np.empty((d_out, n))
    for lo in range(0, d_out, _ROWS):
        rows = y[lo : lo + _ROWS]
        m = rows.shape[0]
        np.matmul(sample_gaussian(m, d_prev, spec.sigma_w2, rng_w), x, out=rows)
        rows /= root
        rows += sample_gaussian(m, n, spec.sigma_b2, rng_b)
        rows[...] = spec.f(rows)
        if spec.sigma_d2 > 0:
            rows += sample_gaussian(m, n, spec.sigma_d2, rng_d)
    return y


def conjugate_kernel(y) -> np.ndarray:
    """K = Y^T Y / d for a d x n matrix Y, exactly symmetric."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[0] < 1:
        raise ValueError("Y must be a matrix with at least one row")
    # every partial sum of Y^T Y is at most d max|Y|^2; where that could
    # overflow, K is formed from Y / s, s a power of two, and multiplied
    # back: the scaling is exact, and a kernel that fits is formed unscaled
    top = max(float(y.max(initial=0.0)), -float(y.min(initial=0.0)))
    if top > math.sqrt(_DBL_MAX / (2 * y.shape[0])):
        s = _pow2_floor(top)
        k = conjugate_kernel(y / s)
        # _DBL_MAX / s^2 is exact, so this holds exactly when s^2 K(Y / s) overflows
        peak = max(float(k.max()), -float(k.min()))
        if peak > _DBL_MAX / s / s:
            raise ArithmeticError(f"conjugate kernel overflows the double range: max |K_ij| = {peak!r} * {s!r}^2")
        k *= s
        k *= s
        return k
    # numpy takes Y^T Y of a contiguous Y as one syrk, whose result is
    # exactly symmetric; a strided Y would go through a general product
    if not (y.flags.c_contiguous or y.flags.f_contiguous):
        y = np.ascontiguousarray(y)
    k = y.T @ y
    k /= y.shape[0]
    return k


def _eigvalsh(k: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the exactly symmetric K, which is overwritten.

    K must be a C-contiguous float64 matrix that the caller drops after
    the call: read as column-major, K^T = K, it is decomposed in its own
    buffer by ``detequiv._syevd``'s two-stage driver, which reduces K to a
    band in BLAS-3 where ``eigvalsh``'s dsyevd spends half its reduction in
    memory-bound BLAS-2.
    """
    if k.dtype != np.float64 or not (k.flags.c_contiguous and k.flags.writeable):
        raise ValueError("K must be a writeable C-contiguous float64 matrix")
    return _syevd(k.T, vectors=False)


class OrthoStats(NamedTuple):
    max_dev: float
    diag_norm: float
    spec_norm: float


def _entry_stats(k: np.ndarray, sigma2: float):
    """max_dev and diag_norm of K - sigma2 * I, read from K's entries.

    K is read ``_ROWS`` rows at a time and left as it is.
    """
    diag = np.diag(k) - sigma2
    dev = np.abs(diag)
    n = k.shape[0]
    buf = np.empty((min(_ROWS, n), n))
    # abs and max are exact, and np.max keeps a NaN of any entry
    peaks = [np.max(dev)]
    for lo in range(0, n, _ROWS):
        rows = k[lo : lo + _ROWS]
        block = np.abs(rows, out=buf[: rows.shape[0]])
        # K_ii, row i - lo of the block, counts by dev_i instead: zero it, at
        # flat index (i - lo) n + i, every (n + 1)th entry from lo
        block.reshape(-1)[lo :: n + 1] = 0.0
        peaks.append(np.max(block))
    # scaled by max|diag| rounded down to a power of two: no square overflows,
    # and the scaling is exact, so a norm that did not overflow keeps every bit
    scale = _pow2_floor(peaks[0])
    return float(np.max(peaks)), scale * float(np.linalg.norm(diag / scale))


def orthogonality_stats(k, sigma2: float, eigenvalues) -> OrthoStats:
    """Deviation of K from sigma2 * I: entrywise max, diagonal 2-norm, |K|.

    eigenvalues is the spectrum of the symmetric K; |K|_2 is its largest
    absolute value, so no SVD is taken.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("K must be square")
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.shape != (k.shape[0],):
        raise ValueError(f"need {k.shape[0]} eigenvalues, got shape {lam.shape}")
    return OrthoStats(*_entry_stats(k, sigma2), spec_norm=float(np.max(np.abs(lam))))


# ---------------------------------------------------------------------------
# Full runs


def layer_outputs(spec: NetworkSpec, seed: int):
    """Yield (Y_l, sigma2_l) for l = 0..depth of one sampled network.

    Y_0 is the input X, d0 x n, and Y_l the output of layer l, d_l x n;
    sigma2_l is the shared variance its columns' squared norms / d_l
    concentrate on, so the conjugate kernel K_l = ``conjugate_kernel(Y_l)``
    has its diagonal near sigma2_l.  Only the current activations are
    held: each layer is sampled from the previous one when the next item
    is asked for, and a consumer forms only the kernels it reads.  Every
    sigma2_l is taken before anything is sampled (``layer_variances``).
    """
    sigma2 = layer_variances(spec)
    x = spec.data.materialize(spec.d0, spec.n, stream(seed, 0, "X"))
    yield x, sigma2[0]
    for i, lspec in enumerate(spec.layers, start=1):
        rngs = (stream(seed, i, "W"), stream(seed, i, "B"), stream(seed, i, "D"))
        x = forward_layer(x, lspec, rngs)
        yield x, sigma2[i]


def layer_variances(spec: NetworkSpec) -> list:
    """sigma2_0..sigma2_depth: the input's entry variance, then each layer's output variance.

    A layer whose output variance overflows raises ValueError naming it.
    """
    out = [spec.data.input_variance()]
    for i, lspec in enumerate(spec.layers, start=1):
        try:
            const = _ungated_constants(lspec.f, lspec.sigma_w2, out[-1], lspec.sigma_b2, lspec.sigma_d2)
        except ValueError as ex:
            raise ValueError(f"layer {i}: {ex}") from None
        out.append(const.sigma_y2)
    return out


@dataclass(frozen=True)
class SimResult:
    """Spectra and stats of one sampled network, for the comparison layer.

    Index 0 of the per-layer tuples is the input kernel K_X; index l is
    the conjugate kernel after layer l.
    """

    seed: int
    eigenvalues: tuple
    stats: tuple

    def __post_init__(self):
        n = self.eigenvalues[0].size
        for lam in self.eigenvalues:
            if lam.size != n:
                raise ValueError("eigenvalue count must equal n at every layer")
            # the floor scales with the kernel: what rounds to zero is relative
            floor = -_rounding_zero(lam)
            if lam[0] < floor:
                raise ValueError(f"kernel has eigenvalue {lam[0]:.3e} < {floor:.3e}")


def run_network(spec: NetworkSpec, seed: int) -> SimResult:
    """Sample one network and collect the spectrum and stats of every kernel.

    Each kernel K_0..K_depth gets one eigenvalue-only decomposition
    (O(n^3), no eigenvectors, no SVD) and is dropped before the next layer
    is sampled.  For kernels or resolvents, iterate ``layer_outputs``, form
    ``conjugate_kernel(Y)`` of the layers needed and build
    ``SpectralFactory(K)``.
    """
    eigenvalues, stats = [], []
    for y, sigma2 in layer_outputs(spec, seed):
        k = conjugate_kernel(y)
        # the entry stats first: the decomposition overwrites K, which
        # conjugate_kernel makes exactly symmetric, so either triangle serves
        entry = _entry_stats(k, sigma2)
        lam = _eigvalsh(k)
        del k  # free K_l before layer l + 1 is sampled
        eigenvalues.append(lam)
        stats.append(OrthoStats(*entry, spec_norm=float(np.max(np.abs(lam)))))
    return SimResult(seed=int(seed), eigenvalues=tuple(eigenvalues), stats=tuple(stats))
