"""Monte Carlo ground truth for random-network kernel spectra.

Samples the network X -> f(W X / sqrt(d) + B) + D layer by layer and
streams each depth's activations Y and shared variance through
``layer_outputs``, which holds only the current activations.  A consumer
forms the conjugate kernel K = Y^T Y / d, d the row count of Y
(``conjugate_kernel``), of the layers it reads and no other.
``run_network`` takes from every kernel the quantities the deterministic
theory predicts, the eigenvalues (one eigenvalue-only decomposition per
kernel) and the deviation stats of K from a multiple of the identity, and
drops it before the next layer is sampled, so memory stays flat in depth.
Resolvents and Stieltjes transforms come from ``SpectralFactory(K)``,
which keeps the eigenvectors of one kernel for every z.

Randomness is fanned out from one master seed into independent
substreams keyed by (layer, role), so enlarging the evaluation grid or
adding probes never changes the sampled network.
"""

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import NamedTuple, Union

import numpy as np

from .detequiv import LayerSpec, SpectralFactory, _scalar_equivalent, _two_atom_measure, _ungated_constants
from .hermite import _pow2_floor
from .measures import MpBoxtimes, _rounding_zero, dirac, esd_from_eigenvalues

_ROLES = {"X": 0, "W": 1, "B": 2, "D": 3}


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
        if x0.ndim != 2:
            raise ValueError("x0 must be a matrix")
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be finite")
        object.__setattr__(self, "x0", x0)

    def materialize(self, d0: int, n: int, rng) -> np.ndarray:
        if self.x0.shape != (d0, n):
            raise ValueError(f"x0 has shape {self.x0.shape}, expected {(d0, n)}")
        return self.x0.copy()

    def input_variance(self) -> float:
        d0 = self.x0.shape[0]
        return float(np.mean(np.einsum("ij,ij->j", self.x0, self.x0)) / d0)

    def _input_law(self, d0: int, n: int):
        """The spectrum of K_X and its factory, the resolvent map, from one eigh."""
        fac = SpectralFactory(conjugate_kernel(self.x0))
        return esd_from_eigenvalues(fac.eigenvalues), fac


DataModel = Union[IidData, EquicorrelatedData, ExplicitData]


@dataclass(frozen=True)
class NetworkSpec:
    n: int
    d0: int
    dims: tuple
    data: DataModel
    layers: tuple

    def __post_init__(self):
        if self.n < 1 or self.d0 < 1:
            raise ValueError("dimensions must be >= 1")
        dims = tuple(int(d) for d in self.dims)
        layers = tuple(self.layers)
        if len(dims) != len(layers) or not layers:
            raise ValueError("need one width per layer, at least one layer")
        if any(d < 1 for d in dims):
            raise ValueError("layer widths must be >= 1")
        for i, (d, lspec) in enumerate(zip(dims, layers), start=1):
            if not isinstance(lspec, LayerSpec):
                raise TypeError(f"layer {i} is not a LayerSpec")
            ratio = self.n / d
            if abs(ratio - lspec.gamma) > 1e-12 * max(1.0, abs(lspec.gamma)):
                raise ValueError(
                    f"layer {i}: gamma {lspec.gamma} != n/d_l = {ratio}"
                )
        if isinstance(self.data, EquicorrelatedData) and self.d0 != self.n:
            raise ValueError("equicorrelated data needs d0 = n")
        if isinstance(self.data, ExplicitData) and self.data.x0.shape != (self.d0, self.n):
            raise ValueError(f"x0 has shape {self.data.x0.shape}, expected (d0, n) = {(self.d0, self.n)}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "layers", layers)


# ---------------------------------------------------------------------------
# Forward pass and kernels


def forward_layer(x, spec: LayerSpec, rngs) -> np.ndarray:
    """One layer: f(W x / sqrt(d_prev) + B) + D, with d_prev the row count of x.

    rngs supplies the (W, B, D) substreams.  The output width is fixed
    by the layer's shape ratio, d_out = n / gamma.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("x must be a matrix with at least one row")
    d_prev, n = x.shape
    d_out_f = n / spec.gamma
    d_out = int(round(d_out_f))
    if d_out < 1 or abs(d_out_f - d_out) > 1e-9:
        raise ValueError(f"n/gamma = {d_out_f} is not a positive integer width")
    rng_w, rng_b, rng_d = rngs
    # in place, so at most three d x n-sized arrays are alive at once
    y = sample_gaussian(d_out, d_prev, spec.sigma_w2, rng_w) @ x
    y /= math.sqrt(d_prev)
    y += sample_gaussian(d_out, n, spec.sigma_b2, rng_b)
    y = spec.f(y)
    if spec.sigma_d2 > 0:
        y += sample_gaussian(d_out, n, spec.sigma_d2, rng_d)
    return y


def conjugate_kernel(y) -> np.ndarray:
    """K = Y^T Y / d for a d x n matrix Y, exactly symmetric."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[0] < 1:
        raise ValueError("Y must be a matrix with at least one row")
    # numpy takes Y^T Y of a contiguous Y as one syrk, whose result is
    # exactly symmetric; a strided Y would go through a general product
    if not (y.flags.c_contiguous or y.flags.f_contiguous):
        y = np.ascontiguousarray(y)
    k = y.T @ y
    k /= y.shape[0]
    return k


@cache
def _dsyevd_2stage():
    """LAPACKE_dsyevd_2stage of the LAPACK numpy links, or None if it has none.

    The two-stage routine reduces a symmetric matrix to a band in BLAS-3
    and chases the band down to tridiagonal, where ``eigvalsh``'s dsyevd
    spends half its reduction in memory-bound BLAS-2.  Only numpy's own
    scipy-openblas exports it under this name, with 64-bit integers.
    Bound on first use; a ctypes call releases the GIL.
    """
    import ctypes

    from numpy.linalg import _umath_linalg

    try:
        # dlsym searches the module's own dependencies, the LAPACK among them
        fn = ctypes.CDLL(_umath_linalg.__file__).scipy_LAPACKE_dsyevd_2stage64_
    except (OSError, AttributeError):
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    # (matrix_layout, jobz, uplo, n, a, lda, w) -> info
    fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, i64, ptr, i64, ptr]
    fn.restype = i64
    return fn


def _eigvalsh(k: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the exactly symmetric K, which is overwritten.

    K must be a C-contiguous float64 matrix that the caller drops after
    the call: it is decomposed in its own buffer.  Read as column-major it
    is K^T = K.  Falls back to ``np.linalg.eigvalsh`` where LAPACK lacks
    the two-stage routine.
    """
    fn = _dsyevd_2stage()
    if fn is None:
        return np.linalg.eigvalsh(k)
    if k.dtype != np.float64 or not (k.flags.c_contiguous and k.flags.writeable):
        raise ValueError("K must be a writeable C-contiguous float64 matrix")
    n = k.shape[0]
    w = np.empty(n)
    info = fn(102, b"N", b"L", n, k.ctypes.data, max(n, 1), w.ctypes.data)
    if info != 0:
        # info = -5 is LAPACKE's NaN check on K; info > 0 did not converge
        raise np.linalg.LinAlgError(f"dsyevd_2stage failed with info = {info}")
    return w


class OrthoStats(NamedTuple):
    max_dev: float
    diag_norm: float
    spec_norm: float


def _entry_stats(k: np.ndarray, sigma2: float):
    """max_dev and diag_norm of K - sigma2 * I, read from K's entries."""
    diag = np.diag(k) - sigma2
    delta = k.copy()
    np.fill_diagonal(delta, diag)
    # scaled by max|diag| rounded down to a power of two: no square overflows,
    # and the scaling is exact, so a norm that did not overflow keeps every bit
    scale = _pow2_floor(np.max(np.abs(diag)))
    return float(np.max(np.abs(delta, out=delta))), scale * float(np.linalg.norm(diag / scale))


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
    is asked for, and a consumer forms only the kernels it reads.
    """
    x = spec.data.materialize(spec.d0, spec.n, stream(seed, 0, "X"))
    sigma2 = spec.data.input_variance()
    yield x, sigma2
    for i, lspec in enumerate(spec.layers, start=1):
        rngs = (stream(seed, i, "W"), stream(seed, i, "B"), stream(seed, i, "D"))
        x = forward_layer(x, lspec, rngs)
        sigma2 = _ungated_constants(
            lspec.f, lspec.sigma_w2, sigma2, lspec.sigma_b2, lspec.sigma_d2
        ).sigma_y2
        yield x, sigma2


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
