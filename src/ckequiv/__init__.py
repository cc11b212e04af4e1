"""Deterministic spectral equivalents of random-feature kernels.

The package splits into a scalar layer (Hermite coefficients, spectral
measures, the multiplicative-convolution fixed point), a matrix layer
(covariance expansions, equivalent resolvents, sampled networks) and a
small batch CLI on top.
"""

from .hermite import (
    ACTIVATIONS,
    Activation,
    activation_by_name,
    coeff_vector,
    gaussian_norm_sq,
)
from .freeconv import (
    DEFAULT_CONFIG,
    DivergenceError,
    FixedPointConfig,
    mp_stieltjes_closed,
)
from .measures import (
    DiscreteMeasure,
    MpBoxtimes,
    dirac,
    esd_from_eigenvalues,
    kolmogorov_distance,
)
from .gauss_cov import (
    CovModel,
    sigma_expansion,
)
from .detequiv import (
    EquivalentChain,
    LayerConstants,
    LayerSpec,
    SpectralFactory,
    build_chain,
    equicorrelated_equivalent,
    equicorrelated_stieltjes,
    layer_constants,
)
from .netsim import (
    EquicorrelatedData,
    ExplicitData,
    IidData,
    NetworkSpec,
    SimResult,
    conjugate_kernel,
    layer_outputs,
    orthogonality_stats,
    run_network,
)

__version__ = "0.1.0"

__all__ = [
    "ACTIVATIONS",
    "Activation",
    "CovModel",
    "DEFAULT_CONFIG",
    "DiscreteMeasure",
    "DivergenceError",
    "EquicorrelatedData",
    "EquivalentChain",
    "ExplicitData",
    "FixedPointConfig",
    "IidData",
    "LayerConstants",
    "LayerSpec",
    "MpBoxtimes",
    "NetworkSpec",
    "SimResult",
    "SpectralFactory",
    "activation_by_name",
    "build_chain",
    "coeff_vector",
    "conjugate_kernel",
    "dirac",
    "equicorrelated_equivalent",
    "equicorrelated_stieltjes",
    "esd_from_eigenvalues",
    "gaussian_norm_sq",
    "kolmogorov_distance",
    "layer_constants",
    "layer_outputs",
    "mp_stieltjes_closed",
    "orthogonality_stats",
    "run_network",
    "sigma_expansion",
    "__version__",
]
