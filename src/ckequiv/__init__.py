"""Deterministic spectral equivalents of random-feature kernels.

The package splits into a scalar layer (Hermite coefficients, spectral
measures, the multiplicative-convolution fixed point), a matrix layer
(covariance expansions, equivalent resolvents, sampled networks) and a
small batch CLI on top.
"""

from .hermite import (
    ACTIVATIONS,
    Activation,
    QuadratureRule,
    activation_by_name,
    coeff_vector,
    default_rule,
    gaussian_norm_sq,
    make_rule,
)
from .freeconv import (
    DEFAULT_CONFIG,
    DivergenceError,
    FixedPointConfig,
    mp_density_closed,
    mp_stieltjes_closed,
    solve_l_grid,
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
    sigma_approx,
    sigma_expansion,
    sigma_lin,
    sigma_mc_oracle,
)
from .detequiv import (
    EquivalentChain,
    LayerConstants,
    LayerSpec,
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
    SpectralFactory,
    conjugate_kernel,
    layer_kernels,
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
    "QuadratureRule",
    "SimResult",
    "SpectralFactory",
    "activation_by_name",
    "build_chain",
    "coeff_vector",
    "conjugate_kernel",
    "default_rule",
    "dirac",
    "equicorrelated_equivalent",
    "equicorrelated_stieltjes",
    "esd_from_eigenvalues",
    "gaussian_norm_sq",
    "kolmogorov_distance",
    "layer_constants",
    "layer_kernels",
    "make_rule",
    "mp_density_closed",
    "mp_stieltjes_closed",
    "orthogonality_stats",
    "run_network",
    "sigma_approx",
    "sigma_expansion",
    "sigma_lin",
    "sigma_mc_oracle",
    "solve_l_grid",
    "__version__",
]
