"""Library guards that a NaN or an overflowed argument must not slip through.

Each guard is written so that it fails on NaN (``not x > 0`` rather than
``x <= 0``); every case here must raise ValueError with that guard's own
message, not pass or fail later with an unrelated one.
"""

import math

import numpy as np
import pytest

from ckequiv.detequiv import LayerSpec, layer_constants
from ckequiv.freeconv import mp_stieltjes_closed
from ckequiv.hermite import QuadratureRule, tanh_activation
from ckequiv.measures import DiscreteMeasure, MpBoxtimes, dirac, esd_from_eigenvalues
from ckequiv.netsim import sample_gaussian

NAN = math.nan
TANH_LAYER = LayerSpec(1.0, 1.0, 0.0, tanh_activation(), 1.0)


def mp_one():
    return MpBoxtimes(1.0, dirac(1.0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MpBoxtimes(NAN, dirac(1.0)), "gamma must be positive and finite"),
        (lambda: MpBoxtimes(1.0, dirac(1.0), a=NAN), "shift a must be finite"),
        (lambda: MpBoxtimes(1.0, dirac(1.0), b=NAN), "scale b must be positive and finite"),
        (lambda: DiscreteMeasure([NAN], [1.0]), "atoms must be finite"),
        (lambda: DiscreteMeasure([1.0, 2.0], [NAN, NAN]), "weights must be positive"),
        (lambda: esd_from_eigenvalues([NAN, 1.0]), "eigenvalues must be finite"),
        (lambda: layer_constants(TANH_LAYER, NAN), "sigma_x2 must be positive"),
        (lambda: layer_constants(TANH_LAYER, math.inf), r"sigma_w2\*sigma_x2 \+ sigma_b2 must be finite"),
        (lambda: mp_one().cdf(1.0, eta=NAN), "eta must be positive and finite"),
        (lambda: mp_one().inversion([1.0], [NAN]), "eta must be positive and finite"),
        (lambda: sample_gaussian(2, 2, NAN, np.random.default_rng(0)), "variance must be finite and nonnegative"),
        (lambda: mp_stieltjes_closed(NAN, 1j), "gamma must be positive and finite"),
        (lambda: mp_stieltjes_closed(1.0, complex(1.0, NAN)), "upper half-plane"),
        (lambda: QuadratureRule(np.array([-1.0, 1.0]), np.array([NAN, NAN])), "quadrature weights must be positive"),
        (
            lambda: QuadratureRule(np.array([NAN, 1.0]), np.array([0.5, 0.5])),
            "quadrature rule fails Gaussian moment checks",
        ),
    ],
    ids=[
        "mp-gamma", "mp-a", "mp-b", "discrete-atoms", "discrete-weights", "esd", "layer-sigma_x2",
        "layer-sigma_tilde2-overflow", "cdf-eta", "inversion-eta", "sample-variance", "mp-closed-gamma",
        "mp-closed-z", "rule-weights", "rule-nodes",
    ],
)
def test_guard_rejects_nan(call, message):
    with pytest.raises(ValueError, match=message):
        call()
