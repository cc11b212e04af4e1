"""Hermite basis, quadrature, and activation coefficient tests."""

import math

import numpy as np
import pytest

from ckequiv.hermite import (
    ACTIVATIONS,
    Activation,
    NODES,
    WEIGHTS,
    _hermite_all,
    activation_by_name,
    centered_relu,
    coeff_vector,
    gaussian_norm_sq,
    hermite2_activation,
    identity_activation,
    tanh_activation,
)
from hermite_oracle import gauss_hermite_mp, hermite_normalized, psi

# quadrature values frozen from an independent 400-node mpmath-style check
TANH_ZETA1 = 0.60570550960217
TANH_NORM_SQ = 0.39429449039796327
TANH_TAIL_R20 = 3.2867510491030316e-06


def test_monic_recurrence_matches_explicit_polynomials():
    t = np.linspace(-3.0, 3.0, 41)
    h = _hermite_all(4, t)
    assert np.allclose(h[0], np.ones_like(t))
    assert np.allclose(h[1], t)
    assert np.allclose(h[2], t**2 - 1)
    assert np.allclose(h[3], t**3 - 3 * t)
    assert np.allclose(h[4], t**4 - 6 * t**2 + 3)


def test_normalized_is_monic_over_sqrt_factorial():
    t = np.linspace(-2.0, 2.0, 17)
    h = _hermite_all(6, t)
    for r in range(7):
        expect = h[r] / math.sqrt(math.factorial(r))
        assert np.allclose(hermite_normalized(r, t), expect, atol=1e-13)


def test_rule_integrates_gaussian_moments_exactly():
    # E Z^2 = 1, E Z^4 = 3, E Z^6 = 15, odd moments vanish
    for k, want in ((0, 1.0), (2, 1.0), (4, 3.0), (6, 15.0), (1, 0.0), (3, 0.0)):
        got = float(WEIGHTS @ NODES**k)
        assert abs(got - want) < 1e-12


def test_orthonormality_small_block():
    for r in range(9):
        for s in range(9):
            val = float(WEIGHTS @ (hermite_normalized(r, NODES) * hermite_normalized(s, NODES)))
            assert abs(val - (1.0 if r == s else 0.0)) < 1e-9


def test_degree_overflow_raises():
    with pytest.raises(ValueError, match=r"degree 65 outside \[0, 64\]"):
        coeff_vector(tanh_activation(), 65)


class TestCoefficients:
    def test_identity_coefficients(self):
        f = identity_activation()
        zeta = coeff_vector(f, 5)
        want = np.zeros(6)
        want[1] = 1.0
        assert np.allclose(zeta, want, atol=1e-13)

    def test_tanh_first_coefficient_frozen(self):
        got = coeff_vector(tanh_activation(), 1)[1]
        assert abs(got - TANH_ZETA1) < 1e-12

    def test_tanh_stein_identity(self):
        # E[Z tanh Z] = E[sech^2 Z] = 1 - E[tanh^2 Z]
        f = tanh_activation()
        z1 = coeff_vector(f, 1)[1]
        assert abs(z1 - (1.0 - gaussian_norm_sq(f))) < 1e-12

    def test_tanh_norm_and_tail_frozen(self):
        f = tanh_activation()
        n2 = gaussian_norm_sq(f)
        assert abs(n2 - TANH_NORM_SQ) < 1e-12
        zeta = coeff_vector(f, 20)
        tail = n2 - float(zeta @ zeta)
        assert abs(tail - TANH_TAIL_R20) < 1e-9 * TANH_TAIL_R20 + 1e-14

    def test_centered_relu_linear_coefficient(self):
        # P(Z > 0) = 1/2; the kink costs quadrature accuracy but not much
        z1 = coeff_vector(centered_relu(), 1)[1]
        assert abs(z1 - 0.5) < 5e-3

    def test_hermite2_is_pure_second_mode(self):
        f = hermite2_activation()
        zeta = coeff_vector(f, 6)
        assert abs(zeta[2] - 1.0) < 1e-12
        zeta[2] = 0.0
        assert np.max(np.abs(zeta)) < 1e-12

    def test_odd_activation_even_coefficients_vanish(self):
        zeta = coeff_vector(tanh_activation(), 8)
        assert np.max(np.abs(zeta[::2])) < 1e-14

    def test_parseval_inequality(self):
        for name in ACTIVATIONS:
            f = activation_by_name(name)
            zeta = coeff_vector(f, 12)
            assert float(zeta @ zeta) <= gaussian_norm_sq(f) + 1e-10


def test_scaled_activation_semantics():
    f = tanh_activation().scaled(2.0)
    t = np.linspace(-1.0, 1.0, 9)
    assert np.allclose(f(t), np.tanh(2.0 * t))
    assert "tanh" in f.name
    assert abs(gaussian_norm_sq(identity_activation().scaled(2.0)) - 4.0) < 1e-12


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
@pytest.mark.parametrize("scale", [1e-3, 0.7, 1.0, 3.0, 1e3])
def test_norm_keeps_the_bits_of_the_plain_sum(name, scale):
    # the power-of-two scaling that guards against overflow is exact
    f = activation_by_name(name).scaled(scale)
    assert gaussian_norm_sq(f) == float(WEIGHTS @ f(NODES) ** 2)


def test_norm_of_a_huge_activation_does_not_overflow():
    # E[(1e153 N)^2] = 1e306, while its samples' squares exceed the double range
    with np.errstate(over="raise"):
        got = gaussian_norm_sq(identity_activation().scaled(1e153))
    assert abs(got - 1e306) <= 1e-12 * 1e306


def test_shifted_activation_recenters():
    f = identity_activation().shifted(0.25)
    assert abs(coeff_vector(f, 0)[0] + 0.25) < 1e-13


def test_scaled_coeff_matches_manual_dilation():
    # zeta_r(f_sigma) = sigma^r Psi_r(sigma) / sqrt(r!), the link in the module docstring
    f = tanh_activation()
    for sig in (0.7, 1.3):
        a = sig**3 * psi(f, 3, sig) / math.sqrt(math.factorial(3))
        b = coeff_vector(f.scaled(sig), 3)[3]
        assert abs(a - b) < 1e-13


def test_psi_scaling_of_identity():
    # f = t: psi_1 = 1 at every sigma, psi_0 = 0
    f = identity_activation()
    for sig in (0.5, 1.0, 2.0):
        assert abs(psi(f, 1, sig) - 1.0) < 1e-12
        assert abs(psi(f, 0, sig)) < 1e-12


def test_psi_derivative_identity_smooth_asymmetric():
    f = Activation("bent", lambda t: np.tanh(t + 0.5))
    h = 1e-4
    for sig in (0.9, 1.1):
        for r in (0, 1, 2):
            num = (psi(f, r, sig + h) - psi(f, r, sig - h)) / (2 * h)
            rhs = sig * psi(f, r + 2, sig)
            assert abs(num - rhs) <= 1e-6 * max(1.0, abs(rhs))


def test_activation_by_name_unknown():
    with pytest.raises(ValueError, match="unknown activation"):
        activation_by_name("swish")


def test_rule_even_moments_are_double_factorials():
    # E[N^2k] = (2k - 1)!!; the rule is exact for 2k < 256.  The weights are
    # accurate relative to themselves, so the outer nodes' tiny weights carry
    # the high moments too; the gate stops at 2k = 120
    for two_k in range(0, 121, 2):
        want = float(math.prod(range(two_k - 1, 0, -2)))
        got = float(WEIGHTS @ NODES**two_k)
        assert abs(got - want) <= 1e-12 * want, (two_k, got, want)


def test_rule_matches_mpmath_oracle():
    # roots of He_128 by Newton at 50 digits, weights by the Christoffel formula
    pytest.importorskip("mpmath")
    nodes, weights = gauss_hermite_mp(NODES)
    assert abs(float(sum(weights)) - 1.0) < 1e-15
    assert np.max(np.abs(NODES - np.array([float(x) for x in nodes]))) < 1e-13
    rel = [abs(float((float(got) - want) / want)) for got, want in zip(WEIGHTS, weights)]
    assert max(rel) < 1e-12


def test_rule_matches_numpy_hermegauss():
    # pins the rule's source: numpy's hermegauss, normalized to sum 1
    x, w = np.polynomial.hermite_e.hermegauss(128)
    assert np.array_equal(NODES, x)
    assert np.array_equal(WEIGHTS, w / w.sum())


def test_rule_is_read_only():
    for arr in (NODES, WEIGHTS):
        with pytest.raises(ValueError):
            arr[0] = 0.0
