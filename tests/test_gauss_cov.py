"""Covariance expansion of activations applied to correlated Gaussians."""

import numpy as np
import pytest

from ckequiv.gauss_cov import CovModel, sigma_expansion
from ckequiv.hermite import (
    Activation,
    coeff_vector,
    gaussian_norm_sq,
    identity_activation,
    tanh_activation,
)
from hermite_oracle import hermite_normalized
from paper_oracle import max_norm, psd_sqrt, sigma_approx, sigma_lin, sigma_mc_oracle


def near_identity_cov(n, scale, seed):
    """Symmetric S = I + E with zero diagonal perturbation of size ~scale."""
    rng = np.random.default_rng(seed)
    e = rng.uniform(-scale, scale, size=(n, n))
    e = 0.5 * (e + e.T)
    np.fill_diagonal(e, 0.0)
    return np.eye(n) + e


def polynomial_activation():
    """Low-degree polynomial with every coefficient known and zero tail."""

    def fn(t):
        return (
            hermite_normalized(1, t)
            + hermite_normalized(2, t) / 2.0
            + hermite_normalized(3, t) / 3.0
            + hermite_normalized(4, t) / 4.0
        )

    return Activation("poly4", fn)


def test_norm_helpers():
    m = np.array([[1.0, -3.0], [0.0, 2.0]])
    assert max_norm(m) == 3.0


def test_cov_model_validation_and_delta():
    s = near_identity_cov(4, 0.05, 0)
    model = CovModel(s=s, f=tanh_activation())
    assert np.array_equal(model.s, s)
    with pytest.raises(ValueError, match="symmetric"):
        CovModel(s=np.array([[1.0, 0.2], [0.0, 1.0]]), f=tanh_activation())
    with pytest.raises(ValueError, match="positive semi-definite"):
        CovModel(s=np.array([[1.0, 2.0], [2.0, 1.0]]), f=tanh_activation())


def test_identity_activation_recovers_covariance():
    s = near_identity_cov(5, 0.1, 1)
    s[0, 0] = 1.3  # non-unit diagonal entry must survive the rescaling
    model = CovModel(s=s, f=identity_activation())
    assert max_norm(sigma_expansion(model, r_max=8) - s) < 1e-12


def test_uncorrelated_inputs_give_diagonal_parseval():
    model = CovModel(s=np.eye(3), f=tanh_activation())
    zeta = coeff_vector(tanh_activation(), 20)
    want = float(zeta @ zeta) * np.eye(3)
    assert max_norm(sigma_expansion(model, r_max=20) - want) < 1e-14


def test_expansion_matches_mc_oracle():
    model = CovModel(s=near_identity_cov(3, 0.05, 3), f=tanh_activation())
    mc, se = sigma_mc_oracle(model, 2_000_000, seed=5, return_se=True)
    gap = np.abs(sigma_expansion(model) - mc)
    assert np.all(gap <= 4.0 * se)


def test_mc_oracle_deterministic_per_seed():
    model = CovModel(s=np.eye(2), f=tanh_activation())
    a = sigma_mc_oracle(model, 150_000, seed=9)
    b = sigma_mc_oracle(model, 150_000, seed=9)
    c = sigma_mc_oracle(model, 150_000, seed=10)
    assert np.array_equal(a, b)
    assert max_norm(a - c) > 0.0


def test_non_centered_activation_rejected_with_hint():
    model = CovModel(s=np.eye(2), f=identity_activation().shifted(-0.3))
    with pytest.raises(ValueError, match=r"f\.shifted\(0\.\d+\)") as info:
        sigma_approx(model)
    assert "np.float64" not in str(info.value)
    with pytest.raises(ValueError, match="shifted"):
        sigma_lin(model)
    # the full expansion has no such gate: the zeroth mode is kept
    sigma_expansion(model)


def test_sigma_lin_structure():
    s = near_identity_cov(4, 0.03, 4)
    model = CovModel(s=s, f=tanh_activation())
    zeta = coeff_vector(tanh_activation(), 1)
    want = gaussian_norm_sq(tanh_activation()) * np.eye(4) + zeta[1] ** 2 * (s - np.eye(4))
    assert max_norm(sigma_lin(model) - want) < 1e-14


def test_sigma_approx_reduces_to_lin_plus_higher_orders():
    # match the diagonal truncation level so the comparison isolates the
    # off-diagonal orders instead of the activation's Hermite tail
    s = near_identity_cov(4, 0.1, 6)
    model = CovModel(s=s, f=tanh_activation())
    zeta = coeff_vector(tanh_activation(), 20)
    norm2 = float(zeta @ zeta)
    full = sigma_expansion(model, r_max=20)
    gap_lin = max_norm(full - sigma_lin(model, norm2=norm2))
    gap_approx = max_norm(full - sigma_approx(model, norm2=norm2))
    assert gap_approx < 0.1 * gap_lin


def test_approx_error_decays_like_fourth_power():
    # the polynomial activation has zero truncation tail, so the remaining
    # gap is the genuine fourth-order term; halving the perturbation must
    # shrink it by roughly 2^4
    f = polynomial_activation()
    zeta = coeff_vector(f, 6)
    norm2 = float(zeta @ zeta)
    gaps = []
    for scale in (1.0 / 50.0, 1.0 / 100.0):
        model = CovModel(s=near_identity_cov(4, scale, 7), f=f)
        gaps.append(max_norm(sigma_expansion(model, r_max=12) - sigma_approx(model, norm2=norm2)))
    ratio = gaps[0] / gaps[1]
    assert ratio > 8.0


def test_norm2_override_changes_only_diagonal():
    model = CovModel(s=near_identity_cov(3, 0.02, 8), f=tanh_activation())
    a = sigma_approx(model)
    b = sigma_approx(model, norm2=0.25)
    off = ~np.eye(3, dtype=bool)
    assert np.allclose(a[off], b[off])
    assert np.allclose(np.diag(a) - np.diag(b), gaussian_norm_sq(tanh_activation()) - 0.25)


def test_psd_sqrt_squares_back():
    s = near_identity_cov(5, 0.1, 11)
    root = psd_sqrt(s)
    assert max_norm(root @ root - s) < 1e-12
    assert max_norm(root - root.T) < 1e-12
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_singular_covariance_is_sampleable():
    # rank-deficient S (an equicorrelated projection shape) must not break
    # the oracle path, which clips the tiny negative eigenvalues
    n = 4
    s = np.full((n, n), 1.0 / n)
    model = CovModel(s=s, f=identity_activation())
    mc = sigma_mc_oracle(model, 200_000, seed=3)
    assert max_norm(mc - s) < 0.02
