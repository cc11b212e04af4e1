"""Fixed-point solver and closed-form MP transform tests."""

import numpy as np
import pytest

from ckequiv.freeconv import (
    DEFAULT_CONFIG,
    FixedPointConfig,
    in_wedge,
    mp_stieltjes_closed,
    project_domain,
    solve_chain_grid,
)
from ckequiv.measures import DiscreteMeasure, MpBoxtimes, dirac
from nested_oracle import PicardLaw, Pushed, _converged, converged_l, solve_l_grid
from paper_oracle import mp_density_closed


def quad_residual(gamma, z, g):
    return gamma * z * g * g + (z + gamma - 1.0) * g + 1.0


def fixed_point_g(mu, gamma, z):
    """g of MP(gamma) (x) mu from the Picard solve, by g = (-1/l - (gamma - 1)/z) / gamma."""
    z = np.asarray(z, dtype=complex)
    l = converged_l(mu, gamma, z)
    return (-1.0 / l - (gamma - 1.0) / z) / gamma


def test_closed_form_satisfies_quadratic():
    zs = np.array([0.5 + 0.01j, -1.0 + 1j, 3.0 + 0.1j, 6.0 + 10j])
    for gamma in (0.25, 1.0, 2.0, 4.0):
        g = mp_stieltjes_closed(gamma, zs)
        assert np.max(np.abs(quad_residual(gamma, zs, g))) < 1e-12
        assert np.all(g.imag > 0)


def test_closed_form_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        mp_stieltjes_closed(1.0, 1.0 - 0.5j)


def test_fixed_point_matches_closed_form():
    zs = (np.linspace(-2.0, 6.0, 9)[:, None] + 1j * np.array([1e-2, 1.0])).ravel()
    for gamma in (0.5, 1.0, 2.0):
        g_fp = fixed_point_g(dirac(1.0), gamma, zs)
        g_cf = mp_stieltjes_closed(gamma, zs)
        assert np.max(np.abs(g_fp - g_cf)) < 1e-10


def test_point_mass_scaling():
    # MP boxtimes delta_a is the dilation by a of MP
    z = 1.3 + 0.2j
    a = 2.5
    g = complex(fixed_point_g(dirac(a), 1.0, z))
    assert abs(g - mp_stieltjes_closed(1.0, z / a) / a) < 1e-11


def test_solve_l_solution_is_a_fixed_point():
    mu = DiscreteMeasure([0.5, 1.0, 2.0], [0.2, 0.5, 0.3])
    for gamma in (0.5, 2.0):
        for z in (0.8 + 0.05j, -0.3 + 1j):
            l = complex(solve_l_grid(mu, gamma, np.asarray(z))[0])
            f = z + gamma * l + gamma * l**2 * mu.stieltjes(l)
            assert abs(f - l) <= 10 * DEFAULT_CONFIG.tol * max(1.0, abs(l))
            assert l.imag >= z.imag - 1e-12


def test_solver_input_validation():
    mu = dirac(1.0)
    with pytest.raises(ValueError):
        solve_l_grid(mu, -1.0, np.array([1j]))
    with pytest.raises(ValueError):
        solve_l_grid(mu, 1.0, np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        solve_l_grid(dirac(-0.5), 1.0, np.array([1j]))


def test_project_domain_lands_in_wedge():
    z = np.array([0.5 + 0.01j, -1.0 + 0.5j])
    w = np.array([0.4 - 2.0j, 100.0 - 3j])
    p = project_domain(w, z)
    assert np.all(p.imag >= z.imag - 1e-15)
    assert np.all((p / z).imag >= -1e-15)


def test_starved_solver_flags_without_raising():
    mu = dirac(1.0)
    z = np.array([1.0 + 1e-3j])
    cfg = FixedPointConfig(max_iter=2)
    l, iters, res = solve_l_grid(mu, 1.0, z, cfg)
    assert res[0] > cfg.tol * max(1.0, abs(l[0]))
    assert iters <= 2


def test_hard_points_below_lower_edge_converge():
    # a gamma=2 strip just left of and below the bulk edge once stalled a
    # secant iterate at the domain corner; it must converge to tolerance now
    mu = dirac(1.0)
    gamma = 2.0
    zs = np.linspace(0.01, 0.35, 120) + 1j * (1e-3 / 3.0)
    l, _, res = solve_l_grid(mu, gamma, zs)
    assert np.max(res / np.maximum(1.0, np.abs(l))) <= DEFAULT_CONFIG.tol
    g = (-1.0 / l - (gamma - 1.0) / zs) / gamma
    assert np.max(np.abs(g - mp_stieltjes_closed(gamma, zs))) < 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        FixedPointConfig(tol=0.0)
    with pytest.raises(ValueError):
        FixedPointConfig(max_iter=0)


class TestDensityClosedForm:
    def test_integrates_to_continuous_mass(self):
        # substitute x = lo + (hi-lo) sin^2(theta) so the square-root edges
        # become smooth; midpoint rule avoids the open-support endpoints
        h = (np.pi / 2) / 20_000
        theta = (np.arange(20_000) + 0.5) * h
        for gamma in (0.5, 1.0, 2.0):
            lo = (1.0 - np.sqrt(gamma)) ** 2
            hi = (1.0 + np.sqrt(gamma)) ** 2
            x = lo + (hi - lo) * np.sin(theta) ** 2
            jac = (hi - lo) * 2.0 * np.sin(theta) * np.cos(theta)
            mass = float(np.sum(mp_density_closed(gamma, x) * jac) * h)
            want = 1.0 if gamma <= 1 else 1.0 / gamma
            assert abs(mass - want) < 1e-6

    def test_matches_stieltjes_boundary_value(self):
        xs = np.linspace(0.5, 2.4, 21)
        g = mp_stieltjes_closed(0.5, xs + 1e-8j)
        assert np.max(np.abs(g.imag / np.pi - mp_density_closed(0.5, xs))) < 1e-6

    def test_zero_outside_support(self):
        assert mp_density_closed(0.5, 0.05) == 0.0
        assert mp_density_closed(0.5, 3.5) == 0.0


def _wedge_root_mp(atoms, weights, gamma, z, start, dps=50):
    """The root of l = z + gamma l + gamma l^2 g_mu(l) in D(z), by mpmath.

    Newton at ``dps`` digits from ``start``; the root in D(z) is unique, so
    a limit that lies in D(z) is the solution whatever the starting point.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        zz = mpmath.mpc(z.real, z.imag)

        def f(l):
            g = mpmath.fsum(mpmath.mpf(w) / (mpmath.mpf(t) - l) for t, w in zip(atoms, weights))
            return zz + (gamma - 1) * l + gamma * l * l * g

        root = mpmath.findroot(f, mpmath.mpc(start.real, start.imag))
        assert root.imag >= zz.imag and (root / zz).imag >= 0
        return complex(root)


def test_active_set_solve_matches_high_precision_root():
    atoms, weights = [0.5, 1.0, 2.5], [0.2, 0.5, 0.3]
    mu = DiscreteMeasure(atoms, weights)
    zs = np.array([0.3 + 1e-3j, 1.2 + 1e-3j, 4.0 + 1e-3j, 2.0 + 0.1j, -1.0 + 1.0j, 6.0 + 10.0j])
    for gamma in (0.5, 1.5):
        l = converged_l(mu, gamma, zs)
        want = np.array([_wedge_root_mp(atoms, weights, gamma, z, s) for z, s in zip(zs, l)])
        assert np.max(np.abs(l - want) / np.maximum(1.0, np.abs(want))) <= 1e-10


def test_single_level_transform_near_zero_matches_high_precision_root():
    # |l| is about 2e-3 here and g = (-1/l - (gamma - 1)/z) / gamma amplifies
    # an error in l by 1/|l|^2, so the stop test must be relative in l
    atoms, weights, gamma = [0.5, 1.0, 2.5], [0.2, 0.5, 0.3], 0.5
    law = MpBoxtimes(gamma, DiscreteMeasure(atoms, weights))
    for z in (1e-3j, 1e-3 + 1e-4j):
        got = law.stieltjes(z)
        root = _wedge_root_mp(atoms, weights, gamma, z, law._solve(np.asarray(z))[1][0], dps=40)
        want = (-1.0 / root - (gamma - 1.0) / z) / gamma
        assert abs(got - want) <= 1e-10 * abs(want)


def test_grid_solve_matches_pointwise_solves():
    # points freeze independently, so batching must not change any value
    mu = DiscreteMeasure([0.5, 1.0, 2.5], [0.2, 0.5, 0.3])
    xs = np.linspace(-1.0, 7.0, 41)
    zs = np.concatenate([xs + 1e-3j, xs + 0.1j, xs + 1.0j])
    for gamma in (0.5, 1.5):
        l_grid = converged_l(mu, gamma, zs)
        l_point = np.array([complex(converged_l(mu, gamma, np.asarray(z))) for z in zs])
        assert np.max(np.abs(l_grid - l_point)) <= 1e-12


def test_only_the_starved_point_is_flagged():
    mu = DiscreteMeasure([0.5, 1.0, 2.5], [0.2, 0.5, 0.3])
    easy = np.array([2.0 + 1.0j, 0.5 + 0.5j, 6.0 + 3.0j])
    hard = 1.0 + 1e-4j
    easy_iters = max(solve_l_grid(mu, 1.5, np.asarray(z))[1] for z in easy)
    assert solve_l_grid(mu, 1.5, np.asarray(hard))[1] > easy_iters
    zs = np.concatenate([easy[:2], [hard], easy[2:]])
    cfg = FixedPointConfig(max_iter=easy_iters)
    l, iters, res = solve_l_grid(mu, 1.5, zs, cfg)
    ok = _converged(l, res, cfg.tol)
    assert ok.tolist() == [True, True, False, True]
    assert iters == easy_iters
    l_easy = converged_l(mu, 1.5, easy)
    assert np.max(np.abs(l[ok] - l_easy)) <= 1e-12


# ---------------------------------------------------------------------------
# Stacked Newton solve of a chain of nested fixed points

BOTTOM_ATOMS = np.array([0.5, 1.0, 2.5])
BOTTOM_WEIGHTS = np.array([0.2, 0.5, 0.3])
# (gammas top first, shifts a_k, scales b_k) of the links between levels:
# constants of tanh layers with unit variances, and a mix of aspect ratios
# and link scales
TANH_CHAIN = ([1.0] * 4, [0.3298, 0.3250, 0.2896], [0.2865, 0.2802, 0.2304])
MIXED_CHAIN = ([2.0, 1.0, 2.0, 1.0], [1.0, 0.3, 0.7], [1.0, 0.5, 2.0])


def bottom_pair(v):
    inv = 1.0 / (BOTTOM_ATOMS[:, None] - v[None, :])
    return BOTTOM_WEIGHTS @ inv, BOTTOM_WEIGHTS @ (inv * inv)


def chain(spec, depth):
    """The top ``depth`` levels of spec, the last one over the bottom atoms unpushed (a = 0, b = 1)."""
    gammas, shifts, scales = spec
    return gammas[:depth], shifts[: depth - 1] + [0.0], scales[: depth - 1] + [1.0]


def support_edge(gammas, shifts, scales):
    """Upper edge of the top law: edges multiply by (1 + sqrt(gamma))^2 per level."""
    hi = BOTTOM_ATOMS[-1]
    for k in range(len(gammas) - 1, -1, -1):
        hi = (shifts[k] + scales[k] * hi) * (1.0 + np.sqrt(gammas[k])) ** 2
    return hi


def nested_picard(gammas, shifts, scales, z):
    """l of the top level by the nested route (one Picard solve per evaluation)."""
    law = DiscreteMeasure(BOTTOM_ATOMS, BOTTOM_WEIGHTS)
    for k in range(len(gammas) - 1, -1, -1):
        law = PicardLaw(gammas[k], Pushed(shifts[k], scales[k], law))
    return law.companion_l(z)


def top_g(gamma, l, z):
    return (-1.0 / l - (gamma - 1.0) / z) / gamma


@pytest.mark.parametrize("spec", [TANH_CHAIN, MIXED_CHAIN], ids=["tanh", "mixed"])
@pytest.mark.parametrize("depth", [2, 3, 4])
def test_chain_newton_matches_nested_picard(spec, depth):
    gammas, shifts, scales = chain(spec, depth)
    edge = support_edge(gammas, shifts, scales)
    # below the support, inside the bulk and past its upper edge
    xs = np.array([-1.0, -0.2, 0.25 * edge, 0.5 * edge, 0.8 * edge, edge + 0.5, 2.0 * edge])
    for eta in (1e-3, 1e-2, 0.5):
        zs = xs + 1j * eta
        l, ok, _ = solve_chain_grid(gammas, shifts, scales, bottom_pair, zs, edge)
        assert np.all(ok)
        g = top_g(gammas[0], l[0], zs)
        want = top_g(gammas[0], nested_picard(gammas, shifts, scales, zs), zs)
        assert np.max(np.abs(g - want) / np.maximum(1.0, np.abs(want))) <= 1e-10


def _chain_root_mp(gammas, shifts, scales, z, start, dps=40):
    """Root of the depth-2 stacked system by mpmath Newton at ``dps`` digits,
    checked to lie in every wedge: by uniqueness per level it is the solution."""
    mpmath = pytest.importorskip("mpmath")
    (g0, g1), (a, a1), (b, b1) = gammas, shifts, scales
    with mpmath.workdps(dps):
        zz = mpmath.mpc(z.real, z.imag)

        def system(l0, l1):
            u1 = (l0 - a) / b
            u2 = (l1 - a1) / b1
            h0 = (-1 / l1 - (g1 - 1) / u1) / g1 / b
            h1 = mpmath.fsum(mpmath.mpf(w) / (mpmath.mpf(t) - u2) for t, w in zip(BOTTOM_ATOMS, BOTTOM_WEIGHTS)) / b1
            return [zz + (g0 - 1) * l0 + g0 * l0 * l0 * h0, u1 + (g1 - 1) * l1 + g1 * l1 * l1 * h1]

        root = mpmath.findroot(system, [mpmath.mpc(s.real, s.imag) for s in start])
        u1 = (root[0] - a) / b
        for l_k, u_k in ((root[0], zz), (root[1], u1)):
            assert l_k.imag >= u_k.imag and (l_k / u_k).imag >= 0
        return np.array([complex(r) for r in root])


def test_chain_newton_matches_high_precision_root():
    # the bottom atoms unpushed, then pushed by the last level's own (a, b)
    for a, b in ((0.0, 1.0), (0.2, 0.8)):
        gammas, shifts, scales = [0.5, 2.0], [0.7, a], [1.5, b]
        edge = support_edge(gammas, shifts, scales)
        zs = np.array([-0.5, 0.0, 0.3 * edge, 0.7 * edge, edge + 1.0]) + 1e-3j
        l, ok, _ = solve_chain_grid(gammas, shifts, scales, bottom_pair, zs, edge)
        assert np.all(ok)
        for j, z in enumerate(zs):
            want = _chain_root_mp(gammas, shifts, scales, z, l[:, j])
            assert np.max(np.abs(l[:, j] - want) / np.maximum(1.0, np.abs(want))) <= 1e-10


def test_chain_grid_solve_matches_pointwise_solves():
    gammas, shifts, scales = chain(MIXED_CHAIN, 3)
    edge = support_edge(gammas, shifts, scales)
    xs = np.linspace(-1.0, 1.2 * edge, 15)
    zs = np.concatenate([xs + 1e-3j, xs + 0.1j, xs + 2.0j])
    l_grid, ok_grid, _ = solve_chain_grid(gammas, shifts, scales, bottom_pair, zs, edge)
    for j, z in enumerate(zs):
        l_point, ok_point, _ = solve_chain_grid(gammas, shifts, scales, bottom_pair, np.asarray(z), edge)
        assert ok_point == ok_grid[j]
        assert np.max(np.abs(l_point - l_grid[:, j])) <= 1e-12


def test_chain_solve_with_a_closed_form_bottom_does_not_depend_on_the_split(monkeypatch):
    import ckequiv.freeconv as freeconv

    # the four tanh levels over the closed-form MP(1), on two table lines;
    # every step is pointwise, so any split gives bitwise the same roots,
    # certificates and step counts, also at points that leave uncertified
    gammas, shifts, scales = TANH_CHAIN
    law = MpBoxtimes(gammas[-1], MpBoxtimes(1.0, dirac(1.0)))
    for k in range(len(shifts) - 1, -1, -1):
        law = MpBoxtimes(gammas[k], law, a=shifts[k], b=scales[k])
    gammas, shifts, scales, bottom = law._chain
    assert (gammas, shifts, scales) == tuple(map(tuple, chain(TANH_CHAIN, 4)))
    edge = law.support_max()
    xs = np.linspace(-0.5, 6.0, 301)
    zs = np.concatenate([xs + 0.02j, xs + 0.01j])

    def solve(z, start, cfg):
        return solve_chain_grid(gammas, shifts, scales, bottom, z, edge, cfg, start=start)

    def same_bits(a, b):
        return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()

    l, ok, _ = solve(zs, None, DEFAULT_CONFIG)
    assert np.all(ok)
    # warm starts from the neighbouring point's root and from the root 20 points away
    near, far = np.roll(l, 1, axis=1), np.roll(l, 20, axis=1)
    cases = [
        (None, DEFAULT_CONFIG, {}),
        (near, DEFAULT_CONFIG, {}),
        # points cut off by max_iter, by a stage's step cap, and by a line
        # search of one trial
        (None, FixedPointConfig(max_iter=12), {}),
        (None, DEFAULT_CONFIG, {"_STAGE_STEPS": 2}),
        (near, DEFAULT_CONFIG, {"_STAGE_STEPS": 2}),
        (far, DEFAULT_CONFIG, {"_MAX_HALVINGS": 1}),
    ]
    for start, cfg, patch in cases:
        with monkeypatch.context() as m:
            for name, value in patch.items():
                m.setattr(freeconv, name, value)
            l0, ok0, steps0 = solve(zs, start, cfg)
            if patch or cfg is not DEFAULT_CONFIG:
                assert 0 < np.sum(ok0) < ok0.size
            for cuts in ((zs.size // 2 + 7,), (1, 37, 500)):
                bounds = (0,) + cuts + (zs.size,)
                parts = [solve(zs[a:b], None if start is None else start[:, a:b], cfg) for a, b in zip(bounds, bounds[1:])]
                assert same_bits(np.concatenate([p[0] for p in parts], axis=1), l0)
                assert same_bits(np.concatenate([p[1] for p in parts]), ok0)
                assert same_bits(np.concatenate([p[2] for p in parts]), steps0)
            m.setattr(freeconv, "_BLOCK", 37)
            l_small, ok_small, steps_small = solve(zs, start, cfg)
        assert same_bits(l_small, l0) and same_bits(ok_small, ok0) and same_bits(steps_small, steps0)


def test_starved_chain_solve_certifies_only_converged_points():
    # the certificate is a computed flag, not an assert: it holds under -O
    gammas, shifts, scales = chain(TANH_CHAIN, 3)
    edge = support_edge(gammas, shifts, scales)
    zs = np.array([1.0 + 8.0j, 1.0 + 1e-3j, 3.0 + 10.0j])
    l_full, ok_full, steps = solve_chain_grid(gammas, shifts, scales, bottom_pair, zs, edge)
    assert np.all(ok_full)
    # the point near the axis needs the most Newton steps
    easy_steps = max(steps[0], steps[2])
    assert easy_steps < steps[1]
    cfg = FixedPointConfig(max_iter=easy_steps)
    l, ok, used = solve_chain_grid(gammas, shifts, scales, bottom_pair, zs, edge, cfg)
    assert ok.tolist() == [True, False, True]
    # the certified points take the steps they took uncapped; the cap cut the other
    assert used.tolist() == [steps[0], easy_steps, steps[2]]
    assert np.max(np.abs(l[:, ok] - l_full[:, ok])) <= 1e-12


def test_chain_jacobian_matches_finite_differences():
    from ckequiv.freeconv import _chain_args, _chain_system

    # the last level's own push moves the bottom's argument and scales its g and g'
    gammas, shifts, scales = chain(MIXED_CHAIN, 3)
    shifts[-1], scales[-1] = 0.4, 1.7
    gammas, shifts, scales = (np.asarray(v, dtype=float)[:, None] for v in (gammas, shifts, scales))
    z = np.array([0.7 + 0.3j])
    l = np.array([[0.4 + 0.9j], [-0.6 + 1.1j], [0.2 + 0.8j]])

    def residual(l):
        return _chain_system(l, _chain_args(l, z, shifts, scales), gammas, scales, bottom_pair)[0][:, 0]

    _, diag, upper = _chain_system(l, _chain_args(l, z, shifts, scales), gammas, scales, bottom_pair)
    h = 1e-6
    for k in range(3):
        e = np.zeros((3, 1))
        e[k] = h
        column = (residual(l + e) - residual(l - e)) / (2 * h)
        want = np.zeros(3, dtype=complex)
        want[k] = diag[k, 0]
        if k > 0:
            want[k - 1] = upper[k - 1, 0]
        if k < 2:
            want[k + 1] = 1.0 / scales[k, 0]
        assert np.max(np.abs(column - want)) <= 1e-7 * np.max(np.abs(want))


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_chain_solve_needs_one_push_per_level(depth):
    # a layout with no push for the last level is refused before any solve
    gammas, shifts, scales = chain(MIXED_CHAIN, depth)
    zs = np.array([0.5 + 0.1j])
    with pytest.raises(ValueError, match="gammas, shifts and scales need one entry per level"):
        solve_chain_grid(gammas, shifts[:-1], scales[:-1], bottom_pair, zs, 10.0)
    with pytest.raises(ValueError, match="one entry per level"):
        solve_chain_grid(gammas, shifts, scales[:-1], bottom_pair, zs, 10.0)


def test_last_push_on_the_level_equals_a_pre_pushed_bottom():
    # the last level's push (a, b) applied by the solver gives bitwise what a
    # bottom closure that pushes the atoms itself gives under the push (0, 1)
    gammas, shifts, scales = chain(MIXED_CHAIN, 3)
    a, b = shifts[-1], scales[-1] = 0.4, 1.7

    def pre_pushed(v):
        g, dg = bottom_pair((v - a) / b)
        return g / b, dg / (b * b)

    edge = support_edge(gammas, shifts, scales)
    xs = np.linspace(-1.0, 1.2 * edge, 40)
    zs = np.concatenate([xs + 1e-3j, xs + 0.1j, xs + 2.0j])
    got = solve_chain_grid(gammas, shifts, scales, bottom_pair, zs, edge)
    want = solve_chain_grid(gammas, shifts[:-1] + [0.0], scales[:-1] + [1.0], pre_pushed, zs, edge)
    assert np.all(got[1])
    for x, y in zip(got, want):
        assert x.tobytes() == y.tobytes()


def test_in_wedge_is_the_closed_wedge():
    z = np.array([0.5 + 0.1j] * 5)
    w = np.array([0.5 + 0.1j, 0.2 + 0.3j, 0.5 + 0.05j, 2.0 + 0.2j, -1.0 + 0.2j])
    # the corner, a point above both boundaries, then below Im z, then
    # below the ray through z (Im(w / z) < 0), then inside again
    assert in_wedge(w, z).tolist() == [True, True, False, False, True]
