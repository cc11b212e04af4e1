"""Top-level acceptance checks, one test per numbered criterion.

Each test is self-contained, prints the quantities it measured, and
asserts a wall-clock budget alongside the accuracy thresholds, so a
plain ``pytest -v tests/test_acceptance.py`` reads as a checklist.
"""

import ast
import inspect
import math
import time
from pathlib import Path

import numpy as np
import pytest

from ckequiv.detequiv import (
    LayerSpec,
    build_chain,
    equicorrelated_equivalent,
    _compose,
    equicorrelated_stieltjes,
    layer_constants,
)
from ckequiv.freeconv import mp_stieltjes_closed
from ckequiv.gauss_cov import CovModel, sigma_expansion
from ckequiv.hermite import (
    NODES,
    WEIGHTS,
    Activation,
    coeff_vector,
    tanh_activation,
)
from ckequiv.measures import (
    MpBoxtimes,
    dirac,
    esd_from_eigenvalues,
    kolmogorov_distance,
)
from ckequiv.netsim import (
    EquicorrelatedData,
    IidData,
    NetworkSpec,
    SpectralFactory,
    conjugate_kernel,
    layer_outputs,
    run_network,
)
from hermite_oracle import hermite_normalized, psi
from nested_oracle import converged_l, gbox_from_sigma
from paper_oracle import sigma_approx, sigma_mc_oracle

TANH_LAYER = LayerSpec(1.0, 1.0, 1.0, tanh_activation(), 1.0)


def near_identity_cov(n, scale, seed):
    rng = np.random.default_rng(seed)
    delta = rng.uniform(-1.0, 1.0, size=(n, n))
    delta = 0.5 * (delta + delta.T)
    np.fill_diagonal(delta, 0.0)
    return np.eye(n) + scale * delta


def polynomial_activation():
    """Degree-4 polynomial with an exactly finite Hermite expansion."""

    def fn(t):
        return (
            hermite_normalized(1, t)
            + hermite_normalized(2, t) / 2.0
            + hermite_normalized(3, t) / 3.0
            + hermite_normalized(4, t) / 4.0
        )

    return Activation("poly4", fn)


def test_criterion_1_hermite_suite():
    start = time.perf_counter()

    h = np.array([hermite_normalized(r, NODES) for r in range(9)])
    gram = (h * WEIGHTS) @ h.T
    ortho_err = float(np.max(np.abs(gram - np.eye(9))))
    assert ortho_err < 1e-9

    # E[h_r(X) h_s(Y)] = rho^r delta_rs for jointly Gaussian (X, Y)
    pair_err = 0.0
    u = NODES[:, None]
    v = NODES[None, :]
    w2 = WEIGHTS[:, None] * WEIGHTS[None, :]
    for rho in (-0.5, 0.0, 0.3, 0.9):
        y = rho * u + math.sqrt(1.0 - rho * rho) * v
        for r in range(7):
            hr = hermite_normalized(r, u)
            for s in range(7):
                val = float(np.sum(w2 * hr * hermite_normalized(s, y)))
                want = rho**r if r == s else 0.0
                pair_err = max(pair_err, abs(val - want))
    assert pair_err < 1e-7

    # d/dsigma Psi_r(sigma) = sigma * Psi_{r+2}(sigma)
    bent = Activation("bent", lambda t: np.tanh(t + 0.5))
    step = 1e-3
    deriv_err = 0.0
    for f, orders in ((bent, (0, 1, 2, 3)), (tanh_activation(), (1, 3))):
        for sigma in (0.9, 1.1):
            for r in orders:
                num = (psi(f, r, sigma + step) - psi(f, r, sigma - step)) / (2 * step)
                want = sigma * psi(f, r + 2, sigma)
                deriv_err = max(deriv_err, abs(num - want) / abs(want))
    assert deriv_err < 1e-4

    elapsed = time.perf_counter() - start
    print(
        f"criterion 1: orthonormality {ortho_err:.2e}, pair {pair_err:.2e}, "
        f"derivative rel {deriv_err:.2e}, {elapsed:.2f}s"
    )
    assert elapsed < 1.0


def test_criterion_2_fixed_point_matches_closed_form():
    start = time.perf_counter()
    worst = 0.0
    # MpBoxtimes takes a point-mass base in closed form, so call the
    # iterative solver directly to keep testing it
    base = dirac(1.0)
    for gamma in (0.5, 1.0, 2.0):
        for re in np.linspace(-2.0, 6.0, 20):
            for im in (1e-2, 1e-1, 1.0, 10.0):
                z = complex(re, im)
                l = converged_l(base, gamma, np.asarray(z))
                g = (-1.0 / complex(l) - (gamma - 1.0) / z) / gamma
                worst = max(worst, abs(g - mp_stieltjes_closed(gamma, z)))
    assert worst <= 1e-10
    elapsed = time.perf_counter() - start
    print(f"criterion 2: worst gap {worst:.2e} over 240 points, {elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_3_covariance_expansion_vs_monte_carlo():
    start = time.perf_counter()
    model = CovModel(near_identity_cov(4, 0.1, seed=0), tanh_activation())
    est, se = sigma_mc_oracle(model, 10_000_000, seed=123, return_se=True)
    dev = np.abs(sigma_approx(model) - est) / se
    worst_se = float(np.max(dev))
    assert worst_se <= 3.0

    poly = polynomial_activation()
    scales = np.array([1 / 50, 1 / 100, 1 / 200])
    gaps = []
    for s in scales:
        m = CovModel(near_identity_cov(6, s, seed=1), poly)
        gaps.append(float(np.max(np.abs(sigma_approx(m) - sigma_expansion(m, r_max=8)))))
    slope = float(np.polyfit(np.log(scales), np.log(gaps), 1)[0])
    assert slope >= 0.9

    elapsed = time.perf_counter() - start
    print(
        f"criterion 3: worst deviation {worst_se:.2f} standard errors, "
        f"gap slope {slope:.3f} over scales {scales.tolist()}, {elapsed:.1f}s"
    )
    assert elapsed < 120.0


def test_criterion_4_composed_route_matches_direct_route():
    start = time.perf_counter()
    n = 200
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        m = rng.standard_normal((n, 2 * n))
        kx = m @ m.T / (2 * n)
        lam, vec = np.linalg.eigh(kx)
        tau = esd_from_eigenvalues(lam)
        a = float(rng.uniform(0.0, 2.0))
        b = float(rng.uniform(0.05, 1.5))
        gamma = float(rng.uniform(0.3, 3.0))
        z = complex(rng.uniform(-2.0, 4.0), rng.uniform(0.05, 2.0))

        def resolvent(w, lam=lam, vec=vec):
            return (vec * (1.0 / (lam - w))) @ vec.T

        ((_, build, ok),) = _compose(MpBoxtimes(gamma, tau, a=a, b=b), 1, resolvent, [z])
        assert ok
        right = gbox_from_sigma(a * np.eye(n) + b * kx, gamma, z)
        worst = max(worst, float(np.linalg.norm(build() - right, 2)))
    assert worst < 1e-8
    elapsed = time.perf_counter() - start
    print(f"criterion 4: worst spectral gap {worst:.2e} over 50 cases, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_5_equicorrelated_closed_form():
    start = time.perf_counter()
    c = layer_constants(TANH_LAYER, 1.0)
    a, b = float(c.a), float(c.b)
    worst = 0.0
    for n in (100, 1000):
        sigma = np.full((n, n), b / n)
        np.fill_diagonal(sigma, a + b)
        for z in (1j, 1.5 + 0.3j):
            _, g_mat = equicorrelated_equivalent(n, a, b, z)
            worst = max(worst, float(np.linalg.norm(g_mat - gbox_from_sigma(sigma, 1.0, z), 2)))
    assert worst < 1e-9

    g_inf = mp_stieltjes_closed(1.0, 1j / (a + b)) / (a + b)
    ns = np.array([100, 1000, 10000])
    gaps = np.array([abs(equicorrelated_stieltjes(n, a, b, 1j) - g_inf) for n in ns])
    slope = float(np.polyfit(np.log(ns), np.log(gaps), 1)[0])
    assert abs(slope - (-1.0)) < 0.2

    elapsed = time.perf_counter() - start
    print(
        f"criterion 5: worst closed-vs-generic gap {worst:.2e}, "
        f"finite-size decay slope {slope:.3f}, {elapsed:.1f}s"
    )
    assert elapsed < 120.0


def test_criterion_6_single_layer_end_to_end():
    start = time.perf_counter()
    n = 1000
    c = layer_constants(TANH_LAYER, 1.0)
    a, b = float(c.a), float(c.b)
    z = 1j
    spec = NetworkSpec(n=n, d0=n, data=EquicorrelatedData(), layers=(TANH_LAYER,))
    (layer,) = build_chain(spec).layers
    ((g_det, build, ok),) = layer.gbuilder([z])
    g_mat = build()
    chi = layer.chi
    # the chain on the data model's two-atom input is the closed form
    g_closed, g_mat_closed = equicorrelated_equivalent(n, a, b, z)
    assert ok and abs(g_det - g_closed) < 1e-10
    assert np.max(np.abs(g_mat - g_mat_closed)) < 1e-10

    dgs, kss, gaps = [], [], []
    for seed in (0, 1, 2):
        _, (y, _) = layer_outputs(spec, seed)
        fac = SpectralFactory(conjugate_kernel(y))
        lam = fac.eigenvalues
        g_sim = complex(np.mean(1.0 / (lam - z)))
        dgs.append(abs(g_sim - g_det))
        kss.append(kolmogorov_distance(esd_from_eigenvalues(lam), chi))
        gaps.append(float(np.max(np.abs(fac.resolvent(z) - g_mat))))
    assert max(dgs) < 0.02
    assert max(kss) < 0.05
    assert max(gaps) < 0.1
    elapsed = time.perf_counter() - start
    print(
        f"criterion 6: |dg| max {max(dgs):.2e}, Kolmogorov max {max(kss):.4f}, "
        f"entry gap max {max(gaps):.4f} over 3 seeds, {elapsed:.1f}s"
    )
    assert elapsed < 300.0


def test_criterion_7_three_layer_network():
    start = time.perf_counter()
    z = 1j

    def spec_for(n):
        return NetworkSpec(n=n, d0=n, data=IidData(1.0), layers=(TANH_LAYER,) * 3)

    spec = spec_for(1000)
    chain = build_chain(spec)
    g_det = [layer.chi.stieltjes(z) for layer in chain.layers]

    dgs = np.zeros((3, 3))
    kss = np.zeros((3, 3))
    for si, seed in enumerate((0, 1, 2)):
        res = run_network(spec, seed)
        for li in range(3):
            lam = res.eigenvalues[li + 1]
            g_sim = complex(np.mean(1.0 / (lam - z)))
            dgs[si, li] = abs(g_sim - g_det[li])
            kss[si, li] = kolmogorov_distance(esd_from_eigenvalues(lam), chain.layers[li].chi)
    assert np.max(dgs) < 0.03
    assert np.max(kss) < 0.07

    # the entrywise deviation from sigma_y2 * I shrinks with width
    avg_dev = {}
    for m in (250, 500, 1000):
        stats = [run_network(spec_for(m), seed).stats for seed in (0, 1, 2)]
        avg_dev[m] = np.array([np.mean([s[li + 1].max_dev for s in stats]) for li in range(3)])
    for li in range(3):
        assert avg_dev[250][li] > avg_dev[500][li] > avg_dev[1000][li]

    elapsed = time.perf_counter() - start
    print(
        f"criterion 7: |dg| max {np.max(dgs):.2e}, Kolmogorov max {np.max(kss):.4f}, "
        f"max-dev by n {{250: {np.round(avg_dev[250], 4).tolist()}, "
        f"500: {np.round(avg_dev[500], 4).tolist()}, "
        f"1000: {np.round(avg_dev[1000], 4).tolist()}}}, {elapsed:.1f}s"
    )
    assert elapsed < 900.0


def test_criterion_8_trace_identity_and_resolvent_bound():
    n = 80
    rng = np.random.default_rng(11)
    m = rng.standard_normal((n, 2 * n))
    kx = m @ m.T / (2 * n)
    lam, vec = np.linalg.eigh(kx)
    tau = esd_from_eigenvalues(lam)

    def resolvent(w):
        return (vec * (1.0 / (lam - w))) @ vec.T

    c = layer_constants(TANH_LAYER, 1.0)
    a, b = float(c.a), float(c.b)
    chi_sigma = MpBoxtimes(1.3, esd_from_eigenvalues(np.linalg.eigvalsh(a * np.eye(n) + b * kx)))

    chain_net = NetworkSpec(n=n, d0=n, data=IidData(1.0), layers=(TANH_LAYER,) * 2)
    chain = build_chain(chain_net)

    zs = [0.3 + 0.05j, 1j, 2.0 + 0.5j, -1.0 + 1.0j]
    composed = _compose(MpBoxtimes(1.3, tau, a=a, b=b), 1, resolvent, zs)
    chained = chain.layers[1].gbuilder(zs)
    worst_trace = 0.0
    worst_norm_excess = -np.inf
    for z, (_, composed_build, ok_composed), (_, chained_build, ok_chained) in zip(zs, composed, chained):
        assert ok_composed and ok_chained
        cases = [
            (gbox_from_sigma(a * np.eye(n) + b * kx, 1.3, z), chi_sigma.stieltjes(z)),
            (composed_build(), chi_sigma.stieltjes(z)),
            equicorrelated_equivalent(n, a, b, z)[::-1],
            (chained_build(), chain.layers[1].chi.stieltjes(z)),
        ]
        for g_mat, g in cases:
            worst_trace = max(worst_trace, abs(np.trace(g_mat) - n * g))
            worst_norm_excess = max(
                worst_norm_excess, float(np.linalg.norm(g_mat, 2)) - 1.0 / z.imag
            )
    assert worst_trace <= 1e-9 * n
    assert worst_norm_excess <= 1e-12
    print(
        f"criterion 8: worst trace gap {worst_trace:.2e} (budget {1e-9 * n:.1e}), "
        f"worst norm excess {worst_norm_excess:.2e}"
    )


def test_public_names_resolve():
    import ckequiv

    missing = [name for name in ckequiv.__all__ if not hasattr(ckequiv, name)]
    assert missing == []
    assert len(set(ckequiv.__all__)) == len(ckequiv.__all__)


PUBLIC_NAMES = [
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
    "__version__",
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
]


def test_public_surface_is_pinned():
    # adding a public name, or dropping one, is a deliberate edit of this list
    import ckequiv

    assert sorted(ckequiv.__all__) == PUBLIC_NAMES


REPO = Path(__file__).resolve().parents[1]

# public names that no module, demo or benchmark calls yet, each with why it stays
UNCALLED_PUBLIC_NAMES = {
    "CovModel": "input of the exact layer-1 covariance for explicit data (ROADMAP item 2)",
    "sigma_expansion": "the exact layer-1 covariance for explicit data (ROADMAP item 2)",
}


def _loaded_names(path: Path) -> set:
    """Names a file reads, as identifiers or attributes.

    A top-level definition's references to its own name, annotations,
    imports and strings (docstrings included) do not count.
    """
    found = set()
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            own = {stmt.name}
        elif isinstance(stmt, ast.Assign):
            own = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
        else:
            own = set()
        hints = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.arg) and node.annotation is not None:
                hints.update(map(id, ast.walk(node.annotation)))
            elif isinstance(node, ast.FunctionDef) and node.returns is not None:
                hints.update(map(id, ast.walk(node.returns)))
            elif isinstance(node, ast.AnnAssign):
                hints.update(map(id, ast.walk(node.annotation)))
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if id(node) not in hints and name not in own:
                found.add(name)
    return found


def test_every_public_name_has_a_caller():
    import ckequiv

    files = [p for p in (REPO / "src" / "ckequiv").glob("*.py") if p.name != "__init__.py"]
    files += sorted((REPO / "demos").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    called = set().union(*(_loaded_names(p) for p in files))
    # __version__ is package metadata, not an API a caller calls
    public = [name for name in ckequiv.__all__ if name != "__version__"]
    uncalled = sorted(name for name in public if name not in called)
    assert uncalled == sorted(UNCALLED_PUBLIC_NAMES)


# public methods and properties that no module, demo or benchmark reads, each with why it stays
UNREAD_PUBLIC_ATTRIBUTES = {
    "Activation.shifted": "the remedy that layer_constants' not-centered error names",
}


def _attribute_reads(path: Path) -> set:
    """Attribute names a file reads, outside any function of the same name."""
    found = set()

    def visit(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own = own | {node.name}
        elif isinstance(node, ast.Attribute) and node.attr not in own:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(ast.parse(path.read_text()), frozenset())
    return found


def test_every_public_method_has_a_reader():
    import ckequiv

    files = sorted((REPO / "src" / "ckequiv").glob("*.py"))
    files += sorted((REPO / "demos").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    read = set().union(*(_attribute_reads(p) for p in files))
    classes = [getattr(ckequiv, name) for name in ckequiv.__all__ if inspect.isclass(getattr(ckequiv, name))]
    unread = sorted(
        f"{cls.__name__}.{attr}"
        for cls in classes
        if cls.__module__.startswith("ckequiv")
        for attr, value in vars(cls).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, (property, staticmethod, classmethod)))
        and attr not in read
    )
    assert unread == sorted(UNREAD_PUBLIC_ATTRIBUTES)


def test_readme_library_tour_runs_as_written():
    readme = (REPO / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "build_chain" in tour
    start = time.perf_counter()
    exec(compile(tour, "README.md (library tour)", "exec"), {})
    print(f"README library tour: ran in {time.perf_counter() - start:.1f}s")
