"""Multiplicative free convolution with a Marchenko-Pastur factor.

For a probability measure mu on the nonnegative reals and an aspect ratio
gamma > 0, let nu = MP(gamma) (x) mu denote the limiting squared-singular-value
distribution of a gamma-shaped Gaussian matrix dressed by mu, and let
nu_check = (1 - gamma) delta_0 + gamma nu be its companion.  Writing
g_rho(z) = integral of 1 / (t - z) rho(dt) for the Stieltjes transform, the
reciprocal transform l(z) = -1 / g_nu_check(z) solves the self-consistent
equation

    l = F(l) = z + gamma l + gamma l^2 g_mu(l),    z in C+,

and is the unique solution in the closed wedge

    D(z) = { w : Im w >= Im z  and  Im(w / z) >= 0 }.

``solve_chain_grid`` below finds it by complex Newton.  From a solution,
the transform of nu itself and its derivative are recovered through

    g_nu(z) = (-1 / l - (gamma - 1) / z) / gamma,
    g_nu'(z) = (l'(z) / l^2 + (gamma - 1) / z^2) / gamma.

A chain of m levels takes one (gamma_k, a_k, b_k) per level, top first;
level k's mu is a_k + b_k inner, so g_mu(l) = g_inner(u) / b_k at
u = (l - a_k) / b_k, and the last inner law, the bottom, gives its own g
and g' (atoms or a closed form) at u_m.  Solving the top level alone would
solve the inner one afresh at every evaluation, so cost would multiply
with depth; ``solve_chain_grid`` instead solves all levels as one system
by complex Newton.  Its Jacobian is tridiagonal and analytic: each
residual depends on its own level, the level above (through its argument,
with derivative 1 / b) and the level below (through
g_inner = (-1 / l_inner - (gamma_inner - 1) / u) / gamma_inner).  A
continuation in Im z, projection onto the wedges and pointwise
backtracking keep every iterate in the wedges, and a point counts once it
meets the tolerance at its requested height with every level in its wedge
D(u_k): the root in D(u_k) being unique level by level, such a point is
the nested solution.  Cost per point is then linear in depth.  A caller
that knows nearby roots may pass a start for every level instead; Newton
then begins from it at the requested height (only a cold start reads the
support radius, to raise its first height), and the certificate is the
same, so a poor start costs a flag, never a wrong value.  Each Newton
step costs some Python overhead whatever its point count, about 0.25 ms on
a chain of four levels (2-vCPU host, numpy 2.4): the state is held for the
points still active only, and a full step that every point accepts becomes
the iterate as it is.  Points are solved independently, so callers batch:
``MpBoxtimes.inversion`` solves a whole density run, every eta's grid and
CDF table, in one cold call and one warm call per finer rung of a ladder
of strides, the warm points starting from roots interpolated between the
points of their table's line solved on the rungs before.  A point's
iterates depend on the other points only through how the bottom's
transform rounds on a batch: a closed-form bottom gives bitwise the same
values however the grid is split, while a discrete one, summed one block
of points at a time, may move the last bits with the batch.

``mp_stieltjes_closed`` provides the independent closed form for mu = delta_1:
g = g_MP(gamma) solves the quadratic gamma z g^2 + (z + gamma - 1) g + 1 = 0,
taking the root with positive imaginary part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DivergenceError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance."""


@dataclass(frozen=True)
class FixedPointConfig:
    tol: float = 1e-12
    max_iter: int = 10_000

    def __post_init__(self):
        if not (0 < self.tol < 1):
            raise ValueError("tol must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


DEFAULT_CONFIG = FixedPointConfig()


def project_domain(l: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Euclidean projection onto D(z) = {Im w >= Im z, Im(w/z) >= 0}.

    D(z) is the intersection of two half-planes whose boundary lines meet
    at z, so the projection is: keep the point if feasible, else project
    onto whichever boundary keeps the other constraint, else return the
    corner z itself.
    """
    l = np.asarray(l, dtype=complex)
    z = np.asarray(z, dtype=complex)
    u = l / z
    in1 = l.imag >= z.imag
    in2 = u.imag >= 0.0
    # candidate from lifting onto {Im w = Im z}, kept when it satisfies H2
    pa = np.where(in1, l, l.real + 1j * z.imag)
    pa_ok = (pa / z).imag >= -1e-15
    # candidate from flattening onto the ray through z, kept when in H1
    pb = z * u.real.astype(complex)
    pb_ok = pb.imag >= z.imag * (1.0 - 1e-15)
    out = np.where(in1 & in2, l, np.where(pa_ok, pa, np.where(pb_ok, pb, z)))
    return out


def in_wedge(l, z) -> np.ndarray:
    """Membership of l in the closed wedge D(z), up to a 1e-12 relative slack."""
    slack = 1e-12
    cross = l.imag * z.real - l.real * z.imag  # |z|^2 Im(l / z)
    return (l.imag >= z.imag * (1.0 - slack)) & (cross >= -slack * np.abs(l) * np.abs(z))


# A continuation stage hands over to the next, lower one at this residual;
# only the last stage, at the requested height, must meet cfg.tol.
_STAGE_TOL = 1e-3
# Newton converges in a few steps from the previous stage's root; a point
# that needs more than this many at one height, or more step halvings in
# one line search, is left uncertified
_STAGE_STEPS = 30
_MAX_HALVINGS = 30
_BLOCK = 2048


def _chain_args(l, z, shifts, scales):
    """Level arguments u_0..u_m: u_0 = z and u_{i+1} = (l_i - a_i) / b_i."""
    u = np.empty((l.shape[0] + 1,) + l.shape[1:], dtype=complex)
    u[0] = z
    u[1:] = (l - shifts) / scales
    return u


def _project_chain(l, z, shifts, scales):
    """Project each level of l onto its wedge in place, top first; returns u_0..u_m.

    u_0 = z and u_{i+1} = (l_i - a_i) / b_i is taken from the projected l_i.
    Only the points outside a wedge reach :func:`project_domain`, which
    would keep every other point as it is.
    """
    u = np.empty((l.shape[0] + 1,) + l.shape[1:], dtype=l.dtype)
    u[0] = z
    for i in range(l.shape[0]):
        out = ~((l[i].imag >= u[i].imag) & ((l[i] / u[i]).imag >= 0.0))
        if out.any():
            l[i, out] = project_domain(l[i, out], u[i, out])
        u[i + 1] = (l[i] - shifts[i]) / scales[i]
    return u


def _chain_system(l, u, gammas, scales, bottom):
    """Residuals and Jacobian bands of the stacked system at l.

    Level i (top first) has residual
    R_i = u_i + (gamma_i - 1) l_i + gamma_i l_i^2 h_i, where h_i is the
    transform of level i's pushed base at l_i, g_{i+1}(u_{i+1}) / b_i: the
    next level's g recovered from l_{i+1}, and for the last level the
    bottom's own ``bottom(u_m)``.  Returns R, the diagonal dR_i/dl_i and the
    upper band dR_i/dl_{i+1}; the lower band dR_{i+1}/dl_i is 1 / b_i.
    """
    g_next = gammas[1:]
    h = np.empty_like(l)
    dh = np.empty_like(l)
    h[:-1] = (-1.0 / l[1:] - (g_next - 1.0) / u[1:-1]) / (g_next * scales[:-1])
    dh[:-1] = (g_next - 1.0) / (g_next * scales[:-1] ** 2 * u[1:-1] ** 2)
    g, dg = bottom(u[-1])
    b_m = float(scales[-1, 0])
    h[-1], dh[-1] = g / b_m, dg / (b_m * b_m)
    gl2 = gammas * l * l
    r = u[:-1] + (gammas - 1.0) * l + gl2 * h
    diag = (gammas - 1.0) + 2.0 * gammas * l * h + gl2 * dh
    upper = gl2[:-1] / (scales[:-1] * g_next * l[1:] ** 2)
    return r, diag, upper


def _thomas(lower, diag, upper, rhs):
    """Solve tridiagonal systems column by column (one per grid point)."""
    m = diag.shape[0]
    c = np.empty_like(upper)
    x = np.empty_like(rhs)
    beta = diag[0]
    x[0] = rhs[0] / beta
    for i in range(1, m):
        c[i - 1] = upper[i - 1] / beta
        beta = diag[i] - lower[i - 1] * c[i - 1]
        x[i] = (rhs[i] - lower[i - 1] * x[i - 1]) / beta
    for i in range(m - 2, -1, -1):
        x[i] -= c[i] * x[i + 1]
    return x


def _scaled_residual(r, l):
    """Per point, max over levels of |R_i| / |l_i|; inf where not finite.

    Relative also where |l_i| < 1, so the stage hand-over and the
    certificate hold near the hard edge at 0: there g = (-1 / l - (gamma - 1)
    / z) / gamma amplifies an error in l by 1 / |l|^2.  The residual is
    taken only at points inside the wedges, where |l_i| >= Im u_i > 0.
    """
    out = np.max(np.abs(r) / np.abs(l), axis=0)
    return np.where(np.isfinite(out), out, np.inf)


def solve_chain_grid(
    gammas, shifts, scales, bottom, z, radius: float, cfg: FixedPointConfig = DEFAULT_CONFIG, start=None
):
    """Stacked Newton solve of a chain of nested companion fixed points.

    Level i = 0..m-1, top first, is MP(gamma_i) (x) base_i, base_i the
    pushforward t -> a_i + b_i t (b_i > 0) of the next level's law, or for
    the last level of the bottom, ``bottom(v) -> (g(v), g'(v))``.  gammas,
    shifts and scales take one entry per level; level i's base is read at
    u_{i+1} = (l_i - a_i) / b_i, down to the bottom's u_m.  All unknowns
    (l_0, ..., l_{m-1}) of a grid point are solved together by complex
    Newton with the tridiagonal analytic Jacobian (one Thomas sweep per
    step for the whole grid).  Without ``start`` it starts cold: at
    l_i = u_i at the raised height Im z = max(Im z, 1, radius / 4), where
    ``radius`` bounds the top law's support, and the height is halved down
    to Im z whenever the residual falls below a stage tolerance.  With
    ``start``, shaped like the returned l, every point begins at its
    requested height from its start projected onto the wedges, with no
    continuation, and ``radius`` is not read.  Every trial step is
    projected onto the wedges D(u_i), top first, and halved pointwise until
    the residual falls.  Points are solved independently: nothing carries
    over between calls, and a point that leaves, certified or not, is
    dropped from the arrays the later steps work on.

    A point is certified when its residual, |R_i| / |l_i| at the worst
    level, meets ``cfg.tol`` at the requested height with every level in
    its wedge D(u_i).  Each level's root in D(u_i) is unique, so, taken
    from the bottom up, a certified point is the nested solution.  One more
    full Newton step then polishes it, kept only where it stays in the
    wedges within ``cfg.tol``: deep down a long chain |l_i| grows like
    b^-i, and the Jacobian's condition number with it, so that step can
    fail on a point that has converged.  ``cfg.max_iter`` caps the Newton
    steps.  Overflow and invalid arithmetic raise no warning: they leave a
    residual that is not finite, and so a flag.

    Returns ``(l, ok, steps)``: l shaped (m,) + z.shape, ok the certificate
    per point (l of an uncertified point is not to be used) and steps the
    Newton steps each point took, ``cfg.max_iter`` where the cap cut it off.
    """
    gammas = np.asarray(gammas, dtype=float)[:, None]
    shifts = np.asarray(shifts, dtype=float)[:, None]
    scales = np.asarray(scales, dtype=float)[:, None]
    if not gammas.shape == shifts.shape == scales.shape:
        raise ValueError("gammas, shifts and scales need one entry per level")
    if np.any(scales <= 0):
        raise ValueError("chain scales must be positive")
    z = np.asarray(z, dtype=complex)
    zf = z.ravel()
    m = gammas.shape[0]
    if start is not None:
        start = np.asarray(start, dtype=complex).reshape(m, zf.size)
    l = np.empty((m, zf.size), dtype=complex)
    ok = np.empty(zf.shape, dtype=bool)
    steps = np.empty(zf.shape, dtype=int)
    # points are independent; blocks bound the working memory
    for first in range(0, zf.size, _BLOCK):
        part = slice(first, first + _BLOCK)
        block_start = None if start is None else start[:, part]
        with np.errstate(all="ignore"):
            l[:, part], ok[part], steps[part] = _newton_block(
                zf[part], gammas, shifts, scales, bottom, radius, cfg, block_start
            )
    return l.reshape((m,) + z.shape), ok.reshape(z.shape), steps.reshape(z.shape)


def _newton_block(zf, gammas, shifts, scales, bottom, radius, cfg, start):
    # The state is kept for the still-active points only, in their order: a
    # point leaves once, certified or not, and its l is written out then.
    m = gammas.shape[0]
    lower_band = 1.0 / scales[:-1]

    def system(l, u):
        # bases are evaluated only at points whose levels all lie in their
        # wedges, where every argument is in the upper half-plane; the
        # residual is inf at every other point
        inside = np.all(in_wedge(l, u[:-1]), axis=0)
        if inside.all():
            r, diag, upper = _chain_system(l, u, gammas, scales, bottom)
            return r, diag, upper, _scaled_residual(r, l)
        full = np.zeros_like(l), np.zeros_like(l), np.zeros_like(l[1:]), np.full(l.shape[1], np.inf)
        part = _chain_system(l[:, inside], u[:, inside], gammas, scales, bottom)
        for a, b in zip(full, part + (_scaled_residual(part[0], l[:, inside]),)):
            a[..., inside] = b
        return full

    if start is None:
        # a cold start is the chain of arguments l_0 = z_c, l_{i+1} = (l_i - a_i) / b_i
        # at the raised height, which lies in every wedge
        height = np.maximum(zf.imag, max(1.0, radius / 4.0))
        zc = zf.real + 1j * height
        l = np.empty((m, zf.size), dtype=complex)
        l[0] = zc
        for i in range(1, m):
            l[i] = (l[i - 1] - shifts[i - 1]) / scales[i - 1]
    else:
        # a warm start begins at the requested height: no continuation
        height = zf.imag.copy()
        zc = zf.copy()
        l = start.copy()
    r, diag, upper, res = system(l, _project_chain(l, zc, shifts, scales))
    l_out = np.empty_like(l)
    ok = np.zeros(zf.shape, dtype=bool)
    steps_out = np.empty(zf.shape, dtype=int)
    cols = np.arange(zf.size)  # each active point's column in l_out
    stage_steps = np.zeros(zf.shape, dtype=int)
    steps = 0
    while True:
        final = height == zf.imag[cols]
        met = res <= np.where(final, cfg.tol, _STAGE_TOL)
        lower = met & ~final
        if lower.any():
            height[lower] = np.maximum(height[lower] / 2.0, zf.imag[cols[lower]])
            stage_steps[lower] = 0
            zc[lower] = zf.real[cols[lower]] + 1j * height[lower]
            # the iterate may lie outside the lowered wedges: project it back
            l_low = l[:, lower]
            u_low = _project_chain(l_low, zc[lower], shifts, scales)
            l[:, lower] = l_low
            r[:, lower], diag[:, lower], upper[:, lower], res[lower] = system(l_low, u_low)
        done = met & final
        stay = ~done & np.isfinite(res) & (stage_steps < _STAGE_STEPS) & (steps < cfg.max_iter)
        if not stay.all():
            l_out[:, cols[~stay]] = l[:, ~stay]
            steps_out[cols[~stay]] = steps
            if done.any():
                # a finite residual lies inside every wedge, so the point is
                # certified; the polishing step is kept where it stays there within tol
                ok[cols[done]] = True
                lt = l[:, done] + _thomas(lower_band, diag[:, done], upper[:, done], -r[:, done])
                ut = _chain_args(lt, zc[done], shifts, scales)
                kept = system(lt, ut)[3] <= cfg.tol
                l_out[:, cols[done][kept]] = lt[:, kept]
            l, r, diag, upper = l[:, stay], r[:, stay], diag[:, stay], upper[:, stay]
            res, height, zc, stage_steps, cols = res[stay], height[stay], zc[stay], stage_steps[stay], cols[stay]
            if not cols.size:
                break
        step = _thomas(lower_band, diag, upper, -r)
        pend = None  # the full step is tried at every point first
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            if pend is None:
                lt, zt, base = l + step, zc, res
            else:
                lt, zt, base = l[:, pend] + t * step[:, pend], zc[pend], res[pend]
            ut = _project_chain(lt, zt, shifts, scales)
            rt, dt, upt, rest = system(lt, ut)
            good = rest <= (1.0 - 1e-4 * t) * base
            if pend is None:
                if good.all():
                    # the common case: the trial becomes the iterate as it is
                    l, r, diag, upper, res = lt, rt, dt, upt, rest
                    break
                pend = np.arange(cols.size)
            keep = pend[good]
            l[:, keep], r[:, keep], diag[:, keep] = lt[:, good], rt[:, good], dt[:, good]
            upper[:, keep], res[keep] = upt[:, good], rest[good]
            pend = pend[~good]
            if not pend.size:
                break
            t /= 2.0
        else:
            # a point whose line search found no acceptable step leaves
            # uncertified, with its pre-step l
            res[pend] = np.inf
        stage_steps += 1
        steps += 1
    return l_out, ok, steps_out


def mp_stieltjes_closed(gamma: float, z):
    """Closed-form Stieltjes transform of the Marchenko-Pastur law MP(gamma).

    Solves gamma z g^2 + (z + gamma - 1) g + 1 = 0 with the numerically
    stable quadratic formula and returns the root in the upper half-plane.
    """
    gamma = float(gamma)
    if not 0 < gamma < np.inf:
        raise ValueError("gamma must be positive and finite")
    z = np.asarray(z, dtype=complex)
    scalar = z.shape == ()
    if not np.all(z.imag > 0):
        raise ValueError("z must lie in the open upper half-plane")
    a = gamma * z
    b = z + gamma - 1.0
    disc = np.sqrt(b * b - 4.0 * a)
    # pick the sign that avoids cancellation in b + s
    s = np.where((np.conj(b) * disc).real >= 0.0, disc, -disc)
    q = -0.5 * (b + s)
    r1 = q / a
    r2 = 1.0 / q
    g = np.where(r1.imag > 0, r1, r2)
    if np.any(g.imag <= 0):
        raise ArithmeticError("no upper-half-plane root found")
    return complex(g) if scalar else g

