"""Checks of the estimate's outputs, made apart from the program.

Each check returns a ``Check`` with the worst error it saw and the tolerance
it held that error to.  The oracles are closed forms, Parseval's identity,
an exact scaling law, a brute-force sharp function and properties the
method must have; none compares with a stored copy of earlier output.

Tolerances:

- Quadrature: the graded Gauss-Legendre rule is held to 1e-6 relative
  against the incomplete-gamma oracle by the repository's own tests, so the
  single-mode closed forms are held to ``QUAD_RTOL = 1e-6``.
- Roundoff: Parseval, dilation and the brute-force sharp function repeat
  the same arithmetic in another order, over sums of at most a few thousand
  terms, so they are held to ``ROUND_RTOL = 1e-11`` relative to the largest
  value compared (about 5e4 double-precision epsilons).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad as scipy_quad
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc

from lpevo.gfunction import QuadratureSpec, graded_quadrature
from lpevo.grid import SpaceTimeField, make_grid
from lpevo.maximal import build_filtration_levels, containment_radius

from estimate import EstimateOutputs, square_function
from workloads import Spec, SymbolParams, Workload, band_limited_values, build_symbol

QUAD_RTOL = 1e-6
ROUND_RTOL = 1e-11


@dataclass(frozen=True)
class Check:
    name: str
    error: float
    tol: float

    @property
    def ok(self) -> bool:
        return bool(np.isfinite(self.error)) and self.error <= self.tol


# -- closed forms of the power symbols ----------------------------------------

def coeff(p: SymbolParams, t):
    """Time coefficient of psi: psi(t, xi) = coeff(t) |xi|^gamma."""
    return -(p.kappa + p.amp * np.exp(-p.rate * np.asarray(t, dtype=float)))


def coeff_integral(p: SymbolParams, s, t):
    """int_s^t coeff(r) dr in closed form (s, t >= 0)."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    out = -p.kappa * (t - s)
    if not p.static:
        out = out - p.amp / p.rate * (np.exp(-p.rate * s) - np.exp(-p.rate * t))
    return out


def psi1_time(spec: Spec, t: float) -> float:
    """Time at which psi1 is evaluated: frozen at 0 for g_function."""
    return t if spec.variant == "g_tilde" else 0.0


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / scale if scale > 0 else math.inf


# -- single mode ---------------------------------------------------------------

def single_mode_window(spec: Spec, a: float, t: float, xi_norm: float) -> float:
    """int_a^t (t-s)^(beta-1) exp(q int_s^t Re psi2(r, xi) dr) ds."""
    q, p2 = spec.q, spec.psi2
    beta = q * spec.psi1.gamma / p2.gamma
    if p2.static:
        c = q * p2.kappa * xi_norm**p2.gamma
        return float(gamma_fn(beta) * gammainc(beta, c * (t - a)) / c**beta)
    scale = q * xi_norm**p2.gamma
    val, _ = scipy_quad(
        lambda s: np.exp(scale * coeff_integral(p2, s, t)),
        a,
        t,
        weight="alg",
        wvar=(0.0, beta - 1.0),
        epsabs=0.0,
        epsrel=1e-13,
        limit=200,
    )
    return float(val)


def check_single_mode(w: Workload, wave: tuple[int, ...] = (3, 1)) -> Check:
    """G of f = exp(i xi0.x) v, constant in time, against its closed form."""
    spec, grid = w.spec, w.grid
    k = np.asarray(wave[: spec.d])
    xi0 = np.pi * k / grid.half_length
    axes = np.meshgrid(*([grid.x] * spec.d), indexing="ij")
    phase = np.exp(1j * sum(xi * x for xi, x in zip(xi0, axes)))
    v = np.arange(1, spec.m + 1) * (1.0 - 0.5j)
    vals = np.broadcast_to(phase[None, ..., None] * v, w.field.values.shape)
    g = square_function(spec, SpaceTimeField(grid, spec.m, vals), w.psi1, w.psi2, w.a).values
    xn = float(np.linalg.norm(xi0))
    want = np.zeros(len(grid.t_grid))
    tol = QUAD_RTOL
    for i, t in enumerate(grid.t_grid):
        if t > w.a:
            amp = abs(coeff(spec.psi1, psi1_time(spec, t))) * xn**spec.psi1.gamma
            window = single_mode_window(spec, w.a, float(t), xn)
            want[i] = amp * np.linalg.norm(v) * window ** (1.0 / spec.q)
            tol = max(tol, quadrature_tolerance(spec, w.a, float(t), xn, window))
    want = np.broadcast_to(want.reshape((-1,) + (1,) * spec.d), g.shape)
    # G vanishes exactly where the window is empty
    rel = np.abs(g - want) / np.where(want > 0, want, 1.0)
    err = np.where(want > 0, rel, np.where(g == 0, 0.0, math.inf))
    return Check("single_mode", float(np.max(err)), tol)


def quadrature_tolerance(spec: Spec, a: float, t: float, xi_norm: float, exact: float) -> float:
    """Relative error bound on G for the workload's window rule.

    The default rule is held to QUAD_RTOL.  Another rule is within
    |rule - default rule| + QUAD_RTOL of the exact window integral, and G,
    a q-th root, has at most that relative error.  The slack covers roundoff.
    """
    if spec.quad == QuadratureSpec():
        return QUAD_RTOL
    beta = spec.q * spec.psi1.gamma / spec.psi2.gamma
    scale = spec.q * xi_norm**spec.psi2.gamma

    def rule(quad: QuadratureSpec) -> float:
        s, wts = graded_quadrature(a, t, beta, quad)
        return float(np.sum(wts * np.exp(scale * coeff_integral(spec.psi2, s, t))))

    return 1.01 * abs(rule(spec.quad) - rule(QuadratureSpec())) / exact + QUAD_RTOL + ROUND_RTOL


# -- Parseval (q = 2) -------------------------------------------------------------

def parseval_energy(w: Workload) -> np.ndarray:
    """sum_x G(t, x)^2 dx^d per time node, on the frequency side.

    For q = 2, G(t, x)^2 = sum_s w_s |L T(t, s) f(s)|^2(x), so its spatial
    sum is sum_s w_s sum_xi |psi1|^2 |exp int_s^t psi2|^2 |f^(s, xi)|^2 dxi^d.
    f^ comes from numpy's FFT, linearly interpolated between time nodes as
    the method defines f between nodes; no inverse transform is used.
    """
    spec, grid = w.spec, w.grid
    d, dx = spec.d, grid.dx
    axes = tuple(range(1, d + 1))
    norm = (2.0 * np.pi) ** (-d / 2.0) * dx**d
    fhat = norm * np.fft.fftn(w.field.values, axes=axes)
    k = np.fft.fftfreq(grid.n, d=dx) * 2.0 * np.pi
    mesh = np.meshgrid(*([k] * d), indexing="ij")
    xi_norm = np.sqrt(sum(m**2 for m in mesh))
    dxi = np.pi / grid.half_length
    beta = spec.q * spec.psi1.gamma / spec.psi2.gamma
    t_grid = grid.t_grid
    out = np.zeros(len(t_grid))
    for i, t in enumerate(t_grid):
        if t <= w.a:
            continue
        s, wts = graded_quadrature(w.a, float(t), beta, spec.quad)
        idx = np.clip(np.searchsorted(t_grid, s, side="right") - 1, 0, len(t_grid) - 2)
        lam = ((s - t_grid[idx]) / (t_grid[idx + 1] - t_grid[idx])).reshape((-1,) + (1,) * (d + 1))
        fs = (1.0 - lam) * fhat[idx] + lam * fhat[idx + 1]  # (S, n^d..., m)
        energy = np.sum(np.abs(fs) ** 2, axis=-1)
        l1 = coeff(spec.psi1, psi1_time(spec, t)) * xi_norm**spec.psi1.gamma
        decay = np.exp(
            2.0
            * coeff_integral(spec.psi2, s, float(t)).reshape((-1,) + (1,) * d)
            * xi_norm**spec.psi2.gamma
        )
        per_node = np.sum(np.abs(l1) ** 2 * decay * energy, axis=axes)
        out[i] = float(np.sum(wts * per_node)) * dxi**d
    return out


def check_parseval(w: Workload, out: EstimateOutputs) -> Check:
    space = tuple(range(1, w.spec.d + 1))
    got = np.sum(out.g**2, axis=space) * w.grid.cell_volume()
    return Check("parseval", _rel_err(got, parseval_energy(w)), ROUND_RTOL)


# -- exact parabolic dilation ------------------------------------------------------

def check_dilation(spec: Spec, seed: int, lam: float = 2.0, n: int = 16, nt: int = 8) -> Check:
    """G on the lam-dilated grid and field equals G on the original.

    With f_lam(s, x) = f(lam^gamma2 s, lam x), G f_lam(t, x) = lam^(q gamma1 -
    gamma2 beta) G f(lam^gamma2 t, lam x), and the factor is 1 since
    beta = q gamma1 / gamma2.  On the lattice the dilated grid has half
    length L / lam and times t / lam^gamma2, with the same samples.  Power
    symbols with time-independent coefficients only.
    """
    small = make_grid(spec.d, n, spec.half_length, (np.arange(nt) + 0.5) / nt)
    tscale = lam ** spec.psi2.gamma
    dilated = make_grid(spec.d, n, spec.half_length / lam, small.t_grid / tscale)
    small_spec = replace(spec, n=n, t_nodes=tuple(small.t_grid), band=n // 4)
    vals = band_limited_values(small_spec, seed)
    psi1, psi2 = build_symbol(spec.psi1, spec.d), build_symbol(spec.psi2, spec.d)
    g = square_function(spec, SpaceTimeField(small, spec.m, vals), psi1, psi2, small.a).values
    g_lam = square_function(spec, SpaceTimeField(dilated, spec.m, vals), psi1, psi2, dilated.a).values
    return Check("dilation", _rel_err(g_lam, g), ROUND_RTOL)


# -- step 2 and the maximal function -------------------------------------------

def _periodic_window(n: int, half: int) -> np.ndarray:
    """W[j, j'] = how often cell j' lies in the window j-half..j+half mod n."""
    offsets = np.arange(-half, half + 1)
    w = np.zeros((n, n))
    for j in range(n):
        np.add.at(w[j], (j + offsets) % n, 1.0)
    return w


def centred_oscillation(values: np.ndarray, d: int, mt: int, mx: int) -> np.ndarray:
    """Brute-force mean oscillation over the centred (2mt+1) x (2mx+1)^d
    window at every cell: time extends by zero, space wraps with period n."""
    T = values.shape[0]
    n = values.shape[1]
    flat = values.reshape(T, -1)
    wx = _periodic_window(n, mx)
    if d == 2:
        wx = np.kron(wx, wx)
    rows = np.arange(T)
    wt = (np.abs(rows[:, None] - rows[None, :]) <= mt).astype(float)
    side = (2 * mx + 1) ** d
    cells = (2 * mt + 1) * side
    outside = (2 * mt + 1 - wt.sum(axis=1)) * side  # zero cells per row
    mu = wt @ flat @ wx.T / cells
    osc = np.empty_like(mu)
    for i in range(T):
        dev = np.abs(flat[None, :, :] - mu[i][:, None, None])  # (S, T, S')
        inside = np.einsum("t,jts,js->j", wt[i], dev, wx)
        osc[i] = (inside + outside[i] * np.abs(mu[i])) / cells
    return osc.reshape(values.shape)


def check_domination(w: Workload, out: EstimateOutputs) -> list[Check]:
    """Filtration sharp <= 2 N1^2 x cube sharp over the containment ladder,
    with N1 recomputed from the ladder windows."""
    grid, gamma, d = w.grid, w.spec.gamma, w.spec.d
    dt = float(grid.t_grid[1] - grid.t_grid[0])
    qsharp = np.zeros_like(out.g)
    n1 = 0.0
    shapes = set()
    for level in build_filtration_levels(grid, gamma):
        r = containment_radius(level, grid)
        # cells whose centre lies strictly inside the open window
        mt = math.ceil(r / dt) - 1
        mx = math.ceil(r ** (1.0 / gamma) / grid.dx) - 1
        q_meas = (2 * mt + 1) * dt * ((2 * mx + 1) * grid.dx) ** d
        n1 = max(n1, q_meas / level.cube_measure(d))
        shapes.add((mt, mx))
    for mt, mx in sorted(shapes):
        qsharp = np.maximum(qsharp, centred_oscillation(out.g, d, mt, mx))
    bound = 2.0 * out.n1**2 * qsharp
    scale = float(np.max(out.fsharp))
    excess = float(np.max(out.fsharp - bound)) / scale
    return [
        Check("n1", abs(out.n1 - n1) / n1, ROUND_RTOL),
        Check("filtration_domination", max(excess, 0.0), ROUND_RTOL),
    ]


def check_properties(w: Workload, out: EstimateOutputs) -> list[Check]:
    h = np.sum(np.abs(w.field.values) ** 2, axis=-1) ** (w.spec.q / 2.0)
    below = float(np.max(h - out.mh)) / float(np.max(h))
    ratios = np.array(list(out.ratios.values()) + ([out.n1] if out.n1 is not None else []))
    bad = np.sum(~(np.isfinite(ratios) & (ratios > 0)))
    return [
        Check("maximal_dominates", max(below, 0.0), ROUND_RTOL),
        Check("ratios_finite_positive", float(bad), 0.0),
    ]


def check_outputs(w: Workload, out: EstimateOutputs) -> list[Check]:
    """Every check of one estimate's outputs."""
    checks = check_properties(w, out)
    if w.spec.q == 2.0:
        checks.append(check_parseval(w, out))
    if w.spec.sharp:
        checks += check_domination(w, out)
    return checks


def check_program(w: Workload, seed: int) -> list[Check]:
    """Field-independent oracles on the workload's grid, symbols and quadrature."""
    checks = [check_single_mode(w)]
    if w.spec.psi1.static and w.spec.psi2.static and w.spec.d == 1:
        checks.append(check_dilation(w.spec, seed))
    return checks
