"""Square functions in time with the singular weight (t-s)^(beta-1).

For admissible symbol pairs (psi1, psi2) and q >= 2 the square function at
(t, x) collects, over the window s in (a, t), the q-th power of the V-norm
of (L(l) k(t, s, .)) * f(s, .) against the weight (t-s)^(beta-1) with
beta = q*gamma1/gamma2.

The weight is handled by the exact substitution u = (t-s)^beta: the s-mesh
s_k = t - (t-a) (k/K)^(1/beta) becomes uniform panels in u, integrated with
fixed-order Gauss-Legendre per panel.  The first panel is refined
geometrically toward u = 0 because the substitution trades the weight
singularity for a u^(1/beta) Hölder kink of the transformed integrand there.

The core works one output time t at a time and batches its s nodes: the
time interpolation of the field's transform, the window multipliers
exp(integral_s^t psi2) and the product with psi1 are built for a whole batch
of nodes, which then takes one inverse transform.  The window exponents of a
batch come from one :func:`lpevo.evolution.integrated_symbol` call on the
batch's array of s nodes, the one path to the integrated symbol, so the core
holds no symbol-specific code of its own; the frequency factor of psi2 is
evaluated once per G, and the coefficient integrals of a separable psi2 over
the panels that every window ending at t shares once per t, and both are
handed to that call.

Layout.  The field is transformed once, component-major, as a contiguous
(T, m, n^d..., 1) array whose trailing singleton is the component axis of
the (..., *spatial, component) convention, so each V component of a batch is
its own contiguous transform.  When the field is real and the multipliers
are Hermitian, m(-xi) = conj m(xi) for psi1 at every symbol time and for
psi2's frequency factor, u is real: the core then keeps the Hermitian half
of the lattice, the indices 0..n/2 of the last spatial axis, and inverts
through ``lattice_inverse(..., real=True)``.  Anything else, a psi2 with no
frequency factor included, keeps the full lattice.  Every batch inverts
bare, ``lattice_inverse(..., bare=True)``: the FFT alone, without the parity
signs and the scale s = (2 pi)^(-d/2) dxi^d.  The transformed field is
multiplied by s once per G, so a batch's bare inverse is u times a sign
(-1)^(j_1 + ... + j_d) on the lattice shifted by half a period; |u|_V drops
the sign, and the sums over nodes stay on the shifted lattice until all
output times are done, when ``grid._bare_to_lattice``, one roll by n/2 per
spatial axis, puts G in place.  The time step
f_hat[j+1] - f_hat[j] is taken once, and a node's transform is
f_hat[j] + lambda * step[j], with j and lambda taken once per output time
for all of its nodes.  A batch holds at most _CHUNK_ENTRIES complex
entries (nodes x lattice points x V components) in two work arrays
allocated once per G; it is inverted in place, or on the half lattice into
the floats of the second array, so memory stays flat however many nodes the
quadrature has.

Arithmetic.  The Hermitian tests, like the tests for an imaginary part that
is exactly zero, are exact, not tolerances.  Where psi1 on the lattice or a
batch's window exponents are real, only the real part is kept, so exp and
the products run on real arrays; a complex symbol keeps the complex path.
|u|_V^2 is the sum over components of u^2 on the half lattice and of
re^2 + im^2 on the full one, added component by component into one array;
its power q/2 is x sqrt(x) for q = 3, x^2 sqrt(x) for q = 5, none for
q = 2, and pow otherwise.  The per-node terms
are summed in node order, the running sum added into the first term of each
batch, so G is bit-identical whatever the batch size.  Against the signed,
scaled inverse, the bare one moves G by a few units of roundoff: at most
1.2e-15 relative, pointwise, on the benchmark's workloads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from lpevo.grid import (
    SpaceTimeField, SpectralGrid, _bare_to_lattice, _inverse_scale, lattice_forward, lattice_inverse, lp_norm,
)
from lpevo.symbols import SymbolSpec
from lpevo.evolution import (
    _frequency_factor,
    _gl_rule,
    _shared_panels,
    integrated_symbol,
    symbol_on_lattice,
)

__all__ = [
    "QuadratureSpec",
    "GFunctionResult",
    "graded_quadrature",
    "g_function",
    "g_tilde",
    "g_lp_norm",
]

# complex entries (nodes x lattice points x V components) per batched inverse
# transform; larger batches buy little speed for their memory
_CHUNK_ENTRIES = 2**14
# ratio of the geometric refinement of the panel touching s = t
_SPLIT_RATIO = 4.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs of the graded window quadrature.

    panels: number K of graded panels (mesh nodes s_k, k = 0..K).
    order: Gauss-Legendre points per panel.
    split_levels: geometric refinements, by the ratio _SPLIT_RATIO, of the
    panel touching s = t.
    """

    panels: int = 64
    order: int = 8
    split_levels: int = 16


def graded_quadrature(
    a: float, t: float, beta: float, quad: QuadratureSpec = QuadratureSpec()
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights with sum_i w_i g(s_i) ~= int_a^t (t-s)^(beta-1) g(s) ds.

    Exact substitution u = (t-s)^beta; panel edges are the graded mesh
    u_k = (t-a)^beta * k/K, i.e. s_k = t - (t-a)(k/K)^(1/beta).
    """
    if t <= a:
        raise ValueError("window requires t > a")
    if beta <= 0:
        raise ValueError("weight exponent beta must be positive")
    big_u = (t - a) ** beta
    first = big_u / quad.panels
    sub = [first * _SPLIT_RATIO**-j for j in range(quad.split_levels, 0, -1)]
    edges = np.concatenate(([0.0], sub, big_u * np.arange(1, quad.panels + 1) / quad.panels))
    z, w = _gl_rule(quad.order)
    ua, ub = edges[:-1, None], edges[1:, None]
    mid, half = (ua + ub) / 2.0, (ub - ua) / 2.0
    s_nodes = (t - (mid + half * z) ** (1.0 / beta)).ravel()
    w_nodes = (half * w / beta).ravel()
    # guard against roundoff pushing a node to exactly t or below a
    s_nodes = np.clip(s_nodes, a, np.nextafter(t, a))
    return s_nodes, w_nodes


@dataclass(frozen=True)
class GFunctionResult:
    """Square-function samples G(t_i, x_j) >= 0 on ``grid``, of exponent
    ``q``: what the L^p norm of G needs."""

    grid: SpectralGrid
    q: float
    values: np.ndarray

    def __post_init__(self):
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            raise ValueError("square-function values must be finite and nonnegative")


def _real_if_exact(x: np.ndarray | None) -> np.ndarray | None:
    """x.real when every imaginary part of x is exactly zero, else x.

    An exact test, not a tolerance: complex symbols keep the complex path."""
    return x.real if np.iscomplexobj(x) and not np.any(x.imag) else x


def _hermitian(x: np.ndarray, d: int) -> bool:
    """Whether x(-xi) = conj x(xi) exactly on the trailing d lattice axes.

    The storage index c pairs with n - c mod n, so the self-paired Nyquist
    (c = 0) and zero (c = n/2) entries must be real.  An exact test, not a
    tolerance."""
    axes = tuple(range(x.ndim - d, x.ndim))
    return bool(np.array_equal(np.roll(np.flip(x, axes), 1, axes), np.conj(x)))


def _half_power(x: np.ndarray, q: float) -> None:
    """x^(q/2) in place, for x >= 0: x sqrt(x) for q = 3 and x^2 sqrt(x) for
    q = 5, since numpy squares without pow and pow costs about twice a square
    root and a product; pow for any other q but 2.  From q = 7 on, x^3 is a
    pow itself and x^k sqrt(x) is slower than one pow."""
    if q in (3.0, 5.0):
        root = np.sqrt(x)
        if q == 5.0:
            np.square(x, out=x)
        x *= root
    elif q != 2.0:
        x **= q / 2.0


def _g_core(
    f: SpaceTimeField, psi1: SymbolSpec, psi2: SymbolSpec, l: float | None, a: float, q: float, quad: QuadratureSpec
) -> GFunctionResult:
    """G f, with psi1 frozen at symbol time l, or at the output time if l is None."""
    if q < 2:
        raise ValueError(f"square function requires q >= 2, got {q}")
    grid = f.grid
    # tolerances relative to the time span, so they hold in any time unit
    span = grid.b - grid.a
    if a < grid.a - 1e-12 * span:
        raise ValueError("window start lies before the first time node")
    beta = q * psi1.gamma / psi2.gamma
    t_grid = grid.t_grid
    live = np.flatnonzero(t_grid > a + 1e-15 * span)  # the output times after a
    spatial = grid.spatial_shape()
    # component-major (T, m, spatial..., 1): each V component is a contiguous
    # transform, and the trailing singleton is the transform's component axis
    f_hat = lattice_forward(np.ascontiguousarray(np.moveaxis(f.values, -1, 1))[..., None], grid)
    xi = grid.freq_vectors()
    # psi2's frequency factor and a frozen psi1 are evaluated once per G, a
    # psi1 that tracks the output time once per t
    factor2 = _frequency_factor(psi2, xi)
    if l is None:
        mults1 = (symbol_on_lattice(psi1, float(t_grid[i]), grid) for i in live)
    else:
        mults1 = [symbol_on_lattice(psi1, l, grid)]
    # the Hermitian half of the lattice serves while u stays real
    real = not np.any(f.values.imag) and factor2 is not None and _hermitian(factor2, grid.d)
    if real:
        mults1 = list(mults1)
        real = all(_hermitian(m, grid.d) for m in mults1)
    cut = (..., slice(grid.n // 2 + 1 if real else grid.n))
    f_hat = np.ascontiguousarray(f_hat[cut + (slice(None),)])
    # the scale s that each batch's bare inverse leaves out, taken once per G:
    # u, and so |u|^q, keeps the range of the signed inverse
    f_hat *= _inverse_scale(grid)
    xi = xi[cut + (slice(None),)]
    factor2 = _real_if_exact(None if factor2 is None else factor2[cut])
    mults1 = (_real_if_exact(m[cut]) for m in mults1)
    if l is not None:
        mults1 = itertools.repeat(next(mults1))
    step = f_hat[1:] - f_hat[:-1]
    lattice = f_hat.shape[2:-1]
    chunk = max(1, _CHUNK_ENTRIES // (math.prod(lattice) * f.m))
    # batch work arrays, allocated once per G: fresh ones would page-fault on
    # every batch
    rows = (min(chunk, (quad.panels + quad.split_levels) * quad.order),) + f_hat.shape[1:]
    spec_buf, rows_buf = np.empty(rows, dtype=complex), np.empty(rows, dtype=complex)
    # on the half lattice the real u of a batch goes to the floats of
    # rows_buf, whose transform rows are spent by then
    field_floats = rows_buf.view(float).reshape(-1)
    out = np.zeros((len(t_grid),) + spatial)
    for i, mult1 in zip(live, mults1):
        t = float(t_grid[i])
        shared = _shared_panels(psi2, a, t)
        s_nodes, w_nodes = graded_quadrature(a, t, beta, quad)
        idx = np.clip(np.searchsorted(t_grid, s_nodes, side="right") - 1, 0, len(t_grid) - 2)
        lam = (s_nodes - t_grid[idx]) / (t_grid[idx + 1] - t_grid[idx])
        acc = np.zeros(spatial)
        for lo in range(0, len(s_nodes), chunk):
            nodes = slice(lo, lo + chunk)
            s, w = s_nodes[nodes], w_nodes[nodes]
            # f_hat(s) = f_hat[idx] + lam * step[idx], times the batch multipliers
            spec = np.take(step, idx[nodes], axis=0, out=spec_buf[: len(s)], mode="clip")
            spec *= lam[nodes].reshape((-1,) + (1,) * (spec.ndim - 1))
            spec += np.take(f_hat, idx[nodes], axis=0, out=rows_buf[: len(s)], mode="clip")
            expo = _real_if_exact(integrated_symbol(psi2, s, t, xi, factor2, shared))
            spec *= (mult1 * np.exp(expo, out=expo)).reshape((len(s), 1) + lattice + (1,))
            if real:
                # |u|_V^2 = sum over components of u^2
                field = field_floats[: len(s) * f.m * math.prod(spatial)]
                u = lattice_inverse(spec, grid, out=field.reshape((len(s), f.m) + spatial + (1,)), real=True, bare=True)
                np.square(u, out=u)
                terms = np.sum(u[..., 0], axis=1)
            else:
                # |u|_V^2 = sum over components of re^2 + im^2
                sq = lattice_inverse(spec, grid, out=spec, bare=True).view(float)
                np.square(sq, out=sq)
                terms = np.add(sq[:, 0, ..., 0], sq[:, 0, ..., 1])
                for c in range(1, f.m):
                    terms += sq[:, c, ..., 0]
                    terms += sq[:, c, ..., 1]
            # w |u|_V^q in place: batch temporaries set the peak memory of G
            _half_power(terms, q)
            terms *= w.reshape((-1,) + (1,) * grid.d)
            # adding acc into the first term keeps the node-by-node sum order
            terms[0] += acc
            acc = np.sum(terms, axis=0)
        out[i] = acc
    # the bare inverse leaves u on the lattice shifted by half a period: the
    # shift is undone once per G, into out, as a result allocated after the
    # batch temporaries would fragment the heap of a caller that keeps many
    np.power(_bare_to_lattice(out, grid), 1.0 / q, out=out)
    return GFunctionResult(grid=grid, q=q, values=out)


def g_function(
    f: SpaceTimeField,
    psi1: SymbolSpec,
    psi2: SymbolSpec,
    l: float,
    a: float,
    q: float,
    quad: QuadratureSpec = QuadratureSpec(),
) -> GFunctionResult:
    """Square function with the symbol time frozen at l."""
    return _g_core(f, psi1, psi2, l, a, q, quad)


def g_tilde(
    f: SpaceTimeField,
    psi1: SymbolSpec,
    psi2: SymbolSpec,
    a: float,
    q: float,
    quad: QuadratureSpec = QuadratureSpec(),
) -> GFunctionResult:
    """Square function with the symbol time tracking the outer time."""
    return _g_core(f, psi1, psi2, None, a, q, quad)


def g_lp_norm(g: GFunctionResult, p: float) -> float:
    """Space-time L^p norm of the square function for finite p; the
    estimates require p >= q."""
    if not g.q <= p < np.inf:
        raise ValueError(f"p must be finite and >= q = {g.q}, got {p}")
    return lp_norm(g.values, g.grid, p)
