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

The core works one output time t at a time and batches its s nodes: a
batch takes the time interpolation of the field's transform, the product
with its window multipliers exp(integral_s^t psi2) psi1 and one inverse
transform.  The window exponents come from one
:func:`lpevo.evolution.integrated_symbol` call on an array of s nodes, the
one path to the integrated symbol, so the core holds no symbol-specific
code of its own; the frequency factor of psi2 is taken once per G and
handed to that call.

Layout.  What runs how often:
- per G: the forward transform, the time step f_hat[j+1] - f_hat[j], psi2's
  frequency factor, a frozen psi1 or the stack of psi1 at every output time
  with one Hermitian test of it, and the final root;
- per output time: the quadrature, the interval index j and the weight
  lambda of every node, so that a node's transform is
  f_hat[j] + lambda * step[j];
- per block of nodes: the window multipliers, from one integrated_symbol
  call, one exp and one product with psi1.  A block holds whole batches and
  at most _BLOCK_ENTRIES nodes x lattice points, one batch if a batch is
  larger, which is a whole output time on every benchmark grid; a generic
  psi2, with no time and frequency split, holds 8 complex panel values per
  block entry while its block is integrated;
- per batch: at most _CHUNK_ENTRIES complex entries (nodes x lattice points
  x V components), the interpolated transform times the block's multipliers
  in two work arrays, grown to the largest batch the quadrature gives and
  kept for the rest of G, one inverse transform and the sum of w |u|_V^q.
Blocks and batches are capped, so memory stays flat however many nodes the
quadrature has.

The field is transformed component-major, as a contiguous (T, m, n^d..., 1)
array whose trailing singleton is the component axis of the
(..., *spatial, component) convention, so each V component of a batch is
its own contiguous transform.  When the field is real and the multipliers
are Hermitian, m(-xi) = conj m(xi) for psi1 at every symbol time and for
psi2's frequency factor, u is real: the core then keeps the Hermitian half
of the lattice, the indices 0..n/2 of the last spatial axis, from the zero
frequency to the Nyquist in the lattice's FFT order, and inverts through
``lattice_inverse(..., real=True)``.  Anything else, a psi2 with no
frequency factor included, keeps the full lattice.  A batch is inverted in
place, or on the half lattice into the floats of the second work array.

Arithmetic.  The Hermitian tests, like the tests for an imaginary part that
is exactly zero, are exact, not tolerances.  Where psi1 on the lattice or a
block's window exponents are real, only the real part is kept, so exp and
the products run on real arrays; a complex symbol keeps the complex path.
|u|_V^2 is the sum over components of u^2 on the half lattice and of
re^2 + im^2 on the full one, added component by component into one array;
its power q/2 is x sqrt(x) for q = 3, none for q = 2, and pow otherwise.
The per-node terms are summed in node order, the running sum added into the
first term of each batch, so G is bit-identical whatever the batch and
block sizes.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from lpevo.grid import SpaceTimeField, SpectralGrid, lattice_forward, lattice_inverse, lp_norm
from lpevo.symbols import SymbolSpec
from lpevo.evolution import _frequency_factor, _gl_rule, integrated_symbol, symbol_on_lattice

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
# nodes x lattice points per block of window multipliers, which one
# integrated_symbol call, one exp and one product with psi1 build: a whole
# output time on the benchmark grids (640 x 64 entries at most), while the
# block, 1 MiB complex, and a generic psi2's 8 panel values per entry, 8 MiB,
# keep memory flat in the node count
_BLOCK_ENTRIES = 2**16
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

    def __post_init__(self):
        for name, least in (("panels", 1), ("order", 1), ("split_levels", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def graded_quadrature(
    a: float, t: float, beta: float, quad: QuadratureSpec = QuadratureSpec()
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights with sum_i w_i g(s_i) ~= int_a^t (t-s)^(beta-1) g(s) ds.

    Exact substitution u = (t-s)^beta; panel edges are the graded mesh
    u_k = (t-a)^beta * k/K, i.e. s_k = t - (t-a)(k/K)^(1/beta).
    """
    if not -np.inf < a < t < np.inf:
        raise ValueError(f"window requires finite a < t, got a={a}, t={t}")
    if not 0 < beta < np.inf:
        raise ValueError(f"weight exponent beta must be positive and finite, got {beta}")
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

    In FFT order the index c pairs with n - c mod n, so the self-paired zero
    (c = 0) and Nyquist (c = n/2) entries must be real.  An exact test, not a
    tolerance."""
    axes = tuple(range(x.ndim - d, x.ndim))
    return bool(np.array_equal(np.roll(np.flip(x, axes), 1, axes), np.conj(x)))


def _half_power(x: np.ndarray, q: float) -> None:
    """x^(q/2) in place, for x >= 0: x sqrt(x) for q = 3, since pow costs
    about twice a square root and a product; pow for any other q but 2."""
    if q == 3.0:
        x *= np.sqrt(x)
    elif q != 2.0:
        x **= q / 2.0


def _g_core(
    f: SpaceTimeField, psi1: SymbolSpec, psi2: SymbolSpec, l: float | None, a: float, q: float, quad: QuadratureSpec
) -> GFunctionResult:
    """G f, with psi1 frozen at symbol time l, or at the output time if l is None."""
    if not 2 <= q < np.inf:
        raise ValueError(f"square function requires 2 <= q < inf, got {q}")
    if not np.isfinite(a):
        raise ValueError(f"window start must be finite, got {a}")
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
    # psi1 that tracks the output time once per t, stacked in the lattice's
    # shape even when no output time follows a
    factor2 = _frequency_factor(psi2, xi)
    times1 = t_grid[live] if l is None else [l]
    mults1 = np.reshape([symbol_on_lattice(psi1, float(t), grid) for t in times1], (len(times1),) + spatial)
    # the Hermitian half of the lattice serves while u stays real
    real = (
        not np.any(f.values.imag)
        and factor2 is not None
        and _hermitian(factor2, grid.d)
        and _hermitian(mults1, grid.d)
    )
    cut = (..., slice(grid.n // 2 + 1 if real else grid.n))
    f_hat = np.ascontiguousarray(f_hat[cut + (slice(None),)])
    xi = xi[cut + (slice(None),)]
    factor2 = _real_if_exact(None if factor2 is None else factor2[cut])
    mults1 = (_real_if_exact(m) for m in mults1[cut])
    if l is not None:
        mults1 = itertools.repeat(next(mults1))
    step = f_hat[1:] - f_hat[:-1]
    lattice = f_hat.shape[2:-1]
    chunk = max(1, _CHUNK_ENTRIES // (math.prod(lattice) * f.m))
    # a block of window multipliers holds whole batches
    block = chunk * max(1, _BLOCK_ENTRIES // (chunk * math.prod(lattice)))
    # batch work arrays, grown to the largest batch: fresh ones would
    # page-fault on every batch
    spec_buf = rows_buf = np.empty((0,) + f_hat.shape[1:], dtype=complex)
    mult_buf = np.empty(0)  # the block's multipliers, grown likewise
    out = np.zeros((len(t_grid),) + spatial)
    for i, mult1 in zip(live, mults1):
        t = float(t_grid[i])
        s_nodes, w_nodes = graded_quadrature(a, t, beta, quad)
        idx = np.clip(np.searchsorted(t_grid, s_nodes, side="right") - 1, 0, len(t_grid) - 2)
        lam = (s_nodes - t_grid[idx]) / (t_grid[idx + 1] - t_grid[idx])
        if len(spec_buf) < min(chunk, len(s_nodes)):
            shape = (min(chunk, len(s_nodes)),) + f_hat.shape[1:]
            spec_buf, rows_buf = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
            # on the half lattice the real u of a batch goes to the floats of
            # rows_buf, whose transform rows are spent by then
            field_floats = rows_buf.view(float).reshape(-1)
        acc = np.zeros(spatial)
        for start in range(0, len(s_nodes), block):
            # the window multipliers exp(integral_s^t psi2) psi1 of a block go
            # to a work array kept for the rest of G, as a fresh one would
            # page-fault on every block; the exponents are dropped before the
            # batches, so at most two blocks are held at once
            expo = _real_if_exact(integrated_symbol(psi2, s_nodes[start : start + block], t, xi, factor2))
            dtype = np.result_type(expo, mult1)
            if len(mult_buf) < len(expo) or mult_buf.dtype != dtype:
                mult_buf = np.empty(expo.shape, dtype)
            mults = np.exp(expo, out=mult_buf[: len(expo)])
            del expo
            mults *= mult1
            for lo in range(start, start + len(mults), chunk):
                nodes = slice(lo, lo + chunk)
                w = w_nodes[nodes]
                size = len(w)
                # f_hat(s) = f_hat[idx] + lam * step[idx], times the batch multipliers
                spec = np.take(step, idx[nodes], axis=0, out=spec_buf[:size], mode="clip")
                spec *= lam[nodes].reshape((-1,) + (1,) * (spec.ndim - 1))
                spec += np.take(f_hat, idx[nodes], axis=0, out=rows_buf[:size], mode="clip")
                spec *= mults[lo - start : lo - start + size].reshape((size, 1) + lattice + (1,))
                if real:
                    # |u|_V^2 = sum over components of u^2
                    field = field_floats[: size * f.m * math.prod(spatial)]
                    u = lattice_inverse(spec, grid, out=field.reshape((size, f.m) + spatial + (1,)), real=True)
                    np.square(u, out=u)
                    terms = np.sum(u[..., 0], axis=1)
                else:
                    # |u|_V^2 = sum over components of re^2 + im^2
                    sq = lattice_inverse(spec, grid, out=spec).view(float)
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
    np.power(out, 1.0 / q, out=out)
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
