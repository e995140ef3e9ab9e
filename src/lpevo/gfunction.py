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

Multipliers.  L(l) T(t, s) comes from two multipliers on the frequency
lattice: :func:`symbol_on_lattice` gives psi1(l, xi), and
:func:`integrated_symbol` the exponent integral_s^t psi2(r, xi) dr of
T(t, s), for a scalar or a whole array of window starts s.  It is the one
path to that integral: exact for time-independent symbols, and otherwise
composite Gauss-Legendre on panels anchored to one global lattice, with all
of a call's panels in one evaluation of the separable coefficient or the
generic symbol.

The core works one output time t at a time and batches its s nodes.  A
batch's window exponents come from one :func:`integrated_symbol` call, so
the core holds no symbol-specific code of its own; the frequency factor of
psi2 is taken once per G and handed to that call.

Layout.  What runs how often:
- per G: the forward transform, the time step f_hat[j+1] - f_hat[j], psi2's
  frequency factor, the stack of psi1 at every output time (one row for a
  frozen psi1) with one Hermitian test of it, and the final root;
- per output time: the quadrature, the interval index j and the weight
  lambda of every node, so that a node's transform is
  f_hat[j] + lambda * step[j];
- per batch of at most _BATCH_ENTRIES nodes x lattice points (one node if
  a lattice is larger): the window multipliers exp(integral_s^t psi2) psi1
  from one integrated_symbol call, one exp and one product with psi1; the
  interpolated transform times them, in work arrays grown to the largest
  batch and kept for the rest of G; one inverse transform; and the sum of
  w |u|_V^q.
Batches are capped, so memory stays flat however many nodes the quadrature
has.

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
is exactly zero, are exact, not tolerances.  Where the psi1 stack or a
batch's window exponents are real, only the real part is kept, so exp and
the products run on real arrays; a complex symbol keeps the complex path.
|u|_V^2 is the sum over components of u^2 on the half lattice and of
re^2 + im^2 on the full one, added component by component into one array;
its power q/2 is x sqrt(x) for q = 3, none for q = 2, and pow otherwise.
The per-node terms are summed in node order, the running sum added into the
first term of each batch, so G is bit-identical whatever the batch size.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from lpevo.grid import SpaceTimeField, SpectralGrid, lattice_forward, lattice_inverse, lp_norm
from lpevo.symbols import SymbolSpec, eval_symbol

__all__ = [
    "QuadratureSpec",
    "GFunctionResult",
    "graded_quadrature",
    "g_function",
    "g_tilde",
    "g_lp_norm",
]

# Gauss-Legendre points per panel of the integrated symbol, and the panel width
_GL_ORDER = 8
_PANEL_WIDTH = 0.25
# nodes x lattice points per batch: a whole output time on the benchmark
# grids (640 x 64 entries at most), while its multipliers, 1 MiB complex, its
# two work arrays, 1 MiB complex per V component each, and a generic psi2's
# _GL_ORDER panel values per entry, 8 MiB, keep memory flat in the node count
_BATCH_ENTRIES = 2**16
# ratio of the geometric refinement of the panel touching s = t
_SPLIT_RATIO = 4.0


@functools.cache
def _gl_rule(order: int = _GL_ORDER):
    """Gauss-Legendre nodes and weights on [-1, 1], computed on first use."""
    return np.polynomial.legendre.leggauss(order)


def _panel_edges(s: float, t: float) -> list[float]:
    """s, the multiples of _PANEL_WIDTH strictly inside (s, t), then t.

    Anchoring the inner edges to one global lattice makes windows that end
    at the same t share all their panels but the first."""
    lo = np.ceil(s / _PANEL_WIDTH)
    hi = np.floor(t / _PANEL_WIDTH)
    return [s] + [e * _PANEL_WIDTH for e in np.arange(lo, hi + 1) if s < e * _PANEL_WIDTH < t] + [t]


def _panels(integrand: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss-Legendre integrals of ``integrand`` over the panels (lo, hi)."""
    z, w = _gl_rule()
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    vals = integrand(mid[:, None] + half[:, None] * z)
    tail = (1,) * (vals.ndim - 2)
    return half.reshape((-1,) + tail) * np.sum(w.reshape((-1,) + tail) * vals, axis=1)


def _panel_integrals(integrand: Callable[[np.ndarray], np.ndarray], s: np.ndarray, t: float) -> np.ndarray:
    """integral_s^t integrand(r) dr for every entry of a 1-d array s (all < t).

    ``integrand`` maps an array r of times to values of shape
    r.shape + tail; the result has shape s.shape + tail.  Composite
    Gauss-Legendre on the panels of :func:`_panel_edges`, all in one call of
    ``integrand``: each s's first panel, up to the first anchor above it, and
    the full panels between the anchors above min(s) and t.  Each window adds
    to its first panel the sum of its full panels, taken from t down.
    """
    edges = np.asarray(_panel_edges(float(np.min(s)), t)[1:])  # the anchors above min(s), then t
    first = np.searchsorted(edges[:-1], s, side="right")  # first edge above each s
    vals = _panels(integrand, np.concatenate((s, edges[:-1])), np.concatenate((edges[first], edges[1:])))
    head, full = np.split(vals, [len(s)])
    # suffix[k]: the sum of the full panels from edges[k] to t, so zero at t
    suffix = np.cumsum(np.concatenate((np.zeros_like(head[:1]), full[::-1])), axis=0)[::-1]
    return head + suffix[first]


def _frequency_factor(symbol: SymbolSpec, xi: np.ndarray) -> np.ndarray | None:
    """The frequency factor of a symbol that splits off its time dependence:
    psi(0, xi) when time-independent, the profile when separable, else None.

    :func:`_g_core` evaluates it once per G and hands it to
    :func:`integrated_symbol` as ``factor``.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if symbol.time_independent:
        return eval_symbol(symbol, 0.0, xi)
    if symbol.separable:
        return np.asarray(symbol.xi_profile(xi), dtype=complex)
    return None


def integrated_symbol(
    symbol: SymbolSpec, s: float | np.ndarray, t: float, xi: np.ndarray, factor: np.ndarray | None = None
) -> np.ndarray:
    """integral_s^t psi(r, xi) dr for a scalar or an array of window starts s
    on an (..., d) frequency array, with shape s.shape + xi.shape[:-1].

    Exact to roundoff for time-independent symbols; separable symbols reduce
    to the time integral of the coefficient times the frequency profile, and
    their coefficient must be real: a nonzero imaginary part in its integral
    raises ValueError.  ``factor`` is :func:`_frequency_factor` of this
    symbol on this xi, or its real part where the imaginary part is exactly
    zero; it is not checked, and :func:`_g_core` is the one caller that
    passes it.  Generic symbols ignore it.  Every s must lie before t.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s >= t):
        raise ValueError(f"integrated symbol requires t > s, got max s={np.max(s)}, t={t}")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    lead = s.shape + (1,) * (xi.ndim - 1)
    if factor is None:
        factor = _frequency_factor(symbol, xi)
    if symbol.time_independent:
        return (t - s).reshape(lead) * factor
    if not s.size:  # no window start: no panel to integrate
        return np.zeros(s.shape + xi.shape[:-1], dtype=complex)
    if symbol.separable:
        # the time coefficient at clamped times max(r, 0)
        coeff = _panel_integrals(lambda r: symbol.time_coeff(np.maximum(r, 0.0)), s.ravel(), t)
        # the core's Hermitian half of the lattice relies on a real coefficient
        if np.iscomplexobj(coeff) and np.any(coeff.imag):
            raise ValueError(f"symbol {symbol.name!r} has a complex time coefficient")
        return coeff.reshape(lead) * factor

    def psi(r: np.ndarray) -> np.ndarray:
        vals = np.stack([eval_symbol(symbol, x, xi) for x in r.ravel()])
        return vals.reshape(r.shape + xi.shape[:-1])

    return _panel_integrals(psi, s.ravel(), t).reshape(s.shape + xi.shape[:-1])


def symbol_on_lattice(symbol: SymbolSpec, l: float, grid: SpectralGrid) -> np.ndarray:
    """psi(l, xi) evaluated on the full frequency lattice."""
    return eval_symbol(symbol, l, grid.freq_vectors())


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
    # one row per output time; a frozen psi1's one row serves them all
    mults1 = np.broadcast_to(_real_if_exact(mults1[cut]), (len(live),) + xi.shape[:-1])
    step = f_hat[1:] - f_hat[:-1]
    lattice = f_hat.shape[2:-1]
    batch = max(1, _BATCH_ENTRIES // math.prod(lattice))
    spec_buf = np.empty(0)
    out = np.zeros((len(t_grid),) + spatial)
    for i, mult1 in zip(live, mults1):
        t = float(t_grid[i])
        s_nodes, w_nodes = graded_quadrature(a, t, beta, quad)
        idx = np.clip(np.searchsorted(t_grid, s_nodes, side="right") - 1, 0, len(t_grid) - 2)
        lam = (s_nodes - t_grid[idx]) / (t_grid[idx + 1] - t_grid[idx])
        if len(spec_buf) < min(batch, len(s_nodes)):
            # work arrays, grown to the largest batch and kept for the rest
            # of G: fresh ones would page-fault on every batch
            shape = (min(batch, len(s_nodes)),) + f_hat.shape[1:]
            spec_buf, rows_buf = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
            # floats enough for complex multipliers, viewed as complex for them
            mult_buf = np.empty(2 * shape[0] * math.prod(lattice))
            # on the half lattice the real u of a batch goes to the floats of
            # rows_buf, whose transform rows are spent by then
            field_floats = rows_buf.view(float).reshape(-1)
        acc = np.zeros(spatial)
        for lo in range(0, len(s_nodes), batch):
            nodes = slice(lo, lo + batch)
            w = w_nodes[nodes]
            size = len(w)
            # the window multipliers exp(integral_s^t psi2) psi1; the
            # exponents are dropped before the batch's spectrum is built
            expo = _real_if_exact(integrated_symbol(psi2, s_nodes[nodes], t, xi, factor2))
            dtype = np.result_type(expo, mult1)
            mults = np.exp(expo, out=mult_buf.view(dtype)[: expo.size].reshape(expo.shape))
            del expo
            mults *= mult1
            # f_hat(s) = f_hat[idx] + lam * step[idx], times the multipliers
            spec = np.take(step, idx[nodes], axis=0, out=spec_buf[:size], mode="clip")
            spec *= lam[nodes].reshape((-1,) + (1,) * (spec.ndim - 1))
            spec += np.take(f_hat, idx[nodes], axis=0, out=rows_buf[:size], mode="clip")
            spec *= mults.reshape((size, 1) + lattice + (1,))
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
