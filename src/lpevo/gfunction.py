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
T(t, s), for a scalar or a whole array of window starts s.  The integral
has one path for every symbol: composite Gauss-Legendre on panels anchored
to one global lattice, with psi2 at all of a call's panel points in one
:func:`eval_symbol` call.  One panel-integral implementation,
:func:`_panel_integrals`, one window end t per call, serves
integrated_symbol and the core's node plan.

The core works one output time t at a time and batches its s nodes.  Where
:meth:`SymbolSpec.factors` splits psi2 into a time coefficient c and a
frequency factor (a time-independent psi2, c = 1, or a separable one),
T(t, s) is exp(integral_s^t c times the factor): the core takes the factor
once per G and the coefficient integral of every window from its node plan,
t - s where c = 1.  Any other psi2 takes one :func:`integrated_symbol` call
per batch.  Where psi2 may be evaluated is the symbol's rule, not G's:
eval_symbol and the c that factors() hands out take a time t at max(t, 0),
eval_symbol refuses a non-finite t, and c is real, so G clamps no symbol
time and checks no coefficient.

Layout.  What runs how often:
- per G: the forward transform, the time step f_hat[j+1] - f_hat[j], psi2's
  frequency factor, the stack of psi1 at every output time (a separable
  psi1's in one evaluation of its coefficient times its profile, one row
  for a psi1 frozen at l or time-independent) with one Hermitian test of
  it, and the final root; and the node plan.  For every output time after
  a it holds the quadrature nodes and weights, from one
  :func:`graded_quadrature` call, the interval index j and the weight
  lambda of every node, so that a node's transform is
  f_hat[j] + lambda * step[j], and, for a psi2 that splits, the coefficient
  integral integral_s^t c of every window in place of its node, integrated
  one output time at a time;
- per worker (below): the work arrays for the largest batch;
- per output time: the running sum of its batches, and its row of G;
- per batch of at most _BATCH_ENTRIES nodes x lattice points (one node if
  a lattice is larger): the window multipliers, the plan's coefficient
  integrals times psi2's factor (or one integrated_symbol call), one exp
  and one product with psi1, in the third work array; the interpolated
  transform times them, in the other two; one inverse transform; and the
  sum of w |u|_V^q, whose terms take the third work array once the
  multipliers are spent, and the square root of q = 3 the first, once the
  transform is spent.  Only a generic psi2's integrated_symbol call
  allocates arrays of a batch's size.
Memory: the plan holds O(T N) scalars per G, for T output times of N nodes
each: three floats and one index, a byte up to 257 time nodes, per node,
about 1 MiB for 63 times of 640 nodes.  Building it takes an intp index
per node and, for a separable psi2, _GL_ORDER coefficient values per node
of one output time.  The batches and their work arrays stay capped however
many nodes the quadrature has: at the cap, 1 MiB per V component in each
of the first two arrays and 1 MiB in the third, 5 MiB a worker for m = 2.

Workers.  The output times after a are shared among W workers, one per CPU
this process may run on, at most one per output time and _MAX_WORKERS:
worker k takes the rows k, k + W, k + 2W, ..., each with its own work
arrays.  The calling thread works share 0 and a thread started in the call
each other share; all are joined before G returns, and a worker's exception
is re-raised by G.  numpy releases the interpreter lock in the transforms
and the array loops of a batch, so the workers overlap.  A row is built by
one worker alone, batch by batch in node order, as with one worker, so G is
bit-identical for every W and every batch size; W = 1 is the serial loop on
the calling thread.  A psi2 that does not split off its time dependence has
its eval_fn called by integrated_symbol from the workers, concurrently, so
that eval_fn must be safe to call from several threads at once.

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
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from lpevo.grid import SpaceTimeField, SpectralGrid, lattice_forward, lattice_inverse, lp_norm, real_array
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
# workers of one G at most: a small cap, since only 2 workers, on a 2-CPU
# machine, were measured
_MAX_WORKERS = 4


@functools.cache
def _gl_rule(order: int = _GL_ORDER):
    """Gauss-Legendre nodes and weights on [-1, 1]; cached, so read-only."""
    z, w = np.polynomial.legendre.leggauss(order)
    z.flags.writeable = w.flags.writeable = False
    return z, w


def _panels(integrand: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss-Legendre integrals of ``integrand`` over the panels (lo, hi).

    The rule's axis leads the evaluation points, so each of its rows of
    values is contiguous, and the weights contract it row by row, in a fixed
    order: a panel's integral does not depend on the other panels of the
    call, as it would through a BLAS product, whose sums follow the matrix
    shape."""
    z, w = _gl_rule()
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    r = half * z[:, None]
    r += mid
    vals = integrand(r)
    total = vals[0] * w[0]
    for weight, row in zip(w[1:], vals[1:]):
        total += weight * row
    return half.reshape((-1,) + (1,) * (vals.ndim - 2)) * total


def _panel_integrals(integrand: Callable[[np.ndarray], np.ndarray], s: np.ndarray, t: float) -> np.ndarray:
    """integral_s^t integrand(r) dr for a 1-d array s of window starts, all
    before the one end t.

    ``integrand`` maps an array r of times to values of shape
    r.shape + tail; the result has shape s.shape + tail.  Composite
    Gauss-Legendre on panels edged by the multiples of _PANEL_WIDTH in
    (min(s), t), the anchors, and by t, all in one call of ``integrand``:
    each s's head panel, up to the first edge above it, and the panels
    between the edges.  Each window adds to its head the sum of the panels
    above it, taken from t down, so the windows share all their panels but
    the head.
    """
    s_min = np.min(s)
    anchors = _PANEL_WIDTH * np.arange(np.ceil(s_min / _PANEL_WIDTH), np.floor(t / _PANEL_WIDTH) + 1)
    edges = np.append(anchors[(s_min < anchors) & (anchors < t)], t)
    first = np.searchsorted(edges, s, side="right")  # the first edge above each s
    vals = _panels(integrand, np.concatenate((s, edges[:-1])), np.concatenate((edges[first], edges[1:])))
    head, between = vals[: len(s)], vals[len(s) :]
    # above[k]: the sum of the top k panels, taken from t down, after a zero
    above = np.cumsum(np.concatenate((np.zeros_like(vals[:1]), between[::-1])), axis=0)
    return head + above[len(between) - first]


def integrated_symbol(symbol: SymbolSpec, s: float | np.ndarray, t: float, xi: np.ndarray) -> np.ndarray:
    """integral_s^t psi(r, xi) dr for a scalar or an array of window starts s
    on an (..., d) frequency array, d the symbol's, with shape
    s.shape + xi.shape[:-1].

    One path for every symbol: :func:`_panel_integrals` of psi at all of the
    call's panel points, in one :func:`eval_symbol` call, which takes a
    separable psi from its factors.  s and t must be finite, and every s
    must lie before t.
    """
    s = real_array(s, "window starts")
    if not (np.isfinite(t) and np.all(np.isfinite(s))):
        raise ValueError(f"integrated symbol requires finite s and t, got s={s}, t={t}")
    if np.any(s >= t):
        raise ValueError(f"integrated symbol requires t > s, got max s={np.max(s)}, t={t}")
    xi = np.atleast_1d(real_array(xi, "frequencies"))
    if xi.shape[-1] != symbol.d:
        raise ValueError(f"frequencies must be an (..., {symbol.d}) array, got shape {xi.shape}")
    shape = s.shape + xi.shape[:-1]
    if not s.size:  # no window start: no panel to integrate
        return np.zeros(shape, dtype=complex)

    def psi(r: np.ndarray) -> np.ndarray:
        return eval_symbol(symbol, r.ravel(), xi).reshape(r.shape + xi.shape[:-1])

    return _panel_integrals(psi, s.ravel(), float(t)).reshape(shape)


def symbol_on_lattice(symbol: SymbolSpec, l: float | np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """psi(l, xi) evaluated on the full frequency lattice, at one symbol time
    l or, stacked along a leading axis, at a 1-d array of them (see
    :func:`eval_symbol`)."""
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
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def graded_quadrature(
    a: float, t: float | np.ndarray, beta: float, quad: QuadratureSpec = QuadratureSpec()
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights with sum_i w_i g(s_i) ~= int_a^t (t-s)^(beta-1) g(s) ds.

    Exact substitution u = (t-s)^beta; panel edges are the graded mesh
    u_k = (t-a)^beta * k/K, i.e. s_k = t - (t-a)(k/K)^(1/beta).  t is an
    output time or a 1-d array of them: the nodes and weights of their
    windows follow one another, output time by output time, in two flat
    arrays, each window's equal to those of its own call.
    """
    times = real_array(t, "output times")
    if times.ndim > 1:
        raise ValueError(f"output times must be a scalar or a 1-d array, got shape {times.shape}")
    times = times.reshape(-1, 1, 1)
    if not (-np.inf < a < np.inf and np.all((a < times) & (times < np.inf))):
        raise ValueError(f"window requires finite a < t, got a={a}, t={t}")
    if not 0 < beta < np.inf:
        raise ValueError(f"weight exponent beta must be positive and finite, got {beta}")
    # (t - a)^beta by Python's float power, as for a scalar t: numpy's array
    # power may round it differently
    big_u = np.array([(x - a) ** beta for x in times.ravel().tolist()]).reshape(-1, 1)
    first = big_u / quad.panels
    sub = first * np.array([_SPLIT_RATIO**-j for j in range(quad.split_levels, 0, -1)])
    edges = np.concatenate((np.zeros_like(big_u), sub, big_u * np.arange(1, quad.panels + 1) / quad.panels), axis=1)
    z, w = _gl_rule(quad.order)
    ua, ub = edges[:, :-1, None], edges[:, 1:, None]
    mid, half = (ua + ub) / 2.0, (ub - ua) / 2.0
    s_nodes = half * z
    s_nodes += mid
    s_nodes **= 1.0 / beta
    np.subtract(times, s_nodes, out=s_nodes)
    # guard against roundoff pushing a node to exactly t or below a
    np.clip(s_nodes, a, np.nextafter(times, a), out=s_nodes)
    w_nodes = half * w
    w_nodes /= beta
    return s_nodes.ravel(), w_nodes.ravel()


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


def _workers(rows: int) -> int:
    """How many workers share the ``rows`` output times of one G: one per
    CPU this process may run on, at most one per row and _MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, rows, _MAX_WORKERS))


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


def _half_power(x: np.ndarray, q: float, scratch: np.ndarray) -> None:
    """x^(q/2) in place, for x >= 0: x sqrt(x) for q = 3, since pow costs
    about twice a square root and a product, with the root in ``scratch``,
    floats at least as many as x; pow for any other q but 2."""
    if q == 3.0:
        root = np.sqrt(x, out=scratch[: x.size].reshape(x.shape))
        x *= root
    elif q != 2.0:
        x **= q / 2.0


def _node_plan(
    psi2: SymbolSpec, a: float, times: np.ndarray, beta: float, quad: QuadratureSpec, t_grid: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The quadrature of the output times ``times`` on the time nodes
    ``t_grid``, output-time-major, from one :func:`graded_quadrature` call:
    the nodes per output time, and per node its weight, its interval index j
    and weight lambda, so that its transform is f_hat[j] + lambda * step[j],
    and its window: (per_time, weights, index, lam, windows).

    Where psi2 splits, a node's window is the integral over (s, t) of
    psi2's time coefficient c from :meth:`SymbolSpec.factors`, made in place
    of the node: t - s where c is None, so 1, and otherwise one
    :func:`_panel_integrals` call of c per output time, as factors() hands c
    out, which clamps its times and is real.  For a psi2 that does not
    split, the window is the node s itself."""
    s, w = graded_quadrature(a, times, beta, quad)
    split = psi2.factors()
    per = len(s) // max(len(times), 1)
    j = np.searchsorted(t_grid, s, side="right")
    j -= 1
    np.clip(j, 0, len(t_grid) - 2, out=j)
    lam = s - t_grid[j]
    lam /= np.diff(t_grid)[j]
    # the plan's one integer array, in the least type that holds it: a byte
    # up to 257 time nodes, where intp would take eight per node
    index = j.astype(np.min_scalar_type(len(t_grid) - 2))
    windows = s.reshape(len(times), per)
    if split is not None and split[0] is None:
        np.subtract(times[:, None], windows, out=windows)
    elif split is not None:
        for t, row in zip(times.tolist(), windows):
            row[:] = _panel_integrals(split[0], row, t)
    return per, w, index, lam, s


def _g_core(
    f: SpaceTimeField, psi1: SymbolSpec, psi2: SymbolSpec, l: float | None, a: float, q: float, quad: QuadratureSpec
) -> GFunctionResult:
    """G f, with psi1 frozen at symbol time l, or at the output time if l is None."""
    if not 2 <= q < np.inf:
        raise ValueError(f"square function requires 2 <= q < inf, got {q}")
    if not np.isfinite(a):
        raise ValueError(f"window start must be finite, got {a}")
    grid = f.grid
    if not psi1.d == psi2.d == grid.d:
        raise ValueError(f"symbols of dimension {psi1.d} and {psi2.d} on a grid of dimension {grid.d}")
    # tolerances relative to the time span, so they hold in any time unit
    span = grid.b - grid.a
    if a < grid.a - 1e-12 * span:
        raise ValueError("window start lies before the first time node")
    beta = q * psi1.gamma / psi2.gamma
    t_grid = grid.t_grid
    live = np.flatnonzero(t_grid > a + 1e-15 * span)  # the output times after a
    spatial = grid.spatial_shape()
    out = np.zeros((len(t_grid),) + spatial)
    # component-major (T, m, spatial..., 1): each V component is a contiguous
    # transform, and the trailing singleton is the transform's component axis
    f_hat = lattice_forward(np.ascontiguousarray(np.moveaxis(f.values, -1, 1))[..., None], grid)
    xi = grid.freq_vectors()
    # psi2's frequency factor and psi1 are evaluated once per G, psi1 as a
    # stack in the lattice's shape, one row per output time, even when none
    # follows a, or one row when frozen at l or time-independent
    split2 = psi2.factors()
    factor2 = None if split2 is None else np.asarray(split2[1](xi), dtype=complex)
    times1 = t_grid[live] if l is None and not psi1.time_independent else np.array([0.0 if l is None else l])
    mults1 = np.reshape(symbol_on_lattice(psi1, times1, grid), (len(times1),) + spatial)
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
    # one row per output time; a frozen or time-independent psi1's one row
    # serves them all
    mults1 = np.broadcast_to(_real_if_exact(mults1[cut]), (len(live),) + xi.shape[:-1])
    step = f_hat[1:] - f_hat[:-1]
    per, weights, index, lam, windows = _node_plan(psi2, a, t_grid[live], beta, quad, t_grid)
    lattice = f_hat.shape[2:-1]
    batch = max(1, _BATCH_ENTRIES // math.prod(lattice))
    shape = (min(batch, per),) + f_hat.shape[1:]
    lead = (-1,) + (1,) * grid.d
    workers = _workers(len(live))

    def share(first: int) -> None:
        """The rows first, first + workers, ... of G, into ``out``."""
        # work arrays for the largest batch, kept for the whole share: fresh
        # ones would page-fault on every batch
        spec_buf, rows_buf = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
        # floats enough for complex multipliers, viewed as complex for them,
        # and then for the batch's terms, once the multipliers are spent
        mult_buf = np.empty(2 * shape[0] * math.prod(lattice))
        # on the half lattice the real u of a batch goes to the floats of
        # rows_buf, whose transform rows are spent by then
        field_floats = rows_buf.view(float).reshape(-1)
        for row in range(first, len(live), workers):
            i, mult1 = live[row], mults1[row]
            acc = np.zeros(spatial)
            for lo in range(row * per, (row + 1) * per, batch):
                nodes = slice(lo, min(lo + batch, (row + 1) * per))
                w = weights[nodes]
                size = len(w)
                # the window multipliers exp(integral_s^t psi2) psi1: the
                # exponents are the plan's coefficient integrals times psi2's
                # frequency factor, made in place, or, for a psi2 with none,
                # one integrated_symbol call, dropped before the batch's
                # spectrum
                if factor2 is None:
                    expo = _real_if_exact(integrated_symbol(psi2, windows[nodes], float(t_grid[i]), xi))
                    dtype = np.result_type(expo, mult1)
                    mults = np.exp(expo, out=mult_buf.view(dtype)[: expo.size].reshape(expo.shape))
                    del expo
                else:
                    dtype = np.result_type(factor2, mult1)
                    mults = mult_buf.view(dtype)[: size * factor2.size].reshape((size,) + lattice)
                    np.exp(np.multiply(windows[nodes].reshape(lead), factor2, out=mults), out=mults)
                mults *= mult1
                # f_hat(s) = f_hat[idx] + lam * step[idx], times the multipliers
                spec = np.take(step, index[nodes], axis=0, out=spec_buf[:size], mode="clip")
                spec *= lam[nodes].reshape((-1,) + (1,) * (spec.ndim - 1))
                spec += np.take(f_hat, index[nodes], axis=0, out=rows_buf[:size], mode="clip")
                spec *= mults.reshape((size, 1) + lattice + (1,))
                terms = mult_buf[: size * math.prod(spatial)].reshape((size,) + spatial)
                if real:
                    # |u|_V^2 = sum over components of u^2
                    field = field_floats[: size * f.m * math.prod(spatial)]
                    u = lattice_inverse(spec, grid, out=field.reshape((size, f.m) + spatial + (1,)), real=True)
                    np.square(u, out=u)
                    np.sum(u[..., 0], axis=1, out=terms)
                else:
                    # |u|_V^2 = sum over components of re^2 + im^2
                    sq = lattice_inverse(spec, grid, out=spec).view(float)
                    np.square(sq, out=sq)
                    np.add(sq[:, 0, ..., 0], sq[:, 0, ..., 1], out=terms)
                    for c in range(1, f.m):
                        terms += sq[:, c, ..., 0]
                        terms += sq[:, c, ..., 1]
                # w |u|_V^q in place, a root in the spent floats of spec_buf:
                # with a temporary per batch, G's peak memory would depend on
                # whether the workers' temporaries overlap
                _half_power(terms, q, spec_buf.view(float).reshape(-1))
                terms *= w.reshape(lead)
                # adding acc into the first term keeps the node-by-node sum order
                terms[0] += acc
                acc = np.sum(terms, axis=0)
            out[i] = acc

    errors = []

    def guarded(first: int) -> None:
        try:
            share(first)
        except BaseException as exc:  # re-raised by the calling thread
            errors.append(exc)

    # the calling thread works share 0, and a thread started here each other
    # share; all of them are joined before G returns or raises
    threads = [threading.Thread(target=guarded, args=(k,)) for k in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        share(0)
    finally:
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    if errors:
        raise errors[0]
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
