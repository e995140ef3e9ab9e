"""The integrated symbol and the lattice symbol, the two multipliers of G.

The square function builds L(l) T(t, s) from two multipliers on the
frequency lattice: :func:`symbol_on_lattice` gives psi1(l, xi), and
:func:`integrated_symbol` gives the exponent integral_s^t psi2(r, xi) dr of
T(t, s), for a scalar or a whole array of window starts s.  It is the one
path to that integral: exact for time-independent symbols, and otherwise
composite Gauss-Legendre on panels anchored to one global lattice, evaluated
by the one panel routine for separable coefficients and generic symbols
alike.  Every window that ends at t shares the panels between its first
anchor and t; for a separable symbol the square-function core integrates
them for every t at once (:func:`_shared_panels`) and hands each t's to
its calls.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from lpevo.grid import SpectralGrid
from lpevo.symbols import SymbolSpec, eval_symbol

__all__ = ["integrated_symbol", "symbol_on_lattice"]

_GL_ORDER = 8
_PANEL_WIDTH = 0.25


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


def _window_panels(
    integrand: Callable[[np.ndarray], np.ndarray], a: float, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """The anchors of :func:`_panel_edges` in (a, t), then t, and the
    integral over each panel between two of them: the panels that every
    window starting in [a, t) and ending at t shares, from its first anchor
    on."""
    edges = np.asarray(_panel_edges(a, t)[1:])
    return edges, _panels(integrand, edges[:-1], edges[1:])


def _panel_integrals(
    integrand: Callable[[np.ndarray], np.ndarray],
    s: np.ndarray,
    t: float,
    shared: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """integral_s^t integrand(r) dr for every entry of a 1-d array s (all < t).

    ``integrand`` maps an array r of times to values of shape
    r.shape + tail; the result has shape s.shape + tail.  Composite
    Gauss-Legendre on the panels of :func:`_panel_edges`.  The shared panels
    come from ``shared``, :func:`_window_panels` of a window start at or
    below every s, or else are evaluated once for the whole batch; each
    window adds its panels left to right, as it would on its own.
    """
    if shared is None:
        shared = _window_panels(integrand, float(np.min(s)), t)
    edges, full = shared
    first = np.searchsorted(edges[:-1], s, side="right")  # first edge above each s
    total = _panels(integrand, s, edges[first])
    first = first.reshape(first.shape + (1,) * (total.ndim - 1))
    for k in range(int(np.min(first)), len(full)):
        total = np.where(first <= k, total + full[k], total)
    return total


def _coefficient(symbol: SymbolSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The time coefficient of a separable symbol, at clamped times max(r, 0)."""
    return lambda r: symbol.time_coeff(np.maximum(r, 0.0))


def _shared_panels(
    symbol: SymbolSpec, a: float, ts: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """For each t of the 1-d array ts (all > a), :func:`_window_panels` of
    the coefficient of a separable time-dependent symbol over [a, t), bit for
    bit, else None.

    The full panels between two anchors below max(ts) are integrated once,
    together with each t's last panel, from its last anchor to t, in one
    call of the coefficient.  The square-function core takes them once per
    G and hands each output time's to :func:`integrated_symbol` as
    ``shared``.
    """
    if symbol.time_independent or not symbol.separable:
        return None
    # an empty ts, from a core with no output time after a, has no anchor
    anchors = np.asarray(_panel_edges(a, float(np.max(ts, initial=a)))[1:-1])
    below = np.searchsorted(anchors, ts)  # the anchors in (a, t) of each t
    last = below > 0
    lo = np.concatenate((anchors[:-1], anchors[below[last] - 1]))
    hi = np.concatenate((anchors[1:], ts[last]))
    integrals = _panels(_coefficient(symbol), lo, hi)
    full, tails = np.split(integrals, [max(len(anchors) - 1, 0)])
    tails = iter(tails)
    return [
        (np.append(anchors[:k], t), np.append(full[: k - 1], next(tails)) if k else full[:0])
        for k, t in zip(below, ts)
    ]


def _frequency_factor(symbol: SymbolSpec, xi: np.ndarray) -> np.ndarray | None:
    """The frequency factor of a symbol that splits off its time dependence:
    psi(0, xi) when time-independent, the profile when separable, else None.

    The square-function core evaluates it once per G and hands it to
    :func:`integrated_symbol` as ``factor``.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if symbol.time_independent:
        return eval_symbol(symbol, 0.0, xi)
    if symbol.separable:
        return np.asarray(symbol.xi_profile(xi), dtype=complex)
    return None


def integrated_symbol(
    symbol: SymbolSpec,
    s: float | np.ndarray,
    t: float,
    xi: np.ndarray,
    factor: np.ndarray | None = None,
    shared: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """integral_s^t psi(r, xi) dr for a scalar or an array of window starts s
    on an (..., d) frequency array, with shape s.shape + xi.shape[:-1].

    Exact to roundoff for time-independent symbols; separable symbols reduce
    to the time integral of the coefficient times the frequency profile, and
    their coefficient must be real: a nonzero imaginary part in its integral
    raises ValueError.  ``factor`` and ``shared`` are internal precomputes
    for the square-function core: :func:`_frequency_factor` of this symbol
    on this xi, or its real part where the imaginary part is exactly zero,
    and this t's entry of :func:`_shared_panels` of this symbol for a window
    start at or below every s.  They are not checked, so leave them None elsewhere;
    generic symbols ignore them.  Every s must lie before t.
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
    if symbol.separable:
        coeff = _panel_integrals(_coefficient(symbol), s.ravel(), t, shared)
        # the core's Hermitian half of the lattice relies on a real coefficient
        if np.iscomplexobj(coeff) and np.any(coeff.imag):
            raise ValueError(f"symbol {symbol.name!r} has a complex time coefficient")
        return coeff.reshape(lead) * factor

    def psi(r: np.ndarray) -> np.ndarray:
        # np.asarray, not np.stack: a batch with no shared panel passes no r
        vals = np.asarray([eval_symbol(symbol, x, xi) for x in r.ravel()])
        return vals.reshape(r.shape + xi.shape[:-1])

    return _panel_integrals(psi, s.ravel(), t).reshape(s.shape + xi.shape[:-1])


def symbol_on_lattice(symbol: SymbolSpec, l: float, grid: SpectralGrid) -> np.ndarray:
    """psi(l, xi) evaluated on the full frequency lattice."""
    return eval_symbol(symbol, l, grid.freq_vectors())
