"""The integrated symbol and the lattice symbol, the two multipliers of G.

The square function builds L(l) T(t, s) from two multipliers on the
frequency lattice: :func:`symbol_on_lattice` gives psi1(l, xi), and
:func:`integrated_symbol` gives the exponent integral_s^t psi2(r, xi) dr of
T(t, s), for a scalar or a whole array of window starts s.  It is the one
path to that integral: exact for time-independent symbols, and otherwise
composite Gauss-Legendre on panels anchored to one global lattice, with all
of a call's panels in one evaluation of the separable coefficient or the
generic symbol.
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


def _coefficient(symbol: SymbolSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The time coefficient of a separable symbol, at clamped times max(r, 0)."""
    return lambda r: symbol.time_coeff(np.maximum(r, 0.0))


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
    symbol: SymbolSpec, s: float | np.ndarray, t: float, xi: np.ndarray, factor: np.ndarray | None = None
) -> np.ndarray:
    """integral_s^t psi(r, xi) dr for a scalar or an array of window starts s
    on an (..., d) frequency array, with shape s.shape + xi.shape[:-1].

    Exact to roundoff for time-independent symbols; separable symbols reduce
    to the time integral of the coefficient times the frequency profile, and
    their coefficient must be real: a nonzero imaginary part in its integral
    raises ValueError.  ``factor`` is the square-function core's precompute,
    :func:`_frequency_factor` of this symbol on this xi, or its real part
    where the imaginary part is exactly zero; it is not checked, so leave it
    None elsewhere.  Generic symbols ignore it.  Every s must lie before t.
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
        coeff = _panel_integrals(_coefficient(symbol), s.ravel(), t)
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
