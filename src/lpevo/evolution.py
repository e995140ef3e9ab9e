"""Evolution kernels and Fourier-multiplier operators for admissible symbols.

The two-parameter operator family T(t, s) acts on a spatial field by
multiplying its lattice transform with exp(integral_s^t psi(r, xi) dr); the
associated convolution kernel is normalized so that operator application
equals the plain discrete convolution sum_y k(x - y) f(y) dx^d and the
kernel mass sums to the multiplier value at xi = 0.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from lpevo.grid import (
    SpatialField,
    SpectralGrid,
    lattice_forward,
    lattice_inverse,
)
from lpevo.symbols import SymbolSpec, eval_symbol

__all__ = [
    "MultiplierCache",
    "EvolutionKernel",
    "integrated_symbol",
    "evolution_multiplier",
    "evolution_kernel",
    "apply_evolution",
    "apply_pseudo_diff",
    "symbol_on_lattice",
    "kernel_l1_norm",
    "kernel_to_csv",
]

_GL_ORDER = 8
_PANEL_WIDTH = 0.25


@functools.cache
def _gl_rule(order: int = _GL_ORDER):
    """Gauss-Legendre nodes and weights on [-1, 1], computed on first use."""
    return roots_legendre(order)


def _panel_edges(s: float, t: float) -> list[float]:
    """s, the multiples of _PANEL_WIDTH strictly inside (s, t), then t.

    Anchoring the inner edges to one global lattice makes windows that end
    at the same t share all their panels but the first."""
    lo = np.ceil(s / _PANEL_WIDTH)
    hi = np.floor(t / _PANEL_WIDTH)
    return [s] + [e * _PANEL_WIDTH for e in np.arange(lo, hi + 1) if s < e * _PANEL_WIDTH < t] + [t]


def _coeff_integrals(symbol: SymbolSpec, s: np.ndarray, t: float) -> np.ndarray:
    """integral_s^t time_coeff(max(r, 0)) dr for every entry of s (all < t).

    Composite Gauss-Legendre on the panels of :func:`_panel_edges`.  Shared
    panels are evaluated once for the whole batch, and each window adds its
    panels left to right, as it would on its own.
    """
    s = np.asarray(s, dtype=float)
    z, w = _gl_rule()
    coeff = symbol.time_coeff

    def panels(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        r = mid[:, None] + half[:, None] * z
        vals = np.asarray([coeff(max(x, 0.0)) for x in r.ravel()]).reshape(r.shape)
        return half * np.sum(w * vals, axis=-1)

    edges = np.asarray(_panel_edges(float(np.min(s)), t)[1:])  # anchors, then t
    first = np.searchsorted(edges[:-1], s, side="right")  # first edge above each s
    total = panels(s, edges[first])
    for k, p in enumerate(panels(edges[:-1], edges[1:])):
        total = np.where(first <= k, total + p, total)
    return total


def integrated_symbol(symbol: SymbolSpec, s: float, t: float, xi: np.ndarray) -> np.ndarray:
    """integral_s^t psi(r, xi) dr on an (..., d) frequency array.

    Exact to roundoff for time-independent symbols; separable symbols reduce
    to a scalar time integral times the frequency profile.
    """
    if t <= s:
        raise ValueError(f"integrated symbol requires t > s, got s={s}, t={t}")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if symbol.time_independent:
        return (t - s) * eval_symbol(symbol, 0.0, xi)
    if symbol.separable:
        coeff = _coeff_integrals(symbol, np.asarray([s]), t)[0]
        return coeff * np.asarray(symbol.xi_profile(xi), dtype=complex)
    nodes, weights = _gl_rule()
    edges = _panel_edges(s, t)
    total = np.zeros(xi.shape[:-1], dtype=complex)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        for z, w in zip(nodes, weights):
            total += half * w * eval_symbol(symbol, mid + half * z, xi)
    return total


def evolution_multiplier(symbol: SymbolSpec, s: float, t: float, grid: SpectralGrid) -> np.ndarray:
    """exp(integral_s^t psi(r, xi) dr) on the full frequency lattice."""
    xi = grid.freq_vectors()
    return np.exp(integrated_symbol(symbol, s, t, xi))


class MultiplierCache:
    """Write-once-per-(s, t) LRU cache of evolution multipliers on a grid."""

    def __init__(self, grid: SpectralGrid, symbol: SymbolSpec, max_entries: int = 256):
        self.grid = grid
        self.symbol = symbol
        self.max_entries = max_entries
        self._table: OrderedDict[tuple[float, float], np.ndarray] = OrderedDict()

    def __len__(self) -> int:
        return len(self._table)

    def get(self, s: float, t: float) -> np.ndarray:
        key = (round(float(s), 12), round(float(t), 12))
        hit = self._table.get(key)
        if hit is not None:
            self._table.move_to_end(key)
            return hit
        value = evolution_multiplier(self.symbol, s, t, self.grid)
        self._table[key] = value
        if len(self._table) > self.max_entries:
            self._table.popitem(last=False)
        return value


@dataclass(frozen=True)
class EvolutionKernel:
    """Convolution kernel of T(t, s) sampled on the spatial lattice
    (scalar, independent of the V dimension)."""

    grid: SpectralGrid
    s: float
    t: float
    values: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("kernel values must be finite")


def evolution_kernel(symbol: SymbolSpec, s: float, t: float, grid: SpectralGrid) -> EvolutionKernel:
    """Kernel of T(t, s) for t > s.

    Normalized as a convolution kernel: sum_x k(x) dx^d equals the multiplier
    at xi = 0 (one whenever psi(., 0) = 0), and applying the operator equals
    discrete convolution with these samples.  Real-valued to roundoff when
    psi(t, -xi) = conj(psi(t, xi)).
    """
    if t <= s:
        raise ValueError("the kernel is defined for t > s; t = s is the identity operator")
    mult = evolution_multiplier(symbol, s, t, grid)
    values = (2.0 * np.pi) ** (-grid.d / 2.0) * lattice_inverse(mult[..., None], grid)[..., 0]
    return EvolutionKernel(grid=grid, s=s, t=t, values=values)


def apply_evolution(
    symbol: SymbolSpec,
    s: float,
    t: float,
    f: SpatialField,
    cache: MultiplierCache | None = None,
) -> SpatialField:
    """T(t, s) f for t >= s as a Fourier multiplier; t = s returns f."""
    if t < s:
        raise ValueError(f"apply_evolution requires t >= s, got s={s}, t={t}")
    if f.side != "space":
        raise ValueError("apply_evolution expects a space-side field")
    if t == s:
        return f
    if cache is not None:
        if cache.grid is not f.grid:
            raise ValueError("cache grid does not match field grid")
        mult = cache.get(s, t)
    else:
        mult = evolution_multiplier(symbol, s, t, f.grid)
    spec = lattice_forward(f.values, f.grid)
    spec *= mult[..., None]
    return f.with_values(lattice_inverse(spec, f.grid), side="space")


def symbol_on_lattice(symbol: SymbolSpec, l: float, grid: SpectralGrid) -> np.ndarray:
    """psi(l, xi) evaluated on the full frequency lattice."""
    return eval_symbol(symbol, l, grid.freq_vectors())


def apply_pseudo_diff(symbol: SymbolSpec, l: float, f: SpatialField) -> SpatialField:
    """L(l) f: multiply the lattice transform by psi(l, xi)."""
    if f.side != "space":
        raise ValueError("apply_pseudo_diff expects a space-side field")
    mult = symbol_on_lattice(symbol, l, f.grid)
    spec = lattice_forward(f.values, f.grid)
    spec *= mult[..., None]
    return f.with_values(lattice_inverse(spec, f.grid), side="space")


def kernel_l1_norm(kernel: EvolutionKernel | np.ndarray, grid: SpectralGrid | None = None) -> float:
    """Lattice L^1 norm sum |k(x)| dx^d."""
    if isinstance(kernel, EvolutionKernel):
        values, grid = kernel.values, kernel.grid
    else:
        if grid is None:
            raise ValueError("grid required for raw kernel arrays")
        values = kernel
    return float(np.sum(np.abs(values)) * grid.cell_volume())


def kernel_to_csv(kernel: EvolutionKernel) -> str:
    """CSV dump (x, re, im) for plotting; d=1 kernels only."""
    if kernel.grid.d != 1:
        raise ValueError("CSV export supports d=1 kernels only")
    lines = ["x,re,im"]
    for xj, v in zip(kernel.grid.x, kernel.values):
        lines.append(f"{float(xj)!r},{float(v.real)!r},{float(v.imag)!r}")
    return "\n".join(lines) + "\n"
