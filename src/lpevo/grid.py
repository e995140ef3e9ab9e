"""Discrete space-time grids, the lattice Fourier pair, and Lebesgue norms.

The spatial domain is the periodic box [-L, L)^d sampled on n points per
axis, x_j = x_0 + j dx with the corner x_0 = (-L, ..., -L) and dx = 2L/n.
The frequency lattice :attr:`SpectralGrid.freq` is xi_k = pi k / L for the
wave numbers k in [-n/2, n/2), stored in FFT order: index 0 holds the zero
frequency, index n/2 the Nyquist wave number -n/2, and the negative wave
numbers follow it.

The lattice pair takes Fourier-series coefficients relative to the corner:

    F_k = n^(-d) sum_j f(x_j) exp(-i (x_j - x_0) . xi_k)    (lattice_forward)
    f(x_j) = sum_k F_k exp(i (x_j - x_0) . xi_k)           (lattice_inverse)

that is fftn and ifftn with norm="forward": exact inverses of each other,
with the mean of |f|^2 equal to the sum of |F_k|^2.  A multiplier m(xi)
acts by lattice_inverse(m F); that is the periodic convolution of f with the
kernel K(j dx) = lattice_inverse(m)[j] / (2L)^d against dx^d.  For f
smooth and decaying inside the box, (2L)^d (2 pi)^(-d/2) (-1)^(k_1+...+k_d)
F_k approximates the continuous transform (2 pi)^(-d/2) int f e^(-i x.xi)
dx at xi_k.  A real f has F_(-k) = conj F_k, so the indices 0..n/2 of the
last spatial axis, numpy's rfft layout, hold all of it: the Hermitian half
that ``lattice_inverse(..., real=True)`` takes.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SpectralGrid",
    "SpaceTimeField",
    "make_grid",
    "real_array",
    "lattice_forward",
    "lattice_inverse",
    "lebesgue_norm",
    "lp_norm",
    "vector_norm",
]


def _is_count(x) -> bool:
    """Whether x is an integer, and not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_power_of_two(n: int) -> bool:
    return _is_count(n) and n >= 1 and (n & (n - 1)) == 0


def real_array(values, name: str) -> np.ndarray:
    """``values`` as a float array; complex input raises ValueError, since a
    cast would drop its imaginary part with only a ComplexWarning."""
    if np.iscomplexobj(values):
        raise ValueError(f"{name} must be real, got a complex array")
    return np.asarray(values, dtype=float)


@dataclass(frozen=True)
class SpectralGrid:
    """Space-time lattice with its frequency lattice.

    Attributes
    ----------
    d : spatial dimension (1 or 2).
    n : points per spatial axis, at least 2 (:func:`make_grid` takes powers
        of two >= 8).
    half_length : box half-width L > 0, finite; the box is [-L, L)^d.
    t_grid : at least two finite, strictly increasing time nodes,
        t_grid[0] = a, t_grid[-1] = b.

    Any other lattice raises ValueError: every operator relies on these.
    """

    d: int
    n: int
    half_length: float
    t_grid: np.ndarray

    def __post_init__(self):
        if not _is_count(self.d) or self.d not in (1, 2):
            raise ValueError(f"spatial dimension must be the integer 1 or 2, got {self.d!r}")
        if not _is_count(self.n) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        if not 0 < self.half_length < np.inf:
            raise ValueError(f"half_length must be positive and finite, got {self.half_length}")
        t = real_array(self.t_grid, "t_grid")
        if t.ndim != 1 or t.size < 2:
            raise ValueError("t_grid must be one axis of at least two nodes")
        if not np.all(np.isfinite(t)):
            raise ValueError("t_grid must be finite")
        if not np.all(np.diff(t) > 0):
            raise ValueError("t_grid must be strictly increasing")
        object.__setattr__(self, "t_grid", t)

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.n

    @property
    def a(self) -> float:
        return float(self.t_grid[0])

    @property
    def b(self) -> float:
        return float(self.t_grid[-1])

    @property
    def x(self) -> np.ndarray:
        """Spatial nodes along one axis: x_j = -L + j*dx."""
        return -self.half_length + self.dx * np.arange(self.n)

    @property
    def freq(self) -> np.ndarray:
        """Frequency lattice along one axis: pi*k/L, k in [-n/2, n/2), in FFT order."""
        return np.pi * np.fft.fftfreq(self.n, 1.0 / self.n) / self.half_length

    def freq_vectors(self) -> np.ndarray:
        """All lattice frequencies stacked as an (n^d..., d) array."""
        return np.stack(np.meshgrid(*([self.freq] * self.d), indexing="ij"), axis=-1)

    def spatial_shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    def cell_volume(self) -> float:
        return self.dx**self.d


def make_grid(d: int, n: int, half_length: float, t_nodes: Sequence[float]) -> SpectralGrid:
    """Build a grid on n points per axis, a power of two >= 8;
    :class:`SpectralGrid` checks the rest."""
    if not _is_power_of_two(n) or n < 8:
        raise ValueError(f"n must be an integer power of two >= 8, got {n!r}")
    return SpectralGrid(d=d, n=n, half_length=half_length, t_grid=real_array(t_nodes, "t_nodes"))


@dataclass(frozen=True)
class SpaceTimeField:
    """V-valued samples f(t_i, x_j); axis 0 is time, last axis indexes V."""

    grid: SpectralGrid
    m: int
    values: np.ndarray

    def __post_init__(self):
        if not _is_count(self.m) or self.m < 1:
            raise ValueError(f"m must be an integer >= 1, got {self.m!r}")
        values = np.asarray(self.values, dtype=complex)
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite (no NaN/Inf)")
        expected = (len(self.grid.t_grid),) + self.grid.spatial_shape() + (self.m,)
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape} != expected {expected}")
        object.__setattr__(self, "values", values)


def _transform_axes(values: np.ndarray, grid: SpectralGrid) -> tuple[int, ...]:
    """Spatial axes by convention: values are (..., *spatial, m)."""
    if values.ndim < grid.d + 1:
        raise ValueError("values must carry the spatial axes and a component axis")
    return tuple(range(values.ndim - 1 - grid.d, values.ndim - 1))


def lattice_forward(values: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """The coefficients F_k of lattice samples, in FFT order (module docstring).

    ``values`` follow the (..., *spatial, component) axis convention; leading
    axes (e.g. time) pass through untouched.
    """
    return np.fft.fftn(values, axes=_transform_axes(values, grid), norm="forward")


def lattice_inverse(
    values: np.ndarray, grid: SpectralGrid, out: np.ndarray | None = None, real: bool = False
) -> np.ndarray:
    """Inverse of :func:`lattice_forward`, into ``out`` when given, which may
    be ``values`` itself: the transform then runs in place.

    With ``real``, ``values`` is the Hermitian half of the coefficients of a
    real field, the indices 0..n/2 of the last spatial axis, and the real
    field is returned by irfftn; ``out`` must then be a real array, and
    ``values`` are kept.  The zero (index 0) and Nyquist (index n/2) entries
    pair with themselves, so irfftn drops their imaginary parts.
    """
    axes = _transform_axes(values, grid)
    if not real:
        # in place (numpy >= 2.0) when out is values: a fresh array per batch
        # of G would page-fault
        return np.fft.ifftn(values, axes=axes, norm="forward", out=out)
    if values.shape[axes[-1]] != grid.n // 2 + 1:
        raise ValueError("a Hermitian half has n // 2 + 1 entries on its last spatial axis")
    return np.fft.irfftn(values, s=(grid.n,) * grid.d, axes=axes, norm="forward", out=out)


def vector_norm(values: np.ndarray) -> np.ndarray:
    """Pointwise V-norm (Euclidean over the trailing component axis)."""
    return np.sqrt(np.sum(np.abs(values) ** 2, axis=-1))


def _time_weights(t_grid: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature weights for the (possibly graded) time nodes."""
    t = np.asarray(t_grid, dtype=float)
    w = np.zeros_like(t)
    dt = np.diff(t)
    w[:-1] += dt / 2.0
    w[1:] += dt / 2.0
    return w


def lp_norm(values: np.ndarray, grid: SpectralGrid, p: float) -> float:
    """Discrete space-time L^p norm, for finite p >= 1, of finite
    nonnegative real scalar samples on the grid, time leading:
    trapezoid weights in time, cell weights in space.  The measure of
    :func:`lebesgue_norm` and ``g_lp_norm``; anything else raises
    ValueError."""
    if not 1 <= p < np.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")
    values = real_array(values, "values")
    shape = (len(grid.t_grid),) + grid.spatial_shape()
    if values.shape != shape:
        raise ValueError(f"values of shape {values.shape} are not scalar samples on the {shape} grid")
    if not (np.all(np.isfinite(values)) and np.all(values >= 0)):
        raise ValueError("lp_norm expects finite nonnegative values")
    w = _time_weights(grid.t_grid).reshape((-1,) + (1,) * grid.d)
    total = np.sum(values**p * w) * grid.cell_volume()
    return float(total ** (1.0 / p))


def lebesgue_norm(f: SpaceTimeField, p: float) -> float:
    """L^p norm of the V-norm of f, for finite p >= 1 (see :func:`lp_norm`)."""
    return lp_norm(vector_norm(f.values), f.grid, p)
