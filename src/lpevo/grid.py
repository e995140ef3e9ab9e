"""Discrete space-time grids, lattice Fourier transforms, and Lebesgue norms.

The spatial domain is the periodic box [-L, L)^d sampled on n points per
axis; the frequency lattice is xi_k = pi*k/L for k in [-n/2, n/2).  With
the symmetric (2*pi)^(-d/2) transform normalization the forward/inverse
lattice transforms below are exact inverses of each other and satisfy
Parseval's identity on the lattice.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SpectralGrid",
    "SpaceTimeField",
    "make_grid",
    "lattice_forward",
    "lattice_inverse",
    "lebesgue_norm",
    "lp_norm",
    "vector_norm",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SpectralGrid:
    """Space-time lattice with its frequency lattice.

    Attributes
    ----------
    d : spatial dimension (1 or 2).
    n : points per spatial axis (power of two).
    half_length : box half-width L; the box is [-L, L)^d.
    t_grid : strictly increasing time nodes, t_grid[0] = a, t_grid[-1] = b.
    """

    d: int
    n: int
    half_length: float
    t_grid: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t_grid", np.asarray(self.t_grid, dtype=float))

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
        """Frequency lattice along one axis: pi*k/L, k in [-n/2, n/2)."""
        k = np.arange(self.n) - self.n // 2
        return np.pi * k / self.half_length

    @property
    def dxi(self) -> float:
        return np.pi / self.half_length

    def freq_vectors(self) -> np.ndarray:
        """All lattice frequencies stacked as an (n^d..., d) array."""
        return np.stack(np.meshgrid(*([self.freq] * self.d), indexing="ij"), axis=-1)

    def spatial_shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    def cell_volume(self) -> float:
        return self.dx**self.d


def make_grid(d: int, n: int, half_length: float, t_nodes: Sequence[float]) -> SpectralGrid:
    """Build a grid, validating the lattice conventions."""
    if d not in (1, 2):
        raise ValueError(f"spatial dimension must be 1 or 2, got {d}")
    if not _is_power_of_two(n) or n < 8:
        raise ValueError(f"n must be a power of two >= 8, got {n}")
    if half_length <= 0:
        raise ValueError("half_length must be positive")
    t = np.asarray(t_nodes, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("t_nodes must contain at least two nodes")
    if not np.all(np.diff(t) > 0):
        raise ValueError("t_nodes must be strictly increasing")
    if not np.all(np.isfinite(t)):
        raise ValueError("t_nodes must be finite")
    return SpectralGrid(d=d, n=n, half_length=half_length, t_grid=t)


@dataclass(frozen=True)
class SpaceTimeField:
    """V-valued samples f(t_i, x_j); axis 0 is time, last axis indexes V."""

    grid: SpectralGrid
    m: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite (no NaN/Inf)")
        expected = (len(self.grid.t_grid),) + self.grid.spatial_shape() + (self.m,)
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape} != expected {expected}")
        object.__setattr__(self, "values", values)


@functools.cache
def _parity_sign(n: int, d: int) -> np.ndarray:
    """(-1)^(c_1 + ... + c_d) over the storage indices of an n^d array,
    built once per (n, d)."""
    s = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    out = s if d == 1 else np.multiply.outer(s, s)
    out.flags.writeable = False
    return out


def _transform_axes(values: np.ndarray, grid: SpectralGrid) -> tuple[int, ...]:
    """Spatial axes by convention: values are (..., *spatial, m)."""
    if values.ndim < grid.d + 1:
        raise ValueError("values must carry the spatial axes and a component axis")
    return tuple(range(values.ndim - 1 - grid.d, values.ndim - 1))


def _broadcast_sign(values: np.ndarray, grid: SpectralGrid, scale: float | None = None) -> np.ndarray:
    """(-1)^(c_1 + ... + c_d), times ``scale`` if given, shaped to broadcast
    over ``values``.

    With n even, x_j = -L + j dx and xi_c = pi (c - n/2) / L, each axis has
    exp(-i x_j xi_c) = (-1)^(n/2) (-1)^c (-1)^j exp(-2 pi i c j / n), so both
    lattice transforms are a plain FFT between two parity-sign multiplies,
    the second carrying (-1)^(d n/2) and the normalization: no shift of the
    centred lattice.
    """
    sign = _parity_sign(grid.n, grid.d)
    if scale is not None:
        sign = sign * scale
    lead = values.ndim - 1 - grid.d
    return sign.reshape((1,) * lead + sign.shape + (1,))


def _phase(grid: SpectralGrid) -> float:
    """(-1)^(d n/2), carried by the second parity-sign multiply."""
    return (-1.0) ** (grid.d * (grid.n // 2))


def _inverse_scale(grid: SpectralGrid) -> float:
    """s = (2 pi)^(-d/2) dxi^d, the normalization of :func:`lattice_inverse`."""
    return (2.0 * np.pi) ** (-grid.d / 2.0) * grid.dxi**grid.d


def lattice_forward(values: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Riemann-sum Fourier transform of lattice samples onto the centered
    frequency lattice: (2*pi)^(-d/2) * dx^d * sum_j exp(-i x_j . xi_k) f(x_j).

    ``values`` follow the (..., *spatial, component) axis convention; leading
    axes (e.g. time) pass through untouched.
    """
    axes = _transform_axes(values, grid)
    work = np.multiply(values, _broadcast_sign(values, grid), dtype=complex)
    np.fft.fftn(work, axes=axes, out=work)
    scale = _phase(grid) * (2.0 * np.pi) ** (-grid.d / 2.0) * grid.dx**grid.d
    work *= _broadcast_sign(values, grid, scale)
    return work


def lattice_inverse(
    values: np.ndarray, grid: SpectralGrid, out: np.ndarray | None = None, real: bool = False, bare: bool = False
) -> np.ndarray:
    """Inverse of :func:`lattice_forward`; exact roundtrip on the lattice.

    The result goes to ``out`` when given, which may be ``values`` itself.

    With ``real``, which needs ``bare``, ``values`` is the Hermitian half of
    the transform of a real field: the storage indices 0..n/2 of the last
    spatial axis, that is the frequencies -n/2..0 along it, since
    f^(-xi) = conj f^(xi) gives the rest.  The real field is returned, by
    irfftn, and ``out`` must then be a real array.  The storage index c
    pairs with n - c mod n, so the transform must be real at the
    self-paired Nyquist (c = 0) and zero (c = n/2) entries; irfftn drops
    their imaginary parts.

    With ``bare``, only the FFT runs: ifftn, or irfftn on the Hermitian half,
    with norm="forward", no parity sign and no scale.  The storage index c
    carries the parity (-1)^c = exp(i pi c), a shift by n/2, so

        bare(X) = ±roll(lattice_inverse(X), n/2 along each spatial axis) / s,

    with s = (2 pi)^(-d/2) dxi^d and the sign (-1)^(j_1 + ... + j_d) of the
    lattice point j: a phase that a modulus drops, and a constant a caller
    can fold into X.  :func:`_bare_to_lattice` undoes the shift.  Bare mode
    leaves ``values`` unchanged unless ``out`` is ``values``, on the full
    lattice, where the FFT runs in place; with ``real`` they are kept, since
    irfftn transforms a copy of them.
    """
    axes = _transform_axes(values, grid)
    if real:
        if not bare:
            raise ValueError("the Hermitian half inverts bare only")
        if values.shape[axes[-1]] != grid.n // 2 + 1:
            raise ValueError("a Hermitian half has n // 2 + 1 entries on its last spatial axis")
        return np.fft.irfftn(values, s=(grid.n,) * grid.d, axes=axes, norm="forward", out=out)
    if not bare:
        values = out = np.multiply(values, _broadcast_sign(values, grid), out=out, dtype=complex)
    # in place (numpy >= 2.0) when out is values: a fresh array per batch of G
    # would page-fault
    work = np.fft.ifftn(values, axes=axes, norm="forward", out=out)
    if not bare:
        work *= _broadcast_sign(work, grid, _phase(grid) * _inverse_scale(grid))
    return work


def _bare_to_lattice(values: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Samples shaped (..., *spatial) rolled by n/2 along each spatial axis,
    a new array: what a bare :func:`lattice_inverse` put on the lattice
    shifted by half a period goes back to its lattice point."""
    return np.roll(values, (grid.n // 2,) * grid.d, tuple(range(-grid.d, 0)))


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
    """Discrete space-time L^p norm of nonnegative scalar samples (time
    leading): trapezoid weights in time, cell weights in space.  The measure
    of :func:`lebesgue_norm` and ``g_lp_norm``, which check p."""
    w = _time_weights(grid.t_grid).reshape((-1,) + (1,) * grid.d)
    total = np.sum(values**p * w) * grid.cell_volume()
    return float(total ** (1.0 / p))


def lebesgue_norm(f: SpaceTimeField, p: float) -> float:
    """L^p norm of the V-norm of f, for finite p >= 1 (see :func:`lp_norm`)."""
    if not 1 <= p < np.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")
    return lp_norm(vector_norm(f.values), f.grid, p)
