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
    "SpatialField",
    "SpaceTimeField",
    "make_grid",
    "forward_transform",
    "inverse_transform",
    "apply_multiplier",
    "lebesgue_norm",
    "vector_norm",
    "time_weights",
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

    @property
    def nyquist(self) -> float:
        return np.pi * (self.n // 2) / self.half_length

    def freq_mesh(self) -> list[np.ndarray]:
        """Per-axis frequency meshes with shape n^d."""
        return list(np.meshgrid(*([self.freq] * self.d), indexing="ij"))

    def freq_vectors(self) -> np.ndarray:
        """All lattice frequencies stacked as an (n^d..., d) array."""
        return np.stack(self.freq_mesh(), axis=-1)

    def freq_norm(self) -> np.ndarray:
        """|xi| on the frequency lattice, shape n^d."""
        mesh = self.freq_mesh()
        return np.sqrt(sum(m**2 for m in mesh))

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


def _check_values(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=complex)
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite (no NaN/Inf)")
    return values


@dataclass(frozen=True)
class SpatialField:
    """V-valued samples f(x_j) with V = C^m; last axis indexes V.

    ``side`` records whether the samples live on the spatial lattice
    ("space") or the frequency lattice ("freq").
    """

    grid: SpectralGrid
    m: int
    values: np.ndarray
    side: str = "space"

    def __post_init__(self):
        values = _check_values(self.values)
        expected = self.grid.spatial_shape() + (self.m,)
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape} != expected {expected}")
        if self.side not in ("space", "freq"):
            raise ValueError(f"unknown side {self.side!r}")
        object.__setattr__(self, "values", values)

    def with_values(self, values: np.ndarray, side: str | None = None) -> "SpatialField":
        return SpatialField(self.grid, self.m, values, side or self.side)


@dataclass(frozen=True)
class SpaceTimeField:
    """V-valued samples f(t_i, x_j); axis 0 is time, last axis indexes V."""

    grid: SpectralGrid
    m: int
    values: np.ndarray

    def __post_init__(self):
        values = _check_values(self.values)
        expected = (len(self.grid.t_grid),) + self.grid.spatial_shape() + (self.m,)
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape} != expected {expected}")
        object.__setattr__(self, "values", values)

    def at_time(self, i: int) -> SpatialField:
        return SpatialField(self.grid, self.m, self.values[i])


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
    values: np.ndarray, grid: SpectralGrid, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse of :func:`lattice_forward`; exact roundtrip on the lattice.

    The result goes to ``out`` when given, which may be ``values`` itself.
    """
    axes = _transform_axes(values, grid)
    work = np.multiply(values, _broadcast_sign(values, grid), out=out, dtype=complex)
    # in place (numpy >= 2.0): a fresh array per batch of G would page-fault
    np.fft.ifftn(work, axes=axes, norm="forward", out=work)
    scale = _phase(grid) * (2.0 * np.pi) ** (-grid.d / 2.0) * grid.dxi**grid.d
    work *= _broadcast_sign(values, grid, scale)
    return work


def forward_transform(f: SpatialField) -> SpatialField:
    if f.side != "space":
        raise ValueError("forward_transform expects a space-side field")
    return f.with_values(lattice_forward(f.values, f.grid), side="freq")


def inverse_transform(g: SpatialField) -> SpatialField:
    if g.side != "freq":
        raise ValueError("inverse_transform expects a frequency-side field")
    return g.with_values(lattice_inverse(g.values, g.grid), side="space")


def apply_multiplier(f: SpatialField, multiplier: np.ndarray) -> SpatialField:
    """Apply a Fourier multiplier m(xi) to a space-side field: the one
    forward -> multiply -> inverse path for spatial fields."""
    if f.side != "space":
        raise ValueError("apply_multiplier expects a space-side field")
    multiplier = np.asarray(multiplier)
    if multiplier.shape != f.grid.spatial_shape():
        raise ValueError("multiplier shape does not match the frequency lattice")
    spec = lattice_forward(f.values, f.grid)
    spec *= multiplier[..., None]
    return f.with_values(lattice_inverse(spec, f.grid), side="space")


def vector_norm(values: np.ndarray) -> np.ndarray:
    """Pointwise V-norm (Euclidean over the trailing component axis)."""
    return np.sqrt(np.sum(np.abs(values) ** 2, axis=-1))


def time_weights(t_grid: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature weights for the (possibly graded) time nodes."""
    t = np.asarray(t_grid, dtype=float)
    w = np.zeros_like(t)
    dt = np.diff(t)
    w[:-1] += dt / 2.0
    w[1:] += dt / 2.0
    return w


def lebesgue_norm(f: SpatialField | SpaceTimeField, p: float) -> float:
    """Discrete L^p norm for finite p >= 1: trapezoid weights in time, cell
    weights in space."""
    if not 1 <= p < np.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")
    vn = vector_norm(f.values)
    cell = f.grid.cell_volume()
    if isinstance(f, SpaceTimeField):
        w = time_weights(f.grid.t_grid)
        w = w.reshape((-1,) + (1,) * f.grid.d)
        total = np.sum(vn**p * w) * cell
    else:
        total = np.sum(vn**p) * cell
    return float(total ** (1.0 / p))
