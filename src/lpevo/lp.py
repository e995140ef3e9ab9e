"""Dyadic frequency decomposition and Besov/Sobolev norms.

The radial profile Phi is built from the classical exp(-1/s) bump: with
chi(r) the smooth cutoff equal to 1 on r <= 1 and 0 on r >= 2,
Phi(xi) = chi(|xi|) - chi(2|xi|) is supported on 1/2 <= |xi| <= 2 and the
dilates Phi(2^-j xi) telescope to 1 for xi != 0.  Block j projects onto the
annulus |xi| ~ 2^j; the low-frequency projection has the closed-form
multiplier chi(|xi|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lpevo.grid import (
    SpatialField,
    SpectralGrid,
    apply_multiplier,
    lattice_forward,
    lebesgue_norm,
)

__all__ = [
    "DyadicPartition",
    "build_partition",
    "smooth_cutoff",
    "dyadic_profile",
    "delta_j",
    "s0_project",
    "besov_norm",
    "besov_norm_report",
    "sobolev_norm",
]


def _bump(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s, dtype=float)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def smooth_cutoff(r: np.ndarray) -> np.ndarray:
    """C-infinity cutoff chi: 1 on r <= 1, 0 on r >= 2, monotone between."""
    r = np.asarray(r, dtype=float)
    up = _bump(2.0 - r)
    down = _bump(r - 1.0)
    with np.errstate(invalid="ignore"):
        out = np.where(r <= 1.0, 1.0, np.where(r >= 2.0, 0.0, up / (up + down)))
    return out


def dyadic_profile(xi_norm: np.ndarray) -> np.ndarray:
    """Phi(|xi|) = chi(|xi|) - chi(2|xi|), supported on [1/2, 2]."""
    return smooth_cutoff(np.asarray(xi_norm, dtype=float)) - smooth_cutoff(
        2.0 * np.asarray(xi_norm, dtype=float)
    )


@dataclass(frozen=True)
class DyadicPartition:
    """Dyadic block range representable on a grid.

    j_max satisfies 2^j_max <= nyquist/2; blocks below j_min vanish
    identically on the lattice (their annulus holds no lattice frequency).
    """

    grid: SpectralGrid
    j_min: int
    j_max: int

    def profile(self, xi_norm: np.ndarray) -> np.ndarray:
        return dyadic_profile(xi_norm)

    def block_multiplier(self, j: int) -> np.ndarray:
        return dyadic_profile(self.grid.freq_norm() / 2.0**j)

    def low_multiplier(self) -> np.ndarray:
        return smooth_cutoff(self.grid.freq_norm())


def build_partition(grid: SpectralGrid) -> DyadicPartition:
    j_max = int(math.floor(math.log2(grid.nyquist / 2.0)))
    xi_min = np.pi / grid.half_length
    j_min = int(math.floor(math.log2(xi_min)))
    if j_max - j_min < 2:
        raise ValueError("grid too coarse to host at least three dyadic bands")
    return DyadicPartition(grid=grid, j_min=j_min, j_max=j_max)


def delta_j(part: DyadicPartition, j: int, f: SpatialField) -> SpatialField:
    """Frequency block j: multiplier Phi(2^-j xi)."""
    if not part.j_min <= j <= part.j_max:
        raise ValueError(f"block index {j} outside [{part.j_min}, {part.j_max}]")
    return apply_multiplier(f, part.block_multiplier(j))


def s0_project(part: DyadicPartition, f: SpatialField) -> SpatialField:
    """Low-frequency projection: the telescoped multiplier chi(|xi|)."""
    return apply_multiplier(f, part.low_multiplier())


def _besov_terms(part: DyadicPartition, f: SpatialField, alpha: float, p: float):
    low = lebesgue_norm(s0_project(part, f), p)
    blocks = []
    for j in range(1, part.j_max + 1):
        blocks.append((j, lebesgue_norm(delta_j(part, j, f), p)))
    return low, blocks


def besov_norm(part: DyadicPartition, f: SpatialField, alpha: float, p: float) -> float:
    """|S0 f|_p + (sum_{j>=1} 2^(j alpha p) |Delta_j f|_p^p)^(1/p), truncated
    at the top representable block."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    low, blocks = _besov_terms(part, f, alpha, p)
    tail = sum(2.0 ** (j * alpha * p) * b**p for j, b in blocks)
    return float(low + tail ** (1.0 / p))


def besov_norm_report(part: DyadicPartition, f: SpatialField, alpha: float, p: float) -> dict:
    """Besov norm plus the truncation diagnostic: the fraction of spectral
    energy at frequencies above the top block's annulus."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    low, blocks = _besov_terms(part, f, alpha, p)
    tail = sum(2.0 ** (j * alpha * p) * b**p for j, b in blocks)
    spec = lattice_forward(f.values, f.grid)
    energy = np.sum(np.abs(spec) ** 2, axis=-1)
    above = part.grid.freq_norm() > 2.0**part.j_max
    total = float(np.sum(energy))
    truncated = float(np.sum(energy[above])) / total if total > 0 else 0.0
    return {
        "norm": float(low + tail ** (1.0 / p)),
        "low_term": low,
        "block_terms": {j: b for j, b in blocks},
        "truncated_energy_fraction": truncated,
        "j_max": part.j_max,
    }


def sobolev_norm(f: SpatialField, alpha: float, p: float) -> float:
    """|(1 + |xi|^2)^(alpha/2) f^|_p as a Fourier multiplier norm."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    mult = (1.0 + f.grid.freq_norm() ** 2) ** (alpha / 2.0)
    return lebesgue_norm(apply_multiplier(f, mult), p)
