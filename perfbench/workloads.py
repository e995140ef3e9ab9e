"""Workloads of the three-step estimate benchmark.

A workload fixes a grid, a symbol pair, the exponent q and the square
function variant.  Only the input field depends on the seed.  Everything
here is built from public ``lpevo`` functions; the symbol parameters are
kept beside the built symbols so that the checks can evaluate closed forms
without going through the program.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from lpevo.gfunction import QuadratureSpec
from lpevo.grid import SpaceTimeField, SpectralGrid, make_grid
from lpevo.symbols import ClassCheckReport, SymbolSpec, check_symbol_class, power_symbol


@dataclass(frozen=True)
class SymbolParams:
    """psi(t, xi) = -(kappa + amp*exp(-rate*t)) * |xi|^gamma; amp = 0 is static."""

    kappa: float
    gamma: float
    amp: float = 0.0
    rate: float = 0.0

    @property
    def static(self) -> bool:
        return self.amp == 0.0


@dataclass(frozen=True)
class Spec:
    """Seed-independent make-up of one workload."""

    name: str
    d: int
    n: int
    half_length: float
    t_nodes: tuple[float, ...]
    psi1: SymbolParams
    psi2: SymbolParams
    q: float
    variant: str  # "g_function" (symbol time frozen at l = 0) or "g_tilde"
    m: int  # dimension of V = C^m
    real_field: bool
    band: int  # largest |wave number| per axis carried by the input
    quad: QuadratureSpec
    sharp: bool  # uniform dyadic cells: step 2 runs

    @property
    def gamma(self) -> float:
        """Parabolic order of the cubes: the order of the evolution symbol."""
        return self.psi2.gamma


def _cell_centred(count: int) -> tuple[float, ...]:
    return tuple((np.arange(count) + 0.5) / count)


SPECS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        # transforms lead: one inverse transform per (t, s-node) pair
        Spec(
            name="static-1d",
            d=1,
            n=64,
            half_length=0.5,
            t_nodes=_cell_centred(64),
            psi1=SymbolParams(1.0, 0.5),
            psi2=SymbolParams(1.0, 1.0),
            q=3.0,
            variant="g_function",
            m=2,
            real_field=False,
            band=16,
            quad=QuadratureSpec(),
            sharp=True,
        ),
        # multiplier build leads: the separable coefficient integral runs
        # per (t, s-node); graded times take the graded maximal path
        Spec(
            name="modulated-graded-1d",
            d=1,
            n=64,
            half_length=0.5,
            t_nodes=tuple((np.arange(32) / 31.0) ** 2),
            psi1=SymbolParams(1.0, 0.25, amp=0.5, rate=1.0),
            psi2=SymbolParams(1.0, 1.0, amp=0.5, rate=2.0),
            q=2.0,
            variant="g_tilde",
            m=1,
            real_field=True,
            band=16,
            quad=QuadratureSpec(),
            sharp=False,
        ),
        # the sharp function leads: d = 2 windows, light quadrature
        Spec(
            name="sharp-2d",
            d=2,
            n=16,
            half_length=0.5,
            t_nodes=_cell_centred(16),
            psi1=SymbolParams(1.0, 1.0),
            psi2=SymbolParams(1.0, 1.0),
            q=2.0,
            variant="g_function",
            m=2,
            real_field=False,
            band=4,
            quad=QuadratureSpec(panels=16, order=4, split_levels=8),
            sharp=True,
        ),
    )
}


Wrap = Callable[[str, Callable], Callable]


def build_symbol(params: SymbolParams, d: int, wrap: Wrap | None = None) -> SymbolSpec:
    """The symbol of ``params``; ``wrap(kind, fn)`` replaces its callables."""
    if params.static:
        spec = power_symbol(params.kappa, params.gamma, d=d)
    else:
        amp, rate = params.amp, params.rate
        spec = power_symbol(
            params.kappa,
            params.gamma,
            k_fn=lambda t: amp * np.exp(-rate * t),
            k_bound=amp,
            k_deriv_bound=amp * rate,
            d=d,
        )
    if wrap is None:
        return spec
    return replace(
        spec,
        eval_fn=wrap("symbols.eval", spec.eval_fn),
        time_coeff=wrap("symbols.coeff", spec.time_coeff),
        xi_profile=wrap("symbols.profile", spec.xi_profile),
    )


def band_limited_values(spec: Spec, seed: int) -> np.ndarray:
    """Seeded field samples, shape (T, n^d..., m).

    Every time node carries independent complex Gaussian coefficients on the
    wave numbers |k_i| <= band with amplitude 1/(1 + |k|); a real field keeps
    the real part.
    """
    rng = np.random.default_rng(seed)
    T, n, d = len(spec.t_nodes), spec.n, spec.d
    k = np.fft.fftfreq(n, 1.0 / n)
    mesh = np.meshgrid(*([k] * d), indexing="ij")
    knorm = np.sqrt(sum(m**2 for m in mesh))
    inside = np.all([np.abs(m) <= spec.band for m in mesh], axis=0)
    amp = np.where(inside, 1.0 / (1.0 + knorm), 0.0)[None, ..., None]
    shape = (T,) + (n,) * d + (spec.m,)
    coef = amp * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    values = np.fft.ifftn(coef, axes=tuple(range(1, d + 1))) * n**d / np.sqrt(np.sum(amp**2))
    return values.real if spec.real_field else values


@dataclass(frozen=True)
class Workload:
    spec: Spec
    grid: SpectralGrid
    psi1: SymbolSpec
    psi2: SymbolSpec
    field: SpaceTimeField
    reports: tuple[ClassCheckReport, ClassCheckReport]

    @property
    def a(self) -> float:
        """Window start: the first time node."""
        return self.grid.a


def build_workload(name: str, seed: int, wrap: Wrap | None = None) -> Workload:
    """Grid, symbols, their class-check reports and the seeded input field."""
    spec = SPECS[name]
    grid = make_grid(spec.d, spec.n, spec.half_length, spec.t_nodes)
    psi1 = build_symbol(spec.psi1, spec.d, wrap)
    psi2 = build_symbol(spec.psi2, spec.d, wrap)
    reports = (check_symbol_class(psi1), check_symbol_class(psi2))
    field = SpaceTimeField(grid, spec.m, band_limited_values(spec, seed))
    return Workload(spec, grid, psi1, psi2, field, reports)
