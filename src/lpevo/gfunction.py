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

The core works one output time t at a time and batches its s nodes: the
time interpolation of the field's transform, the window multipliers
exp(integral_s^t psi2) and the product with psi1 are built for a whole batch
of nodes, which then takes one inverse transform.  The window exponents of a
batch come from one :func:`lpevo.evolution.integrated_symbol` call on the
batch's array of s nodes, the same path every other multiplier takes, so the
core holds no symbol-specific code of its own.  A batch holds at most
_CHUNK_ENTRIES complex entries (nodes x lattice points x V components), so
memory stays flat however many nodes the quadrature has.  The per-node
terms are summed in node order, so batching leaves G unchanged.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from lpevo.grid import (
    SpaceTimeField,
    SpectralGrid,
    lattice_forward,
    lattice_inverse,
    time_weights,
    vector_norm,
)
from lpevo.symbols import SymbolSpec
from lpevo.evolution import _gl_rule, integrated_symbol, symbol_on_lattice

__all__ = [
    "QuadratureSpec",
    "GFunctionResult",
    "graded_quadrature",
    "g_function",
    "g_tilde",
    "g_lp_norm",
]

# complex entries (nodes x lattice points x V components) per batched inverse
# transform; larger batches buy little speed for their memory
_CHUNK_ENTRIES = 2**14


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs of the graded window quadrature.

    panels: number K of graded panels (mesh nodes s_k, k = 0..K).
    order: Gauss-Legendre points per panel.
    split_levels: geometric refinements of the panel touching s = t.
    split_ratio: refinement ratio toward the endpoint.
    """

    panels: int = 64
    order: int = 8
    split_levels: int = 16
    split_ratio: float = 4.0

    def to_dict(self) -> dict:
        return {
            "panels": self.panels,
            "order": self.order,
            "split_levels": self.split_levels,
            "split_ratio": self.split_ratio,
        }


def graded_quadrature(
    a: float, t: float, beta: float, quad: QuadratureSpec = QuadratureSpec()
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights with sum_i w_i g(s_i) ~= int_a^t (t-s)^(beta-1) g(s) ds.

    Exact substitution u = (t-s)^beta; panel edges are the graded mesh
    u_k = (t-a)^beta * k/K, i.e. s_k = t - (t-a)(k/K)^(1/beta).
    """
    if t <= a:
        raise ValueError("window requires t > a")
    if beta <= 0:
        raise ValueError("weight exponent beta must be positive")
    big_u = (t - a) ** beta
    edges = list(big_u * np.arange(1, quad.panels + 1) / quad.panels)
    first = big_u / quad.panels
    sub = [first * quad.split_ratio**-j for j in range(1, quad.split_levels + 1)]
    edges = [0.0] + sub[::-1] + edges
    z, w = _gl_rule(quad.order)
    nodes, weights = [], []
    for ua, ub in zip(edges[:-1], edges[1:]):
        mid, half = (ua + ub) / 2.0, (ub - ua) / 2.0
        u = mid + half * z
        nodes.append(t - u ** (1.0 / beta))
        weights.append(half * w / beta)
    s_nodes = np.concatenate(nodes)
    w_nodes = np.concatenate(weights)
    # guard against roundoff pushing a node to exactly t or below a
    s_nodes = np.clip(s_nodes, a, np.nextafter(t, a))
    return s_nodes, w_nodes


@dataclass(frozen=True)
class GFunctionResult:
    """Square-function samples G(t_i, x_j) >= 0 with quadrature metadata.

    ``l`` is the frozen symbol time for the fixed-l variant; ``l_mode`` is
    "outer_time" when the symbol time tracks the output time.
    """

    grid: SpectralGrid
    q: float
    a: float
    l: float | None
    l_mode: str
    values: np.ndarray
    quadrature: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            raise ValueError("square-function values must be finite and nonnegative")


def _interp_transform(f_hat: np.ndarray, t_grid: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Linear time interpolation of per-node lattice transforms at every s,
    stacked on a leading axis."""
    idx = np.clip(np.searchsorted(t_grid, s, side="right") - 1, 0, len(t_grid) - 2)
    t0, t1 = t_grid[idx], t_grid[idx + 1]
    lam = ((s - t0) / (t1 - t0)).reshape((-1,) + (1,) * (f_hat.ndim - 1))
    return (1.0 - lam) * f_hat[idx] + lam * f_hat[idx + 1]


def _g_core(
    f: SpaceTimeField,
    psi1: SymbolSpec,
    psi2: SymbolSpec,
    l: float | None,
    a: float,
    q: float,
    quad: QuadratureSpec,
    l_mode: str,
    check_classes: bool,
) -> GFunctionResult:
    if q < 2:
        raise ValueError(f"square function requires q >= 2, got {q}")
    grid = f.grid
    if a < grid.a - 1e-12:
        raise ValueError("window start lies before the first time node")
    if check_classes:
        from lpevo.symbols import check_symbol_class

        for which, spec in (("psi1", psi1), ("psi2", psi2)):
            report = check_symbol_class(spec)
            if not report.passed:
                warnings.warn(
                    f"symbol {which} fails its class conditions "
                    f"(S1 margin {report.s1_margin:.3g}, S2 margin {report.s2_margin:.3g}); "
                    "evaluating the square function anyway"
                )
    beta = q * psi1.gamma / psi2.gamma
    f_hat = lattice_forward(f.values, grid)  # (T, spatial..., m)
    xi = grid.freq_vectors()
    psi1_fixed = None
    if l_mode == "fixed":
        psi1_fixed = symbol_on_lattice(psi1, l, grid)
    chunk = max(1, _CHUNK_ENTRIES // (grid.n**grid.d * f.m))
    out = np.zeros((len(grid.t_grid),) + grid.spatial_shape())
    for i, t in enumerate(grid.t_grid):
        if t <= a + 1e-15:
            continue
        mult1 = psi1_fixed if psi1_fixed is not None else symbol_on_lattice(psi1, t, grid)
        s_nodes, w_nodes = graded_quadrature(a, float(t), beta, quad)
        acc = np.zeros(grid.spatial_shape())
        for lo in range(0, len(s_nodes), chunk):
            s, w = s_nodes[lo : lo + chunk], w_nodes[lo : lo + chunk]
            window = np.exp(integrated_symbol(psi2, s, float(t), xi))
            spec = mult1[..., None] * window[..., None] * _interp_transform(f_hat, grid.t_grid, s)
            u = lattice_inverse(spec, grid)
            terms = w.reshape((-1,) + (1,) * grid.d) * vector_norm(u) ** q
            # adding acc into the first term keeps the node-by-node sum order
            terms[0] += acc
            acc = np.sum(terms, axis=0)
        out[i] = acc ** (1.0 / q)
    meta = quad.to_dict()
    meta["beta"] = beta
    return GFunctionResult(
        grid=grid, q=q, a=a, l=l, l_mode=l_mode, values=out, quadrature=meta
    )


def g_function(
    f: SpaceTimeField,
    psi1: SymbolSpec,
    psi2: SymbolSpec,
    l: float,
    a: float,
    q: float,
    quad: QuadratureSpec = QuadratureSpec(),
    check_classes: bool = False,
) -> GFunctionResult:
    """Square function with the symbol time frozen at l."""
    return _g_core(f, psi1, psi2, l, a, q, quad, "fixed", check_classes)


def g_tilde(
    f: SpaceTimeField,
    psi1: SymbolSpec,
    psi2: SymbolSpec,
    a: float,
    q: float,
    quad: QuadratureSpec = QuadratureSpec(),
    check_classes: bool = False,
) -> GFunctionResult:
    """Square function with the symbol time tracking the outer time."""
    return _g_core(f, psi1, psi2, None, a, q, quad, "outer_time", check_classes)


def g_lp_norm(g: GFunctionResult, p: float) -> float:
    """Space-time L^p norm of the square function for finite p; the
    estimates require p >= q."""
    if not g.q <= p < np.inf:
        raise ValueError(f"p must be finite and >= q = {g.q}, got {p}")
    w = time_weights(g.grid.t_grid).reshape((-1,) + (1,) * g.grid.d)
    total = np.sum(g.values**p * w) * g.grid.cell_volume()
    return float(total ** (1.0 / p))
