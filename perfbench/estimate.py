"""One full three-step estimate, composed from public ``lpevo`` functions.

1. Step 1: ||G f||_q / ||f||_{q,V}.
2. Step 2 (uniform dyadic cells only): sup of the cube and filtration sharp
   functions of G f over (M_t M_x |f|_V^q)^(1/q), and the containment
   constant N1.
3. Step 3: ||G f||_p / ||f||_{p,V} with p = 2q.

The maximal function M_t M_x |f|_V^q is computed on every workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lpevo.gfunction import GFunctionResult, g_function, g_lp_norm, g_tilde
from lpevo.grid import SpaceTimeField, lebesgue_norm, vector_norm
from lpevo.maximal import filtration_sharp, maximal_values, nested_n1, sharp_parabolic
from lpevo.symbols import SymbolSpec

from workloads import Spec, Workload


@dataclass(frozen=True)
class EstimateOutputs:
    g: np.ndarray  # G f on the grid
    mh: np.ndarray  # M_t M_x |f|_V^q
    sharp: np.ndarray | None  # cube sharp function of G f, default ladder
    fsharp: np.ndarray | None  # filtration sharp function of G f
    n1: float | None
    ratios: dict[str, float]

    def arrays(self) -> dict[str, np.ndarray]:
        out = {"g": self.g, "mh": self.mh}
        if self.sharp is not None:
            out["sharp"] = self.sharp
            out["fsharp"] = self.fsharp
        return out

    def same_as(self, other: "EstimateOutputs") -> bool:
        """Bit-identical outputs."""
        mine, theirs = self.arrays(), other.arrays()
        return (
            mine.keys() == theirs.keys()
            and all(np.array_equal(mine[k], theirs[k]) for k in mine)
            and self.n1 == other.n1
            and self.ratios == other.ratios
        )


def square_function(
    spec: Spec, f: SpaceTimeField, psi1: SymbolSpec, psi2: SymbolSpec, a: float
) -> GFunctionResult:
    """G f by the workload's variant; g_function freezes the symbol time at 0."""
    if spec.variant == "g_function":
        return g_function(f, psi1, psi2, 0.0, a, spec.q, spec.quad)
    return g_tilde(f, psi1, psi2, a, spec.q, spec.quad)


def estimate(w: Workload) -> EstimateOutputs:
    spec, f = w.spec, w.field
    q, p = spec.q, 2.0 * spec.q
    g = square_function(spec, f, w.psi1, w.psi2, w.a)
    ratios = {
        "step1": g_lp_norm(g, q) / lebesgue_norm(f, q),
        "step3": g_lp_norm(g, p) / lebesgue_norm(f, p),
    }
    h = vector_norm(f.values) ** q
    mh = maximal_values(maximal_values(h, w.grid, "space"), w.grid, "time")
    sharp = fsharp = n1 = None
    if spec.sharp:
        root = mh ** (1.0 / q)
        sharp = sharp_parabolic(g.values, w.grid, spec.gamma)
        fsharp, _ = filtration_sharp(g.values, w.grid, spec.gamma)
        n1 = nested_n1(w.grid, spec.gamma)
        ratios["step2_cube"] = float(np.max(sharp / root))
        ratios["step2_filtration"] = float(np.max(fsharp / root))
    return EstimateOutputs(g.values, mh, sharp, fsharp, n1, ratios)
