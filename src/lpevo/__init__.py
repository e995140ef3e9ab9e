"""lpevo: spectral evolution-system operators and an inequality verification harness.

Core layout:

- :mod:`lpevo.grid` -- periodic space-time lattices and transforms
- :mod:`lpevo.symbols` -- operator symbols and class-condition checkers
- :mod:`lpevo.evolution` -- evolution kernels and Fourier-multiplier operators
- :mod:`lpevo.lp` -- dyadic decomposition and Besov/Sobolev norms
- :mod:`lpevo.gfunction` -- square functions with singular time weights
- :mod:`lpevo.maximal` -- maximal/sharp functions and dyadic filtrations
"""

from lpevo.grid import (
    SpatialField,
    SpaceTimeField,
    SpectralGrid,
    forward_transform,
    inverse_transform,
    lebesgue_norm,
    make_grid,
)

__version__ = "0.1.0"

__all__ = [
    "SpectralGrid",
    "SpatialField",
    "SpaceTimeField",
    "make_grid",
    "forward_transform",
    "inverse_transform",
    "lebesgue_norm",
    "__version__",
]
