"""lpevo: a numerical laboratory for L^p estimates of square functions of
evolution systems on periodic space-time lattices.

Modules:

- :mod:`lpevo.grid` -- space-time lattices, the lattice transforms and
  Lebesgue norms
- :mod:`lpevo.symbols` -- operator symbols and their class-condition check
- :mod:`lpevo.gfunction` -- square functions with singular time weights,
  and their two multipliers: the lattice symbol and the integrated symbol
- :mod:`lpevo.maximal` -- maximal and sharp functions and the dyadic
  filtration
"""

from lpevo.grid import SpaceTimeField, SpectralGrid, lebesgue_norm, make_grid

__version__ = "0.1.0"

__all__ = [
    "SpectralGrid",
    "SpaceTimeField",
    "make_grid",
    "lebesgue_norm",
    "__version__",
]
