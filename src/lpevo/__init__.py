"""lpevo: a numerical laboratory for L^p estimates of square functions of
evolution systems on periodic space-time lattices.

Modules, each imported by its own name; the package itself exports nothing:

- :mod:`lpevo.grid` -- space-time lattices, the lattice transforms and
  Lebesgue norms
- :mod:`lpevo.symbols` -- operator symbols, their split c(t) p(xi) and
  where they may be evaluated, and their class-condition check
- :mod:`lpevo.gfunction` -- square functions with singular time weights,
  and their two multipliers: the lattice symbol and the integrated symbol
- :mod:`lpevo.maximal` -- maximal and sharp functions and the dyadic
  filtration
"""

__all__ = []
