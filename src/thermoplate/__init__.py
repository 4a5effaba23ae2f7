"""Fourier-side tools for a linear thermoelastic plate system.

The package covers four layers: exact symbol algebra (characteristic roots,
resolvent matrices, scaled resolvent symbols), empirical multiplier-class
scans, spectral evolution and resolvent sweeps on periodic grids, and
finite-difference generators with free or damped plate boundary conditions
on intervals and rectangles, plus a command line front end.
"""

from .symbols import (
    CharacteristicRoots,
    GAMMAS,
    ROOTS,
    SingularParameterError,
    characteristic_roots,
    determinant_pair,
    symbol_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "CharacteristicRoots",
    "GAMMAS",
    "ROOTS",
    "SingularParameterError",
    "characteristic_roots",
    "determinant_pair",
    "symbol_matrix",
    "__version__",
]
