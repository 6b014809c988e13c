"""Variance-style bounds for matrices: replacement radii, unitarily
invariant norm comparisons, numerical-range geometry, and sharp constants
for commutator norms.

The package is organized bottom-up:

- `linalg`: validated eigendecompositions, moduli, fixed matrices, ensembles,
  and the one power-of-two scaling (`_scaled`, `_unscaled`) every layer uses
- `norms`: Schatten / Ky Fan / weighted-gauge norms and their comparisons
- `geometry`: planar enclosing circles and maximum-variance distributions
- `radii`: minimal-shift matrix radii, their duality with state variance,
  and the numerical range
- `commutators`: norm bounds for XY - YX, witness families, constant search
- `suites`: randomized re-verification of every library invariant
- `cli`: the `matvar` command-line interface

Each layer's `__all__` is its public API, and the package re-exports exactly
those names; `cli` is imported only by the `matvar` command.
"""

from . import commutators, geometry, linalg, norms, radii, suites
from .linalg import *
from .norms import *
from .geometry import *
from .radii import *
from .commutators import *
from .suites import *

__version__ = "0.1.0"

# ConvergenceError is listed by both geometry and radii: one class, named once
__all__ = list(dict.fromkeys(name for layer in (linalg, norms, geometry, radii, commutators, suites)
                             for name in layer.__all__))
