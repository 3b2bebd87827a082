"""Numerics for the semilinear fractional heat equation on a 1D lattice.

Discretizes (-Laplacian)^s by its explicit lattice convolution kernel,
the Caputo derivative by backward Euler / L1 marching, and provides the
subordinated semigroup solution operators plus a convergence-study
harness with manufactured solutions.

The package exports exactly the names in its modules' `__all__` lists.
"""

from .grid import *
from .kernel import *
from .special import *
from .semigroup import *
from .evolution import *
from .problems import *
from .study import *

__version__ = "0.1.0"
