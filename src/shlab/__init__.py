"""shlab: periodic-domain avalanche flow laboratory.

Finite-volume simulation of the height/momentum balance laws with multi-valued
Coulomb friction, a convex-integration subsolution workbench, and energy /
relative-energy diagnostics, all on the unit torus.
"""

__version__ = "0.1.0"

from .fields import TorusGrid, deviatoric_outer
from .friction import FrictionParams, coulomb_selection, friction_shrink
from .solver import Scenario, State, simulate
from .spectral import helmholtz_decompose

__all__ = [
    "__version__",
    "TorusGrid",
    "deviatoric_outer",
    "FrictionParams",
    "coulomb_selection",
    "friction_shrink",
    "Scenario",
    "State",
    "simulate",
    "helmholtz_decompose",
]
