"""Forward and inverse solver for Love-wave dispersion in layered half-spaces.

The forward path evaluates the dispersion function of an (n+1)-layer
elastic half-space with overflow-safe scaled transfer matrices, finds all
wavenumber roots at a frequency, traces branches, and counts modes against
Weyl-law asymptotics.  The inverse path recovers layer velocities,
thicknesses, and (for one layer) densities from dispersion data, with a
Levenberg-Marquardt least-squares refiner on Rayleigh-principle
sensitivities for the general case.  Two independent oracles (a
boundary-matching determinant and a finite-difference eigensolver)
cross-check the physics.
"""

from . import branch, dispersion, errors, inversion, medium, modes, oracles, spectral
from .branch import *
from .dispersion import *
from .errors import *
from .inversion import *
from .medium import *
from .modes import *
from .oracles import *
from .spectral import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (branch, dispersion, errors, inversion, medium, modes, oracles, spectral)
    for name in module.__all__
]
