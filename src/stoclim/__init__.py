"""Stochastic-limit dynamics of small open quantum systems.

Frequency-resolved Markovian generators for finite systems in thermal
reservoirs: spectral decomposition into transition components, reservoir
damping and shift constants, Lindblad-form generators with their classical
kinetic restrictions, and Ising spin-chain flip dynamics.
"""

# each star import also binds its submodule's name here, which __all__ reads
from .bath import *
from .config import *
from .evolution import *
from .generator import *
from .glauber import *
from .operators import *

__all__ = [
    *bath.__all__,
    *config.__all__,
    *evolution.__all__,
    *generator.__all__,
    *glauber.__all__,
    *operators.__all__,
]

__version__ = "0.1.0"
