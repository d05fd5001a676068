"""rgpert: exact renormalization-group perturbation engine for
oscillator ODEs of the form y'' + y = eps * V(eps, e^{it}, e^{-it}, y, y').
"""

__version__ = "0.1.0"

from .potential import Potential, parse_potential
from .perturbation import expand, NaiveSeries
from .rg import (derive_rg, normal_form, to_polar, limit_cycle, RGSystem,
                 PolarRG)
from .verify import run_identity_suite

__all__ = ["Potential", "parse_potential", "expand", "NaiveSeries",
           "derive_rg", "normal_form", "to_polar", "limit_cycle", "RGSystem",
           "PolarRG", "run_identity_suite", "__version__"]
