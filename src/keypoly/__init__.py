"""Key polynomials and the combinatorics of their monomial supports.

The package computes key polynomials exactly, enumerates skyline-diagram
combinatorics (lower diagrams, column-strict flagged fillings), generates
the reachability order of the two weight moves, and checks Newton
polytope lattice points with an exact rational LP, together with a batch
harness that cross-verifies the set equalities among all of these at
small scale.

The package exports exactly the public names each layer declares in its
own ``__all__``.
"""

from . import bruhat, diagram, filling, moves, polynomial, polytope, verify
from .bruhat import *
from .diagram import *
from .filling import *
from .moves import *
from .polynomial import *
from .polytope import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    name
    for layer in (polynomial, diagram, filling, moves, polytope, bruhat, verify)
    for name in layer.__all__
]
