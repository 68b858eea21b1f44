"""Exact verification engine for the symmetry algebra of the CR sub-Laplacian.

Subpackages cover: exact scalars and Laurent polynomial rings, normal-ordered
differential operators, the ambient-space construction, the boundary (CR)
model with its canonical homogeneous extension, the symbol calculus, the
class algebra of the symmetric group, and the tensor decomposition of the
trace-free symmetric powers of sl(V).  The `cli` module exposes batch
verification suites over all of it.
"""

from .scalars import GR_I, GR_ONE, GR_ZERO, GaussianRational, RATIONAL_BACKEND, gr, rat
from .rings import LaurentPoly, Ring, RingMismatchError, UnknownGeneratorError
from .weyl import WeylOperator

__all__ = [
    "GaussianRational",
    "gr",
    "rat",
    "GR_ZERO",
    "GR_ONE",
    "GR_I",
    "RATIONAL_BACKEND",
    "Ring",
    "LaurentPoly",
    "RingMismatchError",
    "UnknownGeneratorError",
    "WeylOperator",
]

__version__ = "0.1.0"
