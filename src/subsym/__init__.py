"""Exact verification engine for the symmetry algebra of the CR sub-Laplacian.

Subpackages cover: exact scalars and Laurent polynomial rings, normal-ordered
differential operators, the ambient-space construction, the boundary (CR)
model with its canonical homogeneous extension, the symbol calculus, the
class algebra of the symmetric group, and the tensor decomposition of the
trace-free symmetric powers of sl(V).  The `cli` module exposes batch
verification suites over all of it.

Importing the package loads only ``scalars``; every other module is imported
by name, so a request loads only the modules its checks use.
"""

from .scalars import GR_I, GR_ONE, GR_ZERO, GaussianRational, RATIONAL_BACKEND, gr, rat

__all__ = [
    "GaussianRational",
    "gr",
    "rat",
    "GR_ZERO",
    "GR_ONE",
    "GR_I",
    "RATIONAL_BACKEND",
]

__version__ = "0.1.0"
