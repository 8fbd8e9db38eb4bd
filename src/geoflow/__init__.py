"""Volume expansion along optimal-control geodesics.

Declare an affine control structure symbolically (drift, orthonormal
frame, potential, volume density), then compute the geodesic flag and
its growth vector, the geodesic dimension, the exact leading constant
of the small-time volume expansion, the volume-dynamics invariant rho,
and fit the full expansion numerically against the closed-form model.
An exact-rational module checks the combinatorial identities behind
the leading constant with zero tolerance.

The top level exposes the submodules only; every function and class is
reached through its module, e.g. geoflow.rho.rho or geoflow.flag.flag_at.
"""

from . import exact, expr, geometry, hamiltonian, flag, rho
from . import asymptotics, catalog

__version__ = "0.1.0"

__all__ = [
    "exact", "expr", "geometry", "hamiltonian", "flag", "rho",
    "asymptotics", "catalog",
]
