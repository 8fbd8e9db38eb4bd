"""Volume expansion along optimal-control geodesics.

Declare an affine control structure symbolically (drift, orthonormal
frame, potential, volume density), then compute the geodesic flag and
its growth vector, the geodesic dimension, the exact leading constant
of the small-time volume expansion, the volume-dynamics invariant rho,
and fit the full expansion numerically against the closed-form model.
An exact-rational module checks the combinatorial identities behind
the leading constant with zero tolerance.

The scalar invariant itself lives at geoflow.rho.rho; the top level
re-exports everything whose name does not collide with a submodule.
"""

from .geometry import (GeometryError, VectorField, ControlSystem,
                       lie_bracket, aux_frame_at, divergence,
                       frame_determinant, load_structure,
                       structure_from_dict)
from .hamiltonian import (IntegrationError, Geodesic, flow, transition,
                          vertical_jacobian, signed_log_det)
from .flag import (FlagError, GeodesicFlag, flag_at, geodesic_dimension,
                   homogeneous_weight, young_diagram, leading_constant,
                   admissible_extension)
from .rho import (RhoError, rho_flow, g_rel, log_volume_ratios,
                  scaling_checks, riemannian_rho_field,
                  riemannian_divergence_check)
from .asymptotics import (AsymptoticsError, ExpansionFit, fit_expansion,
                          exponent_probe, ricci_oracle, fit_report,
                          write_fit_csv)
from .catalog import (builtin, list_builtins, martinet,
                      default_base, sample_covector, with_overrides)

# Submodule bindings last, so package attributes stay modules even where
# a module exports a function spelled like its own file.
from . import exact, expr, geometry, hamiltonian, flag, rho  # noqa: E402
from . import asymptotics, catalog  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "GeometryError", "VectorField", "ControlSystem", "lie_bracket",
    "aux_frame_at", "divergence", "frame_determinant", "load_structure",
    "structure_from_dict",
    "IntegrationError", "Geodesic", "flow", "transition",
    "vertical_jacobian", "signed_log_det",
    "FlagError", "GeodesicFlag", "flag_at", "geodesic_dimension", "homogeneous_weight", "young_diagram",
    "leading_constant", "admissible_extension",
    "RhoError", "rho_flow", "g_rel", "log_volume_ratios", "scaling_checks",
    "riemannian_rho_field", "riemannian_divergence_check",
    "AsymptoticsError", "ExpansionFit", "fit_expansion", "exponent_probe",
    "ricci_oracle", "fit_report", "write_fit_csv",
    "builtin", "list_builtins", "martinet", "default_base",
    "sample_covector", "with_overrides",
    "exact", "expr", "geometry", "hamiltonian", "flag", "rho",
    "asymptotics", "catalog",
]
