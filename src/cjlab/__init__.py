"""Numerical laboratory for O(m)xO(n)-invariant minimal hypersurfaces.

The package studies hypersurfaces asymptotic to the Lawson cone
C_{m,n} = {(n-1)|x|^2 = (m-1)|y|^2} in R^m x R^n.  It computes the
spectrum of the link Jacobi operator and the indicial roots at infinity
(:mod:`cjlab.spectra`), integrates the arc-length profile curve of the
invariant hypersurface together with its geometric Jacobi fields
(:mod:`cjlab.profile`), solves the reduced Jacobi equation
psi'' + alpha psi' + beta psi = f as one initial value problem from the
axis, with log-radial diagnostics (:mod:`cjlab.jacobi`), evaluates
the explicit radial exterior minimal graph (:mod:`cjlab.plateau`), and
estimates decay exponents of the computed fields (:mod:`cjlab.decay`).

The names below are re-exported lazily (PEP 562): ``import cjlab`` loads
no submodule and no numpy; the first access to a name imports its module.
The two exception classes live here, so that a caller can catch them
without importing the numerical layer.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "ConeSpec",
    "link_eigenvalues",
    "indicial_data",
    "ShootingConfig",
    "IntegrationFailure",
    "integrate_profile",
    "geometry_trace",
    "cone_ray",
    "jacobi_field_translation",
    "jacobi_field_rotation",
    "cone_crossings",
    "emden_fowler_transform",
    "left_fundamental_pair",
    "solve_jacobi",
    "near_origin_behavior",
    "weighted_sup_norm",
    "plateau_profile",
    "alpha_of_R",
    "plateau_zeta0",
    "minimal_graph_residual",
    "__version__",
]


class IntegrationFailure(RuntimeError):
    """Profile integration aborted; carries the last valid arc length."""

    def __init__(self, message: str, last_s: float):
        super().__init__(message)
        self.last_s = last_s


class DiagnosticError(ValueError):
    """A diagnostic cannot be computed on this grid; the message names the stage."""


#: re-exported name -> the submodule that defines it
_SOURCE = {
    **dict.fromkeys(("ConeSpec", "link_eigenvalues", "indicial_data"), "spectra"),
    **dict.fromkeys(("ShootingConfig", "integrate_profile", "geometry_trace", "cone_ray",
                     "jacobi_field_translation", "jacobi_field_rotation", "cone_crossings"),
                    "profile"),
    **dict.fromkeys(("emden_fowler_transform", "left_fundamental_pair", "solve_jacobi",
                     "near_origin_behavior", "weighted_sup_norm"), "jacobi"),
    **dict.fromkeys(("plateau_profile", "alpha_of_R", "plateau_zeta0",
                     "minimal_graph_residual"), "plateau"),
}


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value
