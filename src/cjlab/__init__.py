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
"""

from cjlab.spectra import (
    ConeSpec,
    link_eigenvalues,
    indicial_data,
)
from cjlab.profile import (
    ShootingConfig,
    IntegrationFailure,
    integrate_profile,
    geometry_trace,
    cone_ray,
    jacobi_field_translation,
    jacobi_field_rotation,
    cone_crossings,
)
from cjlab.jacobi import (
    emden_fowler_transform,
    left_fundamental_pair,
    solve_jacobi,
    near_origin_behavior,
    weighted_sup_norm,
)
from cjlab.plateau import (
    plateau_profile,
    alpha_of_R,
    plateau_zeta0,
    minimal_graph_residual,
)

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
