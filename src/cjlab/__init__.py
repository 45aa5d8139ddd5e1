"""Numerical laboratory for O(m)xO(n)-invariant minimal hypersurfaces.

The package studies hypersurfaces asymptotic to the Lawson cone
C_{m,n} = {(n-1)|x|^2 = (m-1)|y|^2} in R^m x R^n.  Each name lives in
one module, and is imported from there:

- :mod:`cjlab.spectra`: the spectrum of the link Jacobi operator and the
  indicial roots at infinity;
- :mod:`cjlab.profile`: the arc-length profile curve of the invariant
  hypersurface, with its geometry and geometric Jacobi fields;
- :mod:`cjlab.jacobi`: the reduced Jacobi equation
  psi'' + alpha psi' + beta psi = f, solved as one initial value problem
  from the axis, with log-radial diagnostics;
- :mod:`cjlab.plateau`: the explicit radial exterior minimal graph;
- :mod:`cjlab.decay`: decay exponents of the computed fields;
- :mod:`cjlab.cli`: the ``cjl`` command line, with :mod:`cjlab.io` for
  its files, :mod:`cjlab.dop853` for its stepper and :mod:`cjlab.g10`
  for its CSV number format.

``import cjlab`` loads no submodule and no numpy.  The two exception
classes and :data:`DEFAULT_GRID_STEP` live here, so that a caller can catch
the former and read the latter without importing the numerical layer.
"""

__version__ = "0.1.0"

#: default log-s sample spacing of ``profile.ShootingConfig`` and every integrating ``cjl`` command
DEFAULT_GRID_STEP = 1e-3


class IntegrationFailure(RuntimeError):
    """Profile integration aborted; carries the last valid arc length."""

    def __init__(self, message: str, last_s: float):
        super().__init__(message)
        self.last_s = last_s


class DiagnosticError(ValueError):
    """A diagnostic cannot be computed on this grid; the message names the stage."""
