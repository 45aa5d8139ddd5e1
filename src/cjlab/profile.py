"""Arc-length profile curves of O(m)xO(n)-invariant minimal hypersurfaces.

The hypersurface is generated by a planar curve gamma(s) = (a(s), b(s))
in the closed quadrant, parametrised by arc length, with tangent angle
phi to the a axis.  The state holds theta = pi/2 - phi, which a float keeps
to full relative precision near the axis, where phi rounds it to 1e-16.
Zero mean curvature reduces to the first-order system

    a'     = sin(theta),
    b'     = cos(theta),
    theta' = -phi' = (m-1) cos(theta)/a - (n-1) sin(theta)/b.

The principal curvatures are kappa_0 = phi' (the curve), kappa_a =
sin(phi)/a with multiplicity m-1 and kappa_b = -cos(phi)/b with
multiplicity n-1; their sum is the vanishing mean curvature, fixing the
sign convention.  The normal is oriented so the dilation Jacobi field
zeta_0 = a b' - a' b equals +1 at the axis start.

The axis is a regular singular point: the curve leaves (1, 0)
orthogonally, and integration starts at s = epsilon from the series

    theta(eps) = (m-1) eps / n,
    a(eps)     = 1 + (m-1) eps^2 / (2n),
    b(eps)     = eps.

The series is validated in the test suite against a tiny-epsilon
integration started from the regularised limit phi'(0+) = -(m-1)/n.
The curve leaving (0, 1) instead is the (n, m) curve mirrored by
(a, b, phi) -> (b, a, pi/2 - phi).  :func:`integrate_profile` runs this
system at rtol :data:`cjlab.dop853.RTOL` and atol RTOL / 100;
``solve_jacobi`` runs the same right-hand side with (psi, psi') appended.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from cjlab import DEFAULT_GRID_STEP, IntegrationFailure
from cjlab.dop853 import RTOL, dop853
from cjlab.spectra import ConeSpec

__all__ = [
    "ShootingConfig",
    "ProfileCurve",
    "GeometryTrace",
    "integrate_profile",
    "geometry_trace",
    "curvature_terms",
    "arc_length_defect",
    "cone_ray",
    "jacobi_field_translation",
    "jacobi_field_rotation",
    "cone_crossings",
]

#: Largest sample grid a :class:`ShootingConfig` accepts: about 69x the
#: default Jacobi grid of 14,559 samples.  A ``cjl jacobi --m 3 --n 3``
#: process peaks at about 224 MB RSS on a 997,087-sample grid, and 39 MB
#: on the default one.
MAX_GRID_SAMPLES = 1_000_000
#: The profile's stiffness, and with it the integrator's step count, grows
#: like max(m, n): about 1 s per 10,000 at the default settings.
MAX_SHOOTING_DIMENSION = 100


@dataclass(frozen=True)
class ShootingConfig:
    """Start and sample grid of a profile integration (its tolerance is :data:`RTOL`).

    ``grid_step`` is the uniform spacing of the stored samples in
    log(s); the log-uniform grid is what the downstream transform and
    finite-difference diagnostics assume.
    """

    spec: ConeSpec
    epsilon: float = 1e-3
    s_max: float = 200.0
    grid_step: float = DEFAULT_GRID_STEP

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 0.1:
            raise ValueError("epsilon must lie in (0, 0.1)")
        if max(self.spec.m, self.spec.n) > MAX_SHOOTING_DIMENSION:
            raise ValueError(f"m and n must not exceed {MAX_SHOOTING_DIMENSION}")
        for name in ("s_max", "grid_step"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.s_max <= self.epsilon:
            raise ValueError("s_max must exceed epsilon")
        if self.s_max / self.epsilon == math.inf:
            raise ValueError(f"s_max / epsilon = {self.s_max:g} / {self.epsilon:g} leaves the "
                             "float range")
        steps = math.log(self.s_max / self.epsilon) / self.grid_step  # see grid()
        if steps > MAX_GRID_SAMPLES - 1:
            raise ValueError(f"grid of {steps + 1:.3g} samples exceeds "
                             f"MAX_GRID_SAMPLES = {MAX_GRID_SAMPLES}")

    def grid(self) -> np.ndarray:
        """Sample arc lengths s = epsilon * exp(k h), k = 0..K, with the log
        step h <= grid_step snapped so the grid hits s_max exactly."""
        span = math.log(self.s_max / self.epsilon)
        n_int = max(8, int(math.ceil(span / self.grid_step)))
        s = np.exp(math.log(self.epsilon) + (span / n_int) * np.arange(n_int + 1))
        s[0], s[-1] = self.epsilon, self.s_max
        return s


@dataclass(frozen=True)
class ProfileCurve:
    """Sampled profile curve on a log-uniform arc-length grid."""

    spec: ConeSpec
    s: np.ndarray
    a: np.ndarray
    b: np.ndarray
    theta: np.ndarray  # pi/2 - phi, the stored angle (module docstring)
    #: right-hand-side evaluations of the run (the benchmark's tracer reads this name)
    accepted_steps: int = 0

    @functools.cached_property
    def t(self) -> np.ndarray:
        """log(s) grid."""
        return np.log(self.s)

    @property
    def phi(self) -> np.ndarray:
        return np.pi / 2 - self.theta  # the tangent's angle to the a axis


@dataclass(frozen=True)
class GeometryTrace:
    """Per-sample geometric quantities along a profile curve."""

    alpha: np.ndarray
    A2: np.ndarray
    trA3: np.ndarray
    zeta0: np.ndarray
    Hres: np.ndarray
    # closed-form helpers of the log-radial transform and the left pair
    dphi: np.ndarray = field(repr=False)
    alpha_prime: np.ndarray = field(repr=False)


def _series_start(spec: ConeSpec, eps: float) -> list[float]:
    m, n = spec.m, spec.n
    return [1.0 + (m - 1) * eps**2 / (2 * n), eps, (m - 1) * eps / n]


def _rhs(s: float, y: np.ndarray, spec: ConeSpec, f: Callable | None = None) -> list:
    """Derivative of the state (a, b, theta), and of (psi, psi') when y
    carries them: the Jacobi solve's, with forcing ``f(s, a, b, phi)``
    (default tr(A^3))."""
    try:
        return _derivative(spec, f, s, math, *y.tolist())
    except (ArithmeticError, ValueError):  # floats raise on x / 0, x**2 past the range and
        return _derivative(spec, f, s, np, *y)  # sin(inf); numpy scalars give inf or nan


def _derivative(spec: ConeSpec, f, s, lib, a, b, theta, psi=None, dpsi=None) -> list:
    ap, bp = lib.sin(theta), lib.cos(theta)
    dphi, alpha, A2, trA3 = curvature_terms(spec, a, b, ap, bp)
    if psi is None:
        return [ap, bp, -dphi]
    force = trA3 if f is None else f(s, a, b, math.pi / 2 - theta)
    return [ap, bp, -dphi, dpsi, force - alpha * dpsi - A2 * psi]


def _integrate(cfg: ShootingConfig, fun: Callable, y0: list, atol: float, stage: str) -> tuple:
    """One DOP853 run of ``fun`` from ``y0`` over ``cfg.grid()``: the curve of
    its (a, b, theta) samples, and all samples.  A run that stops early (the
    stepper's message says why), or a NaN sample or one outside the open
    quadrant, raises :class:`IntegrationFailure` naming ``stage`` and the
    last sample before."""
    spec, s = cfg.spec, cfg.grid()
    sol = dop853(fun, y0, atol, s)
    a, b, theta = sol.y[:3]
    # the IVP does not stop at an axis: a curve that crosses one shows here, before a later stop
    outside = np.flatnonzero(~((a > 0.0) & (b > 0.0)))
    if len(outside) or sol.status:
        i = outside[0] if len(outside) else len(sol.t)
        last_s = float(sol.t[i - 1]) if i else cfg.epsilon
        reason = (sol.message if i == len(sol.t) else "samples leave the open quadrant"
                  if a[i] <= 0.0 or b[i] <= 0.0 else "non-finite state")  # NaN
        raise IntegrationFailure(f"{stage} for (m,n)=({spec.m},{spec.n}) stopped at "
                                 f"s={last_s:.6g}: {reason}", last_s=last_s)
    return ProfileCurve(spec=spec, s=s, a=a, b=b, theta=theta, accepted_steps=sol.nfev), sol.y


def integrate_profile(cfg: ShootingConfig) -> ProfileCurve:
    """Integrate the profile system from the axis series start on
    :meth:`ShootingConfig.grid`; a run that stops early or a sample outside
    the open quadrant raises :class:`IntegrationFailure` with the last valid s."""
    spec = cfg.spec
    return _integrate(cfg, lambda s, y: _rhs(s, y, spec), _series_start(spec, cfg.epsilon),
                      RTOL * 1e-2, "profile integration")[0]


def cone_ray(spec: ConeSpec, s: np.ndarray) -> ProfileCurve:
    """Straight profile lying on the cone: (a, b) = s (cos, sin)(phi*)."""
    s = np.asarray(s, dtype=float)
    phi_star = spec.cone_angle
    return ProfileCurve(
        spec=spec,
        s=s,
        a=s * math.cos(phi_star),
        b=s * math.sin(phi_star),
        theta=np.full_like(s, math.pi / 2 - phi_star),
    )


def curvature_terms(spec: ConeSpec, a, b, ap, bp):
    """Closed-form phi', alpha, |A|^2 and tr(A^3) at profile points (a, b)
    with direction cosines ap = cos(phi) = sin(theta), bp = sin(phi) = cos(theta).

    The one place these terms are formed, for the right-hand side and for
    :func:`geometry_trace`.  Floats give floats (the right-hand side unpacks
    the integrator's state into floats), numpy scalars give numpy scalars
    with the same bits, and arrays give arrays.
    """
    m, n = spec.m, spec.n
    dphi = (n - 1) * ap / b - (m - 1) * bp / a
    ka = bp / a
    kb = -ap / b
    alpha = (m - 1) * ap / a + (n - 1) * bp / b
    A2 = dphi**2 + (m - 1) * ka**2 + (n - 1) * kb**2
    if m == n + 1:
        # the direct sum cancels to O(u^2) near the axis, where u = ka + kb -> 0;
        # with dphi = -n ka - (n-1) kb it factors exactly
        u = ka + kb
        trA3 = -n * (n - 1) * (u * u) * (3 * ka + (n - 2) * u)
    else:
        # x * x * x: on negative x, numpy's x**3 leaves its fast loop and is ~100x slower
        trA3 = dphi * dphi * dphi + (m - 1) * (ka * ka * ka) + (n - 1) * (kb * kb * kb)
    return dphi, alpha, A2, trA3


#: fourth-order one-sided stencils, times 12, for the first two samples
_END_STENCILS = ((-25.0, 48.0, -36.0, 16.0, -3.0), (-3.0, -10.0, 18.0, -6.0, 1.0))


def _dot5(c: tuple, v: list) -> float:
    return c[0] * v[0] + c[1] * v[1] + c[2] * v[2] + c[3] * v[3] + c[4] * v[4]


def _fd_derivative_log(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Five-point centred derivative dy/dt on a uniform grid (one-sided at ends).

    The end stencils are explicit sums on floats: the bits of a BLAS dot
    product would depend on the memory layout of y."""
    h = t[1] - t[0]
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    head, tail = y[:5].tolist(), y[:-6:-1].tolist()  # tail runs from the last sample back
    for i, c in enumerate(_END_STENCILS):
        d[i] = _dot5(c, head) / (12 * h)
        d[-1 - i] = -_dot5(c, tail) / (12 * h)
    return d


def geometry_trace(curve: ProfileCurve) -> GeometryTrace:
    """Evaluate alpha, |A|^2, tr(A^3), zeta_0 and the H-residual.

    All fields come from closed forms in (s, a, b, theta); the H-residual
    alone replaces phi' = -theta' by a finite-difference derivative of the
    theta samples, so it measures how well the stored curve satisfies the
    curvature equation independently of the integrator.
    """
    spec = curve.spec
    m, n = spec.m, spec.n
    a, b, theta, s = curve.a, curve.b, curve.theta, curve.s
    if np.any(s <= 0.0) or np.any(a <= 0.0) or np.any(b <= 0.0):
        raise ValueError("geometry trace requires samples with s, a, b > 0")
    with np.errstate(all="ignore"):  # non-finite values show in Hres
        ap, bp = np.sin(theta), np.cos(theta)
        dphi, alpha, A2, trA3 = curvature_terms(spec, a, b, ap, bp)
        zeta0 = a * bp - ap * b
        Hres = (m - 1) * bp / a - (n - 1) * ap / b - _fd_derivative_log(curve.t, theta) / s
        app, bpp = -bp * dphi, ap * dphi
        alpha_prime = (m - 1) * (app / a - (ap / a) ** 2) + (n - 1) * (bpp / b - (bp / b) ** 2)
    return GeometryTrace(
        alpha=alpha,
        A2=A2,
        trA3=trA3,
        zeta0=zeta0,
        Hres=Hres,
        dphi=dphi,
        alpha_prime=alpha_prime,
    )


def arc_length_defect(curve: ProfileCurve) -> np.ndarray:
    """| |gamma'| - 1 | with gamma' reconstructed by finite differences."""
    da = _fd_derivative_log(curve.t, curve.a) / curve.s
    db = _fd_derivative_log(curve.t, curve.b) / curve.s
    return np.abs(np.hypot(da, db) - 1.0)


def jacobi_field_translation(curve: ProfileCurve) -> tuple[np.ndarray, np.ndarray]:
    """Profiles (a'(s), b'(s)) of the translation Jacobi fields."""
    return np.sin(curve.theta), np.cos(curve.theta)


def jacobi_field_rotation(curve: ProfileCurve) -> np.ndarray:
    """Rotation Jacobi field zeta_M(s) = a a' + b b' (first x/y mixing)."""
    return curve.a * np.sin(curve.theta) + curve.b * np.cos(curve.theta)


def cone_crossings(curve: ProfileCurve) -> int:
    """Number of strict sign changes of (n-1) a^2 - (m-1) b^2."""
    side = (curve.spec.n - 1) * curve.a**2 - (curve.spec.m - 1) * curve.b**2
    sgn = np.sign(side)
    sgn = sgn[sgn != 0]
    return int(np.sum(sgn[1:] * sgn[:-1] < 0))
