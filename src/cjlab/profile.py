"""Arc-length profile curves of O(m)xO(n)-invariant minimal hypersurfaces.

The hypersurface is generated by a planar curve gamma(s) = (a(s), b(s))
in the closed quadrant, parametrised by arc length: a' = cos(phi),
b' = sin(phi).  Zero mean curvature reduces to the first-order system

    a'   = cos(phi),
    b'   = sin(phi),
    phi' = (n-1) cos(phi)/b - (m-1) sin(phi)/a.

The principal curvatures are kappa_0 = phi' (the curve), kappa_a =
sin(phi)/a with multiplicity m-1 and kappa_b = -cos(phi)/b with
multiplicity n-1; their sum is the vanishing mean curvature, fixing the
sign convention.  The normal is oriented so the dilation Jacobi field
zeta_0 = a b' - a' b equals +1 at the axis start.

The axis is a regular singular point: the curve leaves (1, 0)
orthogonally, and integration starts at s = epsilon from the series

    phi(eps) = pi/2 - (m-1) eps / n,
    a(eps)   = 1 + (m-1) eps^2 / (2n),
    b(eps)   = eps.

The series is validated in the test suite against a tiny-epsilon
integration started from the regularised limit phi'(0+) = -(m-1)/n.
The curve leaving (0, 1) instead is the (n, m) curve mirrored by
(a, b, phi) -> (b, a, pi/2 - phi).  Every profile integration runs at
relative tolerance :data:`RTOL` and absolute tolerance RTOL / 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from cjlab.spectra import ConeSpec

__all__ = [
    "ShootingConfig",
    "ProfileCurve",
    "GeometryTrace",
    "IntegrationFailure",
    "integrate_profile",
    "geometry_trace",
    "curvature_terms",
    "arc_length_defect",
    "cone_ray",
    "jacobi_field_dilation",
    "jacobi_field_translation",
    "jacobi_field_rotation",
    "cone_crossings",
]

#: Largest sample grid a :class:`ShootingConfig` accepts: about 7x the
#: default Jacobi grid (145,576 samples, ~150 MB peak RSS for the run).
MAX_GRID_SAMPLES = 1_000_000
#: The profile's stiffness, and with it the integrator's step count, grows
#: like max(m, n): about 1 s per 10,000 at the default settings.
MAX_SHOOTING_DIMENSION = 100
#: Relative tolerance of every ODE integration in the package; at 1e-12 the
#: m = 2, n >= 8 profiles miss the 1e-7 H-residual target.
RTOL = 1e-13


class IntegrationFailure(RuntimeError):
    """Profile integration aborted; carries the last valid arc length."""

    def __init__(self, message: str, last_s: float):
        super().__init__(message)
        self.last_s = last_s


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
    grid_step: float = 1e-4

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
    phi: np.ndarray
    accepted_steps: int = 0

    @property
    def t(self) -> np.ndarray:
        """log(s) grid."""
        return np.log(self.s)


@dataclass(frozen=True)
class GeometryTrace:
    """Per-sample geometric quantities along a profile curve."""

    alpha: np.ndarray
    A2: np.ndarray
    trA3: np.ndarray
    zeta0: np.ndarray
    Hres: np.ndarray
    # closed-form helpers consumed by the log-radial transform
    dphi: np.ndarray = field(repr=False)
    alpha_prime: np.ndarray = field(repr=False)
    dzeta0_dt: np.ndarray = field(repr=False)


def _series_start(spec: ConeSpec, eps: float) -> list[float]:
    m, n = spec.m, spec.n
    return [1.0 + (m - 1) * eps**2 / (2 * n), eps, math.pi / 2 - (m - 1) * eps / n]


def _rhs(s: float, y: np.ndarray, m: int, n: int):
    a, b, phi = y
    return [math.cos(phi), math.sin(phi),
            (n - 1) * math.cos(phi) / b - (m - 1) * math.sin(phi) / a]


def _sampled_curve(spec: ConeSpec, s: np.ndarray, y: np.ndarray,
                   accepted_steps: int = 0) -> ProfileCurve:
    """The curve of integrator samples y = (a, b, phi) at s; raises
    :class:`IntegrationFailure` if a sample leaves the open quadrant."""
    a, b, phi = y
    outside = np.nonzero(~((a > 0.0) & (b > 0.0)))[0]
    if len(outside):  # a loose-tolerance dense output, or an IVP with no axis event, can cross
        raise IntegrationFailure(f"profile samples for (m,n)=({spec.m},{spec.n}) leave the "
                                 "open quadrant", last_s=float(s[max(outside[0] - 1, 0)]))
    return ProfileCurve(spec=spec, s=s, a=a, b=b, phi=phi, accepted_steps=accepted_steps)


def integrate_profile(cfg: ShootingConfig) -> ProfileCurve:
    """Integrate the profile system from the axis series start.

    Samples are stored on :meth:`ShootingConfig.grid` via the
    integrator's dense output.  An interior collision with
    either axis stops the run and raises :class:`IntegrationFailure`
    carrying the last valid arc length.
    """
    # deferred: scipy costs ~0.5 s to import, which paths that do not integrate skip
    from scipy.integrate import solve_ivp

    m, n = cfg.spec.m, cfg.spec.n
    y0 = _series_start(cfg.spec, cfg.epsilon)

    def hit_axis(s, y, *_args):
        return min(y[0], y[1])

    hit_axis.terminal = True
    hit_axis.direction = -1

    with np.errstate(all="ignore"):  # overflow ends the run or shows in Hres
        sol = solve_ivp(
            _rhs,
            (cfg.epsilon, cfg.s_max),
            y0,
            args=(m, n),
            method="DOP853",
            rtol=RTOL,
            atol=RTOL * 1e-2,
            dense_output=True,
            events=hit_axis,
        )
    if sol.status < 0 or sol.t[-1] < cfg.s_max:
        raise IntegrationFailure(
            f"profile integration for (m,n)=({m},{n}) stopped at s={sol.t[-1]:.6g}",
            last_s=float(sol.t[-1]),
        )
    s = cfg.grid()
    return _sampled_curve(cfg.spec, s, sol.sol(s), accepted_steps=len(sol.t))


def cone_ray(spec: ConeSpec, s: np.ndarray) -> ProfileCurve:
    """Straight profile lying on the cone: (a, b) = s (cos, sin)(phi*)."""
    s = np.asarray(s, dtype=float)
    phi_star = spec.cone_angle
    return ProfileCurve(
        spec=spec,
        s=s,
        a=s * math.cos(phi_star),
        b=s * math.sin(phi_star),
        phi=np.full_like(s, phi_star),
    )


def curvature_terms(spec: ConeSpec, a, b, phi):
    """Closed-form phi', alpha, |A|^2 and tr(A^3) at profile points (a, b, phi).

    Takes floats or arrays; :func:`geometry_trace` and the Jacobi solve
    both evaluate the geometry through this one function.
    """
    m, n = spec.m, spec.n
    ap, bp = np.cos(phi), np.sin(phi)
    dphi = (n - 1) * ap / b - (m - 1) * bp / a
    ka = bp / a
    kb = -ap / b
    alpha = (m - 1) * ap / a + (n - 1) * bp / b
    A2 = dphi**2 + (m - 1) * ka**2 + (n - 1) * kb**2
    trA3 = dphi**3 + (m - 1) * ka**3 + (n - 1) * kb**3
    return dphi, alpha, A2, trA3


def _fd_derivative_log(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Five-point centred derivative dy/dt on a uniform grid (one-sided at ends)."""
    h = t[1] - t[0]
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    # fourth-order one-sided stencils for the two samples at each end
    c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    d[0] = np.dot(c, y[:5]) / h
    d[1] = np.dot(np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0, y[:5]) / h
    d[-1] = -np.dot(c, y[-5:][::-1]) / h
    d[-2] = -np.dot(np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0, y[-5:][::-1]) / h
    return d


def geometry_trace(curve: ProfileCurve) -> GeometryTrace:
    """Evaluate alpha, |A|^2, tr(A^3), zeta_0 and the H-residual.

    All fields come from closed forms in (s, a, b, phi); the H-residual
    alone replaces phi' by a finite-difference derivative of the phi
    samples, so it measures how well the stored curve satisfies the
    curvature equation independently of the integrator.
    """
    spec = curve.spec
    m, n = spec.m, spec.n
    a, b, phi, s = curve.a, curve.b, curve.phi, curve.s
    if np.any(s <= 0.0) or np.any(a <= 0.0) or np.any(b <= 0.0):
        raise ValueError("geometry trace requires samples with s, a, b > 0")
    with np.errstate(all="ignore"):  # non-finite values show in Hres
        ap, bp = np.cos(phi), np.sin(phi)
        dphi, alpha, A2, trA3 = curvature_terms(spec, a, b, phi)
        zeta0 = a * bp - ap * b
        dphi_fd = _fd_derivative_log(curve.t, phi) / s
        Hres = dphi_fd + (m - 1) * np.sin(phi) / a - (n - 1) * np.cos(phi) / b
        app, bpp = -np.sin(phi) * dphi, np.cos(phi) * dphi
        alpha_prime = (m - 1) * (app / a - (ap / a) ** 2) + (n - 1) * (bpp / b - (bp / b) ** 2)
        dzeta0_dt = s * dphi * (a * ap + b * bp)
    return GeometryTrace(
        alpha=alpha,
        A2=A2,
        trA3=trA3,
        zeta0=zeta0,
        Hres=Hres,
        dphi=dphi,
        alpha_prime=alpha_prime,
        dzeta0_dt=dzeta0_dt,
    )


def arc_length_defect(curve: ProfileCurve) -> np.ndarray:
    """| |gamma'| - 1 | with gamma' reconstructed by finite differences."""
    da = _fd_derivative_log(curve.t, curve.a) / curve.s
    db = _fd_derivative_log(curve.t, curve.b) / curve.s
    return np.abs(np.hypot(da, db) - 1.0)


def jacobi_field_dilation(curve: ProfileCurve) -> np.ndarray:
    """Dilation Jacobi field zeta_0(s) = a b' - a' b."""
    return curve.a * np.sin(curve.phi) - np.cos(curve.phi) * curve.b


def jacobi_field_translation(curve: ProfileCurve) -> tuple[np.ndarray, np.ndarray]:
    """Profiles (a'(s), b'(s)) of the translation Jacobi fields."""
    return np.cos(curve.phi), np.sin(curve.phi)


def jacobi_field_rotation(curve: ProfileCurve) -> np.ndarray:
    """Rotation Jacobi field zeta_M(s) = a a' + b b' (first x/y mixing)."""
    return curve.a * np.cos(curve.phi) + curve.b * np.sin(curve.phi)


def cone_crossings(curve: ProfileCurve) -> int:
    """Number of strict sign changes of (n-1) a^2 - (m-1) b^2."""
    side = (curve.spec.n - 1) * curve.a**2 - (curve.spec.m - 1) * curve.b**2
    sgn = np.sign(side)
    sgn = sgn[sgn != 0]
    return int(np.sum(sgn[1:] * sgn[:-1] < 0))
