"""Reduced Jacobi equation on an invariant profile, and its log-radial form.

For O(m)xO(n)-invariant data the Jacobi equation J psi = f reduces to

    psi_ss + alpha psi_s + beta psi = f,      alpha = (m-1)a'/a + (n-1)b'/b,

with beta = |A|^2.  :func:`solve_jacobi` computes the solution growing
from zero at the axis as one initial value problem in s, the profile's
(a, b, theta) right-hand side with (psi, psi_s) appended, so alpha, beta
and f are closed forms at every stage; its (a, b, theta) samples are the
one curve that everything below is built on.

The substitution s = e^t, psi = p(t) u(t) with

    p(t) = exp(-int_0^t (A(tau) - 1)/2 dtau),      A(t) := alpha(e^t) e^t,

removes the first-order term and yields

    u_tt + V(t) u = ftilde(t),
    V = -(A-1)^2/4 - A_t/2 + beta e^{2t},
    ftilde = e^{2t} f(e^t) / p(t),

where A_t = alpha'(e^t) e^{2t} + A is evaluated from the closed form of
alpha' along the profile (no numerical differentiation).  V tends to
-(n-2)^2/4 as t -> -infinity and to -(N-2)^2/4 + (N-1) as t -> +infinity.
The solve reports one fundamental-pair diagnostic: on [t0, t1] the
Wronskian drift of a pair with unit-matrix data at t0, which measures
that pair's own integration error.  On t <= t0, where zeta_0 is
sign-definite, :func:`left_fundamental_pair` (u_+ = zeta_0 / p exact,
u_- = u_+ int u_+^{-2} by a four-point cubic quadrature on the t grid)
and :func:`left_particular_vop` (psi / p from that pair by quadrature)
are independent cross-checks computed only on demand.

The residual of psi needs one finite difference only: the state carries
psi', so psi'' is the five-point derivative of its samples in t, the
stencil of the profile's H-residual.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from cjlab import DiagnosticError, IntegrationFailure, decay
from cjlab.dop853 import RTOL, dop853
from cjlab.profile import (
    GeometryTrace,
    ProfileCurve,
    ShootingConfig,
    _fd_derivative_log,
    _integrate,
    _rhs_at,
    _series_start,
    geometry_trace,
)
from cjlab.spectra import ConeSpec

__all__ = [
    "EmdenFowlerData",
    "FundamentalPair",
    "JacobiSolution",
    "NearOriginFit",
    "emden_fowler_transform",
    "left_fundamental_pair",
    "left_particular_vop",
    "solve_jacobi",
    "near_origin_behavior",
    "decay_diagnostics",
    "weighted_sup_norm",
    "residual_sup",
]

#: |V - V(+inf)| threshold that places the right breakpoint t1.
V_SETTLE_TOL = 1e-2

#: RHS evaluations after which the psi solve gives up: near-axis curvature
#: noise can keep DOP853 refining without end.  At ``cjl jacobi`` defaults a
#: run with m, n <= 10 takes at most 17,240 ((10,9), 1/29 of the budget),
#: but (64,64) takes 121,814, (100,100) 180,377 and (100,99) 232,790 (47 %).
MAX_PSI_NFEV = 500_000


@dataclass(frozen=True)
class EmdenFowlerData:
    """Log-radial transform of the reduced Jacobi equation, sampled on
    ``curve.t``; ``trace`` is the curve's geometry."""

    p: np.ndarray
    V: np.ndarray
    f_tilde: np.ndarray
    i0: int  # grid indices of the breakpoints t0 and t1
    i1: int
    curve: ProfileCurve = field(repr=False)
    trace: GeometryTrace = field(repr=False)

    @property
    def t0(self) -> float:
        return float(self.curve.t[self.i0])

    @property
    def t1(self) -> float:
        return float(self.curve.t[self.i1])


@dataclass(frozen=True)
class FundamentalPair:
    """Two homogeneous solutions with derivative samples on an interval,
    normalised to Wronskian u_+ u_-' - u_+' u_- = 1."""

    t: np.ndarray
    u_plus: np.ndarray
    u_minus: np.ndarray
    du_plus: np.ndarray
    du_minus: np.ndarray

    def wronskian_samples(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # products past the float range: nan
            return self.u_plus * self.du_minus - self.du_plus * self.u_minus

    @property
    def wronskian_drift(self) -> float:
        return float(np.max(np.abs(self.wronskian_samples() - 1.0)))


@dataclass
class JacobiSolution:
    """Solution psi(s) of psi'' + alpha psi' + beta psi = f with diagnostics,
    sampled on ``curve.s``."""

    psi: np.ndarray
    dpsi: np.ndarray
    residual_pointwise: np.ndarray
    residual: float
    #: sup |dpsi/ds - psi'| / sup |psi'|: whether psi' is the derivative of psi
    dpsi_defect: float
    ef: EmdenFowlerData
    middle_pair: FundamentalPair
    f: np.ndarray
    #: the profile (a, b, theta) integrated with psi, and its geometry
    curve: ProfileCurve = field(repr=False)
    trace: GeometryTrace = field(repr=False)
    atol: float


def emden_fowler_transform(curve: ProfileCurve, trace: GeometryTrace,
                           f: np.ndarray) -> EmdenFowlerData:
    """Build p, V and ftilde on the curve's log-uniform grid.

    Since A = d/dt ((m-1) log a + (n-1) log b), the weight is the closed
    form p = exp(L(0) - L) with L = ((m-1) log a + (n-1) log b - t) / 2.
    The grid must contain s = 1 (t = 0), where p is normalised to 1; L(0)
    is the cubic through the four samples nearest t = 0.  A p or ftilde
    past the float range (p ~ s^{-(n-2)/2} near the axis, s^{-(N-2)/2} far
    out) or a grid too short for t0 and t1 raises :class:`DiagnosticError`.
    """
    t = curve.t
    s = curve.s
    if not (s[0] < 1.0 < s[-1]):
        raise ValueError("curve must cover s = 1 so that p(0) = 1 can be imposed")
    f = np.asarray(f, dtype=float)
    if f.shape != s.shape:
        raise ValueError("f must be sampled on the curve grid")

    m, n = curve.spec.m, curve.spec.n
    L = 0.5 * ((m - 1) * np.log(curve.a) + (n - 1) * np.log(curve.b) - t)
    k = int(np.clip(np.searchsorted(t, 0.0) - 2, 0, len(t) - 4))
    with np.errstate(all="ignore"):  # a non-finite p or ftilde raises below
        p = np.exp(np.polyval(np.polyfit(t[k : k + 4], L[k : k + 4], 3), 0.0) - L)
        f_tilde = s * s * f / p
    bad = np.flatnonzero(~(np.isfinite(p) & np.isfinite(f_tilde)))
    if len(bad):
        raise DiagnosticError(f"log-radial transform: p or ftilde = s^2 f / p leaves the "
                              f"float range at s = {s[bad[0]]:.3g}")
    A = trace.alpha * s
    A_t = trace.alpha_prime * s * s + A
    V = -0.25 * (A - 1.0) ** 2 - 0.5 * A_t + trace.A2 * s * s

    i0 = _left_breakpoint_index(t, trace.zeta0)
    i1 = _right_breakpoint_index(t, V, curve.spec, i0)
    return EmdenFowlerData(p=p, V=V, f_tilde=f_tilde, i0=i0, i1=i1, curve=curve, trace=trace)


def _left_breakpoint_index(t: np.ndarray, zeta0: np.ndarray) -> int:
    """Grid index one unit of t before the first sign change of zeta_0, at
    least 16 samples from the start and 16 from the end (the end wins on
    grids of under 32 samples).  Fewer than the 3 samples on [t_min, t0]
    that :func:`left_fundamental_pair` needs raise :class:`DiagnosticError`."""
    sgn = np.sign(zeta0)
    flips = np.nonzero(sgn[1:] * sgn[:-1] < 0)[0]
    if len(flips):
        target = t[flips[0]] - 1.0
    else:
        target = min(1.0, t[-1] - 4.0)  # zeta_0 sign-definite everywhere
    i0 = min(max(int(np.searchsorted(t, target)), 16), len(t) - 16)
    if i0 < 2:
        raise DiagnosticError(f"breakpoints: {len(t)} grid samples leave fewer than 3 on "
                              "[t_min, t0]; refine the grid")
    return i0


def _right_breakpoint_index(t: np.ndarray, V: np.ndarray, spec: ConeSpec, i0: int) -> int:
    N = spec.N
    v_inf = -((N - 2) ** 2) / 4.0 + (N - 1)
    settled = np.nonzero(np.abs(V - v_inf) < V_SETTLE_TOL)[0]
    target = t[settled[0]] if len(settled) else t[-1]
    target = max(target, t[i0] + 2.0)
    target = min(target, t[-1] - 2.0)
    i1 = int(np.searchsorted(t, target))
    return int(np.clip(i1, i0 + 3, len(t) - 8))  # [t0, t1] holds at least 4 samples


def _cumulative(t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Antiderivative of g on the uniform grid t, zero at t[0].

    Each cell integrates the cubic through its four nearest samples,
    h (-g[i-1] + 13 g[i] + 13 g[i+1] - g[i+2]) / 24; past each end a
    ghost sample lies on the parabola through the three end samples.
    """
    ge = np.concatenate(([3.0 * (g[0] - g[1]) + g[2]], g, [3.0 * (g[-1] - g[-2]) + g[-3]]))
    cells = np.diff(t) * (13.0 * (ge[1:-2] + ge[2:-1]) - (ge[:-3] + ge[3:])) / 24.0
    return np.concatenate(([0.0], np.cumsum(cells)))


def _cubic_interpolant(t: np.ndarray, v: np.ndarray) -> Callable[[float], float]:
    """x -> the Lagrange cubic through the samples v at the four points of
    the uniform grid t (at least 4 samples) nearest x.  The weights are
    polynomials in r = (x - t[0]) / h, so where the nodes lie at exact
    multiples of h from t[0] the samples are returned exactly there."""
    t0, v = float(t[0]), v.tolist()
    h = (float(t[-1]) - t0) / (len(v) - 1)
    last = len(v) - 4

    def at(x: float) -> float:
        r = (x - t0) / h
        j = min(max(int(r) - 1, 0), last)
        r -= j
        v0, v1, v2, v3 = v[j : j + 4]
        p, q = r * (r - 1.0), (r - 2.0) * (r - 3.0)
        return ((1.0 - r) * q / 6.0 * v0 + r * q / 2.0 * v1
                + p * (3.0 - r) / 2.0 * v2 + p * (r - 2.0) / 6.0 * v3)

    return at


def left_fundamental_pair(ef: EmdenFowlerData) -> FundamentalPair:
    """Fundamental pair on (t_min, t0] built from the dilation field.

    u_+ = zeta_0 / p is an exact homogeneous solution; the companion is
    the reduction-of-order quadrature u_- = -u_+ int_t^{t0} u_+^{-2},
    based at the breakpoint so that it is the solution growing like
    e^{-lambda t} towards the axis rather than a near-multiple of u_+
    (basing the integral at t_min would make the pair numerically
    parallel and the variation-of-parameters terms cancel
    catastrophically).  The Wronskian u_+ u_-' - u_+' u_- is exactly 1.
    Raises :class:`DiagnosticError` if zeta_0 changes sign on the
    interval, in which case the caller must shrink t0.  A cross-check
    computed on demand: :func:`solve_jacobi` does not build it.
    """
    k = ef.i0 + 1
    curve, trace = ef.curve, ef.trace
    z = trace.zeta0[:k]
    if np.any(z == 0.0) or (np.min(z) < 0.0 < np.max(z)):
        raise DiagnosticError(
            "left pair: zeta_0 changes sign on (t_min, t0]; shrink t0 below the first zero"
        )
    t, s, p, theta = curve.t[:k], curve.s[:k], ef.p[:k], curve.theta[:k]
    u_plus = z / p
    # d/dt of zeta_0 = a b' - a' b is s phi' (a a' + b b'); p'/p = -(A-1)/2 with A = alpha s
    dzeta0_dt = s * trace.dphi[:k] * (curve.a[:k] * np.sin(theta) + curve.b[:k] * np.cos(theta))
    du_plus = (dzeta0_dt + z * (trace.alpha[:k] * s - 1.0) / 2.0) / p
    with np.errstate(divide="ignore", over="ignore"):
        w = 1.0 / u_plus**2
    if not np.all(np.isfinite(w)):
        raise DiagnosticError("left pair: u_+ = zeta_0 / p leaves the float range; raise epsilon")
    I = _cumulative(t, w)
    I -= I[-1]
    u_minus = u_plus * I
    du_minus = du_plus * I + 1.0 / u_plus
    return FundamentalPair(t=t, u_plus=u_plus, u_minus=u_minus, du_plus=du_plus,
                           du_minus=du_minus)


def left_particular_vop(ef: EmdenFowlerData) -> np.ndarray:
    """Left-interval particular solution by the explicit quadrature form.

    u(t) = u_-(t) int u_+ ftilde - u_+(t) int u_- ftilde with both
    integrals truncated at t_min, i.e. zero Cauchy data there.
    Mathematically identical to psi / p from :func:`solve_jacobi`, and
    computed independently of it, so it serves as a cross-check where
    its conditioning allows (its intermediates grow like
    u_+(t0)^2 / u_+(t_min)^2 ~ eps^{-(n-2)}).
    """
    pair = left_fundamental_pair(ef)
    f_tilde = ef.f_tilde[: len(pair.t)]
    J_plus = _cumulative(pair.t, pair.u_plus * f_tilde)
    J_minus = _cumulative(pair.t, pair.u_minus * f_tilde)
    return pair.u_minus * J_plus - pair.u_plus * J_minus


def solve_jacobi(cfg: ShootingConfig, f: Callable | None = None) -> JacobiSolution:
    """Solve psi'' + alpha psi' + beta psi = f along the profile of ``cfg``.

    ``f(s, a, b, phi)`` gives the forcing at profile points and must accept
    floats and arrays alike; it defaults to tr(A^3).  The profile (a, b,
    theta), from the series start at s = epsilon, and (psi, psi'), from
    zero data there (the truncated stand-in for the solution decaying at
    the axis), are one DOP853 run in s on ``cfg.grid()`` with rtol
    :data:`cjlab.dop853.RTOL` and atol = 1e-14 epsilon^2 (psi grows like
    s^2 from the axis).  Its (a, b, theta) samples are the returned
    ``curve``, whose :func:`geometry_trace` is ``trace``; a sample outside
    the open quadrant, a stall (at once below epsilon ~ 1e-142), a
    non-finite state handed to the right-hand side or more than
    :data:`MAX_PSI_NFEV` evaluations raise :class:`IntegrationFailure`.
    The residual psi'' + alpha psi' + beta psi - f takes psi'' from the
    five-point derivative in t = log s of the state's psi' samples, and
    is reported as a sup over s >= 2 epsilon; ``dpsi_defect`` is
    sup |dpsi/ds - psi'| / sup |psi'| over the same samples, with dpsi/ds
    from the same stencil on psi, and reads 0 for psi = 0.  Of the pairs
    it builds the middle one only.  A p or ftilde past the float range or
    a grid too coarse for a diagnostic raises :class:`DiagnosticError`
    naming the stage.
    """
    spec = cfg.spec
    calls = itertools.count(1)
    last_s = cfg.epsilon  # largest s at which rhs saw a finite state

    def rhs(ss, y):
        nonlocal last_s
        state = y.tolist()
        if not all(map(math.isfinite, state)):  # NaN would otherwise run out the budget
            raise IntegrationFailure("psi solve: non-finite state", last_s=last_s)
        last_s = max(last_s, ss)
        if next(calls) > MAX_PSI_NFEV:
            raise IntegrationFailure(f"psi solve: over {MAX_PSI_NFEV} right-hand-side evaluations",
                                     last_s=last_s)
        try:
            return _rhs_at(spec, f, ss, *state)
        except ArithmeticError:  # as in profile._rhs: numpy scalars give inf where floats raise
            return _rhs_at(spec, f, ss, *y)

    atol = 1e-14 * cfg.epsilon**2
    curve, y = _integrate(cfg, rhs, _series_start(spec, cfg.epsilon) + [0.0, 0.0], atol,
                          "psi solve")
    s, t = curve.s, curve.t
    trace = geometry_trace(curve)
    f_grid = trace.trA3 if f is None else np.asarray(f(s, curve.a, curve.b, curve.phi), dtype=float)
    ef = emden_fowler_transform(curve, trace, f_grid)
    psi, dpsi = y[3], y[4]
    # diagnostics only: the Wronskian drift of a pair with unit-matrix data
    # at t0 integrated across [t0, t1], both columns as one IVP in
    # (u_+, u_-, u_+', u_-')
    t_mid = t[ef.i0 : ef.i1 + 1]
    V = _cubic_interpolant(t_mid, ef.V[ef.i0 : ef.i1 + 1])

    def pair_rhs(tt, y):
        u, w, du, dw = y.tolist()
        v = V(tt)
        return [du, dw, -v * u, -v * w]

    with np.errstate(all="ignore"):  # a NaN drift shows it
        vp, vm, dvp, dvm = dop853(pair_rhs, [1.0, 0.0, 0.0, 1.0], atol, t_mid).y
    resid = _fd_residual(curve, trace, f_grid, psi, dpsi)
    lo = 2.0 * s[0]  # past the zero-data start
    slip = residual_sup(s, _fd_derivative_log(t, psi) / s - dpsi, lo, s[-1])
    dpsi_sup = residual_sup(s, dpsi, lo, s[-1])
    return JacobiSolution(
        psi=psi,
        dpsi=dpsi,
        residual_pointwise=resid,
        residual=residual_sup(s, resid, lo, s[-1]),
        dpsi_defect=slip / dpsi_sup if dpsi_sup else 0.0,
        ef=ef,
        middle_pair=FundamentalPair(t=t_mid, u_plus=vp, u_minus=vm, du_plus=dvp, du_minus=dvm),
        f=f_grid,
        curve=curve,
        trace=trace,
        atol=atol,
    )


def _fd_residual(
    curve: ProfileCurve,
    trace: GeometryTrace,
    f: np.ndarray,
    psi: np.ndarray,
    dpsi: np.ndarray,
) -> np.ndarray:
    """psi'' + alpha psi' + beta psi - f, with psi'' the five-point
    derivative of the state's psi' samples in t = log s, divided by s."""
    return (_fd_derivative_log(curve.t, dpsi) / curve.s + trace.alpha * dpsi
            + trace.A2 * psi - f)


def residual_sup(s: np.ndarray, resid: np.ndarray, lo: float, hi: float) -> float:
    """sup |resid| over the samples lo <= s <= hi of the increasing grid s."""
    sel = decay.window_slice(s, lo, hi)
    if sel.start == sel.stop:
        raise ValueError("empty residual range")
    return float(np.max(np.abs(resid[sel])))


def weighted_sup_norm(s: np.ndarray, h: np.ndarray, nu: float) -> float:
    """Discrete weighted sup norm max (s+1)^{-nu} |h(s)|."""
    s = np.asarray(s, dtype=float)
    h = np.asarray(h, dtype=float)
    return float(np.max((s + 1.0) ** (-nu) * np.abs(h)))


def sharp_weight(spec: ConeSpec) -> tuple[str, Callable[[np.ndarray], np.ndarray]]:
    """Weight whose product with |psi| stays bounded, by dimension N."""
    N = spec.N
    if N >= 5:
        return "s_plus_1", lambda s: s + 1.0
    if N == 4:
        return "s_plus_1_over_log", lambda s: (s + 1.0) / np.log(s + 2.0)
    return "sqrt_s_plus_1_over_log", lambda s: np.sqrt(s + 1.0) / np.log(s + 2.0)


def decay_diagnostics(sol: JacobiSolution) -> dict:
    """Dyadic-window sups of the N-appropriate weighted |psi|.

    Windows are [2^k, 2^{k+1}] with 2^k >= 128 (the first dyadic edge
    past s = 100).  Boundedness of the weighted solution is encoded as
    the ratio of consecutive window sups staying below 1.1; it is None
    when the curve is too short for two windows, so there is no ratio.
    """
    name, weight = sharp_weight(sol.curve.spec)
    s, psi = sol.curve.s, sol.psi
    windows: list[list[float]] = []
    sups: list[float] = []
    k = 7
    while 2.0 ** (k + 1) <= s[-1]:
        sel = decay.window_slice(s, 2.0**k, 2.0 ** (k + 1))
        if sel.start == sel.stop:
            raise DiagnosticError(f"decay windows: no grid sample in [{2**k}, {2 ** (k + 1)}]; "
                                  "refine the grid")
        windows.append([2.0**k, 2.0 ** (k + 1)])
        sups.append(float(np.max(weight(s[sel]) * np.abs(psi[sel]))))
        k += 1
    ratios = [sups[j + 1] / sups[j] for j in range(len(sups) - 1)]
    exponent = float("nan")
    if np.count_nonzero(psi[np.searchsorted(s, 100.0):]) >= decay.MIN_FIT_SAMPLES:
        exponent = decay.fit_power_law(s, psi, (100.0, float(s[-1]))).exponent
    return {
        "weight": name,
        "windows": windows,
        "sups": sups,
        "ratios": ratios,
        "bounded_within_factor": all(r <= 1.1 for r in ratios) if ratios else None,
        "fitted_exponent": exponent,
    }


@dataclass(frozen=True)
class NearOriginFit:
    """Near-axis behaviour of a Jacobi solution."""

    exponent: float
    log_coeff: float
    log_detected: bool
    exponent_plain: float
    rms_plain: float
    rms_log: float
    window: tuple[float, float]


#: with-log fit must cut the plain-fit rms by this factor ...
LOG_DETECT_IMPROVEMENT = 2.0
#: ... and assign at least this weight to the log(log) term.
LOG_DETECT_COEFF = 0.3


def near_origin_behavior(sol: JacobiSolution) -> NearOriginFit:
    """Fitted exponent of psi as s -> 0+, with a log-correction detector.

    The window [10 eps, 100 eps] stays above the zone polluted
    by the zero-data truncation at s = eps.  The detector compares a
    pure power fit against one with a log(log) term: a log correction is
    flagged when the extra term cuts the rms by
    :data:`LOG_DETECT_IMPROVEMENT` and carries weight above
    :data:`LOG_DETECT_COEFF` (thresholds calibrated on synthetic
    s^2 (c1 |log s| + c2) versus s^2 (1 + c s^2) data).  For n = 2 the
    reported exponent comes from the with-log fit, matching the expected
    s^2 |log s| near-axis envelope.
    """
    s = sol.curve.s
    lo, hi = 10.0 * s[0], 100.0 * s[0]
    if hi >= 1.0:
        raise DiagnosticError(f"near-origin fit: window [{lo:.3g}, {hi:.3g}] must stay "
                              "below s = 1; lower epsilon")
    try:
        plain = decay.fit_power_law(s, sol.psi, (lo, hi))
        with_log = decay.fit_power_law(s, sol.psi, (lo, hi), with_log=True)
    except ValueError as exc:
        raise DiagnosticError(f"near-origin fit on [{lo:.3g}, {hi:.3g}]: {exc}; "
                              "refine the grid") from exc
    detected = bool(plain.residual_rms >= LOG_DETECT_IMPROVEMENT * with_log.residual_rms
                    and with_log.log_coeff > LOG_DETECT_COEFF)
    return NearOriginFit(
        exponent=with_log.exponent if sol.curve.spec.n == 2 else plain.exponent,
        log_coeff=with_log.log_coeff,
        log_detected=detected,
        exponent_plain=plain.exponent,
        rms_plain=plain.residual_rms,
        rms_log=with_log.residual_rms,
        window=(float(lo), float(hi)),
    )
