"""Radial exterior minimal graph over the complement of a ball.

The nonconstant positive radial solution of the exterior minimal-graph
problem on R^N minus the closed ball of radius R satisfies the flux
identity

    r^{N-1} v' / sqrt(1 + v'^2) = -R^{N-1}          (r > R),

so v' has the closed form

    v'(r) = -c r^{1-N} / sqrt(1 - (c r^{1-N})^2),   c = R^{N-1},

and v itself is the tail integral of -v'.  Substituting
y = 1 - w^2 with w^2 = 1 - (R/rho)^{2N-2} turns the tail integral into an
incomplete beta function (DLMF 8.17, https://dlmf.nist.gov/8.17):

    v(r) = R/(N-1) * 1/2 B(a, 1/2) * I_{q^2}(a, 1/2),
    a = 1/2 - 1/(2(N-1)),   q = (R/r)^{N-1},

with I the regularised incomplete beta, evaluated by its hypergeometric
series (DLMF 8.17.8) on q^2 <= 1/2 and by the symmetry
I_x(a, b) = 1 - I_{1-x}(b, a) (DLMF 8.17.4) above.  The boundary value
alpha(R) = v(R+) is the case q = 1, alpha(R) = R/(N-1) * 1/2 B(a, 1/2),
which obeys the exact scaling law alpha(R) = R alpha(1).

The graph's dilation Jacobi field is

    zeta_0(r) = (-r v'(r) + v(r)) / sqrt(1 + v'(r)^2),

positive and decaying exactly at the rate r^{2-N}, with
r^{N-2} zeta_0 -> (N-1) R^{N-1} / (N-2); the surface is therefore
dilation degenerate (the decay threshold 2-N is attained, not beaten).

Everything here is a closed form on :data:`GRID_SAMPLES` points, so it is
evaluated on Python floats with :mod:`math`, and the module loads no
numpy: a ``cjl plateau`` process skips its import.  Every grid point
exceeds R, so 0 <= q < 1 and no operation on v or v' leaves the float
range.  The flux residual's r^{N-1} can: Python raises there, and
:func:`_pow` gives IEEE's inf instead, as numpy did.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

from cjlab.decay import MIN_FIT_SAMPLES, DecayFit

__all__ = [
    "RadialGraph",
    "plateau_profile",
    "alpha_of_R",
    "plateau_zeta0",
    "minimal_graph_residual",
]


#: samples of every :func:`plateau_profile` grid
GRID_SAMPLES = 2000

#: most terms of the incomplete-beta series in :func:`_height`: its terms
#: fall by more than half each, so 60 of them reach double precision
_TERMS = 60

#: smallest normal float: below it q = (R/r)^{N-1} is subnormal
_TINY = sys.float_info.min


def _pow(x: float, y: float) -> float:
    """x ** y for x >= 0, and inf where it overflows (Python raises)."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class RadialGraph:
    """Sampled radial exterior minimal graph."""

    N: int
    R: float
    r: list[float]
    v: list[float]
    dv: list[float]
    alphaR: float

    @property
    def flux_const(self) -> float:
        """Conserved flux magnitude R^{N-1}."""
        return self.R ** (self.N - 1)

    @cached_property
    def flux_residual(self) -> list[float]:
        """Pointwise |r^{N-1} v'/sqrt(1+v'^2) + R^{N-1}| on the grid.  Where
        r^{N-1} overflows, v' has underflowed to -0, and inf * -0 is a NaN
        that misses the flux target."""
        flux_const = self.flux_const  # OverflowError, before any sample
        k = self.N - 1
        return [abs(_pow(r, k) * dv / math.sqrt(1.0 + dv * dv) + flux_const)
                for r, dv in zip(self.r, self.dv)]

    @property
    def decay_coeff(self) -> float:
        """Limit of r^{N-2} v(r): R^{N-1}/(N-2)."""
        return self.R ** (self.N - 1) / (self.N - 2)


def _check_NR(N: int, R: float) -> None:
    if N < 3:
        raise ValueError("need N >= 3")
    if not (math.isfinite(R) and R > 0):
        raise ValueError("need finite R > 0")


def _geomspace(start: float, stop: float, num: int) -> list[float]:
    """numpy's ``geomspace``: ``start``, 10 to the powers of a uniform grid
    in log10, and ``stop``.  The inner points stay a step inside the ends,
    far more than their rounding, so they neither reach R nor overflow."""
    log_start = math.log10(start)
    step = (math.log10(stop) - log_start) / (num - 1)
    return [start, *(10.0 ** (i * step + log_start) for i in range(1, num - 1)), stop]


def _height(N: int, R: float, R_over_r: list[float]) -> list[float]:
    """v at each q = (R/r)^{N-1}: R/(N-1) * 1/2 B(a, 1/2) * I_{q^2}(a, 1/2).

    Both branches of I sum one series in y = min(x, 1 - x) <= 1/2, from
    its first term up to the first term that no longer changes the sum.
    """
    a = 0.5 - 0.5 / (N - 1)
    beta = math.exp(math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5))
    scale = R / (N - 1) * 0.5 * beta
    v = []
    for t in R_over_r:
        q = t ** (N - 1)
        x = q * q
        lower = x <= 0.5
        y, p = (x, a) if lower else (1.0 - x, 0.5)  # p: the first beta parameter
        series = term = 1.0
        for k in range(_TERMS - 1):
            term *= (a + 0.5 + k) / (p + 1.0 + k) * y
            if series + term == series:
                break
            series += term
        if lower:
            # q**(2a) = x**a keeps the precision x loses where it is subnormal, and
            # (R/r)**(N-2) (2a (N-1) = N-2) the precision q loses where it is subnormal
            y_p = t ** (N - 2) if q < _TINY else q ** (2.0 * a)
        else:
            y_p = math.sqrt(y)
        part = y_p * (1.0 - y) ** (a + 0.5 - p) / (p * beta) * series
        v.append(scale * (part if lower else 1.0 - part))
    return v


def alpha_of_R(N: int, R: float) -> float:
    """Boundary value alpha(R) = v(R+); satisfies alpha(R) = R alpha(1)."""
    _check_NR(N, R)
    return _height(N, R, [1.0])[0]


def plateau_profile(N: int, R: float, r_max: float) -> RadialGraph:
    """Radial graph sampled on a log-uniform grid of :data:`GRID_SAMPLES`
    points over (R, r_max].

    The grid starts at R (1 + 1e-7), close enough to the boundary to
    exhibit the v' -> -infinity blow-up.
    """
    _check_NR(N, R)
    if not (math.isfinite(r_max) and r_max > R):
        raise ValueError("r_max must be finite and exceed R")
    r0 = R * (1.0 + 1e-7)
    if not r0 > R:  # R below about 2.5e-317, where the float spacing exceeds 1e-7 R
        raise ValueError(f"R = {R} is too small: the first sample R (1 + 1e-7) rounds to R")
    r = _geomspace(r0, r_max, GRID_SAMPLES)
    R_over_r = [R / x for x in r]
    q = [t ** (N - 1) for t in R_over_r]
    dv = [-x / math.sqrt(1.0 - x * x) for x in q]
    return RadialGraph(N=N, R=float(R), r=r, v=_height(N, R, R_over_r), dv=dv,
                       alphaR=alpha_of_R(N, R))


def minimal_graph_residual(graph: RadialGraph) -> float:
    """Sup of |r^{N-1} v'/sqrt(1+v'^2) + R^{N-1}| over the grid; NaN if any sample is."""
    residual = graph.flux_residual
    return math.nan if any(map(math.isnan, residual)) else max(residual)


def fit_power_law(r: list[float], y: list[float], window: tuple[float, float]) -> DecayFit:
    """Least-squares line through (log r, log|y|) over ``window``.

    This is :func:`cjlab.decay.fit_power_law` on floats, with its window
    mask and its sample count check, for a signal that does not oscillate:
    zeta_0 is positive and monotone, so it has no envelope to reduce to.
    """
    lo, hi = window
    if not lo < hi:
        raise ValueError("window must satisfy r_lo < r_hi")
    logs = [(math.log(x), math.log(abs(z))) for x, z in zip(r, y)
            if lo <= x <= hi and z != 0.0 and x > 0.0]
    n = len(logs)
    if n < MIN_FIT_SAMPLES:
        raise ValueError(f"need >= {MIN_FIT_SAMPLES} nonzero samples in window, got {n}")
    logr, logy = zip(*logs)
    mean_r, mean_y = math.fsum(logr) / n, math.fsum(logy) / n
    dr = [x - mean_r for x in logr]
    dy = [z - mean_y for z in logy]
    exponent = math.fsum(a * b for a, b in zip(dr, dy)) / math.fsum(a * a for a in dr)
    rms = math.sqrt(math.fsum((b - exponent * a) ** 2 for a, b in zip(dr, dy)) / n)
    return DecayFit(exponent=exponent, log_coeff=0.0, window=(float(lo), float(hi)),
                    residual_rms=rms, oscillatory=False)


def plateau_zeta0(graph: RadialGraph) -> tuple[list[float], DecayFit]:
    """Dilation Jacobi field of the graph and its fitted decay exponent.

    The fit window is [100 R, 1000 R]; the fitted exponent approximates
    2 - N and the limit of r^{N-2} zeta_0 is (N-1) R^{N-1} / (N-2).
    """
    zeta0 = [(-r * dv + v) / math.sqrt(1.0 + dv * dv)
             for r, v, dv in zip(graph.r, graph.v, graph.dv)]
    return zeta0, fit_power_law(graph.r, zeta0, (1.0e2 * graph.R, 1.0e3 * graph.R))
