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

with I the regularised incomplete beta, evaluated in numpy by its
hypergeometric series (DLMF 8.17.8) on q^2 <= 1/2 and by the symmetry
I_x(a, b) = 1 - I_{1-x}(b, a) (DLMF 8.17.4) above.  The boundary value
alpha(R) = v(R+) is the case q = 1, alpha(R) = R/(N-1) * 1/2 B(a, 1/2),
which obeys the exact scaling law alpha(R) = R alpha(1).

The graph's dilation Jacobi field is

    zeta_0(r) = (-r v'(r) + v(r)) / sqrt(1 + v'(r)^2),

positive and decaying exactly at the rate r^{2-N}, with
r^{N-2} zeta_0 -> (N-1) R^{N-1} / (N-2); the surface is therefore
dilation degenerate (the decay threshold 2-N is attained, not beaten).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cjlab.decay import DecayFit, fit_power_law

__all__ = [
    "RadialGraph",
    "plateau_profile",
    "alpha_of_R",
    "plateau_zeta0",
    "minimal_graph_residual",
]


#: samples of every :func:`plateau_profile` grid
GRID_SAMPLES = 2000

#: k in the term ratios t_{k+1}/t_k of the incomplete-beta series in
#: :func:`_height`; with t_0 = 1 it sums 60 terms.
_K = np.arange(59)

#: smallest normal float: below it q = (R/r)^{N-1} is subnormal
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class RadialGraph:
    """Sampled radial exterior minimal graph."""

    N: int
    R: float
    r: np.ndarray
    v: np.ndarray
    dv: np.ndarray
    alphaR: float

    @property
    def flux_const(self) -> float:
        """Conserved flux magnitude R^{N-1}."""
        return self.R ** (self.N - 1)

    @property
    def flux_residual(self) -> np.ndarray:
        """Pointwise |r^{N-1} v'/sqrt(1+v'^2) + R^{N-1}| on the grid."""
        flux_const = self.flux_const  # OverflowError, before any overflowing array
        with np.errstate(over="ignore", invalid="ignore"):  # a NaN misses the flux target
            flux = self.r ** (self.N - 1) * self.dv / np.sqrt(1.0 + self.dv**2)
        return np.abs(flux + flux_const)

    @property
    def decay_coeff(self) -> float:
        """Limit of r^{N-2} v(r): R^{N-1}/(N-2)."""
        return self.R ** (self.N - 1) / (self.N - 2)


def _check_NR(N: int, R: float) -> None:
    if N < 3:
        raise ValueError("need N >= 3")
    if not (np.isfinite(R) and R > 0):
        raise ValueError("need finite R > 0")


def _height(N: int, R: float, R_over_r):
    """v at q = (R/r)^{N-1}: R/(N-1) * 1/2 B(a, 1/2) * I_{q^2}(a, 1/2).

    Both branches of I sum one series in y = min(x, 1 - x) <= 1/2, whose
    terms fall by more than half each: 60 of them reach double precision.
    """
    q = R_over_r ** (N - 1)
    a = 0.5 - 0.5 / (N - 1)
    beta = math.exp(math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5))
    x = q * q
    lower = x <= 0.5
    y = np.where(lower, x, 1.0 - x)
    p = np.where(lower, a, 0.5)  # the first beta parameter, a or 1/2
    ratios = (a + 0.5 + _K) / (p[..., None] + 1.0 + _K) * y[..., None]
    series = 1.0 + np.cumprod(ratios, axis=-1).sum(axis=-1)
    # q**(2a) = x**a keeps the precision x loses where it is subnormal, and
    # (R/r)**(N-2) (2a (N-1) = N-2) the precision q loses where it is subnormal
    q_2a = np.where(q < _TINY, R_over_r ** (N - 2), q ** (2.0 * a))
    y_p = np.where(lower, q_2a, np.sqrt(y))
    part = y_p * (1.0 - y) ** (a + 0.5 - p) / (p * beta) * series
    return R / (N - 1) * 0.5 * beta * np.where(lower, part, 1.0 - part)


def alpha_of_R(N: int, R: float) -> float:
    """Boundary value alpha(R) = v(R+); satisfies alpha(R) = R alpha(1)."""
    _check_NR(N, R)
    return float(_height(N, R, 1.0))


def plateau_profile(N: int, R: float, r_max: float) -> RadialGraph:
    """Radial graph sampled on a log-uniform grid of :data:`GRID_SAMPLES`
    points over (R, r_max].

    The grid starts at R (1 + 1e-7), close enough to the boundary to
    exhibit the v' -> -infinity blow-up.
    """
    _check_NR(N, R)
    if not (np.isfinite(r_max) and r_max > R):
        raise ValueError("r_max must be finite and exceed R")
    r0 = R * (1.0 + 1e-7)
    if not r0 > R:  # R below about 2.5e-317, where the float spacing exceeds 1e-7 R
        raise ValueError(f"R = {R} is too small: the first sample R (1 + 1e-7) rounds to R")
    r = np.geomspace(r0, r_max, GRID_SAMPLES)
    R_over_r = R / r
    q = R_over_r ** (N - 1)
    dv = -q / np.sqrt(1.0 - q * q)
    return RadialGraph(N=N, R=float(R), r=r, v=_height(N, R, R_over_r), dv=dv,
                       alphaR=alpha_of_R(N, R))


def minimal_graph_residual(graph: RadialGraph) -> float:
    """Sup of |r^{N-1} v'/sqrt(1+v'^2) + R^{N-1}| over the grid."""
    return float(np.max(graph.flux_residual))


def plateau_zeta0(graph: RadialGraph) -> tuple[np.ndarray, DecayFit]:
    """Dilation Jacobi field of the graph and its fitted decay exponent.

    The fit window is [100 R, 1000 R]; the fitted exponent approximates
    2 - N and the limit of r^{N-2} zeta_0 is (N-1) R^{N-1} / (N-2).
    """
    zeta0 = (-graph.r * graph.dv + graph.v) / np.sqrt(1.0 + graph.dv**2)
    return zeta0, fit_power_law(graph.r, zeta0, (1.0e2 * graph.R, 1.0e3 * graph.R))
