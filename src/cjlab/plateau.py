"""Radial exterior minimal graph over the complement of a ball.

The nonconstant positive radial solution of the exterior minimal-graph
problem on R^N minus the closed ball of radius R satisfies the flux
identity

    r^{N-1} v' / sqrt(1 + v'^2) = -R^{N-1}          (r > R),

so v' has the closed form

    v'(r) = -c r^{1-N} / sqrt(1 - (c r^{1-N})^2),   c = R^{N-1},

and v itself is the tail integral of -v'.  Substituting
w^2 = 1 - (R/rho)^{2N-2} removes the inverse-square-root singularity at
rho = R and turns the tail integral into

    v(r) = R/(N-1) * int_{w(r)}^{1} (1-w^2)^{-1/2 - 1/(2(N-1))} dw,

evaluated with a Gauss quadrature for the algebraic endpoint weight at
w = 1.  The boundary value alpha(R) = v(R+) obeys the exact scaling law
alpha(R) = R alpha(1).

The graph's dilation Jacobi field is

    zeta_0(r) = (-r v'(r) + v(r)) / sqrt(1 + v'(r)^2),

positive and decaying exactly at the rate r^{2-N}, with
r^{N-2} zeta_0 -> (N-1) R^{N-1} / (N-2); the surface is therefore
dilation degenerate (the decay threshold 2-N is attained, not beaten).
"""

from __future__ import annotations

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
    def decay_coeff(self) -> float:
        """Limit of r^{N-2} v(r): R^{N-1}/(N-2)."""
        return self.R ** (self.N - 1) / (self.N - 2)


def _tail_integral(N: int, R: float, x_lo: float) -> float:
    """R/(N-1) * int_{1-x_lo}^1 (1-w)^beta (1+w)^beta dw, beta = -1/2 - 1/(2(N-1)).

    ``x_lo`` is the distance 1 - w of the lower limit from the endpoint,
    supplied directly because forming it from w loses all precision for
    the short tails that large radii produce.  Short tails (x_lo < 1e-6)
    use the binomial series of (1+w)^beta about w = 1, exact to roundoff
    there; longer ones use a quadrature whose algebraic endpoint weight
    absorbs the (1-w)^beta factor.
    """
    beta = -0.5 - 0.5 / (N - 1)
    if x_lo < 1e-6:
        # int_0^{x} u^beta (2-u)^beta du as a series in u/2
        total = 0.0
        coeff = 1.0
        for k in range(5):
            total += coeff * x_lo ** (beta + 1 + k) / (beta + 1 + k)
            coeff *= (beta - k) / (k + 1) * (-0.5)
        return R / (N - 1) * (2.0**beta) * total
    # deferred: scipy costs ~0.5 s to import, which paths that do not integrate skip
    from scipy.integrate import quad

    val, _err = quad(
        lambda w: (1.0 + w) ** beta,
        1.0 - x_lo,
        1.0,
        weight="alg",
        wvar=(0.0, beta),
        epsabs=1e-14,
        epsrel=1e-13,
        limit=200,
    )
    return R / (N - 1) * val


def _check_NR(N: int, R: float) -> None:
    if N < 3:
        raise ValueError("need N >= 3")
    if not (np.isfinite(R) and R > 0):
        raise ValueError("need finite R > 0")


def alpha_of_R(N: int, R: float) -> float:
    """Boundary value alpha(R) = v(R+); satisfies alpha(R) = R alpha(1)."""
    _check_NR(N, R)
    return _tail_integral(N, R, 1.0)


def plateau_profile(N: int, R: float, r_max: float, num: int = 2000) -> RadialGraph:
    """Radial graph sampled on a log-uniform grid over (R, r_max].

    The grid starts at R (1 + 1e-7), close enough to the boundary to
    exhibit the v' -> -infinity blow-up.
    """
    _check_NR(N, R)
    if not (np.isfinite(r_max) and r_max > R):
        raise ValueError("r_max must be finite and exceed R")
    r = np.geomspace(R * (1.0 + 1e-7), r_max, num)
    q = (R / r) ** (N - 1)
    dv = -q / np.sqrt(1.0 - q * q)
    # x = 1 - w with w = sqrt(1 - q^2), formed without cancellation
    x = q * q / (1.0 + np.sqrt(1.0 - q * q))
    v = np.array([_tail_integral(N, R, xi) for xi in x])
    return RadialGraph(N=N, R=float(R), r=r, v=v, dv=dv, alphaR=alpha_of_R(N, R))


def minimal_graph_residual(graph: RadialGraph) -> float:
    """Sup of |r^{N-1} v'/sqrt(1+v'^2) + R^{N-1}| over the grid."""
    flux = graph.r ** (graph.N - 1) * graph.dv / np.sqrt(1.0 + graph.dv**2)
    return float(np.max(np.abs(flux + graph.flux_const)))


def plateau_zeta0(graph: RadialGraph, fit_window: tuple[float, float] | None = None
                  ) -> tuple[np.ndarray, DecayFit]:
    """Dilation Jacobi field of the graph and its fitted decay exponent.

    The fit window defaults to [100 R, 1000 R]; the fitted exponent
    approximates 2 - N and the limit of r^{N-2} zeta_0 is
    (N-1) R^{N-1} / (N-2).
    """
    zeta0 = (-graph.r * graph.dv + graph.v) / np.sqrt(1.0 + graph.dv**2)
    if fit_window is None:
        fit_window = (1.0e2 * graph.R, 1.0e3 * graph.R)
    fit = fit_power_law(graph.r, zeta0, fit_window)
    return zeta0, fit
