"""Spectrum of the link Jacobi operator for Lawson cones.

The link of the cone C_{m,n} is the product of two round spheres

    Gamma = sqrt((m-1)/(N-1)) S^{m-1} x sqrt((n-1)/(N-1)) S^{n-1},
    N = m + n - 1,

a minimal submanifold of S^N with |A_Gamma|^2 = N - 1.  The eigenvalues
of minus the link Jacobi operator -(Delta_Gamma + |A_Gamma|^2) are

    lambda_{l,k} = l(l+m-2)(N-1)/(m-1) + k(k+n-2)(N-1)/(n-1) - (N-1)

over integers l, k >= 0, with the product-of-spheres harmonic
multiplicities.  The shift N-1 is forced by lambda_0 = -(N-1), the
known ground eigenvalue of the Lawson link; the first excited value is
lambda_1 = 0 (the l=1, k=0 and l=0, k=1 modes).

Each eigenvalue lambda_j determines Lambda_j = sqrt(((N-2)/2)^2 +
lambda_j) when the radicand is nonnegative (stored as a pure-imaginary
magnitude otherwise) and the pair of indicial roots

    -(N-2)/2 +- Re(Lambda_j),

the exponents governing power-law behaviour of invariant Jacobi fields
at infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

__all__ = [
    "ConeSpec",
    "SpectralData",
    "SolvabilityWindow",
    "link_radii",
    "link_eigenvalues",
    "indicial_data",
    "predicted_nu_bar",
    "solvability_window",
]

Regime = Literal["high_dim", "low_dim"]


@dataclass(frozen=True)
class ConeSpec:
    """The pair (m, n) selecting the Lawson cone C_{m,n} in R^{m+n}."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if not (isinstance(self.m, int) and isinstance(self.n, int)):
            raise TypeError("m and n must be integers")
        if self.m < 2 or self.n < 2:
            raise ValueError(f"Lawson cone requires m, n >= 2, got ({self.m}, {self.n})")

    @property
    def N(self) -> int:
        """Dimension of the cone and of the asymptotic hypersurface."""
        return self.m + self.n - 1

    @property
    def cone_angle(self) -> float:
        """Angle phi* of the cone ray in the (a, b) quadrant."""
        return math.atan(math.sqrt((self.n - 1) / (self.m - 1)))


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues, Lambda_j and indicial roots of a Lawson link."""

    lambdas: tuple[float, ...]
    Lambda_re: tuple[float, ...]
    Lambda_im: tuple[float, ...]
    indicial_roots: tuple[tuple[float, float], ...]
    j0: int
    stable: bool

    def all_roots(self) -> list[float]:
        """Flattened, sorted, de-duplicated indicial root set."""
        roots = sorted({r for pair in self.indicial_roots for r in pair})
        return roots


@dataclass(frozen=True)
class SolvabilityWindow:
    """Open interval of admissible decay exponents, minus indicial roots.

    ``contains(nu)`` is True when lo < nu < hi and nu is not one of the
    excluded indicial roots interior to the window.
    """

    lo: float
    hi: float
    excluded: tuple[float, ...] = field(default_factory=tuple)

    def contains(self, nu: float, tol: float = 1e-12) -> bool:
        if not (self.lo + tol < nu < self.hi - tol):
            return False
        return all(abs(nu - r) > tol for r in self.excluded)


def link_radii(spec: ConeSpec) -> tuple[float, float]:
    """Radii of the two sphere factors of the link; squares sum to 1."""
    N = spec.N
    return (math.sqrt((spec.m - 1) / (N - 1)), math.sqrt((spec.n - 1) / (N - 1)))


def _sphere_multiplicity(degree: int, ambient: int) -> int:
    """Dimension of degree-``degree`` spherical harmonics on S^{ambient-1}."""
    if degree == 0:
        return 1
    p = ambient - 1  # sphere dimension
    low = math.comb(p + degree - 2, degree - 2) if degree >= 2 else 0
    return math.comb(p + degree, degree) - low


#: Largest eigenvalue count :func:`link_eigenvalues` computes (0.08 s for (2,2)).
MAX_EIGENVALUE_COUNT = 10_000


def link_eigenvalues(spec: ConeSpec, count: int) -> list[float]:
    """First ``count`` eigenvalues of minus the link Jacobi operator.

    Ascending with multiplicity.  Guaranteed complete: the mode degrees
    (l, k) are enumerated up to the smallest bound whose cheapest new
    mode already exceeds the requested maximum.
    """
    if not 2 <= count <= MAX_EIGENVALUE_COUNT:
        raise ValueError(f"count must lie in [2, {MAX_EIGENVALUE_COUNT}], got {count}")
    m, n, N = spec.m, spec.n, spec.N
    cm = (N - 1) / (m - 1)
    cn = (N - 1) / (n - 1)

    def lam(l: int, k: int) -> float:
        return l * (l + m - 2) * cm + k * (k + n - 2) * cn - (N - 1)

    L = 2
    while True:
        values: list[float] = []
        for l in range(L + 1):
            for k in range(L + 1):
                # more than ``count`` copies of one value never reach the answer
                mult = _sphere_multiplicity(l, m) * _sphere_multiplicity(k, n)
                values.extend([lam(l, k)] * min(mult, count))
        values.sort()
        if len(values) >= count:
            # any mode outside the enumerated square costs at least this much
            cheapest_new = min(lam(L + 1, 0), lam(0, L + 1))
            if cheapest_new > values[count - 1]:
                return values[:count]
        L += 1


def indicial_data(spec: ConeSpec, lambdas: list[float]) -> SpectralData:
    """Lambda_j values and indicial roots for an ascending eigenvalue list."""
    if any(b < a for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("lambdas must be ascending")
    N = spec.N
    q = ((N - 2) / 2) ** 2
    Lambda_re: list[float] = []
    Lambda_im: list[float] = []
    roots: list[tuple[float, float]] = []
    j0 = None
    for j, lam in enumerate(lambdas):
        disc = q + lam
        if disc >= 0.0:
            if j0 is None:
                j0 = j
            Lambda_re.append(math.sqrt(disc))
            Lambda_im.append(0.0)
        else:
            Lambda_re.append(0.0)
            Lambda_im.append(math.sqrt(-disc))
        re = Lambda_re[-1]
        roots.append((-(N - 2) / 2 - re, -(N - 2) / 2 + re))
    if j0 is None:
        raise ValueError("no eigenvalue with nonnegative discriminant in the list")
    return SpectralData(
        lambdas=tuple(float(x) for x in lambdas),
        Lambda_re=tuple(Lambda_re),
        Lambda_im=tuple(Lambda_im),
        indicial_roots=tuple(roots),
        j0=j0,
        stable=(j0 == 0),
    )


def _Lambda0(spec: ConeSpec) -> float:
    disc = ((spec.N - 2) / 2) ** 2 - (spec.N - 1)
    if disc < 0:
        raise ValueError("Lambda_0 is imaginary for this spec")
    return math.sqrt(disc)


def predicted_nu_bar(spec: ConeSpec) -> float:
    """Predicted decay exponent of the dilation Jacobi field.

    ``high_dim`` (m+n >= 8, strictly stable cone): -(N-2)/2 + Lambda_0.
    ``low_dim``  (4 <= m+n <= 7, oscillatory cone): -(N-2)/2.
    """
    if regime_of(spec) == "high_dim":
        return -(spec.N - 2) / 2 + _Lambda0(spec)
    return -(spec.N - 2) / 2


def regime_of(spec: ConeSpec) -> Regime:
    """Dimension regime of a spec: high_dim iff m+n >= 8."""
    return "high_dim" if spec.m + spec.n >= 8 else "low_dim"


def solvability_window(spec: ConeSpec) -> SolvabilityWindow:
    """Admissible decay exponents nu for solving J psi = tr(A^3).

    The window is (max(2-N-nu_bar, -(N-2)/2 - Lambda_0), -(N-2)/2 +
    Lambda_1) with interior indicial roots excluded; Lambda_1 = (N-2)/2
    for Lawson links, so the upper endpoint is 0.  For m+n >= 8 the
    exponent -1 is admissible; for N = 4 the window is (-1, 0) with -1
    itself an excluded indicial root; for N = 3 it is (-1/2, 0).
    """
    N = spec.N
    nu_bar = predicted_nu_bar(spec)
    hi = 0.0  # -(N-2)/2 + Lambda_1 with Lambda_1 = (N-2)/2
    if regime_of(spec) == "high_dim":
        lo = max(2 - N - nu_bar, -(N - 2) / 2 - _Lambda0(spec))
    else:
        lo = 2 - N - nu_bar  # equals -(N-2)/2 = nu_bar
    data = indicial_data(spec, link_eigenvalues(spec, 16))
    excluded = tuple(r for r in data.all_roots() if lo + 1e-12 < r < hi - 1e-12)
    return SolvabilityWindow(lo=lo, hi=hi, excluded=excluded)
