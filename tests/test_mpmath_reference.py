"""solve_jacobi against an mpmath reference solution of the same s-IVP.

The reference integrates (a, b, theta, psi, psi') with ``mpmath.odefun``
(Taylor series at 25 digits, tol 1e-20) from the series start at
epsilon = 1e-3 and psi = psi' = 0, with f = tr A^3.  Its right-hand side is
written here from the profile equations and the principal curvatures,

    a' = sin theta,   b' = cos theta,   theta' = -kappa_0,
    kappa_0 = (n-1) sin(theta)/b - (m-1) cos(theta)/a,
    kappa_a = cos(theta)/a  (m-1 times),   kappa_b = -sin(theta)/b  (n-1 times),
    psi'' = tr A^3 - alpha psi' - |A|^2 psi,
    alpha = (m-1) a'/a + (n-1) b'/b,

so it shares no code with the package's right-hand side: only the start
values come from ``profile._series_start``.  The Taylor degree is 20, not
mpmath's default 40 at 25 digits: on (3,3) the two agree to 1e-26 at
s = 1, and 20 takes 3.0 s against 5.0 s on a 2-vCPU VM.
"""

import mpmath as mp
import numpy as np
import pytest

from cjlab.cli import configure
from cjlab.jacobi import solve_jacobi
from cjlab.profile import _series_start

SPECS = [(2, 2), (2, 3), (3, 3), (4, 4), (2, 5), (3, 2), (8, 8)]
POINTS = (0.01, 0.1, 1.0)


def reference(spec, eps):
    """s -> (a, b, theta, psi, psi') of the s-IVP as mpf; build and call it
    under ``mp.workdps(25)``, since odefun works at the current precision."""
    m, n = spec.m, spec.n

    def rhs(s, y):
        a, b, theta, psi, dpsi = y
        cos, sin = mp.cos_sin(theta)
        ka, kb = cos / a, -sin / b
        k0 = -(n - 1) * kb - (m - 1) * ka
        alpha = (m - 1) * sin / a + (n - 1) * cos / b
        A2 = k0**2 + (m - 1) * ka**2 + (n - 1) * kb**2
        trA3 = k0**3 + (m - 1) * ka**3 + (n - 1) * kb**3
        return [sin, cos, -k0, dpsi, trA3 - alpha * dpsi - A2 * psi]

    y0 = [mp.mpf(v) for v in _series_start(spec, eps)] + [mp.mpf(0), mp.mpf(0)]
    return mp.odefun(rhs, mp.mpf(eps), y0, tol=mp.mpf("1e-20"), degree=20)


@pytest.mark.parametrize("m,n", SPECS, ids=[f"{m}-{n}" for m, n in SPECS])
def test_solve_jacobi_matches_the_mpmath_reference(m, n):
    """At the grid samples nearest s = 0.01, 0.1 and 1 of a ``cjl jacobi``
    run at its defaults: a and theta within 1e-12 relative, and psi within
    the solver's own error model 1e-10 |psi| + atol.  The atol term carries
    m = n+1 near the axis, where psi lies far below the s^2 scale that the
    atol assumes ((3,2) at s = 0.01: psi = -4.2e-14)."""
    sol = solve_jacobi(configure(["jacobi", "--m", str(m), "--n", str(n)]).shooting)
    s = sol.curve.s
    with mp.workdps(25):
        ref = reference(sol.curve.spec, float(s[0]))
        misses = []
        for target in POINTS:
            i = int(np.argmin(np.abs(s - target)))
            a, _, theta, psi, _ = ref(mp.mpf(float(s[i])))
            got_a, got_theta, got_psi = (mp.mpf(float(x[i]))
                                         for x in (sol.curve.a, sol.curve.theta, sol.psi))
            # each gap over its bound: a miss reads above 1
            gaps = {"a": abs(got_a - a) / abs(a) / 1e-12,
                    "theta": abs(got_theta - theta) / abs(theta) / 1e-12,
                    "psi": abs(got_psi - psi) / (1e-10 * abs(psi) + sol.atol)}
            misses += [f"s={s[i]:.6g} {k}: {float(v):.3g} of its bound"
                       for k, v in gaps.items() if v > 1]
    assert misses == []
