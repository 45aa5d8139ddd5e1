"""psi against the cone's far-field closed form on s in [100, 2100].

On the cone, alpha = (N-1)/s, |A|^2 = (N-1)/s^2 and tr A^3 = d/s^3 with
d = ((n-1)^2 - (m-1)^2) / sqrt((m-1)(n-1)).  For the forcing s^(nu-2) the
cone's Jacobi equation has the particular solution s^nu / P(nu), where
P(nu) = nu^2 + (N-2) nu + (N-1) is the indicial polynomial of its (0,0)
mode; for tr A^3, nu = -1 and P(-1) = 2, so s psi -> d/2.  The profile
differs from the cone by a relative O(s^nu_bar) and s from the radius by a
constant, which add decaying terms.  A least-squares fit of s psi takes them
up with four columns: 1; s times the two homogeneous solutions, s^(gamma+1)
for real roots gamma of P or s^(1-(N-2)/2) cos(omega log s) and its sin for
complex ones; and 1/s.  Its constant K is the far-field constant, and nothing
here shares code with the package beyond the ``cjl jacobi`` run itself.

At N = 4 the homogeneous terms of s psi do not decay (a log term is missing
from the model), and past N = 10, gamma+ + 1 nears 0, so those specs are
reported, not gated; so are the other N in [5, 10] specs of
test_accepted_range's sample, where the terms the model leaves out still
show on [100, 2100]: the gap of (8,3) is 3.6e-4 there and 1.6e-5 on
[1000, 2e4].

The gate catches |A|^2 scaled by 1 - 2e-5 or by 1 + 7e-5, and misses
1 + 6e-5.  P(-1) moves by N-1 times the scaling; most gated fits put |K|
above |d/2|, and a larger |A|^2 first shrinks |K| towards it.
"""

import math

import numpy as np
import pytest

from cjlab.cli import configure
from cjlab.jacobi import solve_jacobi

#: |K - d/2| <= BOUND |d/2|: twice the largest gap of the gated specs at the
#: 1e-4 grid, stated before they were compared at the default grid
BOUND = 2e-4
#: m != n with N in [5, 10]
GATED = [(2, 5), (5, 2), (3, 4), (4, 3), (2, 6), (3, 5), (2, 7), (3, 6), (6, 3), (4, 6), (2, 9)]
#: N = 4, N > 10, and the other N in [5, 10] specs of the accepted-range sample
REPORTED = [(2, 3), (3, 2), (10, 2), (10, 9), (5, 3), (2, 8), (8, 2), (3, 8), (8, 3)]


def far_field_gap(m, n):
    """(K, d/2, |K - d/2| / |d/2|) of a ``cjl jacobi`` run at its defaults."""
    sol = solve_jacobi(configure(["jacobi", "--m", str(m), "--n", str(n)]).shooting)
    keep = (sol.curve.s >= 100.0) & (sol.curve.s <= 2100.0)
    s = sol.curve.s[keep]
    N = m + n - 1
    disc = (N - 2) ** 2 - 4 * (N - 1)
    if disc > 0:
        homogeneous = [s ** ((2 - N + sign * math.sqrt(disc)) / 2 + 1) for sign in (1, -1)]
    else:
        omega, envelope = math.sqrt(-disc) / 2, s ** (1 - (N - 2) / 2)
        homogeneous = [envelope * np.cos(omega * np.log(s)), envelope * np.sin(omega * np.log(s))]
    columns = np.column_stack([np.ones_like(s), *homogeneous, 1.0 / s])
    K = np.linalg.lstsq(columns, s * sol.psi[keep], rcond=None)[0][0]
    half_d = ((n - 1) ** 2 - (m - 1) ** 2) / math.sqrt((m - 1) * (n - 1)) / 2
    return K, half_d, abs(K - half_d) / abs(half_d)


@pytest.mark.parametrize("m,n", GATED, ids=[f"{m}-{n}" for m, n in GATED])
def test_far_field_constant_is_half_d(m, n):
    K, half_d, gap = far_field_gap(m, n)
    assert gap <= BOUND, f"K = {K:.8g}, d/2 = {half_d:.8g}"


def test_far_field_constant_outside_the_gate_is_reported():
    """Prints each gap (pytest -s shows them); only a non-finite fit fails."""
    rows = [(m, n, *far_field_gap(m, n)) for m, n in REPORTED]
    for m, n, K, half_d, gap in rows:
        print(f"far field ({m},{n}) N={m + n - 1}: K {K:.8g}, d/2 {half_d:.8g}, gap {gap:.2e}")
    assert all(math.isfinite(gap) for *_, gap in rows)
