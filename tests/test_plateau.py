import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cjlab.plateau
from cjlab import decay
from cjlab.plateau import (
    alpha_of_R,
    minimal_graph_residual,
    plateau_profile,
    plateau_zeta0,
)

# independent oracle: alpha(1) at N = 3 reduces to int_0^1 (1-u^4)^{-1/2} du
# via u = 1/rho (quartic lemniscate-type constant)
ALPHA1_N3_ORACLE = 1.3110287771460598


def test_frozen_oracle_value_is_reproducible():
    mp.mp.dps = 30
    val = mp.quad(lambda u: 1 / mp.sqrt(1 - u**4), [0, 1])
    assert float(val) == pytest.approx(ALPHA1_N3_ORACLE, abs=1e-14)


class TestAlphaOfR:
    def test_matches_oracle(self):
        assert alpha_of_R(3, 1.0) == pytest.approx(ALPHA1_N3_ORACLE, abs=1e-6)

    def test_scaling_law(self):
        for N in (3, 4, 5, 7):
            a1 = alpha_of_R(N, 1.0)
            for R in (0.5, 1.0, 2.0):
                assert alpha_of_R(N, R) / (R * a1) == pytest.approx(1.0, rel=1e-6)

    def test_doubled_radius_example(self):
        assert alpha_of_R(3, 2.0) == pytest.approx(2.622058, abs=1e-6)

    def test_positive_finite(self):
        for N in range(3, 9):
            a = alpha_of_R(N, 1.0)
            assert 0.0 < a < np.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            alpha_of_R(2, 1.0)
        with pytest.raises(ValueError):
            alpha_of_R(3, -1.0)
        for R in (np.nan, np.inf):
            with pytest.raises(ValueError):
                alpha_of_R(3, R)


class TestPlateauProfile:
    @pytest.mark.parametrize("N,R", [(3, 1.0), (4, 0.5), (5, 1.0), (6, 2.0)])
    def test_flux_identity(self, N, R):
        graph = plateau_profile(N, R, 2.0e3 * R)
        assert minimal_graph_residual(graph) <= 1e-10

    def test_monotone_positive(self):
        graph = plateau_profile(3, 1.0, 2000.0)
        v = np.asarray(graph.v)
        assert np.all(v > 0)
        assert np.all(np.asarray(graph.dv) < 0)
        assert np.all(np.diff(v) < 0)

    def test_gradient_blowup_at_boundary(self):
        for N in (3, 5):
            graph = plateau_profile(N, 1.0, 10.0)
            assert abs(graph.dv[0]) > 1e3  # r = R(1 + 1e-7)

    def test_boundary_value_is_alpha(self):
        graph = plateau_profile(3, 1.0, 2000.0)
        # v at r = R(1+1e-7) approaches alpha(R) from below
        assert graph.v[0] == pytest.approx(graph.alphaR, abs=1e-3)
        assert graph.v[0] < graph.alphaR

    def test_far_field_coefficient(self):
        for N, R in [(3, 1.0), (5, 1.0)]:
            graph = plateau_profile(N, R, 2.0e3 * R)
            i = np.searchsorted(graph.r, 1.0e3 * R)
            assert graph.r[i] ** (N - 2) * graph.v[i] == pytest.approx(
                graph.decay_coeff, rel=0.01
            )

    def test_subharmonic_bound(self):
        graph = plateau_profile(4, 1.0, 2000.0)
        assert np.max(np.asarray(graph.r) ** (graph.N - 2) * graph.v) < 2.0 * graph.alphaR

    def test_exact_derivative_value(self):
        # v'(2) = -(1/4)/sqrt(1 - 1/16) for N = 3, R = 1
        graph = plateau_profile(3, 1.0, 10.0)
        i = np.argmin(np.abs(np.asarray(graph.r) - 2.0))
        want = -(2.0 ** (1 - 3)) / np.sqrt(1 - 2.0 ** (2 * (1 - 3)))
        assert graph.dv[i] == pytest.approx(want, rel=5e-3)
        assert want == pytest.approx(-0.25 / np.sqrt(1 - 1 / 16), rel=1e-15)

    def test_constant_branch_has_zero_flux(self):
        # v = const (kappa = 0) carries no flux
        r = np.geomspace(1.0, 100.0, 50)
        dv = np.zeros_like(r)
        flux = r**2 * dv / np.sqrt(1 + dv**2)
        assert np.all(flux == 0.0)

    def test_flux_residual_array_and_sup(self):
        graph = plateau_profile(5, 1.5, 3000.0)
        flux = [r**4 * dv / math.sqrt(1.0 + dv * dv) for r, dv in zip(graph.r, graph.dv)]
        assert graph.flux_residual == [abs(f + 1.5**4) for f in flux]
        assert graph.flux_residual is graph.flux_residual  # computed once
        assert minimal_graph_residual(graph) == max(graph.flux_residual)

    def test_validation(self):
        with pytest.raises(ValueError):
            plateau_profile(3, 1.0, 0.5)
        with pytest.raises(ValueError):
            plateau_profile(3, 1.0, np.inf)


def betainc_oracle(N, R, r):
    """v(r) from the incomplete-beta closed form at 40 digits."""
    with mp.workdps(40):
        a = mp.mpf(1) / 2 - mp.mpf(1) / (2 * (N - 1))
        q2 = (mp.mpf(R) / mp.mpf(r)) ** (2 * (N - 1))
        return mp.mpf(R) / (N - 1) * mp.betainc(a, mp.mpf(1) / 2, 0, q2) / 2


def assert_matches_oracle(N, R, r, v):
    """v within 1e-12 of the oracle, plus two spacings where v is subnormal;
    this holds also where q = (R/r)^{N-1} is subnormal or underflows."""
    want = float(betainc_oracle(N, R, r))
    tol = 1e-12 * want + 2.0 * np.finfo(float).smallest_subnormal
    assert abs(v - want) <= tol, (N, R, r, v, want)


class TestClosedFormOracle:
    # x = 1 - w, w = sqrt(1 - (R/r)^{2N-2}): short tails around x = 1e-6,
    # where a quadrature loses relative accuracy first
    SWITCH_X = (0.9e-6, 1.0e-6, 1.06e-6, 1.2e-6)
    # q^2 on both sides of the series' branch point 1/2, and across (0, 1)
    BRANCH_Q2 = ([0.5 * (1.0 + d) for d in (-1e-3, -1e-8, -1e-14, 1e-14, 1e-8, 1e-3)]
                 + list(np.linspace(0.05, 0.95, 10)))

    @pytest.mark.parametrize("N", range(3, 13))
    @pytest.mark.parametrize("R", [0.5, 1.0, 2.75])
    def test_matches_mpmath_betainc(self, N, R):
        # r -> R and q^2 -> 0 (2000^{-22} at N = 12) are the grid's ends
        graph = plateau_profile(N, R, 2.0e3 * R)
        samples = [(graph.r[i], graph.v[i]) for i in (0, len(graph.r) - 1)]
        for q2 in [x * (2.0 - x) for x in self.SWITCH_X] + self.BRANCH_Q2:
            r_x = R * q2 ** (-0.5 / (N - 1))
            # geomspace puts its last sample exactly at r_max
            samples.append((r_x, plateau_profile(N, R, r_x).v[-1]))
        assert {((R / r) ** (N - 1)) ** 2 <= 0.5 for r, _ in samples} == {True, False}
        for r, v in samples:
            assert_matches_oracle(N, R, r, v)

    @given(st.integers(3, 140), st.floats(0.1, 10.0), st.integers(0, 1999))
    @settings(max_examples=150, deadline=None)
    def test_grid_points_match_oracle(self, N, R, i):
        graph = plateau_profile(N, R, 2.0e3 * R)
        assert_matches_oracle(N, R, graph.r[i], graph.v[i])

    def test_subnormal_q_at_a_huge_r_max(self):
        # q = (R/r)^2 is subnormal or zero on the last ~100 samples, where
        # v ~ R/r is still a normal float: v keeps full precision there
        graph = plateau_profile(3, 1.0, 1e162)
        q = (1.0 / np.asarray(graph.r)) ** 2
        tiny_q = np.nonzero(q < np.finfo(float).tiny)[0]
        assert len(tiny_q) > 90 and q[-1] == 0.0
        for i in [*tiny_q, *range(0, len(graph.r), 100)]:
            assert_matches_oracle(3, 1.0, graph.r[i], graph.v[i])

    @pytest.mark.parametrize("N", [3, 5, 12])
    def test_oracle_matches_tail_integral(self, N):
        # independent of the closed form: v(r) = int_r^inf -v'(rho) d rho
        R, r = 1.5, 2.0
        with mp.workdps(30):
            c = mp.mpf(R) ** (N - 1)
            tail = mp.quad(lambda rho: c * rho ** (1 - N) / mp.sqrt(1 - (c * rho ** (1 - N)) ** 2),
                           [r, 2 * r, mp.inf])
            assert abs(betainc_oracle(N, R, r) / tail - 1) < mp.mpf(10) ** -25

    def test_alpha_is_the_boundary_value(self):
        for N in (3, 7, 12, 140):
            want = betainc_oracle(N, 1.0, 1.0)
            assert alpha_of_R(N, 1.0) == pytest.approx(float(want), rel=1e-14)


class TestPlateauZeta0:
    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_decay_exponent_is_two_minus_N(self, N):
        graph = plateau_profile(N, 1.0, 2000.0)
        zeta0, fit = plateau_zeta0(graph)
        assert np.all(np.asarray(zeta0) > 0)
        assert fit.exponent == pytest.approx(2 - N, abs=0.02)

    def test_coefficient_limit(self):
        """At the first sample >= 1000 R, r^(N-2) zeta_0 is its limit (N-1) R^(N-1) / (N-2)
        up to a relative correction of order (R/r)^(2N-2) <= 1e-12."""
        for N in range(3, 13):
            for R in (0.5, 1.0, 2.75):
                graph = plateau_profile(N, R, 2.0e3 * R)
                zeta0, _ = plateau_zeta0(graph)
                i = np.searchsorted(graph.r, 1.0e3 * R)
                want = (N - 1) * R ** (N - 1) / (N - 2)
                assert graph.r[i] ** (N - 2) * zeta0[i] == pytest.approx(want, rel=1e-12)

    def test_degenerate_rate_misses_nondegeneracy_threshold(self):
        from cjlab.decay import classify_against_indicial
        from cjlab.spectra import ConeSpec, indicial_data, link_eigenvalues

        graph = plateau_profile(3, 1.0, 2000.0)
        _, fit = plateau_zeta0(graph)
        spectral = indicial_data(ConeSpec(2, 2), link_eigenvalues(ConeSpec(2, 2), 6))
        cls = classify_against_indicial(fit, spectral)
        assert not cls["nondegenerate_candidate"]


def numpy_graph(N, R, r):
    """q, v, v' and zeta_0 on the grid r by the numpy formulas the float port replaced."""
    R_over_r = R / r
    q = R_over_r ** (N - 1)
    dv = -q / np.sqrt(1.0 - q * q)
    a = 0.5 - 0.5 / (N - 1)
    beta = math.exp(math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5))
    x = q * q
    lower = x <= 0.5
    y = np.where(lower, x, 1.0 - x)
    p = np.where(lower, a, 0.5)
    k = np.arange(59)
    series = 1.0 + np.cumprod((a + 0.5 + k) / (p[:, None] + 1.0 + k) * y[:, None], axis=-1).sum(-1)
    with np.errstate(invalid="ignore"):  # sqrt(y) of the discarded branch
        q_2a = np.where(q < np.finfo(float).tiny, R_over_r ** (N - 2), q ** (2.0 * a))
        y_p = np.where(lower, q_2a, np.sqrt(y))
    part = y_p * (1.0 - y) ** (a + 0.5 - p) / (p * beta) * series
    v = R / (N - 1) * 0.5 * beta * np.where(lower, part, 1.0 - part)
    return q, v, dv, (-r * dv + v) / np.sqrt(1.0 + dv**2)


def ulps(want, got):
    """|want - got| in units of the spacing of the larger of the two."""
    got = np.asarray(got)
    return np.abs(want - got) / np.spacing(np.maximum(np.abs(want), np.abs(got)))


class TestNumpyOracle:
    """The float evaluation against the numpy one it replaced: numpy's pow and
    log10 are not C's, so they agree to rounding, not bit for bit."""

    CASES = ([(N, 0.5 + 0.25 * k, 2.0e3 * (0.5 + 0.25 * k))  # the benchmark's plateau ops
              for N in range(3, 13) for k in range(10)]
             + [(140, 1.0, 2.0e3), (3, 5e-310, 1e-306), (3, 1.0, 1e162)])

    @pytest.mark.parametrize("N,R,r_max", CASES)
    def test_grid_and_fields_match_numpy(self, N, R, r_max, monkeypatch):
        graph = plateau_profile(N, R, r_max)
        r = np.asarray(graph.r)
        # a last-place change in log10(r) moves r by ln(10) |log10 r| ulps
        want = np.geomspace(R * (1.0 + 1e-7), r_max, 2000)
        assert np.all(ulps(want, r) <= 4.0 * (1.0 + np.abs(np.log10(r))))
        # on the same grid: a last-place change in R/r moves q = (R/r)^{N-1}
        # by N - 1 ulps, and 1 - q^2 (near r = R) by (N - 1) / (1 - q^2)
        q, *fields = numpy_graph(N, R, r)
        monkeypatch.setattr(cjlab.plateau, "fit_power_law", lambda *args: None)
        zeta0, _ = plateau_zeta0(graph)  # also where the window holds too few samples
        bound = 8.0 * (N - 1) / (1.0 - q * q)
        for want, got in zip(fields, (graph.v, graph.dv, zeta0)):
            assert np.all(ulps(want, got) <= bound)

    @pytest.mark.parametrize("N,R,r_max", CASES)
    def test_fit_matches_decay_fit(self, N, R, r_max):
        graph = plateau_profile(N, R, r_max)
        zeta0 = [(-x * d + v) / math.sqrt(1.0 + d * d) for x, v, d in zip(graph.r, graph.v, graph.dv)]
        window = (1.0e2 * R, 1.0e3 * R)
        try:
            want = decay.fit_power_law(graph.r, zeta0, window)
        except ValueError as exc:  # r_max = 1e162 leaves 13 samples in the window
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                plateau_zeta0(graph)
            return
        got_zeta0, fit = plateau_zeta0(graph)
        assert got_zeta0 == zeta0 and not want.oscillatory
        assert abs(fit.exponent - want.exponent) <= 1e-12
        assert (fit.log_coeff, fit.window, fit.oscillatory) == (0.0, window, False)
        assert abs(fit.residual_rms - want.residual_rms) <= 1e-12  # both at rounding level
