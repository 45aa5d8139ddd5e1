import dataclasses

import numpy as np
import pytest

from cjlab import (
    ConeSpec,
    IntegrationFailure,
    ShootingConfig,
    cone_ray,
    emden_fowler_transform,
    geometry_trace,
    integrate_profile,
    left_fundamental_pair,
    near_origin_behavior,
    solve_jacobi,
    weighted_sup_norm,
)
from cjlab import jacobi
from cjlab.cli import RESIDUAL_TARGET_FACTOR
from cjlab.jacobi import (
    BreakpointError,
    decay_diagnostics,
    left_particular_vop,
    residual_sup,
    sharp_weight,
)
from cjlab.profile import curvature_terms


def fd_second(t, y):
    h = t[1] - t[0]
    return (y[2:] - 2 * y[1:-1] + y[:-2]) / h**2


class TestEmdenFowlerTransform:
    def test_cone_ray_oracle(self):
        """On the exact cone the transform is fully explicit: the weight
        is p = s^{-(N-2)/2} and the potential is the constant
        -(N-2)^2/4 + (N-1)."""
        spec = ConeSpec(2, 3)
        s = np.geomspace(1e-2, 1e2, 4001)
        ray = cone_ray(spec, s)
        trace = geometry_trace(ray)
        ef = emden_fowler_transform(ray, trace, trace.trA3)
        N = spec.N
        v_const = -((N - 2) ** 2) / 4 + (N - 1)
        assert np.max(np.abs(ef.V - v_const)) < 1e-11
        assert ef.p == pytest.approx(s ** (-(N - 2) / 2), rel=1e-9)

    def test_p_normalisation_and_positivity(self, jacobi_solutions):
        for (m, n), (curve, trace, sol) in jacobi_solutions.items():
            ef = sol.ef
            # p(0) = 1; the grid needn't contain t = 0, so interpolate log p
            log_p0 = np.interp(0.0, ef.t_grid, np.log(ef.p))
            assert log_p0 == pytest.approx(0.0, abs=1e-7)
            assert np.all(ef.p > 0)

    @pytest.mark.parametrize(
        "m,n,v_lo,v_hi",
        [(2, 2, 0.0, 1.75), (4, 4, -1.0, -0.25)],
    )
    def test_potential_limits(self, m, n, v_lo, v_hi, jacobi_solutions):
        _, _, sol = jacobi_solutions[(m, n)]
        t = sol.ef.t_grid
        V = sol.ef.V
        assert abs(V[np.searchsorted(t, -5.0)] - v_lo) < 1e-2
        assert abs(V[np.searchsorted(t, 7.0)] - v_hi) < 1e-2

    def test_f_tilde_definition(self, jacobi_solutions):
        curve, trace, sol = jacobi_solutions[(3, 3)]
        ef = sol.ef
        assert ef.f_tilde == pytest.approx(ef.s**2 * trace.trA3 / ef.p, rel=1e-12)

    def test_requires_s_equal_one_in_range(self):
        spec = ConeSpec(2, 2)
        ray = cone_ray(spec, np.geomspace(2.0, 50.0, 800))
        trace = geometry_trace(ray)
        with pytest.raises(ValueError):
            emden_fowler_transform(ray, trace, trace.trA3)

    def test_breakpoint_has_no_sign_change(self, jacobi_solutions):
        for (m, n), (curve, trace, sol) in jacobi_solutions.items():
            ef = sol.ef
            z = trace.zeta0[: ef.i0 + 1]
            assert np.min(z) > 0.0
            assert ef.t0 < ef.t1


class TestLeftFundamentalPair:
    def test_wronskian_is_one(self, jacobi_solutions):
        for (m, n), (curve, trace, sol) in jacobi_solutions.items():
            pair = sol.left_pair
            w = pair.wronskian_samples()
            assert np.max(np.abs(w - 1.0)) <= 1e-8

    def test_u_plus_solves_transformed_equation(self, jacobi_solutions):
        for (m, n), (curve, trace, sol) in jacobi_solutions.items():
            pair = sol.left_pair
            k = len(pair.t)
            resid = fd_second(pair.t, pair.u_plus) + sol.ef.V[1 : k - 1] * pair.u_plus[1:-1]
            scale = 1.0 + np.max(np.abs(pair.u_plus))
            assert np.max(np.abs(resid)) <= 1e-5 * scale

    def test_u_plus_exponential_envelope(self, jacobi_solutions):
        """c e^{lambda t} <= u_+ <= C e^{lambda t} with lambda = (n-2)/2
        for n >= 3; for n = 2 the field u_+ itself is pinched between
        positive constants."""
        for (m, n), (curve, trace, sol) in jacobi_solutions.items():
            pair = sol.left_pair
            lam = (n - 2) / 2
            ratio = pair.u_plus * np.exp(-lam * pair.t)
            assert np.min(ratio) > 0
            assert np.max(ratio) / np.min(ratio) < 60.0

    def test_sign_change_raises_breakpoint_error(self, jacobi_solutions):
        curve, trace, sol = jacobi_solutions[(2, 2)]
        z = trace.zeta0
        first_zero = np.nonzero(np.sign(z[1:]) * np.sign(z[:-1]) < 0)[0][0]
        bad = dataclasses.replace(sol.ef, i0=first_zero + 8)
        assert bad.t0 == sol.t[first_zero + 8]  # the breakpoint follows its index
        with pytest.raises(BreakpointError):
            left_fundamental_pair(bad)

    def test_vop_form_matches_ivp_solution(self, jacobi_solutions):
        """The explicit quadrature construction agrees with psi / p from the
        zero-data initial value problem where its conditioning allows (n <= 3)."""
        for (m, n) in [(2, 2), (2, 3), (3, 3)]:
            curve, trace, sol = jacobi_solutions[(m, n)]
            u_vop = left_particular_vop(sol.ef)
            k = sol.ef.i0 + 1
            u = sol.psi[:k] / sol.ef.p[:k]
            assert np.max(np.abs(u_vop - u)) <= 1e-8 * np.max(np.abs(u))


class TestSolveJacobi:
    def test_zero_forcing_gives_zero(self, jacobi_configs):
        sol = solve_jacobi(jacobi_configs[(2, 2)], lambda s, a, b, phi: 0.0 * s)
        assert np.max(np.abs(sol.psi)) == 0.0

    def test_default_forcing_is_trA3(self, jacobi_solutions):
        for curve, trace, sol in jacobi_solutions.values():
            assert np.array_equal(sol.f, trace.trA3)

    def test_evaluation_budget_ends_the_solve(self, short_configs, monkeypatch):
        monkeypatch.setattr(jacobi, "MAX_PSI_NFEV", 100)
        with pytest.raises(IntegrationFailure, match="psi solve"):
            solve_jacobi(short_configs[(2, 2)])

    def test_profile_integrated_with_psi_matches_curve(self, jacobi_configs, jacobi_solutions):
        """The curve the IVP carries along with psi (in t) retraces the profile
        that integrate_profile computes on its own (in s), both at profile.RTOL."""
        for key, cfg in jacobi_configs.items():
            curve, sol = integrate_profile(cfg), jacobi_solutions[key][2]
            assert np.array_equal(sol.curve.s, curve.s)
            gap = np.abs(np.array([sol.curve.a - curve.a, sol.curve.b - curve.b,
                                   sol.curve.phi - curve.phi]))
            assert np.max(gap) <= 1e-9

    def test_curve_leaving_the_quadrant_raises(self, short_configs, monkeypatch):
        """The psi IVP has no axis event; its samples are checked instead, so
        a curve that crosses an axis never reaches geometry_trace."""
        def doomed_rhs(s, y, m, n):
            return [np.cos(y[2]), np.sin(y[2]), -3.0]  # curls b back into the axis

        monkeypatch.setattr(jacobi, "_rhs", doomed_rhs)
        # flat coefficients, so the IVP steps across the axis instead of stalling at it
        monkeypatch.setattr(jacobi, "curvature_terms", lambda spec, a, b, phi: (0.0,) * 4)
        with pytest.raises(IntegrationFailure, match="open quadrant") as err:
            solve_jacobi(short_configs[(2, 2)])
        assert 0 < err.value.last_s < 200.0

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (4, 4)])
    def test_residual_target(self, m, n, jacobi_solutions):
        _, trace, sol = jacobi_solutions[(m, n)]
        target = 1e-6 * (1.0 + np.max(np.abs(sol.f)))
        assert sol.residual == residual_sup(sol.s, sol.residual_pointwise, 2e-3, 500.0)
        assert sol.residual <= target

    def test_solution_is_c1_across_breakpoints(self, jacobi_solutions):
        for _, _, sol in jacobi_solutions.values():
            assert np.all(np.isfinite(sol.psi))
            # no jumps: FD of psi across the stitch points stays smooth
            for tb in (sol.ef.t0, sol.ef.t1):
                i = np.searchsorted(sol.t, tb)
                window = sol.psi[i - 3 : i + 4]
                d2 = np.abs(np.diff(window, 2))
                assert d2.max() < 1e-5

    def test_superposition(self, jacobi_configs):
        cfg = jacobi_configs[(3, 3)]

        def f1(s, a, b, phi):
            return curvature_terms(cfg.spec, a, b, phi)[3]

        def f2(s, a, b, phi):
            return (1.0 + s**2) ** -2

        s1 = solve_jacobi(cfg, f1)
        s2 = solve_jacobi(cfg, f2)
        s12 = solve_jacobi(cfg, lambda *x: f1(*x) + f2(*x))
        err = np.max(np.abs(s12.psi - s1.psi - s2.psi))
        assert err <= 1e-8 * np.max(np.abs(s12.psi))

    def test_middle_pair_wronskian_and_pullback(self, jacobi_solutions):
        for (m, n), (curve, trace, sol) in jacobi_solutions.items():
            pair = sol.middle_pair
            assert pair.wronskian_drift <= 1e-8
            # undoing the transform turns the homogeneous pair into
            # solutions of the s-equation: psi'' + alpha psi' + beta psi = 0
            i0, i1 = sol.ef.i0, sol.ef.i1
            sl = slice(i0, i1 + 1)
            t, s = sol.t[sl], sol.s[sl]
            p = sol.ef.p[sl]
            for v in (pair.u_plus, pair.u_minus):
                psi = p * v
                h = t[1] - t[0]
                ptt = fd_second(t, psi)
                pt = (psi[2:] - psi[:-2]) / (2 * h)
                resid = (
                    (ptt - pt) / s[1:-1] ** 2
                    + trace.alpha[sl][1:-1] * pt / s[1:-1]
                    + trace.A2[sl][1:-1] * psi[1:-1]
                )
                assert np.max(np.abs(resid)) <= 1e-4 * (1 + np.max(np.abs(psi)))

    def test_middle_pair_matches_separate_solves(self, jacobi_solutions):
        """The pair's columns, integrated together, match each column solved
        as its own 2-state DOP853 IVP."""
        from scipy.integrate import solve_ivp
        from scipy.interpolate import CubicSpline

        for _, _, sol in jacobi_solutions.values():
            pair, sl = sol.middle_pair, slice(sol.ef.i0, sol.ef.i1 + 1)
            V = CubicSpline(sol.t[sl], sol.ef.V[sl])
            for data, u, du in (([1.0, 0.0], pair.u_plus, pair.du_plus),
                                ([0.0, 1.0], pair.u_minus, pair.du_minus)):
                ref = solve_ivp(lambda tt, y: [y[1], -V(tt) * y[0]], (pair.t[0], pair.t[-1]),
                                data, method="DOP853", rtol=jacobi.RTOL, atol=sol.atol,
                                t_eval=pair.t).y
                for got, want in ((u, ref[0]), (du, ref[1])):
                    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_one_ivp_for_the_middle_pair(self, short_configs, monkeypatch):
        import scipy.integrate

        calls = []
        solve_ivp = scipy.integrate.solve_ivp
        monkeypatch.setattr(scipy.integrate, "solve_ivp",
                            lambda *a, **k: calls.append(len(a[2])) or solve_ivp(*a, **k))
        solve_jacobi(short_configs[(2, 2)])
        assert calls == [5, 4]  # (a, b, phi, psi, psi_t), then the pair


@pytest.mark.parametrize("m", range(2, 11))
@pytest.mark.parametrize("n", range(2, 11))
def test_residual_target_on_the_envelope(m, n):
    """Every spec with m, n in [2, 10] meets the cjl jacobi residual target
    on s_max = 2100 at grid step 1e-3."""
    cfg = ShootingConfig(spec=ConeSpec(m, n), s_max=2100.0, grid_step=1e-3)
    sol = solve_jacobi(cfg)
    target = RESIDUAL_TARGET_FACTOR * (1.0 + np.max(np.abs(sol.f)))
    assert sol.residual <= target


class TestNearOrigin:
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (4, 4)])
    def test_quadratic_exponent(self, m, n, jacobi_solutions):
        curve, _, sol = jacobi_solutions[(m, n)]
        fit = near_origin_behavior(sol, curve.spec)
        assert fit.exponent == pytest.approx(2.0, abs=0.1)

    def test_leading_coefficient(self, jacobi_solutions):
        """psi ~ f(0+)/(2n) s^2 near the axis, from the series balance of
        psi'' + (n-1)/s psi' + beta psi = f."""
        for (m, n) in [(2, 3), (3, 3), (4, 4)]:
            curve, trace, sol = jacobi_solutions[(m, n)]
            i = np.searchsorted(curve.s, 10 * curve.s[0])
            measured = sol.psi[i] / curve.s[i] ** 2
            assert measured == pytest.approx(trace.trA3[0] / (2 * n), rel=0.05)

    def test_log_correction_detected_only_for_n2(self, jacobi_solutions):
        curve, _, sol = jacobi_solutions[(2, 2)]
        fit = near_origin_behavior(sol, curve.spec)
        assert fit.log_detected
        assert fit.log_coeff > 0.0
        assert fit.exponent == pytest.approx(2.0, abs=0.15)
        curve3, _, sol3 = jacobi_solutions[(3, 3)]
        assert not near_origin_behavior(sol3, curve3.spec).log_detected


class TestDecayDiagnostics:
    def test_weight_selection(self):
        assert sharp_weight(ConeSpec(3, 3))[0] == "s_plus_1"
        assert sharp_weight(ConeSpec(2, 3))[0] == "s_plus_1_over_log"
        assert sharp_weight(ConeSpec(2, 2))[0] == "sqrt_s_plus_1_over_log"

    def test_windows_are_dyadic_beyond_100(self, jacobi_solutions):
        curve, _, sol = jacobi_solutions[(3, 3)]
        report = decay_diagnostics(sol, curve.spec)
        assert report["windows"][0] == [128.0, 256.0]
        for (lo, hi) in report["windows"]:
            assert hi == 2 * lo and lo >= 100.0

    def test_plain_weight_bounded_for_33(self, jacobi_solutions):
        curve, _, sol = jacobi_solutions[(3, 3)]
        assert decay_diagnostics(sol, curve.spec)["bounded_within_factor"] is True

    def test_bounded_flag_is_null_without_ratios(self, short_configs):
        """s_max = 200 holds no dyadic window, so there is no ratio to bound."""
        cfg = short_configs[(3, 3)]
        report = decay_diagnostics(solve_jacobi(cfg), cfg.spec)
        assert report["windows"] == [] and report["ratios"] == []
        assert report["bounded_within_factor"] is None


class TestWeightedSupNorm:
    def test_constants(self):
        s = np.geomspace(1e-3, 1e3, 1000)
        assert weighted_sup_norm(s, np.ones_like(s), 0.0) == 1.0
        assert weighted_sup_norm(s, (s + 1.0) ** 3, 3.0) == pytest.approx(1.0, rel=1e-12)

    def test_trA3_is_cubically_decaying(self, jacobi_solutions):
        curve, trace, _ = jacobi_solutions[(4, 4)]
        assert np.isfinite(weighted_sup_norm(curve.s, trace.trA3, -3.0))

    def test_homogeneity(self):
        s = np.geomspace(0.1, 10, 100)
        h = np.sin(s) + 2.0
        a = weighted_sup_norm(s, h, 1.0)
        assert weighted_sup_norm(s, 5.0 * h, 1.0) == pytest.approx(5.0 * a, rel=1e-14)
