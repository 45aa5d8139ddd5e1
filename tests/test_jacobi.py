import dataclasses
import math
import types

import numpy as np
import pytest

from cjlab import DiagnosticError, IntegrationFailure, decay, jacobi, profile
from cjlab import dop853 as stepper
from cjlab.cli import RESIDUAL_TARGET_FACTOR
from cjlab.jacobi import (
    decay_diagnostics,
    emden_fowler_transform,
    left_fundamental_pair,
    near_origin_behavior,
    residual_sup,
    sharp_weight,
    solve_jacobi,
    weighted_sup_norm,
)
from cjlab.profile import (
    ShootingConfig,
    cone_ray,
    curvature_terms,
    geometry_trace,
    integrate_profile,
)
from cjlab.spectra import ConeSpec


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
            log_p0 = np.interp(0.0, ef.curve.t, np.log(ef.p))
            assert log_p0 == pytest.approx(0.0, abs=1e-7)
            assert np.all(ef.p > 0)

    @pytest.mark.parametrize(
        "m,n,v_lo,v_hi",
        [(2, 2, 0.0, 1.75), (4, 4, -1.0, -0.25)],
    )
    def test_potential_limits(self, m, n, v_lo, v_hi, jacobi_solutions):
        _, _, sol = jacobi_solutions[(m, n)]
        t = sol.ef.curve.t
        V = sol.ef.V
        assert abs(V[np.searchsorted(t, -5.0)] - v_lo) < 1e-2
        assert abs(V[np.searchsorted(t, 7.0)] - v_hi) < 1e-2

    def test_f_tilde_definition(self, jacobi_solutions):
        curve, trace, sol = jacobi_solutions[(3, 3)]
        ef = sol.ef
        assert ef.f_tilde == pytest.approx(ef.curve.s**2 * trace.trA3 / ef.p, rel=1e-12)

    def test_requires_s_equal_one_in_range(self):
        spec = ConeSpec(2, 2)
        ray = cone_ray(spec, np.geomspace(2.0, 50.0, 800))
        trace = geometry_trace(ray)
        with pytest.raises(ValueError):
            emden_fowler_transform(ray, trace, trace.trA3)

    @pytest.mark.parametrize("samples", [16, 17, 18, 20, 31, 32, 40])
    def test_breakpoints_on_short_grids(self, samples):
        """Under 32 samples t0 cannot keep 16 from each end: it keeps the far
        margin while that leaves 3 samples on [t_min, t0], and [t0, t1]
        always holds 4."""
        ray = cone_ray(ConeSpec(2, 2), np.geomspace(1e-3, 2100.0, samples))
        trace = geometry_trace(ray)
        if samples < 18:
            with pytest.raises(DiagnosticError, match="^breakpoints: "):
                emden_fowler_transform(ray, trace, trace.trA3)
            return
        ef = emden_fowler_transform(ray, trace, trace.trA3)
        assert min(16, samples - 16) <= ef.i0 <= samples - 16
        assert ef.i0 + 3 <= ef.i1 <= samples - 8

    def test_breakpoint_has_no_sign_change(self, jacobi_solutions):
        for (m, n), (curve, trace, sol) in jacobi_solutions.items():
            ef = sol.ef
            z = trace.zeta0[: ef.i0 + 1]
            assert np.min(z) > 0.0
            assert ef.t0 < ef.t1


class TestQuadratureAndInterpolant:
    """The numpy rules that the left and middle pairs are built on."""

    def test_cumulative_matches_the_exact_antiderivative(self):
        t = np.linspace(-1.0, 2.0, 3001)  # h = 1e-3
        exact = np.exp(t) * (np.sin(3 * t) - 3 * np.cos(3 * t)) / 10
        got = jacobi._cumulative(t, np.exp(t) * np.sin(3 * t))
        assert got[0] == 0.0
        assert np.max(np.abs(got - (exact - exact[0]))) <= 1e-10

    @pytest.mark.parametrize("samples", [4, 9, 200])
    def test_interpolant_reproduces_a_cubic(self, samples):
        def cubic(x):
            return 2.0 - x + 0.5 * x**2 - 0.25 * x**3

        t = np.linspace(-3.0, 1.0, samples)
        V = jacobi._cubic_interpolant(t, cubic(t))
        x = np.linspace(-3.0, 1.0, 1001)
        got = np.array([V(xx) for xx in x])
        assert np.max(np.abs(got - cubic(x))) <= 1e-13 * np.max(np.abs(cubic(x)))

    @pytest.mark.parametrize("samples", [4, 9])
    def test_interpolant_returns_the_samples_at_the_nodes(self, samples):
        """On every window of a grid whose nodes lie at exact multiples of
        its spacing, so that each node is in turn the first and the last."""
        t = -2.0 + 0.125 * np.arange(300)
        v = np.random.default_rng(samples).uniform(-10.0, 10.0, 300)
        for j in range(300 - samples + 1):
            window = slice(j, j + samples)
            V = jacobi._cubic_interpolant(t[window], v[window])
            assert [V(x) for x in t[window].tolist()] == v[window].tolist()


class TestLeftFundamentalPair:
    def test_wronskian_is_one(self, jacobi_solutions):
        for (m, n), (curve, trace, sol) in jacobi_solutions.items():
            pair = left_fundamental_pair(sol.ef)
            w = pair.wronskian_samples()
            assert np.max(np.abs(w - 1.0)) <= 1e-8

    def test_u_plus_solves_transformed_equation(self, jacobi_solutions):
        for (m, n), (curve, trace, sol) in jacobi_solutions.items():
            pair = left_fundamental_pair(sol.ef)
            k = len(pair.t)
            resid = fd_second(pair.t, pair.u_plus) + sol.ef.V[1 : k - 1] * pair.u_plus[1:-1]
            scale = 1.0 + np.max(np.abs(pair.u_plus))
            assert np.max(np.abs(resid)) <= 1e-5 * scale

    def test_u_plus_exponential_envelope(self, jacobi_solutions):
        """c e^{lambda t} <= u_+ <= C e^{lambda t} with lambda = (n-2)/2
        for n >= 3; for n = 2 the field u_+ itself is pinched between
        positive constants."""
        for (m, n), (curve, trace, sol) in jacobi_solutions.items():
            pair = left_fundamental_pair(sol.ef)
            lam = (n - 2) / 2
            ratio = pair.u_plus * np.exp(-lam * pair.t)
            assert np.min(ratio) > 0
            assert np.max(ratio) / np.min(ratio) < 60.0

    def test_sign_change_raises_breakpoint_error(self, jacobi_solutions):
        curve, trace, sol = jacobi_solutions[(2, 2)]
        z = trace.zeta0
        first_zero = np.nonzero(np.sign(z[1:]) * np.sign(z[:-1]) < 0)[0][0]
        bad = dataclasses.replace(sol.ef, i0=first_zero + 8)
        assert bad.t0 == sol.curve.t[first_zero + 8]  # the breakpoint follows its index
        with pytest.raises(DiagnosticError, match="left pair: zeta_0 changes sign"):
            left_fundamental_pair(bad)


class TestFundamentalPair:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_products_give_a_nan_drift_without_warnings(self):
        """u_+ u_-' past the float range is inf, and inf - inf is nan: the
        drift reads nan, and numpy prints nothing."""
        u = np.array([1.0, 1e200, 1e300])
        pair = jacobi.FundamentalPair(t=np.arange(3.0), u_plus=u, u_minus=u, du_plus=u,
                                      du_minus=u)
        w = pair.wronskian_samples()
        assert w[0] == 0.0 and np.isnan(w[1]) and np.isnan(w[2])
        assert math.isnan(pair.wronskian_drift)


class TestSolveJacobi:
    def test_zero_forcing_gives_zero(self, jacobi_configs):
        sol = solve_jacobi(jacobi_configs[(2, 2)], lambda s, a, b, phi: 0.0 * s)
        assert np.max(np.abs(sol.psi)) == 0.0

    def test_default_forcing_is_trA3(self, jacobi_solutions):
        for curve, trace, sol in jacobi_solutions.values():
            assert np.array_equal(sol.f, trace.trA3)

    def test_evaluation_budget_ends_the_solve(self, short_configs, monkeypatch):
        monkeypatch.setattr(stepper, "MAX_NFEV", 100)
        with pytest.raises(IntegrationFailure, match=r"^psi solve for \(m,n\)=\(2,2\) stopped "
                           r"at s=\S+: over 100 right-hand-side evaluations$"):
            solve_jacobi(short_configs[(2, 2)])

    def test_stopped_middle_pair_keeps_its_samples_aligned(self, monkeypatch):
        """A middle-pair run that the budget stops early gives the pair the
        grid points it reached, one per sample of u_+ and u_-."""
        run = jacobi.dop853

        def short_pair(fun, y0, atol, t_eval):
            if len(y0) == 4:  # the pair's (u_+, u_-, u_+', u_-')
                monkeypatch.setattr(stepper, "MAX_NFEV", 200)
            return run(fun, y0, atol, t_eval)

        monkeypatch.setattr(jacobi, "dop853", short_pair)
        sol = solve_jacobi(ShootingConfig(spec=ConeSpec(2, 2), s_max=200.0, grid_step=1e-2))
        pair, i0, i1 = sol.middle_pair, sol.ef.i0, sol.ef.i1
        assert 0 < len(pair.t) < i1 + 1 - i0
        assert np.array_equal(pair.t, sol.curve.t[i0 : i0 + len(pair.t)])
        for u in (pair.u_plus, pair.u_minus, pair.du_plus, pair.du_minus):
            assert u.shape == pair.t.shape
        assert math.isfinite(pair.wronskian_drift)

    def test_profile_integrated_with_psi_matches_curve(self, jacobi_configs, jacobi_solutions):
        """The curve the IVP carries along with psi retraces the profile that
        integrate_profile computes on its own, both at dop853.RTOL."""
        for key, cfg in jacobi_configs.items():
            curve, sol = integrate_profile(cfg), jacobi_solutions[key][2]
            assert np.array_equal(sol.curve.s, curve.s)
            gap = np.abs(np.array([sol.curve.a - curve.a, sol.curve.b - curve.b,
                                   sol.curve.phi - curve.phi]))
            assert np.max(gap) <= 1e-9

    def test_curve_leaving_the_quadrant_raises(self, short_configs, monkeypatch):
        """The psi IVP has no axis event; its samples are checked instead, so
        a curve that crosses an axis never reaches geometry_trace."""
        # phi' = -3 curls b back into the axis; flat coefficients, so the IVP
        # steps across the axis instead of stalling at it
        monkeypatch.setattr(profile, "curvature_terms",
                            lambda spec, a, b, ap, bp: (-3.0, 0.0, 0.0, 0.0))
        with pytest.raises(IntegrationFailure, match="open quadrant") as err:
            solve_jacobi(short_configs[(2, 2)])
        assert 0 < err.value.last_s < 200.0

    def test_unfinished_run_past_an_axis_raises_at_the_axis(self, short_configs, monkeypatch):
        """A run that crosses an axis and then stalls reports the crossing,
        with the last sample inside the quadrant, not where it stalled."""
        # b crosses 0 near s = pi/3; phi' jumps to 1e20 at b = -0.05, where no
        # step is short enough to meet the tolerance
        monkeypatch.setattr(profile, "curvature_terms", lambda spec, a, b, ap, bp:
                            (-3.0 if b > -0.05 else 1e20, 0.0, 0.0, 0.0))
        with pytest.raises(IntegrationFailure, match="open quadrant") as err:
            solve_jacobi(short_configs[(2, 2)])
        assert 1.0 < err.value.last_s < math.pi / 3 + 0.01

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (4, 4)])
    def test_residual_target(self, m, n, jacobi_solutions):
        _, trace, sol = jacobi_solutions[(m, n)]
        target = 1e-6 * (1.0 + np.max(np.abs(sol.f)))
        assert sol.residual == residual_sup(sol.curve.s, sol.residual_pointwise, 2e-3,
                                            sol.curve.s[-1])
        assert sol.residual <= target

    def test_residual_on_a_coarse_grid(self):
        """psi'' from the state's psi' keeps the residual of an accurate psi
        far below its target at h = 1e-2, where two centred differences of
        the psi samples read 23 times the target."""
        sol = solve_jacobi(ShootingConfig(spec=ConeSpec(3, 3), s_max=2100.0, grid_step=1e-2))
        assert sol.residual <= 1e-2 * RESIDUAL_TARGET_FACTOR * (1.0 + np.max(np.abs(sol.f)))

    def test_residual_and_dpsi_defect_see_a_loose_psi(self, monkeypatch):
        """With psi's atol 1e14 times looser (psi off by 2e-7) both checks
        read far above what they read on the accurate psi."""
        cfg = ShootingConfig(spec=ConeSpec(3, 3), s_max=50.0, grid_step=1e-3)
        sol = solve_jacobi(cfg)
        target = RESIDUAL_TARGET_FACTOR * (1.0 + np.max(np.abs(sol.f)))
        assert sol.residual <= 1e-4 * target and sol.dpsi_defect <= 1e-8
        monkeypatch.setattr(jacobi, "_integrate", lambda cfg, fun, y0, atol, stage:
                            profile._integrate(cfg, fun, y0, 1e14 * atol, stage))
        loose = solve_jacobi(cfg)
        assert loose.residual > RESIDUAL_TARGET_FACTOR * (1.0 + np.max(np.abs(loose.f)))
        assert loose.dpsi_defect > 1e-6

    def test_dpsi_defect(self, jacobi_solutions):
        for _, _, sol in jacobi_solutions.values():
            assert np.isfinite(sol.dpsi_defect) and sol.dpsi_defect <= 1e-8

    def test_zero_forcing(self):
        """f = 0 gives psi = 0, whose psi' is exactly its derivative."""
        cfg = ShootingConfig(spec=ConeSpec(3, 3), s_max=50.0, grid_step=1e-2)
        sol = solve_jacobi(cfg, lambda s, a, b, phi: 0.0 * s)
        assert not np.any(sol.psi) and sol.residual == 0.0 and sol.dpsi_defect == 0.0

    def test_solution_is_c1_across_breakpoints(self, jacobi_solutions):
        for _, _, sol in jacobi_solutions.values():
            assert np.all(np.isfinite(sol.psi))
            # no jumps: FD of psi across the stitch points stays smooth
            for tb in (sol.ef.t0, sol.ef.t1):
                i = np.searchsorted(sol.curve.t, tb)
                window = sol.psi[i - 3 : i + 4]
                d2 = np.abs(np.diff(window, 2))
                assert d2.max() < 1e-5

    def test_superposition(self, jacobi_configs):
        cfg = jacobi_configs[(3, 3)]

        def f1(s, a, b, phi):
            return curvature_terms(cfg.spec, a, b, np.cos(phi), np.sin(phi))[3]

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
            t, s = sol.curve.t[sl], sol.curve.s[sl]
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
            V = CubicSpline(sol.curve.t[sl], sol.ef.V[sl])
            for data, u, du in (([1.0, 0.0], pair.u_plus, pair.du_plus),
                                ([0.0, 1.0], pair.u_minus, pair.du_minus)):
                ref = solve_ivp(lambda tt, y: [y[1], -V(tt) * y[0]], (pair.t[0], pair.t[-1]),
                                data, method="DOP853", rtol=jacobi.RTOL, atol=sol.atol,
                                t_eval=pair.t).y
                for got, want in ((u, ref[0]), (du, ref[1])):
                    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_one_ivp_for_the_middle_pair(self, short_configs, monkeypatch):
        from cjlab import dop853 as stepper

        calls = []
        run = stepper.dop853
        for module in (profile, jacobi):  # the two callers bind the stepper on import
            monkeypatch.setattr(module, "dop853", lambda *a: calls.append(len(a[1])) or run(*a))
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


@pytest.mark.parametrize("n", range(2, 10))
def test_m_is_n_plus_1_below_the_default_eps(n):
    """With tr A^3 free of near-axis cancellation, each m = n + 1 spec meets
    its residual target at eps = 1e-5 far inside dop853.MAX_NFEV."""
    cfg = ShootingConfig(spec=ConeSpec(n + 1, n), epsilon=1e-5, s_max=300.0, grid_step=1e-3)
    sol = solve_jacobi(cfg)
    assert sol.residual <= RESIDUAL_TARGET_FACTOR * (1.0 + np.max(np.abs(sol.f)))
    assert sol.curve.accepted_steps < 20_000


class TestNearOrigin:
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (4, 4)])
    def test_quadratic_exponent(self, m, n, jacobi_solutions):
        _, _, sol = jacobi_solutions[(m, n)]
        fit = near_origin_behavior(sol)
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
        _, _, sol = jacobi_solutions[(2, 2)]
        fit = near_origin_behavior(sol)
        assert fit.log_detected
        assert fit.log_coeff > 0.0
        assert fit.exponent == pytest.approx(2.0, abs=0.15)
        _, _, sol3 = jacobi_solutions[(3, 3)]
        assert not near_origin_behavior(sol3).log_detected


class TestDecayDiagnostics:
    def test_weight_selection(self):
        assert sharp_weight(ConeSpec(3, 3))[0] == "s_plus_1"
        assert sharp_weight(ConeSpec(2, 3))[0] == "s_plus_1_over_log"
        assert sharp_weight(ConeSpec(2, 2))[0] == "sqrt_s_plus_1_over_log"

    def test_windows_are_dyadic_beyond_100(self, jacobi_solutions):
        _, _, sol = jacobi_solutions[(3, 3)]
        report = decay_diagnostics(sol)
        assert report["windows"][0] == [128.0, 256.0]
        for (lo, hi) in report["windows"]:
            assert hi == 2 * lo and lo >= 100.0

    def test_plain_weight_bounded_for_33(self, jacobi_solutions):
        _, _, sol = jacobi_solutions[(3, 3)]
        assert decay_diagnostics(sol)["bounded_within_factor"] is True

    def test_bounded_flag_is_null_without_ratios(self, short_configs):
        """s_max = 200 holds no dyadic window, so there is no ratio to bound."""
        cfg = short_configs[(3, 3)]
        report = decay_diagnostics(solve_jacobi(cfg))
        assert report["windows"] == [] and report["ratios"] == []
        assert report["bounded_within_factor"] is None

    @pytest.mark.parametrize("s_max", [50.0, 100.0, 100.5])
    def test_fitted_exponent_is_nan_without_enough_samples_past_100(self, s_max):
        """No sample past s = 100, the one at s = 100 alone, or the 5 up to
        100.5 at h = 1e-3: fewer than decay.MIN_FIT_SAMPLES, so no fit."""
        cfg = ShootingConfig(spec=ConeSpec(3, 3), s_max=s_max, grid_step=1e-3)
        assert math.isnan(decay_diagnostics(solve_jacobi(cfg))["fitted_exponent"])


def masked(r, lo, hi):
    """The full-grid boolean mask that decay.window_slice replaced."""
    return (r >= lo) & (r <= hi)


def masked_fit(r, y, window, with_log=False):
    """decay.fit_power_law as it selected its samples with full-grid masks."""
    lo, hi = window
    mask = masked(r, lo, hi) & (y != 0.0) & (r > 0.0)
    if with_log:
        mask &= r != 1.0
    if int(mask.sum()) < decay.MIN_FIT_SAMPLES:
        raise ValueError(f"need >= {decay.MIN_FIT_SAMPLES} nonzero samples in window, "
                         f"got {int(mask.sum())}")
    rw, yw = r[mask], np.abs(y[mask])
    idx = decay.envelope_maxima(rw, yw)
    oscillatory = len(idx) >= decay.MIN_ENVELOPE_MAXIMA
    if oscillatory:
        rw, yw = rw[idx], yw[idx]
    exponent, log_coeff, rms = decay._lstsq_fit(np.log(rw), np.log(yw), with_log)
    return decay.DecayFit(exponent, log_coeff, (float(lo), float(hi)), rms, oscillatory)


def masked_decay_windows(s, psi, weight):
    """decay_diagnostics' dyadic-window sups as full-grid masks selected them."""
    q = weight(s) * np.abs(psi)
    sups, k = [], 7
    while 2.0 ** (k + 1) <= s[-1]:
        mask = masked(s, 2.0**k, 2.0 ** (k + 1))
        if not mask.any():
            return f"decay windows: no grid sample in [{2**k}, {2 ** (k + 1)}]; refine the grid"
        sups.append(float(np.max(q[mask])))
        k += 1
    return sups


class TestWindowSlices:
    """The index ranges of decay.window_slice select, on the package grid,
    the samples the full-grid boolean masks did."""

    @pytest.fixture(scope="class")
    def grid(self):
        # 145,576 samples, which the probe at grid[70000] below assumes
        return ShootingConfig(spec=ConeSpec(3, 3), s_max=2100.0, grid_step=1e-4).grid()

    def test_slices_equal_masks(self, grid):
        on = [grid[0], grid[1], grid[70000], grid[-2], grid[-1]]  # edges on samples
        near = [np.nextafter(x, d) for x in on for d in (-np.inf, np.inf)]
        between = [0.5 * (grid[k] + grid[k + 1]) for k in (0, 12345, len(grid) - 2)]
        edges = on + near + between + [-1.0, 0.0, 1.0, 100.0, 128.0, 1e4]
        windows = [(lo, hi) for lo in edges for hi in edges if lo <= hi]
        windows += [(2.0**k, 2.0 ** (k + 1)) for k in range(7, 12)]
        windows += [(10.0 * grid[0], 100.0 * grid[0]), (100.0, grid[-1]), (3.0, 2.0)]
        resid = np.sin(grid)
        for lo, hi in windows:
            mask = masked(grid, lo, hi)
            assert np.array_equal(grid[decay.window_slice(grid, lo, hi)], grid[mask]), (lo, hi)
            if mask.any():
                assert residual_sup(grid, resid, lo, hi) == np.max(np.abs(resid[mask]))
            else:
                with pytest.raises(ValueError, match="empty residual range"):
                    residual_sup(grid, resid, lo, hi)

    def test_fits_equal_the_masked_fits(self, grid):
        """Exact zeros of psi drop out of the window; with the log term, so
        does a sample at r = 1, which here is a window edge."""
        r = grid.copy()
        r[np.argmin(np.abs(r - 1.0))] = 1.0
        psi = r**2 * np.sin(3.0 * np.log(r))
        psi[::3] = 0.0
        psi[np.abs(psi) < 1e-3 * r**2] = 0.0
        for window in [(10.0 * r[0], 100.0 * r[0]), (r[1000], r[1500]), (100.0, r[-1]),
                       (0.01, 1.0), (1.0, 50.0)]:
            for with_log in (False, True):
                want = masked_fit(r, psi, window, with_log)
                assert decay.fit_power_law(r, psi, window, with_log) == want, (window, with_log)
        with pytest.raises(ValueError, match="got 0"):
            decay.fit_power_law(r, np.zeros_like(r), (1.0, 2.0))

    def test_decay_windows_equal_the_masked_windows(self, jacobi_solutions):
        for spec in [(2, 2), (2, 3), (3, 3)]:  # each sharp weight
            curve, _, sol = jacobi_solutions[spec]
            report = decay_diagnostics(sol)
            assert report["sups"] == masked_decay_windows(curve.s, sol.psi,
                                                          sharp_weight(curve.spec)[1])

    def test_an_empty_dyadic_window_raises_the_same_error(self):
        """Samples e^0.97 apart leave a dyadic window empty."""
        spec = ConeSpec(3, 3)
        s = ShootingConfig(spec=spec, s_max=2100.0, grid_step=1.0).grid()
        sol = types.SimpleNamespace(curve=types.SimpleNamespace(spec=spec, s=s),
                                    psi=np.ones_like(s))
        want = masked_decay_windows(s, sol.psi, sharp_weight(spec)[1])
        assert isinstance(want, str)
        with pytest.raises(DiagnosticError) as err:
            decay_diagnostics(sol)
        assert str(err.value) == want


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
