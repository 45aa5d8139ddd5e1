import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cjlab import IntegrationFailure
from cjlab.decay import fit_power_law
from cjlab.profile import (
    MAX_GRID_SAMPLES,
    ShootingConfig,
    _rhs,
    _series_start,
    arc_length_defect,
    cone_crossings,
    cone_ray,
    curvature_terms,
    geometry_trace,
    integrate_profile,
    jacobi_field_rotation,
    jacobi_field_translation,
)
from cjlab.spectra import ConeSpec


def tiny_start_oracle(m, n, start_axis, eps):
    """Independent series validation: integrate from s0 = 1e-8, where the
    regularised limit phi'(0+) = -(m-1)/n makes the series exact to
    roundoff, and compare at s = eps.  ``axis_n`` starts from (0, 1)."""
    s0 = 1e-8
    if start_axis == "axis_m":
        y0 = [1.0, s0, np.pi / 2 - (m - 1) * s0 / n]
    else:
        y0 = [s0, 1.0, (n - 1) * s0 / m]
    sol = solve_ivp(
        lambda s, y: [np.cos(y[2]), np.sin(y[2]),
                      (n - 1) * np.cos(y[2]) / y[1] - (m - 1) * np.sin(y[2]) / y[0]],
        (s0, eps), y0, method="DOP853", rtol=1e-13, atol=1e-16,
    )
    return sol.y[:, -1]


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (4, 4)])
@pytest.mark.parametrize("axis", ["axis_m", "axis_n"])
def test_series_start_against_tiny_eps_oracle(m, n, axis):
    """The curve leaving (0, 1) is the (n, m) curve mirrored by
    (a, b, phi) -> (b, a, pi/2 - phi)."""
    eps = 1e-3
    oracle = tiny_start_oracle(m, n, axis, eps)
    if axis == "axis_m":
        a, b, theta = _series_start(ConeSpec(m, n), eps)
        series = [a, b, np.pi / 2 - theta]
    else:  # the mirror takes the state's theta = pi/2 - phi to phi
        a, b, theta = _series_start(ConeSpec(n, m), eps)
        series = [b, a, theta]
    # series truncation error is O(eps^3)
    assert series == pytest.approx(oracle, abs=5e-9)


class TestShootingConfig:
    def test_validation(self):
        spec = ConeSpec(2, 2)
        with pytest.raises(ValueError):
            ShootingConfig(spec=spec, epsilon=0.5)
        with pytest.raises(ValueError):
            ShootingConfig(spec=spec, epsilon=1e-3, s_max=1e-4)
        with pytest.raises(ValueError):
            ShootingConfig(spec=spec, grid_step=0.0)

    @pytest.mark.parametrize("name", ["s_max", "grid_step"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_step_controls_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=name):
            ShootingConfig(spec=ConeSpec(2, 2), **{name: value})

    def test_one_tolerance_for_the_package(self):
        import cjlab.jacobi
        import cjlab.profile

        assert [f.name for f in dataclasses.fields(ShootingConfig)] == [
            "spec", "epsilon", "s_max", "grid_step"]
        assert cjlab.jacobi.RTOL is cjlab.profile.RTOL

    def test_grid_sample_cap(self):
        # integrate_profile stores ceil(log(s_max/eps) / grid_step) + 1 samples
        span = math.log(2100.0 / 1e-3)
        ShootingConfig(spec=ConeSpec(2, 2), s_max=2100.0,
                       grid_step=span / (MAX_GRID_SAMPLES - 1.5))  # MAX_GRID_SAMPLES samples
        with pytest.raises(ValueError, match="MAX_GRID_SAMPLES"):  # one sample more
            ShootingConfig(spec=ConeSpec(2, 2), s_max=2100.0,
                           grid_step=span / (MAX_GRID_SAMPLES - 0.5))
        with pytest.raises(ValueError, match="MAX_GRID_SAMPLES"):  # ~7e9 samples
            ShootingConfig(spec=ConeSpec(2, 2), s_max=1.1, grid_step=1e-9)
        with pytest.raises(ValueError, match="leaves the float range"):  # s_max/eps overflows
            ShootingConfig(spec=ConeSpec(2, 2), s_max=1e308, grid_step=1.0)


class TestIntegrateProfile:
    def test_grid_is_log_uniform_and_hits_endpoints(self, short_curves):
        curve = short_curves[(2, 2)]
        t = curve.t
        assert np.allclose(np.diff(t), t[1] - t[0], atol=1e-12)
        assert curve.s[0] == 1e-3
        assert curve.s[-1] == 200.0

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (4, 4)])
    def test_h_residual_and_arc_length(self, m, n, short_curves, short_traces):
        curve, trace = short_curves[(m, n)], short_traces[(m, n)]
        assert np.max(np.abs(trace.Hres)) <= 1e-7
        assert np.max(arc_length_defect(curve)) <= 1e-9
        # arc-length identity holds by construction
        assert np.max(np.abs(np.cos(curve.phi) ** 2 + np.sin(curve.phi) ** 2 - 1)) < 5e-16

    @pytest.mark.parametrize("n", range(2, 11))
    def test_h_residual_envelope_at_cli_defaults(self, n):
        """m = 2 is the stiffest edge of m, n in [2, 10]; at rtol 1e-12 the
        H-residual of n = 8, 9 and 10 exceeded the 1e-7 target."""
        trace = geometry_trace(integrate_profile(ShootingConfig(spec=ConeSpec(2, n))))
        assert np.max(np.abs(trace.Hres)) <= 1e-7

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (4, 4)])
    def test_asymptotic_slope(self, m, n, short_curves):
        curve = short_curves[(m, n)]
        target = np.sqrt((n - 1) / (m - 1))
        assert abs(curve.b[-1] / curve.a[-1] - target) <= 1e-3

    def test_positivity(self, short_curves):
        for curve in short_curves.values():
            assert np.all(curve.a > 0) and np.all(curve.b > 0)

    def test_interior_collision_raises(self, monkeypatch):
        """The integration runs on past an axis; the first sample beyond it
        ends the run with the last sample inside the quadrant."""
        import cjlab.profile as P

        def doomed_rhs(s, y, spec):
            return [np.sin(y[2]), np.cos(y[2]), 3.0]  # phi' = -3 curls b back into the axis

        monkeypatch.setattr(P, "_rhs", doomed_rhs)
        with pytest.raises(IntegrationFailure, match="open quadrant") as err:
            integrate_profile(ShootingConfig(spec=ConeSpec(2, 2), s_max=50.0,
                                             grid_step=1e-3))
        assert 0 < err.value.last_s < 50.0

    def test_samples_outside_the_quadrant_raise(self, monkeypatch):
        """A tolerance so loose that the samples cross an axis between
        accepted steps ends the run instead of handing on a curve with b < 0."""
        import cjlab.profile as P

        monkeypatch.setattr(P, "RTOL", 3.5e261)  # atol 3.5e259
        cfg = ShootingConfig(spec=ConeSpec(2, 9), epsilon=0.056, s_max=88.6, grid_step=0.597)
        with pytest.raises(IntegrationFailure, match="open quadrant") as err:
            integrate_profile(cfg)
        assert 0.056 <= err.value.last_s < 88.6

    @pytest.mark.parametrize("s_nan", [1.0, 1e-3])
    def test_unfinished_run_raises_at_its_last_sample(self, s_nan, monkeypatch):
        """A right-hand side that turns NaN past s_nan stalls the integrator;
        the failure names the last grid sample it reached (epsilon = 1e-3,
        the start, when it reached none)."""
        import cjlab.profile as P

        rhs = P._rhs
        monkeypatch.setattr(P, "_rhs", lambda s, y, spec: rhs(s, y, spec) if s <= s_nan
                            else [math.nan] * 3)
        cfg = ShootingConfig(spec=ConeSpec(2, 2), s_max=50.0, grid_step=1e-3)
        with pytest.raises(IntegrationFailure, match="stopped at") as err:
            integrate_profile(cfg)
        s = cfg.grid()
        assert err.value.last_s == s[s <= s_nan][-1]

    def test_unfinished_run_past_an_axis_raises_at_the_axis(self, monkeypatch):
        """A run that crosses an axis and then stalls reports the crossing,
        with the last sample inside the quadrant, not where it stalled."""
        import cjlab.profile as P

        def doomed_rhs(s, y, spec):  # b crosses 0 near s = pi/3; NaN from b = -0.05 stalls it
            return [math.sin(y[2]), math.cos(y[2]), 3.0 if y[1] > -0.05 else math.nan]

        monkeypatch.setattr(P, "_rhs", doomed_rhs)
        with pytest.raises(IntegrationFailure, match="open quadrant") as err:
            integrate_profile(ShootingConfig(spec=ConeSpec(2, 2), s_max=50.0, grid_step=1e-3))
        assert 1.0 < err.value.last_s < math.pi / 3 + 0.01

    def test_nan_sample_is_reported_as_non_finite(self, monkeypatch):
        """A NaN sample of a finished run ends it as non-finite, with the
        sample before it, not as a curve outside the quadrant."""
        import cjlab.profile as P

        run = P.dop853

        def nan_at_100(*args):
            sol = run(*args)
            sol.y[1, 100] = math.nan
            return sol

        monkeypatch.setattr(P, "dop853", nan_at_100)
        cfg = ShootingConfig(spec=ConeSpec(2, 2), s_max=50.0, grid_step=1e-3)
        with pytest.raises(IntegrationFailure, match="non-finite state$") as err:
            integrate_profile(cfg)
        assert err.value.last_s == cfg.grid()[99]

    def test_evaluation_budget_ends_the_run(self, monkeypatch):
        """The stepper's budget ends the profile run, which the failure names."""
        from cjlab import dop853 as stepper

        monkeypatch.setattr(stepper, "MAX_NFEV", 100)
        with pytest.raises(IntegrationFailure, match=r"^profile integration for \(m,n\)=\(2,2\) "
                           r"stopped at s=\S+: over 100 right-hand-side evaluations$") as err:
            integrate_profile(ShootingConfig(spec=ConeSpec(2, 2), s_max=50.0, grid_step=1e-3))
        assert 1e-3 <= err.value.last_s < 50.0


class TestConeRay:
    def test_ray_balances_curvature_equation(self):
        spec = ConeSpec(2, 3)
        ray = cone_ray(spec, np.geomspace(0.1, 100.0, 500))
        trace = geometry_trace(ray)
        assert np.max(np.abs(trace.dphi)) < 1e-14
        assert np.max(np.abs(trace.Hres)) < 1e-12

    def test_simons_ray_geometry(self):
        spec = ConeSpec(2, 2)
        s = np.geomspace(0.5, 50.0, 400)
        ray = cone_ray(spec, s)
        trace = geometry_trace(ray)
        assert trace.A2 == pytest.approx(1.0 / ray.a**2, rel=1e-13)
        assert np.max(np.abs(trace.trA3)) < 1e-14  # m = n cancellation
        assert np.max(np.abs(trace.zeta0)) < 1e-13
        assert jacobi_field_rotation(ray) == pytest.approx(s, rel=1e-13)
        ap, bp = jacobi_field_translation(ray)
        assert np.allclose(ap, np.sqrt(0.5), atol=1e-14)
        assert np.allclose(bp, np.sqrt(0.5), atol=1e-14)

    def test_general_ray_A2(self):
        spec = ConeSpec(3, 5)
        s = np.geomspace(1.0, 10.0, 50)
        trace = geometry_trace(cone_ray(spec, s))
        assert trace.A2 == pytest.approx((spec.N - 1) / s**2, rel=1e-12)


class TestGeometryTrace:
    def test_A2_identity_with_curvature_sum(self, short_curves, short_traces):
        # |A|^2 from the principal curvatures equals the profile-ODE form
        curve, trace = short_curves[(2, 3)], short_traces[(2, 3)]
        m, n = 2, 3
        dphi = trace.dphi
        alt = dphi**2 + (m - 1) * (np.sin(curve.phi) / curve.a) ** 2 \
            + (n - 1) * (np.cos(curve.phi) / curve.b) ** 2
        assert np.max(np.abs(alt - trace.A2)) <= 1e-12 * np.max(trace.A2)
        assert np.all(trace.A2 >= dphi**2 - 1e-15)

    def test_A2_finite_at_axis(self, short_traces):
        trace = short_traces[(3, 3)]
        assert np.isfinite(trace.A2[0])
        assert trace.A2[0] < 10.0

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (4, 4)])
    def test_fields_do_not_depend_on_the_memory_layout(self, m, n, short_curves):
        """The same samples as contiguous rows and as strided rows of an
        F-ordered array give the same bits in every field."""
        curve = short_curves[(m, n)]
        rows = np.stack([curve.a, curve.b, curve.theta])
        strided = np.asfortranarray(rows)
        assert not strided[0].flags.c_contiguous
        traces = [geometry_trace(dataclasses.replace(curve, a=y[0], b=y[1], theta=y[2]))
                  for y in (rows, strided)]
        for field in dataclasses.fields(traces[0]):
            want, got = (getattr(trace, field.name) for trace in traces)
            assert want.tobytes() == got.tobytes(), field.name

    def test_rejects_axis_samples(self):
        spec = ConeSpec(2, 2)
        ray = cone_ray(spec, np.linspace(0.0, 1.0, 30))
        with pytest.raises(ValueError):
            geometry_trace(ray)


def trA3_oracle(m, n, a, b, phi):
    """tr A^3 as the direct sum of cubed principal curvatures, at 40 digits."""
    with mp.workdps(40):
        a, b, phi = (mp.mpf(float(x)) for x in (a, b, phi))
        ka, kb = mp.sin(phi) / a, -mp.cos(phi) / b
        dphi = -(m - 1) * ka - (n - 1) * kb
        return dphi**3 + (m - 1) * ka**3 + (n - 1) * kb**3


class TestCurvatureTerms:
    def test_floats_give_floats(self):
        """Direction cosines from math.cos/math.sin keep every term a float."""
        spec = ConeSpec(3, 3)
        a, b, theta = _series_start(spec, 1e-3)
        terms = curvature_terms(spec, a, b, math.sin(theta), math.cos(theta))
        assert [type(x) for x in terms] == [float] * 4

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 3)])
    def test_floats_and_numpy_scalars_give_the_same_bits(self, m, n):
        """The right-hand sides unpack the state into floats; the terms are
        those of numpy scalars to the bit, on both tr A^3 branches."""
        spec = ConeSpec(m, n)
        rng = np.random.default_rng(m)
        points = rng.uniform([0.01, 0.01, 0.0], [100.0, 100.0, np.pi / 2], (500, 3))
        for a, b, phi in points.tolist():
            ap, bp = math.cos(phi), math.sin(phi)
            assert curvature_terms(spec, a, b, ap, bp) == curvature_terms(
                spec, np.float64(a), np.float64(b), ap, bp)

    @pytest.mark.parametrize("b", [0.0, 1e-160])
    def test_rhs_gives_numpys_result_where_floats_raise(self, b):
        """At b = 0 a float division raises, and at b = 1e-160 phi'^2 leaves
        the float range; the profile right-hand side then gives what numpy
        scalars give, as the integrator's trial stages may ask for it."""
        spec = ConeSpec(3, 3)
        ap, bp = math.sin(1.0), math.cos(1.0)  # theta = 1
        with np.errstate(all="ignore"):
            want = curvature_terms(spec, np.float64(1.0), np.float64(b), ap, bp)[0]
            assert _rhs(0.0, np.array([1.0, b, 1.0]), spec) == [ap, bp, -want]

    @pytest.mark.parametrize("psi", [(), (1.0, 2.0)])
    def test_rhs_is_nan_at_an_infinite_theta(self, psi):
        """sin(inf) raises on a float; the right-hand side gives numpy's NaN
        instead, for the profile state and for the Jacobi solve's."""
        with np.errstate(all="ignore"):
            got = _rhs(0.0, np.array([1.0, 1.0, math.inf, *psi]), ConeSpec(3, 3))
        assert len(got) == 3 + len(psi)
        assert all(math.isnan(v) for i, v in enumerate(got) if i != 3)
        assert got[3:4] == list(psi[1:])  # psi' passes through

    @pytest.mark.parametrize("n", [2, 3, 4, 9, 50])
    def test_m_is_n_plus_1_closed_form(self, n):
        """The factored tr A^3 of m = n + 1 is the direct sum at random points,
        and keeps its precision at the axis start, where the sum cancels."""
        spec = ConeSpec(n + 1, n)
        rng = np.random.default_rng(n)
        for _ in range(100):
            a, b = np.exp(rng.uniform(-3.0, 3.0, 2))
            phi = rng.uniform(0.0, np.pi / 2)
            want = trA3_oracle(n + 1, n, a, b, phi)
            assert abs(curvature_terms(spec, a, b, np.cos(phi), np.sin(phi))[3] / want - 1) < 1e-13
        a, b, theta = _series_start(spec, 1e-3)
        phi = np.pi / 2 - theta
        want = trA3_oracle(n + 1, n, a, b, phi)
        assert abs(curvature_terms(spec, a, b, np.cos(phi), np.sin(phi))[3] / want - 1) < 1e-9


class TestJacobiFields:
    def test_dilation_field_starts_at_one(self, short_curves):
        for curve in short_curves.values():
            z = geometry_trace(curve).zeta0
            assert z[0] == pytest.approx(1.0, abs=1e-4)

    def test_dilation_field_sign_dichotomy(self, short_curves):
        z22 = geometry_trace(short_curves[(2, 2)]).zeta0
        z44 = geometry_trace(short_curves[(4, 4)]).zeta0
        assert np.min(z44) > 0.0  # never vanishes on the stable side
        assert np.min(z22) < 0.0 < np.max(z22)

    def test_translation_limits(self, short_curves):
        phi_star = ConeSpec(4, 4).cone_angle
        ap, bp = jacobi_field_translation(short_curves[(4, 4)])
        assert abs(ap[-1] - np.cos(phi_star)) < 1e-3
        assert abs(bp[-1] - np.sin(phi_star)) < 1e-3
        phi_star23 = ConeSpec(2, 3).cone_angle
        assert np.tan(phi_star23) ** 2 == pytest.approx(2.0, rel=1e-12)

    def test_rotation_field_linear_growth(self, long_curves):
        curve = long_curves[(2, 2)]
        zM = jacobi_field_rotation(curve)
        fit = fit_power_law(curve.s, zM, (1e2, 1e3))
        assert fit.exponent == pytest.approx(1.0, abs=0.05)
        assert abs(jacobi_field_rotation(curve)[0]) < 2e-3  # ~0 at the axis


class TestConeCrossings:
    def test_ray_never_crosses(self):
        ray = cone_ray(ConeSpec(2, 2), np.geomspace(0.1, 100, 300))
        assert cone_crossings(ray) == 0

    def test_stable_spec_never_crosses(self, short_curves):
        assert cone_crossings(short_curves[(4, 4)]) == 0

    def test_oscillatory_crossings_follow_log_periodicity(self, long_curves):
        """Crossing radii grow geometrically with ratio exp(pi/omega),
        omega = sqrt(N-1-((N-2)/2)^2); for (2,2) that is ~10.75, giving
        crossings near s = 1.7, 23, 256, 2750, ... so exactly 3 occur by
        s = 1e3 and the count keeps growing past every horizon."""
        curve = long_curves[(2, 2)]
        upto = lambda S: cone_crossings(_clip(curve, S))
        assert upto(1.0e3) == 3
        assert upto(3.5e4) >= 5
        assert upto(2.8e7) >= 7

    def test_zeta0_zeros_interleave_with_crossings(self, long_curves):
        curve = _clip(long_curves[(2, 2)], 1.0e4)
        side = (curve.spec.n - 1) * curve.a**2 - (curve.spec.m - 1) * curve.b**2
        zeros_side = _sign_change_locations(curve.s, side)
        zeros_z = _sign_change_locations(curve.s, geometry_trace(curve).zeta0)
        merged = sorted([(s, "c") for s in zeros_side] + [(s, "z") for s in zeros_z])
        kinds = "".join(k for _, k in merged)
        assert "cc" not in kinds and "zz" not in kinds  # strict interleaving


def _clip(curve, s_hi):
    from cjlab.profile import ProfileCurve

    mask = curve.s <= s_hi
    return ProfileCurve(spec=curve.spec, s=curve.s[mask], a=curve.a[mask], b=curve.b[mask],
                        theta=curve.theta[mask])


def _sign_change_locations(s, y):
    sgn = np.sign(y)
    idx = np.nonzero(sgn[1:] * sgn[:-1] < 0)[0]
    return s[idx]
