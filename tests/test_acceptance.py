"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.  Every tolerance is pinned here, not configurable.
"""

import filecmp
import json
import time

import mpmath as mp
import numpy as np
import pytest

from conftest import log_criterion

from cjlab.decay import fit_power_law
from cjlab.jacobi import (
    decay_diagnostics,
    left_fundamental_pair,
    near_origin_behavior,
    solve_jacobi,
)
from cjlab.plateau import alpha_of_R, minimal_graph_residual, plateau_profile, plateau_zeta0
from cjlab.profile import (
    ShootingConfig,
    arc_length_defect,
    cone_crossings,
    curvature_terms,
    geometry_trace,
    integrate_profile,
)
from cjlab.spectra import ConeSpec, indicial_data, link_eigenvalues
from cjlab.cli import main as cli_main


def test_c01_spectrum_anchors():
    t0 = time.monotonic()
    for m in range(2, 7):
        for n in range(2, 7):
            spec = ConeSpec(m, n)
            vals = link_eigenvalues(spec, 4)
            assert vals[0] == -(spec.N - 1)
            assert vals[1] == 0.0
    elapsed = time.monotonic() - t0
    log_criterion(1, elapsed < 1.0, f"lambda_0 = -(N-1), lambda_1 = 0 exact; {elapsed:.3f}s")
    assert elapsed < 1.0


def test_c02_stability_boundary():
    t0 = time.monotonic()
    for m in range(2, 11):
        for n in range(2, 11):
            spec = ConeSpec(m, n)
            data = indicial_data(spec, link_eigenvalues(spec, 4))
            assert data.stable == (m + n >= 8), (m, n)
    elapsed = time.monotonic() - t0
    log_criterion(2, elapsed < 1.0, f"stable(m,n) <=> m+n >= 8 over [2,10]^2; {elapsed:.3f}s")
    assert elapsed < 1.0


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (4, 4)])
def test_c03_profile_fidelity(m, n):
    t0 = time.monotonic()
    cfg = ShootingConfig(spec=ConeSpec(m, n), s_max=200.0, grid_step=1e-4)
    curve = integrate_profile(cfg)
    trace = geometry_trace(curve)
    elapsed = time.monotonic() - t0
    hres = float(np.max(np.abs(trace.Hres)))
    defect = float(np.max(arc_length_defect(curve)))
    slope_err = abs(curve.b[-1] / curve.a[-1] - np.sqrt((n - 1) / (m - 1)))
    ok = hres <= 1e-7 and defect <= 1e-9 and slope_err <= 1e-3 and elapsed < 10.0
    log_criterion(
        3, ok,
        f"({m},{n}) Hres={hres:.2e} arc={defect:.2e} slope_err={slope_err:.2e} {elapsed:.2f}s",
    )
    assert hres <= 1e-7
    assert defect <= 1e-9
    assert slope_err <= 1e-3
    assert elapsed < 10.0


def test_c04_crossing_dichotomy(short_curves, long_curves):
    stable = cone_crossings(short_curves[(4, 4)])
    curve22 = long_curves[(2, 2)]
    mask = curve22.s <= 1.0e3
    from cjlab.profile import ProfileCurve

    clipped = ProfileCurve(spec=curve22.spec,
                           s=curve22.s[mask], a=curve22.a[mask],
                           b=curve22.b[mask], theta=curve22.theta[mask])
    oscillatory = cone_crossings(clipped)
    ok = stable == 0 and oscillatory >= 5
    log_criterion(
        4, ok,
        f"(4,4) crossings={stable} (want 0); (2,2) crossings(s<=1e3)={oscillatory} (want >=5; "
        f"measured crossing radii grow by exp(pi/omega)~10.75: 1.7, 23, 256, 2750...)",
    )
    assert stable == 0
    # Known-red clause: the oscillatory profile crosses the cone at
    # log-periodically spaced radii, giving 3 crossings by s = 1e3, not 5.
    assert oscillatory >= 5


def test_c05_zeta0_decay(long_curves):
    curve44 = long_curves[(4, 4)]
    fit44 = fit_power_law(curve44.s, geometry_trace(curve44).zeta0, (50.0, 200.0))
    curve22 = long_curves[(2, 2)]
    fit22 = fit_power_law(curve22.s, geometry_trace(curve22).zeta0, (1.0e2, 2.5e7))
    ok = abs(fit44.exponent + 2.0) <= 0.05 and abs(fit22.exponent + 0.5) <= 0.05
    log_criterion(
        5, ok,
        f"(4,4) exponent={fit44.exponent:.4f} (want -2+-0.05); "
        f"(2,2) envelope={fit22.exponent:.4f} oscillatory={fit22.oscillatory} (want -0.5+-0.05)",
    )
    assert abs(fit44.exponent + 2.0) <= 0.05
    assert fit22.oscillatory
    assert abs(fit22.exponent + 0.5) <= 0.05


@pytest.mark.parametrize(
    "m,n,v_minus,v_plus",
    [(2, 2, 0.0, 1.75), (4, 4, -1.0, -0.25)],
)
def test_c06_potential_limits(m, n, v_minus, v_plus, jacobi_solutions):
    _, _, sol = jacobi_solutions[(m, n)]
    t = sol.ef.curve.t
    got_minus = sol.ef.V[np.searchsorted(t, -5.0)]
    got_plus = sol.ef.V[np.searchsorted(t, 7.0)]
    ok = abs(got_minus - v_minus) <= 1e-2 and abs(got_plus - v_plus) <= 1e-2
    log_criterion(
        6, ok,
        f"({m},{n}) V(-5)={got_minus:.4f} (want {v_minus}) V(7)={got_plus:.4f} (want {v_plus})",
    )
    assert abs(got_minus - v_minus) <= 1e-2
    assert abs(got_plus - v_plus) <= 1e-2


def test_c07_jacobi_solve(jacobi_configs, jacobi_solutions):
    details = []
    ok = True
    for (m, n), (curve, trace, sol) in sorted(jacobi_solutions.items()):
        target = 1e-6 * (1.0 + float(np.max(np.abs(sol.f))))
        res = sol.residual
        drift = max(left_fundamental_pair(sol.ef).wronskian_drift, sol.middle_pair.wronskian_drift)
        ok &= res <= target and drift <= 1e-8
        details.append(f"({m},{n}) res={res:.1e}<= {target:.1e} drift={drift:.1e}")
    cfg = jacobi_configs[(3, 3)]

    def f1(s, a, b, phi):
        return curvature_terms(cfg.spec, a, b, np.cos(phi), np.sin(phi))[3]

    def f2(s, a, b, phi):
        return (1.0 + s**2) ** -2

    s1 = solve_jacobi(cfg, f1)
    s2 = solve_jacobi(cfg, f2)
    s12 = solve_jacobi(cfg, lambda *x: f1(*x) + f2(*x))
    super_rel = float(
        np.max(np.abs(s12.psi - s1.psi - s2.psi)) / np.max(np.abs(s12.psi))
    )
    ok &= super_rel <= 1e-8
    log_criterion(7, ok, "; ".join(details) + f"; superposition={super_rel:.1e}")
    for (m, n), (curve, trace, sol) in jacobi_solutions.items():
        target = 1e-6 * (1.0 + float(np.max(np.abs(sol.f))))
        assert sol.residual <= target, (m, n)
        assert left_fundamental_pair(sol.ef).wronskian_drift <= 1e-8
        assert sol.middle_pair.wronskian_drift <= 1e-8
    assert super_rel <= 1e-8


@pytest.mark.parametrize("m,n", [(3, 3), (2, 3), (2, 2)])
def test_c08_sharp_decay_windows(m, n, jacobi_solutions):
    t0 = time.monotonic()
    _, _, sol = jacobi_solutions[(m, n)]
    report = decay_diagnostics(sol)
    ratios = report["ratios"]
    elapsed = time.monotonic() - t0
    ok = all(r <= 1.1 for r in ratios)
    log_criterion(
        8, ok,
        f"({m},{n}) weight={report['weight']} sups={np.round(report['sups'], 5).tolist()} "
        f"ratios={np.round(ratios, 3).tolist()} (want all <= 1.1)",
    )
    assert elapsed < 60.0
    # Known-red for the oscillatory weights (2,3)/(2,2): the weighted
    # solution is bounded (sups level off) but passes through the zeros
    # of its oscillation, so dyadic sups are not monotone within 1.1.
    assert ok, f"window sup ratios {ratios} exceed 1.1"


def test_c09_near_origin(jacobi_solutions):
    details = []
    for (m, n) in [(2, 3), (3, 3), (4, 4)]:
        _, _, sol = jacobi_solutions[(m, n)]
        fit = near_origin_behavior(sol)
        details.append(f"({m},{n}) exp={fit.exponent:.3f}")
        assert fit.exponent == pytest.approx(2.0, abs=0.1), (m, n)
    _, _, sol22 = jacobi_solutions[(2, 2)]
    fit22 = near_origin_behavior(sol22)
    details.append(
        f"(2,2) log_detected={fit22.log_detected} log_coeff={fit22.log_coeff:.3f}"
    )
    log_criterion(9, fit22.log_detected, "; ".join(details))
    assert fit22.log_detected


def test_c10_plateau():
    t0 = time.monotonic()
    mp.mp.dps = 25
    oracle = float(mp.quad(lambda u: 1 / mp.sqrt(1 - u**4), [0, 1]))
    alpha_err = abs(alpha_of_R(3, 1.0) - oracle)
    scale_err = max(
        abs(alpha_of_R(3, R) / (R * alpha_of_R(3, 1.0)) - 1.0) for R in (0.5, 1.0, 2.0)
    )
    flux = 0.0
    far_err = 0.0
    zexp_err = 0.0
    for N in (3, 5):
        graph = plateau_profile(N, 1.0, 2000.0)
        flux = max(flux, minimal_graph_residual(graph))
        i = np.searchsorted(graph.r, 1.0e3)
        far_err = max(
            far_err,
            abs(graph.r[i] ** (N - 2) * graph.v[i] / graph.decay_coeff - 1.0),
        )
        _, fit = plateau_zeta0(graph)
        zexp_err = max(zexp_err, abs(fit.exponent - (2 - N)))
    elapsed = time.monotonic() - t0
    ok = (
        flux <= 1e-10 and scale_err <= 1e-6 and alpha_err <= 1e-6
        and far_err <= 0.01 and zexp_err <= 0.02 and elapsed < 5.0
    )
    log_criterion(
        10, ok,
        f"flux={flux:.1e} scaling={scale_err:.1e} alpha_vs_oracle={alpha_err:.1e} "
        f"far_field={far_err:.1e} zeta0_exp_err={zexp_err:.3f} {elapsed:.2f}s",
    )
    assert flux <= 1e-10
    assert scale_err <= 1e-6
    assert alpha_err <= 1e-6
    assert far_err <= 0.01
    assert zexp_err <= 0.02
    assert elapsed < 5.0


def test_c11_report_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("specs = 2,2;4,4\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["report", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli_main(["report", "--config", str(cfg), "--out", str(out_b)]) == 0
    data_files = ["report.json", "m2n2/profile.csv", "m4n4/profile.csv"]
    identical = {
        name: filecmp.cmp(out_a / name, out_b / name, shallow=False)
        for name in data_files
    }
    ok = all(identical.values())
    log_criterion(11, ok, f"byte-identical data files: {identical}")
    assert ok
    # manifests exist but carry wall time; they are not data files
    assert json.loads((out_a / "manifest.json").read_text())["checksums"]
