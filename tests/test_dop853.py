"""The numpy DOP853 stepper against scipy's, which serves as the oracle here
only: same tableau, and bit-identical samples, evaluation counts, status
and stall message on the package's own right-hand sides.  The samples come
back as rows: a completed run's y is C-contiguous, whatever scipy's layout."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as ref

from cjlab import dop853 as stepper
from cjlab import jacobi, profile
from cjlab.dop853 import RTOL
from cjlab.jacobi import solve_jacobi
from cjlab.profile import ShootingConfig, _rhs, _series_start
from cjlab.spectra import ConeSpec


def test_tableau_is_scipys():
    assert np.array_equal(stepper.C, ref.C)
    assert np.array_equal(stepper.A, ref.A)
    assert np.array_equal(stepper.B, ref.B)
    assert np.array_equal(stepper.E3, ref.E3)
    assert np.array_equal(stepper.E5, ref.E5)
    assert np.array_equal(stepper.D, ref.D)


def assert_same_run(fun, y0, atol, t_eval):
    got = stepper.dop853(fun, y0, atol, t_eval)
    want = solve_ivp(fun, (t_eval[0], t_eval[-1]), y0, method="DOP853", rtol=RTOL, atol=atol,
                     t_eval=t_eval)
    assert (got.status, got.nfev) == (want.status, want.nfev)
    assert np.array_equal(got.t, want.t)
    assert np.array_equal(got.y, want.y)
    if got.status == 0:
        assert got.y.flags.c_contiguous  # one row per component
    return got, want


@pytest.mark.parametrize("m,n,s_max", [(3, 3, 200.0), (2, 100, 20.0)])
def test_profile_run_matches_solve_ivp(m, n, s_max):
    spec = ConeSpec(m, n)
    s = ShootingConfig(spec=spec, s_max=s_max, grid_step=1e-3).grid()
    got, _ = assert_same_run(lambda ss, y: _rhs(ss, y, spec), _series_start(spec, 1e-3),
                             RTOL * 1e-2, s)
    assert got.status == 0


def test_jacobi_runs_match_solve_ivp(monkeypatch):
    """Both IVPs of solve_jacobi, the 5-state psi solve and the middle pair,
    re-run through solve_ivp with the same right-hand side and data: on
    the grid h = 1e-2; on h = 1e-4, where a step holds hundreds of samples
    as at the default settings; on every 500th point of the latter,
    where some steps hold none and skip the dense output; and on every
    2000th point, where no step holds two.  The thinned grids keep the last
    point, so that they span the same run."""
    calls = []
    run = stepper.dop853
    for module in (profile, jacobi):  # the two callers bind the stepper on import
        monkeypatch.setattr(module, "dop853", lambda *a: calls.append(a) or run(*a))
    for h in (1e-2, 1e-4):
        solve_jacobi(ShootingConfig(spec=ConeSpec(3, 3), s_max=20.0, grid_step=h))
    monkeypatch.undo()
    assert [len(args[1]) for args in calls] == [5, 4, 5, 4]
    for args in calls[:2]:
        assert_same_run(*args)
    for fun, y0, atol, t_eval in calls[2:]:
        full, _ = assert_same_run(fun, y0, atol, t_eval)
        # over 100 samples per step, each step taking at least 12 evaluations
        assert len(full.t) > 100 * (full.nfev - 2) / 12
        coarse, _ = assert_same_run(fun, y0, atol, np.append(t_eval[:-1:500], t_eval[-1]))
        assert coarse.nfev < full.nfev  # the steps are the same: some drew no dense output
        assert_same_run(fun, y0, atol, np.append(t_eval[:-1:2000], t_eval[-1]))


def test_stall_matches_solve_ivp():
    """y' = y^2 from y(0) = 1 blows up at t = 1: the step size collapses and
    the run stops with scipy's status, message and samples."""
    got, want = assert_same_run(lambda t, y: y * y, [1.0], 1e-12, np.linspace(0.0, 2.0, 21))
    assert got.status == -1 and got.message == want.message
    assert 0 < len(got.t) < 21
