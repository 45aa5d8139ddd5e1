"""Shared pipeline fixtures.

The expensive objects (profile curves, Jacobi solutions) are built once
per session and shared between the unit tests and the acceptance suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from cjlab import (
    ConeSpec,
    ShootingConfig,
    geometry_trace,
    integrate_profile,
    solve_jacobi,
)

CORE_SPECS = [(2, 2), (2, 3), (3, 3), (4, 4)]


@pytest.fixture(scope="session")
def short_configs():
    """Profile settings for s in [1e-3, 200] at the fine grid step."""
    return {(m, n): ShootingConfig(spec=ConeSpec(m, n), s_max=200.0, grid_step=1e-4)
            for m, n in CORE_SPECS}


@pytest.fixture(scope="session")
def short_curves(short_configs):
    return {k: integrate_profile(cfg) for k, cfg in short_configs.items()}


@pytest.fixture(scope="session")
def short_traces(short_curves):
    return {k: geometry_trace(c) for k, c in short_curves.items()}


@pytest.fixture(scope="session")
def jacobi_configs():
    """Profile settings for s in [1e-3, 2100] at the fine grid step."""
    return {(m, n): ShootingConfig(spec=ConeSpec(m, n), s_max=2100.0, grid_step=1e-4)
            for m, n in CORE_SPECS}


@pytest.fixture(scope="session")
def jacobi_solutions(jacobi_configs):
    """Full pipeline with f = tr(A^3): (curve, trace, solution), the curve and
    trace being the ones the solution was computed on."""
    out = {}
    for key, cfg in jacobi_configs.items():
        sol = solve_jacobi(cfg)
        out[key] = (sol.curve, sol.trace, sol)
    return out


@pytest.fixture(scope="session")
def long_curves():
    """Wide-range curves for decay fitting of the dilation field."""
    out = {}
    for (m, n), s_max in [((2, 2), 2.8e7), ((2, 3), 2.8e7), ((4, 4), 240.0)]:
        cfg = ShootingConfig(spec=ConeSpec(m, n), s_max=s_max, grid_step=1e-3)
        out[(m, n)] = integrate_profile(cfg)
    return out


def log_criterion(number: int, ok: bool, detail: str) -> None:
    """One acceptance line per criterion, printed with -s or on failure."""
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}  {detail}")
