"""Power-law decay estimation with optional log correction.

Fits log|y| = c + e*log(r) (+ d*log(log r)) by least squares over a
radial window.  Oscillatory signals are first reduced to their local
maxima envelope, so that the fitted ``e`` estimates the decay exponent
of the envelope rather than averaging through the zeros.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from cjlab.profile import (GeometryTrace, ProfileCurve, ShootingConfig, cone_crossings,
                           geometry_trace, integrate_profile)
from cjlab.spectra import (ConeSpec, SpectralData, indicial_data, link_eigenvalues,
                           predicted_nu_bar, regime_of)

__all__ = ["DecayFit", "fit_power_law", "classify_against_indicial", "envelope_maxima",
           "parse_sweep", "sweep_config", "sweep_row"]

#: window (in the same units as r) a local maximum must dominate in log r
#: before it counts as an envelope point; rejects noise-induced maxima.
ENVELOPE_GUARD = 0.1

#: minimum number of surviving envelope maxima before the envelope fit
#: is preferred over the raw fit.
MIN_ENVELOPE_MAXIMA = 5

#: fewest nonzero samples a window must hold for :func:`fit_power_law`.
MIN_FIT_SAMPLES = 20


@dataclass(frozen=True)
class DecayFit:
    """Result of a log-log decay fit."""

    exponent: float
    log_coeff: float
    window: tuple[float, float]
    residual_rms: float
    oscillatory: bool


def envelope_maxima(r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of strict local maxima of |y| dominating a log-r neighbourhood.

    A sample is kept when it is strictly larger than both neighbours and
    is the largest sample within +-:data:`ENVELOPE_GUARD` in log r.  The
    guard keeps one representative per genuine oscillation peak; clusters
    of near-equal samples produced by roundoff collapse to their largest
    member.
    """
    ay = np.abs(y)
    # collapse runs of exactly equal values: near a smooth peak the
    # sample-to-sample variation can drop below the roundoff quantum of
    # the underlying cancellation, producing flat plateaus that defeat a
    # naive strict comparison
    change = np.empty(ay.size, dtype=bool)
    change[0] = True
    np.not_equal(ay[1:], ay[:-1], out=change[1:])
    starts = np.nonzero(change)[0]
    c = ay[starts]
    loc = np.nonzero((c[1:-1] > c[:-2]) & (c[1:-1] > c[2:]))[0] + 1
    strict = starts[loc]
    if len(strict) == 0:
        return strict
    logr = np.log(r)
    keep = []
    for i in strict:
        lo = np.searchsorted(logr, logr[i] - ENVELOPE_GUARD)
        hi = np.searchsorted(logr, logr[i] + ENVELOPE_GUARD, side="right")
        if ay[i] >= ay[lo:hi].max():
            keep.append(i)
    return np.asarray(keep, dtype=int)


def _lstsq_fit(logr: np.ndarray, logy: np.ndarray, with_log: bool) -> tuple[float, float, float]:
    cols = [np.ones_like(logr), logr]
    if with_log:
        cols.append(np.log(np.abs(logr)))
    G = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(G, logy, rcond=None)
    rms = float(np.sqrt(np.mean((G @ coef - logy) ** 2)))
    log_coeff = float(coef[2]) if with_log else 0.0
    return float(coef[1]), log_coeff, rms


def fit_power_law(r: np.ndarray, y: np.ndarray, window: tuple[float, float],
                  with_log: bool = False) -> DecayFit:
    """Least-squares decay fit of |y(r)| over ``window``.

    The fit needs at least 20 nonzero samples inside the window.  When
    the signal has >= 5 guarded local maxima the fit runs on that
    envelope and ``oscillatory`` is True; otherwise it runs on the raw
    samples.  With ``with_log`` the model gains a log(log r) term whose
    coefficient is reported as ``log_coeff``; the window must then lie
    on one side of r = 1 so that log r keeps a fixed sign.
    """
    r = np.asarray(r, dtype=float)
    y = np.asarray(y, dtype=float)
    if r.shape != y.shape:
        raise ValueError("r and y must have equal shapes")
    lo, hi = window
    if not lo < hi:
        raise ValueError("window must satisfy r_lo < r_hi")
    mask = (r >= lo) & (r <= hi) & (y != 0.0) & (r > 0.0)
    if with_log:
        mask &= r != 1.0
    if int(mask.sum()) < MIN_FIT_SAMPLES:
        raise ValueError(f"need >= {MIN_FIT_SAMPLES} nonzero samples in window, "
                         f"got {int(mask.sum())}")
    rw, yw = r[mask], np.abs(y[mask])

    idx = envelope_maxima(rw, yw)
    oscillatory = len(idx) >= MIN_ENVELOPE_MAXIMA
    if oscillatory:
        rw, yw = rw[idx], yw[idx]
    exponent, log_coeff, rms = _lstsq_fit(np.log(rw), np.log(yw), with_log)
    return DecayFit(
        exponent=exponent,
        log_coeff=log_coeff,
        window=(float(lo), float(hi)),
        residual_rms=rms,
        oscillatory=oscillatory,
    )


#: margin by which a fitted exponent must clear the threshold 2 - N
#: before the nondegeneracy flag is raised; keeps exponents fitted at
#: the threshold itself (degenerate examples) unflagged despite
#: least-squares noise.
NONDEGENERACY_MARGIN = 1e-3


def classify_against_indicial(fit: DecayFit, spectral: SpectralData) -> dict:
    """Nearest indicial root to a fitted exponent.

    Returns the root minimising |root - exponent|, the gap, and whether
    the exponent clears the dilation-nondegeneracy threshold 2 - N by
    :data:`NONDEGENERACY_MARGIN`.
    """
    roots = spectral.all_roots()
    if not roots:
        raise ValueError("empty indicial root set")
    gaps = [abs(root - fit.exponent) for root in roots]
    k = int(np.argmin(gaps))
    # roots are symmetric about -(N-2)/2; recover N from the pair centre.
    centre = 0.5 * (spectral.indicial_roots[0][0] + spectral.indicial_roots[0][1])
    N = 2 - 2 * centre
    return {
        "nearest_root": roots[k],
        "gap": gaps[k],
        "nondegenerate_candidate": fit.exponent > 2.0 - N + NONDEGENERACY_MARGIN,
    }


DEFAULT_SWEEP = "2,2;2,3;3,3;4,4"

#: log-s sample spacing of the sweep's profile grids
SWEEP_GRID_STEP = 1e-3

#: regime -> (s_max, fit window) of the sweep
_SWEEP = {"high_dim": (240.0, (50.0, 200.0)), "low_dim": (4.0e5, (5.0, 3.0e5))}


def parse_sweep(text: str) -> list[ConeSpec]:
    """Specs of a sweep list such as ``"2,2;3,3"``; ValueError if empty, malformed or repeated."""
    specs = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        try:
            m_str, n_str = item.split(",")
            specs.append(ConeSpec(int(m_str), int(n_str)))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"bad sweep entry {item!r}: {exc}") from exc
        if specs[-1] in specs[:-1]:
            raise ValueError(f"sweep entry {item!r} repeats a spec")
    if not specs:
        raise ValueError("empty sweep list")
    return specs


def sweep_config(spec: ConeSpec, eps: float, grid_step: float) -> ShootingConfig:
    """The integration :func:`sweep_row` runs for ``spec``; ValueError if it
    leaves the fit window too few samples.

    The profile grid's log-s spacing is at most ``grid_step`` and covers the
    window, so the window holds at least log(hi/lo) / grid_step samples."""
    s_max, (lo, hi) = _SWEEP[regime_of(spec)]
    shooting = ShootingConfig(spec=spec, epsilon=eps, s_max=s_max, grid_step=grid_step)
    if math.log(hi / lo) < MIN_FIT_SAMPLES * grid_step:
        raise ValueError(f"grid_step {grid_step} puts fewer than {MIN_FIT_SAMPLES} "
                         f"samples in the fit window [{lo:g}, {hi:g}]")
    return shooting


def sweep_row(shooting: ShootingConfig) -> tuple[dict, ProfileCurve, GeometryTrace]:
    """Fitted-versus-predicted decay summary for one :func:`sweep_config` run.

    Returns (row, curve, trace).  Stable specs are fitted raw on
    [50, 200]; oscillatory ones by their local-maxima envelope over
    (5, 3e5), the region where the signal sits above the integrator's
    roundoff floor (~RTOL * s in zeta_0 = a b' - a' b).  Five envelope
    peaks fit in that window for every low-dimension spec.
    """
    spec = shooting.spec
    regime = regime_of(spec)
    curve = integrate_profile(shooting)
    trace = geometry_trace(curve)
    fit = fit_power_law(curve.s, trace.zeta0, _SWEEP[regime][1])
    spectral = indicial_data(spec, link_eigenvalues(spec, 16))
    cls = classify_against_indicial(fit, spectral)
    mask = curve.s <= 1.0e3
    short = ProfileCurve(spec=spec, s=curve.s[mask], a=curve.a[mask], b=curve.b[mask],
                         phi=curve.phi[mask])
    row = {
        "m": spec.m,
        "n": spec.n,
        "N": spec.N,
        "stable": spectral.stable,
        "predicted_nu_bar": predicted_nu_bar(spec),
        "fitted_exponent": fit.exponent,
        "oscillatory": fit.oscillatory,
        "nearest_root": cls["nearest_root"],
        "gap": cls["gap"],
        "crossings": cone_crossings(short),
        "fit": {**asdict(fit), "nearest_root": cls["nearest_root"], "gap": cls["gap"]},
    }
    return row, curve, trace
