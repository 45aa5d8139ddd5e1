"""Power-law decay estimation with optional log correction.

Fits log|y| = c + e*log(r) (+ d*log(log r)) by least squares over a
radial window.  Oscillatory signals are first reduced to their local
maxima envelope, so that the fitted ``e`` estimates the decay exponent
of the envelope rather than averaging through the zeros.

numpy is imported by the functions that use it, not with the module, so
:mod:`cjlab.plateau` shares :class:`DecayFit` and :data:`MIN_FIT_SAMPLES`
without loading it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from cjlab.spectra import SpectralData

if TYPE_CHECKING:
    import numpy as np

__all__ = ["DecayFit", "fit_power_law", "classify_against_indicial", "envelope_maxima"]

#: window (in the same units as r) a local maximum must dominate in log r
#: before it counts as an envelope point; rejects noise-induced maxima.
ENVELOPE_GUARD = 0.1

#: minimum number of surviving envelope maxima before the envelope fit
#: is preferred over the raw fit.
MIN_ENVELOPE_MAXIMA = 5

#: fewest nonzero samples a window must hold for :func:`fit_power_law`.
MIN_FIT_SAMPLES = 20


class DecayFit(NamedTuple):
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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    k = gaps.index(min(gaps))
    # roots are symmetric about -(N-2)/2; recover N from the pair centre.
    centre = 0.5 * (spectral.indicial_roots[0][0] + spectral.indicial_roots[0][1])
    N = 2 - 2 * centre
    return {
        "nearest_root": roots[k],
        "gap": gaps[k],
        "nondegenerate_candidate": fit.exponent > 2.0 - N + NONDEGENERACY_MARGIN,
    }

