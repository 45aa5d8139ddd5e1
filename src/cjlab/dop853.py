"""The package's one ODE integrator: explicit Runge-Kutta DOP853.

Dormand and Prince's 8(5,3) pair with its 7th-order dense output
(Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations I*,
section II.5), stepped at relative tolerance :data:`RTOL` over the span
of a sample grid ``t_eval``.  The initial-step rule, the step controller
(safety 0.9, factors 0.2 to 10, exponent -1/8) and every array operation
follow ``scipy.integrate.solve_ivp(method="DOP853", t_eval=...)`` on
``(t_eval[0], t_eval[-1])``: the stage sums, the error norms and the
dense output's per-sample operations are scipy's numpy operations in
scipy's order, and the scalar step control (t, h, the error norm) runs on
Python floats, whose arithmetic, ``math`` functions and ``**`` give the
bits of numpy's float64 scalars.  So the samples, the evaluation count
and the stall message are those of scipy to the bit; the test suite
checks this with scipy as the oracle.  The memory layout is not scipy's:
the samples come back as one contiguous row per component.

Every run ends by itself, which is where the stepper departs from scipy.
Before each step attempt it stops on scipy's stall, a step below the float
spacing near t, on a NaN step size (scipy loops on one: a zero atol with a
zero component makes the error scale 0 and the first step 0/0), and past
:data:`MAX_NFEV` evaluations.  A run that stops on neither of the last
two gives scipy's bits.

The dense output is not evaluated step by step.  A step whose interval
holds samples records its start, length, state and polynomial
coefficients, and the recorded samples are evaluated together once they
fill a block of :data:`_BLOCK_SAMPLES`, and at the end of the run or at a
stall.  A block repeats each step's coefficients over its samples and
runs scipy's per-sample operations on them, so its bits are those of one
call of scipy's dense output per step.  Only numpy is imported, and no
other module of the package.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["MAX_NFEV", "RTOL", "Solution", "dop853"]

#: Relative tolerance of every ODE integration in the package; at 1e-12 the
#: m = 2, n >= 8 profiles miss the 1e-7 H-residual target.
RTOL = 1e-13

#: Right-hand-side evaluations after which a run stops: near-axis curvature
#: noise can keep the step controller refining without end.  At the ``cjl``
#: defaults on the 107-spec sample of ``tests/test_accepted_range.py`` the
#: most a run takes is 49,817 for the profile ((100,100)), 221,831 for psi
#: ((100,99), 44 % of the budget) and 47,948 for the middle pair ((100,100)).
MAX_NFEV = 500_000

#: Samples per block of dense-output evaluation: large enough that numpy's
#: per-call cost is spread over many samples, small enough that a block's
#: (components, samples) temporaries stay under a megabyte for the package's
#: 5-component runs.
_BLOCK_SAMPLES = 16384

#: nodes of stages 0-11, of f at the step's end (12) and of the 3 dense-output stages
C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
              0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
              0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
              0.7777777777777778])

#: rows 1-15 of the strictly lower-triangular stage matrix; row 12 is B
_ROWS = (
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0, 0.08876275643042054],
    [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636],
    [0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259],
    [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298],
    [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987],
)
A = np.array([[*row, *[0.0] * (16 - len(row))] for row in ((), *_ROWS)])
B = A[12, :12]

#: 3rd- and 5th-order error weights over stages 0-12
E3 = np.zeros(13)
E3[:-1] = B
E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]
E5 = np.zeros(13)
E5[[0, *range(5, 12)]] = [0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
                          1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
                          0.08192320648511571, -0.022355307863886294]

#: coefficients of the dense output's powers 4-7 over stages 0 and 5-15
D = np.zeros((4, 16))
D[:, [0, *range(5, 16)]] = [
    [-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
]

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


class Solution(NamedTuple):
    """Samples of a :func:`dop853` run."""

    t: np.ndarray  # the points of t_eval reached
    #: (n, len(t)), one row per component; C-contiguous when the run reached t_eval[-1]
    y: np.ndarray
    nfev: int
    status: int  # 0: reached t_eval[-1]; -1: stopped before it
    message: str | None  # why a status -1 run stopped: TOO_SMALL_STEP, NaN step or MAX_NFEV


def _norm(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5  # root mean square


def _squared_norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v) ** 2`` on floats.  The norm of a vector is
    sqrt(v.dot(v)), and ``**`` is C's pow, which on numpy scalars and floats
    alike sometimes differs from r * r in the last bit; a float's ``**``
    raises past the float range, where numpy's gives inf."""
    r = math.sqrt(v.dot(v))
    try:
        return r ** 2
    except OverflowError:
        return math.inf


def _dense_block(t_eval: np.ndarray, steps: list, counts: list, out: np.ndarray,
                 done: int) -> int:
    """Write the dense output of the recorded ``steps``, (t_old, h, y_old, F)
    with ``counts`` samples each, at ``t_eval[done:]`` into ``out``, and
    empty both lists; returns the new count of samples written.

    Per sample these are the operations of scipy's ``Dop853DenseOutput``:
    x = (t - t_old)/h and 1 - x, the alternating Horner pass over F from
    zeros, then + y_old; each step's values are repeated over its samples."""
    if not steps:
        return done
    t_old, h, y_old, F = zip(*steps)
    end = done + sum(counts)
    x = (t_eval[done:end] - np.repeat(t_old, counts)) / np.repeat(h, counts)
    one_minus_x = 1 - x
    F = np.stack(F)  # (steps, 7, components)
    ys = out[:, done:end]
    ys[...] = 0
    for i in range(7):
        ys += np.repeat(F[:, 6 - i].T, counts, axis=1)
        ys *= x if i % 2 == 0 else one_minus_x
    ys += np.repeat(np.stack(y_old, axis=1), counts, axis=1)
    steps.clear()
    counts.clear()
    return end


@np.errstate(all="ignore")  # overflow and NaN end the run, or show in its samples
def dop853(fun: Callable, y0, atol: float, t_eval: np.ndarray) -> Solution:
    """Integrate y' = fun(t, y) from y(t_eval[0]) = y0 up to t_eval[-1] at
    rtol :data:`RTOL` and scalar ``atol``, sampling y at the increasing
    points ``t_eval``.  A step whose interval holds samples computes its
    dense output's coefficients, which costs 3 more evaluations, and the
    samples are evaluated from them a block at a time, and a run that
    cannot finish stops with status -1 (module docstring).  ``fun`` runs
    with numpy's floating-point warnings off.
    """
    t, t1, y = float(t_eval[0]), float(t_eval[-1]), np.asarray(y0, dtype=float)
    f = np.asarray(fun(t, y), dtype=float)
    n = y.size
    # initial step, from the first-order growth of y and the change of f
    scale = atol + np.abs(y) * RTOL
    d0, d1 = _norm(y / scale), _norm(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t)
    d2 = _norm(np.subtract(fun(t + h0, y + h0 * f), f) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** 0.125)
    h_abs = float(min(100 * h0, h1, t1 - t))
    nfev = 2

    c = C.tolist()
    a = [A[s, :s] for s in range(16)]
    # stages 0-11, f at the step's end, dense-output stages: each evaluation
    # is written into its row; K[0] is f at the step's start, K[12] at its end
    K = np.empty((16, n))
    KT = [K[:s].T for s in range(16)]
    K[0] = f
    out = np.empty((n, len(t_eval)))
    done = queued = 0  # samples written; samples written or recorded
    steps, counts = [], []  # the recorded steps and their sample counts
    while t < t1:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step or nfev > MAX_NFEV:
                done = _dense_block(t_eval, steps, counts, out, done)
                message = (f"over {MAX_NFEV} right-hand-side evaluations" if nfev > MAX_NFEV
                           else TOO_SMALL_STEP if h_abs < min_step else "non-finite step size")
                return Solution(t_eval[:done], out[:, :done], nfev, -1, message)
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = abs(h)
            for s in range(1, 12):
                K[s] = fun(t + c[s] * h, y + KT[s].dot(a[s]) * h)
            y_new = y + h * KT[12].dot(B)
            K[12] = fun(t + h, y_new)
            nfev += 12
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * RTOL
            err5 = _squared_norm(KT[13].dot(E5) / scale)
            err3 = _squared_norm(KT[13].dot(E3) / scale)
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = abs(h) * err5 / math.sqrt((err5 + 0.01 * err3) * n)
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.125)
            rejected = True
        t_old, y_old = t, y
        t, y = t_new, y_new

        end = t_eval.searchsorted(t, "right")
        if end > queued:
            for s in range(13, 16):
                K[s] = fun(t_old + c[s] * h, y_old + KT[s].dot(a[s]) * h)
            nfev += 3
            F = np.empty((7, n))  # the dense output's polynomial coefficients
            F[0] = dy = y - y_old
            F[1] = h * K[0] - dy
            F[2] = 2 * dy - h * (K[12] + K[0])
            F[3:] = h * D.dot(K)
            steps.append((t_old, h, y_old, F))
            counts.append(end - queued)
            queued = end
            if queued - done >= _BLOCK_SAMPLES:
                done = _dense_block(t_eval, steps, counts, out, done)
        K[0] = K[12]
    done = _dense_block(t_eval, steps, counts, out, done)
    return Solution(t_eval[:done], out[:, :done], nfev, 0, None)
