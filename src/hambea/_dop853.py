"""Adaptive explicit Runge-Kutta 8(5,3) integration (Dormand-Prince DOP853).

The reference integrations (bea.modified_flow, models.reference_flow) need
one adaptive high-order integrator over a short interval, returning the end
state and the number of right-hand-side evaluations.  This is the part of
scipy.integrate.solve_ivp(method="DOP853") that they use, with the same
tableau, error norm, step-size controller, minimum step, rtol floor and
starting-step rule, and the same order of floating-point operations, so its
results equal scipy's bit for bit (tests/test_dop853.py checks that).

The step loop is a coroutine that yields each (t, y) it needs f at.  Its one
driver, solve_lockstep, runs one or several such problems with one stacked
right-hand-side call per round; each member gets the bits it would get alone.

Coefficients and algorithm: Hairer, Norsett and Wanner, Solving Ordinary
Differential Equations I, sec. II.4 (starting step) and II.10 (DOP853),
as transcribed in scipy/integrate/_ivp/dop853_coefficients.py and rk.py
(Copyright (c) 2001-2002 Enthought, Inc. and 2003 SciPy Developers;
BSD-3-Clause license).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError

N_STAGES = 12
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order 7 + 1)
RTOL_FLOOR = 100 * np.finfo(float).eps

C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
])

# nonzero entries of rows 1 .. 12 of the tableau; row 12 holds the weights B
_ROWS = [
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
]
A = np.array([[row.get(j, 0.0) for j in range(N_STAGES)] for row in [{}] + _ROWS])
B = A[N_STAGES]

# error estimators of orders 3 and 5, over the 12 stages and f(t + h, y_new)
E3 = np.append(B, 0.0)
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1
E5 = np.zeros(N_STAGES + 1)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
]


class OdeResult(NamedTuple):
    y: np.ndarray  # state at the end of the interval
    nfev: int  # right-hand-side evaluations


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(t0, y0, f0, t_bound, direction, rtol, atol):
    """Starting step from y0, f0 and one Euler probe, yielded (HNW I, II.4)."""
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = np.asarray((yield t0 + h0 * direction, y1), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _error_norm(K: np.ndarray, h: float, scale: np.ndarray) -> float:
    """RMS norm of the 5th-order error estimate, damped by the 3rd-order one."""
    err5 = np.dot(K.T, E5) / scale
    err3 = np.dot(K.T, E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _dop853(t_span, y0, rtol, atol, first_step):
    """DOP853 over t_span as a coroutine: yields each (t, y) it needs f at, is sent
    f(t, y), returns the OdeResult, and raises ConvergenceError when the step
    size falls below ten times the spacing of floats at t."""
    t, t_bound = map(float, t_span)
    y = np.asarray(y0).astype(float, copy=False)
    rtol = max(rtol, RTOL_FLOOR)
    direction = 1.0 if t_bound >= t else -1.0
    f = np.asarray((yield t, y), dtype=float)
    nfev = 1
    if first_step is None:
        h_abs = yield from _initial_step(t, y, f, t_bound, direction, rtol, atol)
        nfev += t != t_bound  # the probe's right-hand side
    elif not 0 < first_step <= abs(t_bound - t):
        raise ValueError(f"first_step {first_step} outside (0, {abs(t_bound - t)}]")
    else:
        h_abs = first_step
    K = np.empty((N_STAGES + 1, y.size))
    error_norm = math.nan
    while direction * (t - t_bound) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            # "not >=" also stops a NaN step size, on which the loop would spin
            if not h_abs >= min_step:
                raise ConvergenceError(
                    f"DOP853 step size fell below {min_step:.3e} at t={t:.6g}",
                    residual=float(error_norm), iterations=nfev,
                )
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)

            K[0] = f
            for s in range(1, N_STAGES):
                dy = np.dot(K[:s].T, A[s, :s]) * h
                K[s] = yield t + C[s] * h, y + dy
            y_new = y + h * np.dot(K[:-1].T, B)
            f_new = np.asarray((yield t + h, y_new), dtype=float)
            K[-1] = f_new
            nfev += N_STAGES

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
    return OdeResult(y, nfev)


class LockstepResult(NamedTuple):
    results: list  # per member: its OdeResult, or the ConvergenceError that stopped it
    nfev: int  # right-hand-side evaluations over all members


def solve_lockstep(fun, problems) -> LockstepResult:
    """Member i solves y' = fun([i], [t], y[np.newaxis])[0] for problems[i] =
    (t_span, y0, rtol, atol, first_step), first_step None for the starting-step
    rule, with the bits it gets when run alone; each round is one call
    fun(members, ts, Y) on the stacked pending states of all running members.
    A member whose step size falls below ten times the spacing of floats at t
    leaves with its ConvergenceError."""
    runs = [_dop853(*problem) for problem in problems]
    results, nfev = [None] * len(runs), 0
    pending = {i: next(run) for i, run in enumerate(runs)}
    while pending:
        members = list(pending)
        ts = [pending[i][0] for i in members]
        F = fun(members, ts, np.stack([pending[i][1] for i in members]))
        nfev += len(members)
        for i, f in zip(members, F):
            try:
                pending[i] = runs[i].send(f)
            except (StopIteration, ConvergenceError) as end:
                results[i] = end.value if isinstance(end, StopIteration) else end
                del pending[i]
    return LockstepResult(results, nfev)
