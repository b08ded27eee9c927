"""Explicit Runge-Kutta pair of order 8(5,3), DOP853 (Hairer, Nørsett &
Wanner, Solving ODEs I, §II.10), with the step-size control of
scipy.integrate's DOP853: the same arithmetic, operation for operation and
in the same order, so a solve returns the bits scipy's does.  It keeps no
dense output: the end state is all the package reads.

On the small states it is given, NumPy's per-call overhead costs as much as
the arithmetic, so one solve allocates its buffers once and reuses them for
every stage and step.  The right-hand side fun(t, y) is handed those
buffers as y: it must neither keep nor write into them, and what it returns
is copied before its next call, so it may return one buffer of its own.

The tableau is copied from scipy/integrate/_ivp/dop853_coefficients.py
(SciPy, BSD-3-Clause licence, Copyright (c) 2001-2002 Enthought, Inc. and
2003- SciPy Developers).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import StepUnderflow

SAFETY = 0.9  # multiplies the step the error asymptotics predict
MIN_FACTOR = 0.2  # largest decrease of the step in one rejection
MAX_FACTOR = 10  # largest increase of the step after one acceptance
_EXPONENT = -1 / 8  # -1 / (order of the error estimator + 1)

C = np.array([0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510, 0.281649658092772603273242802490,
              0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
              0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0])

# row s < 12 builds stage s from the ones before it; row 12 is the weights B
# of the 8th-order result
A = np.zeros((13, 12))
A[1, :1] = [5.26001519587677318785587544488e-2]
A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
A[4, [0, 2, 3]] = [
    2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1]
A[5, [0, 3, 4]] = [
    3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1]
A[6, [0, 3, 4, 5]] = [
    3.7109375e-2, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
    -1.7578125e-2]
A[7, [0, 3, 4, 5, 6]] = [
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3]
A[8, [0, 3, 4, 5, 6, 7]] = [
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1]
A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2]
A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022]
A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1]
A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2]
B = A[12]

# error estimators over the 12 stages and f at the step's end
E3 = np.zeros(13)
E3[:-1] = B
E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                   0.220588235294117647058823529412e-1]
E5 = np.zeros(13)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]


def _norm(x):
    """np.linalg.norm of a vector: the same dot product and root."""
    return math.sqrt(x.dot(x))


def _rms(x):
    return _norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, t1, direction, rtol, atol):
    """Hairer-Nørsett-Wanner's starting step from two slopes (§II.4)."""
    interval_length = abs(t1 - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-_EXPONENT)
    return min(100 * h0, h1, interval_length)


def solve_ivp(fun, t_span, y0, rtol, atol):
    """Integrate y' = fun(t, y) over t_span = (t0, t1), t0 != t1, from the
    nonempty state y0; returns the states at the start and the end of the
    last accepted step.

    The arithmetic is scipy's, and so are the bits.  The buffers are
    reused across stages and steps, and fun receives them as y: it must
    neither keep nor write into its y.  Each value fun returns is copied
    before its next call, so fun may write into one buffer and return it.
    atol may be one number or one per component (inf drops a component
    from the error norm).  Raises StepUnderflow when a rejected step falls
    below ten float spacings at t.
    """
    t0, t1 = map(float, t_span)
    y = np.array(y0, dtype=float)  # a copy: the steps write into y's buffer
    direction = math.copysign(1.0, t1 - t0)
    K = np.empty((13, y.size))  # the stages, then f at the step's end
    # stage s: its node as a Python float, the stages before it as columns
    # and its row of A over them
    plan = [(s, float(C[s]), K[:s].T, A[s, :s]) for s in range(1, 12)]
    stages, stages_and_end = K[:12].T, K.T
    z = np.empty(y.size)  # a stage's state, then the scaled error estimate
    y_new, scale = np.empty(y.size), np.empty(y.size)
    hs = np.empty(y.size)  # h in every entry: a ufunc converts a scalar operand per call
    # in the stage loop, ufuncs bound once and called with positional outs,
    # and ndarray.dot in place of np.dot's dispatcher: on small states the
    # lookups and the keyword parsing cost as much as the arithmetic
    multiply, add = np.multiply, np.add
    K[0] = fun(t0, y)
    h_abs = _initial_step(fun, t0, y, K[0], t1, direction, rtol, atol)
    t = t0
    while direction * (t - t1) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepUnderflow(f"integrator stalled at t = {t:.6g}")
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            hs.fill(h)
            for s, node, before, row in plan:
                before.dot(row, z)
                multiply(z, hs, z)
                K[s] = fun(t + node * h, add(y, z, z))
            stages.dot(B, y_new)
            multiply(y_new, hs, y_new)
            K[12] = fun(t + h, add(y, y_new, y_new))
            np.abs(y, out=scale)
            np.maximum(scale, np.abs(y_new, out=z), out=scale)
            np.multiply(scale, rtol, out=scale)
            np.add(atol, scale, out=scale)
            err5 = _norm(np.divide(stages_and_end.dot(E5, z), scale, out=z)) ** 2
            err3 = _norm(np.divide(stages_and_end.dot(E3, z), scale, out=z)) ** 2
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * y.size)
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else min(
                    MAX_FACTOR, SAFETY * error_norm ** _EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _EXPONENT)
            rejected = True
        y, y_new, t = y_new, y, t_new
        K[0] = K[12]
    return y_new, y
