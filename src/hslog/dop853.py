"""Dormand-Prince 8(5,3) on a two-component state of Python floats.

A port of ``scipy.integrate.DOP853`` for the (u, w) system the
shooting integrates.  The state is two floats, every stage sum is a
sequential sum, and a step builds no array.  The algorithm is scipy's, step
for step: the initial step of ``select_initial_step`` (error order 7), the
12-stage step with its last stage reused as the next first one (FSAL), the
E5/E3 error norm, the controller (safety 0.9, step factors 0.2 to 10,
exponent -1/8, a minimum step of 10 ulp of t) and, on request, the
``Dop853DenseOutput`` polynomial of u with ``OdeSolution``'s choice of
segment.

The results agree with scipy's to rounding, not bit for bit: scipy forms
each stage sum with ``np.dot`` on a (2, s) view, which BLAS evaluates in its
own order and with fused multiply-adds.  On the shots the tests cross-check,
both take the same steps and make the same right-hand-side calls.

The tableau is Hairer's published coefficients as scipy's
``dop853_coefficients`` holds them.  Each row lists its nonzero entries as
(stage, coefficient) pairs; leaving a zero out of a sequential sum of
finite terms is exact.  A stage that is not finite makes a NaN or infinite
error estimate either way, so the step is rejected as in scipy.

The tableau tuples are the one source of the coefficients.  The 12 stages,
the B update and the E5 and E3 estimates of a step are straight-line sums
over names unpacked once from them (``_coefficients`` checks that each
name's stage is its entry's), with the terms of the rows in their order.
A sum starts at its first term rather than at 0.0, which differs only in
the sign of a sum whose every term is -0.0.  Only the three extra stages
and the interpolant of dense output loop over their rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

C = (
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
)

A = (
    (),
    ((0, 5.26001519587677318785587544488e-2),),
    (
        (0, 1.97250569845378994544595329183e-2),
        (1, 5.91751709536136983633785987549e-2),
    ),
    (
        (0, 2.95875854768068491816892993775e-2),
        (2, 8.87627564304205475450678981324e-2),
    ),
    (
        (0, 2.41365134159266685502369798665e-1),
        (2, -8.84549479328286085344864962717e-1),
        (3, 9.24834003261792003115737966543e-1),
    ),
    (
        (0, 3.7037037037037037037037037037e-2),
        (3, 1.70828608729473871279604482173e-1),
        (4, 1.25467687566822425016691814123e-1),
    ),
    (
        (0, 3.7109375e-2),
        (3, 1.70252211019544039314978060272e-1),
        (4, 6.02165389804559606850219397283e-2),
        (5, -1.7578125e-2),
    ),
    (
        (0, 3.70920001185047927108779319836e-2),
        (3, 1.70383925712239993810214054705e-1),
        (4, 1.07262030446373284651809199168e-1),
        (5, -1.53194377486244017527936158236e-2),
        (6, 8.27378916381402288758473766002e-3),
    ),
    (
        (0, 6.24110958716075717114429577812e-1),
        (3, -3.36089262944694129406857109825),
        (4, -8.68219346841726006818189891453e-1),
        (5, 2.75920996994467083049415600797e1),
        (6, 2.01540675504778934086186788979e1),
        (7, -4.34898841810699588477366255144e1),
    ),
    (
        (0, 4.77662536438264365890433908527e-1),
        (3, -2.48811461997166764192642586468),
        (4, -5.90290826836842996371446475743e-1),
        (5, 2.12300514481811942347288949897e1),
        (6, 1.52792336328824235832596922938e1),
        (7, -3.32882109689848629194453265587e1),
        (8, -2.03312017085086261358222928593e-2),
    ),
    (
        (0, -9.3714243008598732571704021658e-1),
        (3, 5.18637242884406370830023853209),
        (4, 1.09143734899672957818500254654),
        (5, -8.14978701074692612513997267357),
        (6, -1.85200656599969598641566180701e1),
        (7, 2.27394870993505042818970056734e1),
        (8, 2.49360555267965238987089396762),
        (9, -3.0467644718982195003823669022),
    ),
    (
        (0, 2.27331014751653820792359768449),
        (3, -1.05344954667372501984066689879e1),
        (4, -2.00087205822486249909675718444),
        (5, -1.79589318631187989172765950534e1),
        (6, 2.79488845294199600508499808837e1),
        (7, -2.85899827713502369474065508674),
        (8, -8.87285693353062954433549289258),
        (9, 1.23605671757943030647266201528e1),
        (10, 6.43392746015763530355970484046e-1),
    ),
)

B = (
    (0, 5.42937341165687622380535766363e-2),
    (5, 4.45031289275240888144113950566),
    (6, 1.89151789931450038304281599044),
    (7, -5.8012039600105847814672114227),
    (8, 3.1116436695781989440891606237e-1),
    (9, -1.52160949662516078556178806805e-1),
    (10, 2.01365400804030348374776537501e-1),
    (11, 4.47106157277725905176885569043e-2),
)

# the third-order estimate is B less these weights
_E3_SHIFT = {
    0: 0.244094488188976377952755905512,
    8: 0.733846688281611857341361741547,
    11: 0.220588235294117647058823529412e-1,
}
E3 = tuple((j, b - _E3_SHIFT.get(j, 0.0)) for j, b in B)

E5 = (
    (0, 0.1312004499419488073250102996e-1),
    (5, -0.1225156446376204440720569753e+1),
    (6, -0.4957589496572501915214079952),
    (7, 0.1664377182454986536961530415e+1),
    (8, -0.3503288487499736816886487290),
    (9, 0.3341791187130174790297318841),
    (10, 0.8192320648511571246570742613e-1),
    (11, -0.2235530786388629525884427845e-1),
)

# stages 13 to 15, which only the dense output needs; stage 12 is f at t + h
C_EXTRA = (0.1, 0.2, 0.777777777777777777777777777778)

A_EXTRA = (
    (
        (0, 5.61675022830479523392909219681e-2),
        (6, 2.53500210216624811088794765333e-1),
        (7, -2.46239037470802489917441475441e-1),
        (8, -1.24191423263816360469010140626e-1),
        (9, 1.5329179827876569731206322685e-1),
        (10, 8.20105229563468988491666602057e-3),
        (11, 7.56789766054569976138603589584e-3),
        (12, -8.298e-3),
    ),
    (
        (0, 3.18346481635021405060768473261e-2),
        (5, 2.83009096723667755288322961402e-2),
        (6, 5.35419883074385676223797384372e-2),
        (7, -5.49237485713909884646569340306e-2),
        (10, -1.08347328697249322858509316994e-4),
        (11, 3.82571090835658412954920192323e-4),
        (12, -3.40465008687404560802977114492e-4),
        (13, 1.41312443674632500278074618366e-1),
    ),
    (
        (0, -4.28896301583791923408573538692e-1),
        (5, -4.69762141536116384314449447206),
        (6, 7.68342119606259904184240953878),
        (7, 4.06898981839711007970213554331),
        (8, 3.56727187455281109270669543021e-1),
        (12, -1.39902416515901462129418009734e-3),
        (13, 2.9475147891527723389556272149),
        (14, -9.15095847217987001081870187138),
    ),
)

# the last four of the seven interpolant coefficients, over all 16 stages
D = (
    (
        (0, -0.84289382761090128651353491142e+1),
        (5, 0.56671495351937776962531783590),
        (6, -0.30689499459498916912797304727e+1),
        (7, 0.23846676565120698287728149680e+1),
        (8, 0.21170345824450282767155149946e+1),
        (9, -0.87139158377797299206789907490),
        (10, 0.22404374302607882758541771650e+1),
        (11, 0.63157877876946881815570249290),
        (12, -0.88990336451333310820698117400e-1),
        (13, 0.18148505520854727256656404962e+2),
        (14, -0.91946323924783554000451984436e+1),
        (15, -0.44360363875948939664310572000e+1),
    ),
    (
        (0, 0.10427508642579134603413151009e+2),
        (5, 0.24228349177525818288430175319e+3),
        (6, 0.16520045171727028198505394887e+3),
        (7, -0.37454675472269020279518312152e+3),
        (8, -0.22113666853125306036270938578e+2),
        (9, 0.77334326684722638389603898808e+1),
        (10, -0.30674084731089398182061213626e+2),
        (11, -0.93321305264302278729567221706e+1),
        (12, 0.15697238121770843886131091075e+2),
        (13, -0.31139403219565177677282850411e+2),
        (14, -0.93529243588444783865713862664e+1),
        (15, 0.35816841486394083752465898540e+2),
    ),
    (
        (0, 0.19985053242002433820987653617e+2),
        (5, -0.38703730874935176555105901742e+3),
        (6, -0.18917813819516756882830838328e+3),
        (7, 0.52780815920542364900561016686e+3),
        (8, -0.11573902539959630126141871134e+2),
        (9, 0.68812326946963000169666922661e+1),
        (10, -0.10006050966910838403183860980e+1),
        (11, 0.77771377980534432092869265740),
        (12, -0.27782057523535084065932004339e+1),
        (13, -0.60196695231264120758267380846e+2),
        (14, 0.84320405506677161018159903784e+2),
        (15, 0.11992291136182789328035130030e+2),
    ),
    (
        (0, -0.25693933462703749003312586129e+2),
        (5, -0.15418974869023643374053993627e+3),
        (6, -0.23152937917604549567536039109e+3),
        (7, 0.35763911791061412378285349910e+3),
        (8, 0.93405324183624310003907691704e+2),
        (9, -0.37458323136451633156875139351e+2),
        (10, 0.10409964950896230045147246184e+3),
        (11, 0.29840293426660503123344363579e+2),
        (12, -0.43533456590011143754432175058e+2),
        (13, 0.96324553959188282948394950600e+2),
        (14, -0.39177261675615439165231486172e+2),
        (15, -0.14972683625798562581422125276e+3),
    ),
)

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order + 1)

_EXTRA_STAGES = tuple(zip(C_EXTRA, A_EXTRA))

# the stages that B, E5 and E3 weight
_WEIGHTED = (0, 5, 6, 7, 8, 9, 10, 11)


def _coefficients(row: tuple, stages: tuple) -> tuple:
    """The coefficients of a tableau row, whose stages must be ``stages``."""
    if tuple(j for j, _ in row) != stages:
        raise ValueError(f"the tableau row weights stages {[j for j, _ in row]}, not {stages}")
    return tuple(a for _, a in row)


# the coefficients the step reads by name: _Ai_j is stage i's weight of stage
# j, and _Bj, _E5_j and _E3_j weight stage j
_C1, _C2, _C3, _C4, _C5, _C6, _C7, _C8, _C9, _C10, _C11 = C[1:]
(_A1_0,) = _coefficients(A[1], (0,))
_A2_0, _A2_1 = _coefficients(A[2], (0, 1))
_A3_0, _A3_2 = _coefficients(A[3], (0, 2))
_A4_0, _A4_2, _A4_3 = _coefficients(A[4], (0, 2, 3))
_A5_0, _A5_3, _A5_4 = _coefficients(A[5], (0, 3, 4))
_A6_0, _A6_3, _A6_4, _A6_5 = _coefficients(A[6], (0, 3, 4, 5))
_A7_0, _A7_3, _A7_4, _A7_5, _A7_6 = _coefficients(A[7], (0, 3, 4, 5, 6))
_A8_0, _A8_3, _A8_4, _A8_5, _A8_6, _A8_7 = _coefficients(A[8], (0, 3, 4, 5, 6, 7))
_A9_0, _A9_3, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8 = _coefficients(A[9], (0, 3, 4, 5, 6, 7, 8))
_A10_0, _A10_3, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9 = _coefficients(
    A[10], (0, 3, 4, 5, 6, 7, 8, 9))
_A11_0, _A11_3, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10 = _coefficients(
    A[11], (0, 3, 4, 5, 6, 7, 8, 9, 10))
_B0, _B5, _B6, _B7, _B8, _B9, _B10, _B11 = _coefficients(B, _WEIGHTED)
_E5_0, _E5_5, _E5_6, _E5_7, _E5_8, _E5_9, _E5_10, _E5_11 = _coefficients(E5, _WEIGHTED)
_E3_0, _E3_5, _E3_6, _E3_7, _E3_8, _E3_9, _E3_10, _E3_11 = _coefficients(E3, _WEIGHTED)


@dataclass
class Trajectory:
    """The end of an integration and what it cost.

    ``status`` is "finished" (t reached t_bound), "limit" (an accepted
    step ended with |u| >= u_limit), "step" (the step size fell below
    10 ulp of t) or "work" (the right-hand-side calls reached their cap
    before t_bound).  (t, u, w) is the last accepted state: for "limit" the
    end of the step that crossed the limit.  ``nfev`` counts right-hand-
    side calls, ``n_steps`` accepted steps.  With dense output, ``knots``
    holds t0 and the end of every accepted step, and ``segments`` one row
    per step: t_old, h, u_old and the seven interpolant coefficients of u.
    """

    status: str
    t: float
    u: float
    w: float
    nfev: int
    n_steps: int
    knots: list
    segments: list

    def dense_u(self, t: np.ndarray) -> np.ndarray:
        """u at the points t in [t0, t_bound], from each one's step polynomial.

        A point on a knot takes the earlier step, as ``OdeSolution`` does.
        """
        seg = np.searchsorted(np.asarray(self.knots), t, side="left") - 1
        np.clip(seg, 0, len(self.segments) - 1, out=seg)
        rows = np.asarray(self.segments)[seg]
        x = (t - rows[:, 0]) / rows[:, 1]
        y = np.zeros(len(t))
        for i, k in enumerate(range(9, 2, -1)):
            y += rows[:, k]
            y *= x if i % 2 == 0 else 1 - x
        return y + rows[:, 2]


def _rms(a: float, b: float) -> float:
    """RMS norm of (a, b), formed as scipy's ``norm`` forms it."""
    return math.sqrt(a * a + b * b) / 2**0.5


def _square(x: float) -> float:
    """x ** 2 as numpy's scalar power forms it: through pow, inf on overflow."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _initial_step(fun, t0, u0, w0, du0, dw0, t_bound, rtol, atol):
    """scipy's ``select_initial_step`` for error order 7 and no step cap."""
    interval = abs(t_bound - t0)
    scale_u = atol + abs(u0) * rtol
    scale_w = atol + abs(w0) * rtol
    d0 = _rms(u0 / scale_u, w0 / scale_w)
    d1 = _rms(du0 / scale_u, dw0 / scale_w)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    du1, dw1 = fun(t0 + h0, u0 + h0 * du0, w0 + h0 * dw0)
    d2 = _rms((du1 - du0) / scale_u, (dw1 - dw0) / scale_w) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval)


def _add_stages(fun, t, u, w, h, ku, kw, stages):
    """Append f at t + c h of each (c, row) in stages to the stage lists ku, kw."""
    for c, row in stages:
        su = sw = 0.0
        for j, a in row:
            su += a * ku[j]
            sw += a * kw[j]
        fu, fw = fun(t + c * h, u + su * h, w + sw * h)
        ku.append(fu)
        kw.append(fw)


def _interpolant(fun, t, u, w, h, ku, kw, u_new):
    """Row of ``Trajectory.segments`` for the step from (t, u, w) of length h.

    Adds the three extra stages to ku and kw, as scipy's
    ``DOP853._dense_output_impl`` does, and keeps the u coefficients.
    """
    _add_stages(fun, t, u, w, h, ku, kw, _EXTRA_STAGES)
    delta = u_new - u
    f_old, f_new = ku[0], ku[12]
    coeffs = [t, h, u, delta, h * f_old - delta, 2 * delta - h * (f_new + f_old)]
    for row in D:
        s = 0.0
        for j, d in row:
            s += d * ku[j]
        coeffs.append(h * s)
    return coeffs


def integrate(fun, t0: float, u0: float, w0: float, t_bound: float, rtol: float,
              atol: float, u_limit: float, dense: bool, max_nfev: int) -> Trajectory:
    """Integrate (u, w)' = fun(t, u, w) from t0 to t_bound > t0.

    fun returns the pair (u', w') as floats.  rtol and atol apply to both
    components.  The integration stops after the first accepted step that
    ends with |u| >= u_limit, the terminal event |u| - u_limit = 0 of the
    scipy call, but at the end of that step rather than at the event time.
    With ``dense`` every accepted step costs three more calls of fun and
    keeps its interpolant of u (``Trajectory.dense_u``).  No step is tried
    once fun has been called ``max_nfev`` times; scipy has no such cap, and
    below it the steps are scipy's.  fun is called exactly ``nfev`` times:
    twice to start, 12 times per trial step and 3 times more per accepted
    step with ``dense``.
    """
    t, u, w = t0, u0, w0
    du, dw = fun(t, u, w)
    h_abs = _initial_step(fun, t, u, w, du, dw, t_bound, rtol, atol)
    nfev = 2
    n_steps = 0
    knots = [t0] if dense else []
    segments = []
    while True:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return Trajectory("step", t, u, w, nfev, n_steps, knots, segments)
            if nfev >= max_nfev:
                return Trajectory("work", t, u, w, nfev, n_steps, knots, segments)
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)

            su = _A1_0 * du
            sw = _A1_0 * dw
            k1u, k1w = fun(t + _C1 * h, u + su * h, w + sw * h)
            su = _A2_0 * du + _A2_1 * k1u
            sw = _A2_0 * dw + _A2_1 * k1w
            k2u, k2w = fun(t + _C2 * h, u + su * h, w + sw * h)
            su = _A3_0 * du + _A3_2 * k2u
            sw = _A3_0 * dw + _A3_2 * k2w
            k3u, k3w = fun(t + _C3 * h, u + su * h, w + sw * h)
            su = _A4_0 * du + _A4_2 * k2u + _A4_3 * k3u
            sw = _A4_0 * dw + _A4_2 * k2w + _A4_3 * k3w
            k4u, k4w = fun(t + _C4 * h, u + su * h, w + sw * h)
            su = _A5_0 * du + _A5_3 * k3u + _A5_4 * k4u
            sw = _A5_0 * dw + _A5_3 * k3w + _A5_4 * k4w
            k5u, k5w = fun(t + _C5 * h, u + su * h, w + sw * h)
            su = _A6_0 * du + _A6_3 * k3u + _A6_4 * k4u + _A6_5 * k5u
            sw = _A6_0 * dw + _A6_3 * k3w + _A6_4 * k4w + _A6_5 * k5w
            k6u, k6w = fun(t + _C6 * h, u + su * h, w + sw * h)
            su = _A7_0 * du + _A7_3 * k3u + _A7_4 * k4u + _A7_5 * k5u + _A7_6 * k6u
            sw = _A7_0 * dw + _A7_3 * k3w + _A7_4 * k4w + _A7_5 * k5w + _A7_6 * k6w
            k7u, k7w = fun(t + _C7 * h, u + su * h, w + sw * h)
            su = _A8_0 * du + _A8_3 * k3u + _A8_4 * k4u + _A8_5 * k5u + _A8_6 * k6u + _A8_7 * k7u
            sw = _A8_0 * dw + _A8_3 * k3w + _A8_4 * k4w + _A8_5 * k5w + _A8_6 * k6w + _A8_7 * k7w
            k8u, k8w = fun(t + _C8 * h, u + su * h, w + sw * h)
            su = (_A9_0 * du + _A9_3 * k3u + _A9_4 * k4u + _A9_5 * k5u + _A9_6 * k6u + _A9_7 * k7u
                  + _A9_8 * k8u)
            sw = (_A9_0 * dw + _A9_3 * k3w + _A9_4 * k4w + _A9_5 * k5w + _A9_6 * k6w + _A9_7 * k7w
                  + _A9_8 * k8w)
            k9u, k9w = fun(t + _C9 * h, u + su * h, w + sw * h)
            su = (_A10_0 * du + _A10_3 * k3u + _A10_4 * k4u + _A10_5 * k5u + _A10_6 * k6u
                  + _A10_7 * k7u + _A10_8 * k8u + _A10_9 * k9u)
            sw = (_A10_0 * dw + _A10_3 * k3w + _A10_4 * k4w + _A10_5 * k5w + _A10_6 * k6w
                  + _A10_7 * k7w + _A10_8 * k8w + _A10_9 * k9w)
            k10u, k10w = fun(t + _C10 * h, u + su * h, w + sw * h)
            su = (_A11_0 * du + _A11_3 * k3u + _A11_4 * k4u + _A11_5 * k5u + _A11_6 * k6u
                  + _A11_7 * k7u + _A11_8 * k8u + _A11_9 * k9u + _A11_10 * k10u)
            sw = (_A11_0 * dw + _A11_3 * k3w + _A11_4 * k4w + _A11_5 * k5w + _A11_6 * k6w
                  + _A11_7 * k7w + _A11_8 * k8w + _A11_9 * k9w + _A11_10 * k10w)
            k11u, k11w = fun(t + _C11 * h, u + su * h, w + sw * h)
            su = (_B0 * du + _B5 * k5u + _B6 * k6u + _B7 * k7u + _B8 * k8u + _B9 * k9u
                  + _B10 * k10u + _B11 * k11u)
            sw = (_B0 * dw + _B5 * k5w + _B6 * k6w + _B7 * k7w + _B8 * k8w + _B9 * k9w
                  + _B10 * k10w + _B11 * k11w)
            u_new = u + h * su
            w_new = w + h * sw
            du_new, dw_new = fun(t + h, u_new, w_new)
            nfev += 12

            e5u = (_E5_0 * du + _E5_5 * k5u + _E5_6 * k6u + _E5_7 * k7u + _E5_8 * k8u
                   + _E5_9 * k9u + _E5_10 * k10u + _E5_11 * k11u)
            e5w = (_E5_0 * dw + _E5_5 * k5w + _E5_6 * k6w + _E5_7 * k7w + _E5_8 * k8w
                   + _E5_9 * k9w + _E5_10 * k10w + _E5_11 * k11w)
            e3u = (_E3_0 * du + _E3_5 * k5u + _E3_6 * k6u + _E3_7 * k7u + _E3_8 * k8u
                   + _E3_9 * k9u + _E3_10 * k10u + _E3_11 * k11u)
            e3w = (_E3_0 * dw + _E3_5 * k5w + _E3_6 * k6w + _E3_7 * k7w + _E3_8 * k8w
                   + _E3_9 * k9w + _E3_10 * k10w + _E3_11 * k11w)
            scale_u = atol + max(abs(u), abs(u_new)) * rtol
            scale_w = atol + max(abs(w), abs(w_new)) * rtol
            e5u /= scale_u
            e5w /= scale_w
            e3u /= scale_u
            e3w /= scale_w
            err5 = _square(math.sqrt(e5u * e5u + e5w * e5w))
            err3 = _square(math.sqrt(e3u * e3u + e3w * e3w))
            if not (math.isfinite(du_new) and math.isfinite(dw_new)):
                # the last stage has zero weight, and scipy's 0 * inf is NaN
                error_norm = math.nan
            elif err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = abs(h) * err5 / math.sqrt((err5 + 0.01 * err3) * 2)

            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
            rejected = True

        if dense:
            ku = [du, k1u, k2u, k3u, k4u, k5u, k6u, k7u, k8u, k9u, k10u, k11u, du_new]
            kw = [dw, k1w, k2w, k3w, k4w, k5w, k6w, k7w, k8w, k9w, k10w, k11w, dw_new]
            segments.append(_interpolant(fun, t, u, w, h, ku, kw, u_new))
            knots.append(t_new)
            nfev += 3
        t, u, w, du, dw = t_new, u_new, w_new, du_new, dw_new
        n_steps += 1
        if abs(u) >= u_limit:
            return Trajectory("limit", t, u, w, nfev, n_steps, knots, segments)
        if t - t_bound >= 0:
            return Trajectory("finished", t, u, w, nfev, n_steps, knots, segments)
