"""Hairer's Dormand-Prince 8(5,3) pair in Nystrom form for y'' = a(y).

The pair is the code DOP853 of Hairer, Norsett & Wanner, Solving ODEs I,
II.10. y' = v, so the stage velocities are v + h*sum_j a_ij k_j, the stage
displacements are y + h*(c_i*v + h*sum_k (A^2)_ik k_k), and the weights of
k_k in the y update and in its error estimates are b*A, e5*A and e3*A (e5
and e3 sum to 0, so v drops out of the errors). The stage velocities are
never formed: `step` works on the force values k alone.

`step` returns, next to the eighth-order (y, v), Hairer's combined norm of
the step's error estimates, as dop853.f forms it inside its step: e5 and
e3, the fifth- and third-order local errors on the orbit's scale
|err_y| + |err_v|/omega, combine to e = e5**2/sqrt(e5**2 + 0.01*e3**2).

A step that carries y across 0 locates the crossing on the quintic
Hermite polynomial of y in the step fraction that matches y, h*v and h**2*a
at both of the step's ends (`hermite`): the force at the step end is the
next step's first stage, so the polynomial costs no force value.
`hermite_root` finds its root by Horner's rule in one bracketed Newton
iteration.
"""

from __future__ import annotations

import math
from typing import Callable

# The tableau, with literals as in Hairer's dop853.f and in SciPy's
# scipy/integrate/_ivp/dop853_coefficients.py (BSD-3). Row i of
# _A_ROWS gives the nonzero a_ij of stage i >= 1; stage 0 is the step start.

# eighth-order weights
_B_ROW = {
    0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
    6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
    8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
    10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2,
}
_C = (
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333,
    0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6,
    0.857142857142857142857142857142, 1.0, 1.0,
)
_A_ROWS = (
    {},
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
    # stage 12 is the step end, whose force is the next step's k0 (FSAL)
    _B_ROW,
)
# eighth-order minus embedded fifth-order weights
_E5_ROW = {
    0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e1,
    6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e1,
    8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1,
}
# embedded third-order weights; E3 is the eighth-order minus these
_B3_ROW = {
    0: 0.244094488188976377952755905512,
    8: 0.733846688281611857341361741547,
    11: 0.220588235294117647058823529412e-1,
}
def _dense(row: dict[int, float]) -> tuple[float, ...]:
    return tuple(row.get(j, 0.0) for j in range(len(_C)))


def _times_a(w: tuple[float, ...]) -> tuple[float, ...]:
    """The row vector w times the stage matrix A, each entry correctly
    rounded from the nonzero products."""
    products: list[list[float]] = [[] for _ in _C]
    for wi, row in zip(w, _A_ROWS):
        for k, a in row.items():
            products[k].append(wi * a)
    return tuple(map(math.fsum, products))


# The products of the Nystrom form, one name per nonzero entry, so that
# `step` reads them as globals: _Pi_k = (A^2)_ik (0 from k = i - 1 on), and
# the weights of k_j in the (y, v) update _BYj, _BVj, in the fifth-order
# error _E5Yj, _E5Vj and in the third-order error _E3Yj, _E3Vj. The entries
# bound to _ are 0.
_B = _dense(_B_ROW)
_E5 = _dense(_E5_ROW)
_E3 = tuple(b - b3 for b, b3 in zip(_B, _dense(_B3_ROW)))
_C1, _C2, _C3, _C4, _C5, _C6, _C7, _C8, _C9, _C10, _C11 = _C[1:12]
_A2 = [_times_a(_dense(r))[: i - 1] for i, r in enumerate(_A_ROWS)]
(_P2_0,) = _A2[2]
_P3_0, _P3_1 = _A2[3]
_P4_0, _P4_1, _P4_2 = _A2[4]
_P5_0, _, _P5_2, _P5_3 = _A2[5]
_P6_0, _, _P6_2, _P6_3, _P6_4 = _A2[6]
_P7_0, _, _P7_2, _P7_3, _P7_4, _P7_5 = _A2[7]
_P8_0, _, _P8_2, _P8_3, _P8_4, _P8_5, _P8_6 = _A2[8]
_P9_0, _, _P9_2, _P9_3, _P9_4, _P9_5, _P9_6, _P9_7 = _A2[9]
_P10_0, _, _P10_2, _P10_3, _P10_4, _P10_5, _P10_6, _P10_7, _P10_8 = _A2[10]
_P11_0, _, _P11_2, _P11_3, _P11_4, _P11_5, _P11_6, _P11_7, _P11_8, _P11_9 = _A2[11]
_BY0, _, _, _BY3, _BY4, _BY5, _BY6, _BY7, _BY8, _BY9, _BY10, *_ = _times_a(_B)
_E5Y0, _, _, _E5Y3, _E5Y4, _E5Y5, _E5Y6, _E5Y7, _E5Y8, _E5Y9, _E5Y10, *_ = _times_a(_E5)
_E3Y0, _, _, _E3Y3, _E3Y4, _E3Y5, _E3Y6, _E3Y7, _E3Y8, _E3Y9, _E3Y10, *_ = _times_a(_E3)
_BV0, _, _, _, _, _BV5, _BV6, _BV7, _BV8, _BV9, _BV10, _BV11, *_ = _B
_E5V0, _, _, _, _, _E5V5, _E5V6, _E5V7, _E5V8, _E5V9, _E5V10, _E5V11, *_ = _E5
_E3V0, _, _, _, _, _E3V5, _E3V6, _E3V7, _E3V8, _E3V9, _E3V10, _E3V11, *_ = _E3


def step(
    accel: Callable[[float], float], y: float, v: float, k0: float, h: float, omega: float
) -> tuple[float, float, float]:
    """One step of width h from (y, v), where k0 = accel(y).

    Returns the eighth-order (y, v) at the step end and the combined norm e
    of its error estimates, with velocity errors counted as displacement
    errors at the frequency omega (see the module docstring).
    """
    k1 = accel(y + h * (_C1 * v))
    k2 = accel(y + h * (_C2 * v + h * (_P2_0 * k0)))
    k3 = accel(y + h * (_C3 * v + h * (_P3_0 * k0 + _P3_1 * k1)))
    k4 = accel(y + h * (_C4 * v + h * (_P4_0 * k0 + _P4_1 * k1 + _P4_2 * k2)))
    k5 = accel(y + h * (_C5 * v + h * (_P5_0 * k0 + _P5_2 * k2 + _P5_3 * k3)))
    q = _P6_0 * k0 + _P6_2 * k2 + _P6_3 * k3 + _P6_4 * k4
    k6 = accel(y + h * (_C6 * v + h * q))
    q = _P7_0 * k0 + _P7_2 * k2 + _P7_3 * k3 + _P7_4 * k4 + _P7_5 * k5
    k7 = accel(y + h * (_C7 * v + h * q))
    q = _P8_0 * k0 + _P8_2 * k2 + _P8_3 * k3 + _P8_4 * k4 + _P8_5 * k5 + _P8_6 * k6
    k8 = accel(y + h * (_C8 * v + h * q))
    q = (
        _P9_0 * k0 + _P9_2 * k2 + _P9_3 * k3 + _P9_4 * k4 + _P9_5 * k5 + _P9_6 * k6
        + _P9_7 * k7
    )
    k9 = accel(y + h * (_C9 * v + h * q))
    q = (
        _P10_0 * k0 + _P10_2 * k2 + _P10_3 * k3 + _P10_4 * k4 + _P10_5 * k5 + _P10_6 * k6
        + _P10_7 * k7 + _P10_8 * k8
    )
    k10 = accel(y + h * (_C10 * v + h * q))
    q = (
        _P11_0 * k0 + _P11_2 * k2 + _P11_3 * k3 + _P11_4 * k4 + _P11_5 * k5 + _P11_6 * k6
        + _P11_7 * k7 + _P11_8 * k8 + _P11_9 * k9
    )
    k11 = accel(y + h * (_C11 * v + h * q))
    q_y = (
        _BY0 * k0 + _BY3 * k3 + _BY4 * k4 + _BY5 * k5 + _BY6 * k6 + _BY7 * k7 + _BY8 * k8
        + _BY9 * k9 + _BY10 * k10
    )
    q_v = (
        _BV0 * k0 + _BV5 * k5 + _BV6 * k6 + _BV7 * k7 + _BV8 * k8 + _BV9 * k9 + _BV10 * k10
        + _BV11 * k11
    )
    q5_y = (
        _E5Y0 * k0 + _E5Y3 * k3 + _E5Y4 * k4 + _E5Y5 * k5 + _E5Y6 * k6 + _E5Y7 * k7
        + _E5Y8 * k8 + _E5Y9 * k9 + _E5Y10 * k10
    )
    q5_v = (
        _E5V0 * k0 + _E5V5 * k5 + _E5V6 * k6 + _E5V7 * k7 + _E5V8 * k8 + _E5V9 * k9
        + _E5V10 * k10 + _E5V11 * k11
    )
    q3_y = (
        _E3Y0 * k0 + _E3Y3 * k3 + _E3Y4 * k4 + _E3Y5 * k5 + _E3Y6 * k6 + _E3Y7 * k7
        + _E3Y8 * k8 + _E3Y9 * k9 + _E3Y10 * k10
    )
    q3_v = (
        _E3V0 * k0 + _E3V5 * k5 + _E3V6 * k6 + _E3V7 * k7 + _E3V8 * k8 + _E3V9 * k9
        + _E3V10 * k10 + _E3V11 * k11
    )
    hh = h * h
    e5 = abs(hh * q5_y) + abs(h * q5_v) / omega
    e3 = abs(hh * q3_y) + abs(h * q3_v) / omega
    e = e5 * (e5 / math.hypot(e5, 0.1 * e3)) if e5 > 0.0 else e5
    return y + h * (v + h * q_y), v + h * q_v, e


# a correction of at most 4 ulps of 1 leaves x as exact as the rounding of
# the polynomial allows; Newton from the secant root stops after 2 or 3
# iterations on the benchmark's pools, and never needs to bisect there
_ROOT_STOP = 2.0**-50
_ROOT_MAX_ITER = 20


def hermite(
    y: float, v: float, f0: float, h: float, y1: float, v1: float, f1: float
) -> tuple[float, float, float, float, float, float]:
    """The coefficients (y, h*v, c2, c3, c4, c5) of the quintic Hermite
    polynomial y + x*(h*v + x*(c2 + x*(c3 + x*(c4 + x*c5)))) in the fraction
    x of the step of width h from (y, v) to (y1, v1), with the forces f0 and
    f1 at its ends. It matches y, h*v and h**2*f at x = 0 and 1:
    c2 = h**2*f0/2, c3 = 10*D - 4*E + G/2, c4 = -15*D + 7*E - G and
    c5 = 6*D - 3*E + G/2, with D = y1 - y - h*v - c2, E = h*(v1 - v) - h**2*f0
    and G = h**2*(f1 - f0).
    """
    hh = h * h
    hv, c2 = h * v, 0.5 * (hh * f0)
    d = y1 - y - hv - c2
    e = h * (v1 - v) - hh * f0
    g = hh * (f1 - f0)
    return (
        y, hv, c2, 10.0 * d - 4.0 * e + 0.5 * g, -15.0 * d + 7.0 * e - g,
        6.0 * d - 3.0 * e + 0.5 * g,
    )


def hermite_root(
    y: float, v: float, f0: float, h: float, y1: float, v1: float, f1: float
) -> float:
    """The fraction x of the step at which its Hermite polynomial (see
    hermite, same arguments) is 0, where y > 0 >= y1.

    Newton starts from the secant root; a Newton step that leaves the
    bracket bisects it instead, and the iteration stops at a correction of
    at most _ROOT_STOP, at a zero of the polynomial, or after _ROOT_MAX_ITER
    iterations.
    """
    _, hv, c2, c3, c4, c5 = hermite(y, v, f0, h, y1, v1, f1)
    x, lo, hi = y / (y - y1), 0.0, 1.0  # the polynomial is > 0 at lo, <= 0 at hi
    for _ in range(_ROOT_MAX_ITER):
        f = y + x * (hv + x * (c2 + x * (c3 + x * (c4 + x * c5))))
        if f == 0.0:
            break
        if f > 0.0:
            lo = x
        else:
            hi = x
        slope = hv + x * (2.0 * c2 + x * (3.0 * c3 + x * (4.0 * c4 + x * (5.0 * c5))))
        x_new = x - f / slope if slope != 0.0 else math.nan
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        x, dx = x_new, x_new - x
        if abs(dx) <= _ROOT_STOP:
            break
    return x
