"""Hairer's Dormand-Prince 8(5,3) pair in Nystrom form for y'' = a(y).

The pair is the code DOP853 of Hairer, Norsett & Wanner, Solving ODEs I,
II.10. y' = v, so the stage velocities are v + h*sum_j a_ij k_j, the stage
displacements are y + h*(c_i*v + h*sum_k (A^2)_ik k_k), and the weights of
k_k in the y update and in its error estimates are b*A, e5*A and e3*A (e5
and e3 sum to 0, so v drops out of the errors). The stage velocities are
never formed: `step` works on the force values k alone.

The code's continuous extension of v over an accepted step weighs the
step's forces, the force at its end and three more stages (three force
values); `_extension` expands it once into v + c1*x + ... + c7*x**7 in the
step fraction x. `velocity_root` finds its root, a turning point, and
`position_root` that of its antiderivative, the displacement over the
step, a zero crossing of y; both read the c's by Horner's rule in one
bracketed Newton iteration (`_root`).
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
    0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
    0.777777777777777777777777777778,
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
    # stage 12 is the step end, whose force is the next step's k0 (FSAL);
    # stages 13 to 15 serve the continuous extension alone
    _B_ROW,
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
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
# the continuous extension's coefficients of degree 3 to 6, row j giving
# the weights of the stage forces in F_{3+j}
_D_ROWS = (
    {0: -0.84289382761090128651353491142e1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e1, 7: 0.23846676565120698287728149680e1,
     8: 0.21170345824450282767155149946e1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e2,
     14: -0.91946323924783554000451984436e1, 15: -0.44360363875948939664310572000e1},
    {0: 0.10427508642579134603413151009e2, 5: 0.24228349177525818288430175319e3,
     6: 0.16520045171727028198505394887e3, 7: -0.37454675472269020279518312152e3,
     8: -0.22113666853125306036270938578e2, 9: 0.77334326684722638389603898808e1,
     10: -0.30674084731089398182061213626e2, 11: -0.93321305264302278729567221706e1,
     12: 0.15697238121770843886131091075e2, 13: -0.31139403219565177677282850411e2,
     14: -0.93529243588444783865713862664e1, 15: 0.35816841486394083752465898540e2},
    {0: 0.19985053242002433820987653617e2, 5: -0.38703730874935176555105901742e3,
     6: -0.18917813819516756882830838328e3, 7: 0.52780815920542364900561016686e3,
     8: -0.11573902539959630126141871134e2, 9: 0.68812326946963000169666922661e1,
     10: -0.10006050966910838403183860980e1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e1, 13: -0.60196695231264120758267380846e2,
     14: 0.84320405506677161018159903784e2, 15: 0.11992291136182789328035130030e2},
    {0: -0.25693933462703749003312586129e2, 5: -0.15418974869023643374053993627e3,
     6: -0.23152937917604549567536039109e3, 7: 0.35763911791061412378285349910e3,
     8: 0.93405324183624310003907691704e2, 9: -0.37458323136451633156875139351e2,
     10: 0.10409964950896230045147246184e3, 11: 0.29840293426660503123344363579e2,
     12: -0.43533456590011143754432175058e2, 13: 0.96324553959188282948394950600e2,
     14: -0.39177261675615439165231486172e2, 15: -0.14972683625798562581422125276e3},
)


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
# bound to _ are 0. The continuous extension reads _Pi_k for stages 13 to
# 15 and its own weights _Dn_j in the same way.
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
_C13, _C14, _C15 = _C[13:]
_P13_0, _, _, _P13_3, _P13_4, _P13_5, _P13_6, _P13_7, _P13_8, _P13_9, _P13_10, _P13_11 = _A2[13]
(_P14_0, _, _, _P14_3, _P14_4, _P14_5, _P14_6, _P14_7, _P14_8, _P14_9, _P14_10, _P14_11,
 _P14_12) = _A2[14]
(_P15_0, _, _, _P15_3, _P15_4, _P15_5, _P15_6, _P15_7, _P15_8, _P15_9, _P15_10, _P15_11,
 _P15_12, _P15_13) = _A2[15]
# _Dn_j: the weight of k_j in the extension's coefficient Fn
(_D3_0, _, _, _, _, _D3_5, _D3_6, _D3_7, _D3_8, _D3_9, _D3_10, _D3_11, _D3_12, _D3_13,
 _D3_14, _D3_15) = _dense(_D_ROWS[0])
(_D4_0, _, _, _, _, _D4_5, _D4_6, _D4_7, _D4_8, _D4_9, _D4_10, _D4_11, _D4_12, _D4_13,
 _D4_14, _D4_15) = _dense(_D_ROWS[1])
(_D5_0, _, _, _, _, _D5_5, _D5_6, _D5_7, _D5_8, _D5_9, _D5_10, _D5_11, _D5_12, _D5_13,
 _D5_14, _D5_15) = _dense(_D_ROWS[2])
(_D6_0, _, _, _, _, _D6_5, _D6_6, _D6_7, _D6_8, _D6_9, _D6_10, _D6_11, _D6_12, _D6_13,
 _D6_14, _D6_15) = _dense(_D_ROWS[3])


def step(
    accel: Callable[[float], float], y: float, v: float, k0: float, h: float
) -> tuple[float, float, float, float, float, float, tuple[float, ...]]:
    """One step of width h from (y, v), where k0 = accel(y).

    Returns the eighth-order (y, v) at the step end, then the fifth- and
    third-order error estimates (err5_y, err5_v, err3_y, err3_v), then the
    stage forces (k0, ..., k11) for the continuous extension.
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
    return (
        y + h * (v + h * q_y), v + h * q_v, hh * q5_y, h * q5_v, hh * q3_y, h * q3_v,
        (k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11),
    )


# a correction of at most 4 ulps of 1 leaves x as exact as the rounding of
# the extension allows; Newton from the secant root stops after 2 or 3
# iterations on the benchmark's pools, and never needs to bisect there
_ROOT_STOP = 2.0**-50
_ROOT_MAX_ITER = 20


def _extension(
    accel: Callable[[float], float],
    y: float,
    v: float,
    h: float,
    v1: float,
    ks: tuple[float, ...],
    k12: float,
) -> tuple[float, ...]:
    """The coefficients c1..c7 of the continuous extension of v over the
    step of width h from (y, v) to velocity v1: v(x) = v + c1*x + ... +
    c7*x**7 at the step fraction x. ks are the step's stage forces and k12
    the force at the step end; stages 13 to 15 cost three force values.

    The c's expand the code's own form, of seventh order in h,
    v + x*(F0 + w*(F1 + x*(F2 + w*(F3 + x*(F4 + w*(F5 + x*F6)))))), w = 1 - x,
    where F0 = d = v1 - v, F1 = h*k0 - d, F2 = 2*d - h*(k12 + k0) and
    F3..F6 = h * D.(k0..k15) (Hairer, Norsett & Wanner, Solving ODEs I,
    II.6, and contd8 in dop853.f).
    """
    k0, _, _, k3, k4, k5, k6, k7, k8, k9, k10, k11 = ks
    q = (
        _P13_0 * k0 + _P13_3 * k3 + _P13_4 * k4 + _P13_5 * k5 + _P13_6 * k6 + _P13_7 * k7
        + _P13_8 * k8 + _P13_9 * k9 + _P13_10 * k10 + _P13_11 * k11
    )
    k13 = accel(y + h * (_C13 * v + h * q))
    q = (
        _P14_0 * k0 + _P14_3 * k3 + _P14_4 * k4 + _P14_5 * k5 + _P14_6 * k6 + _P14_7 * k7
        + _P14_8 * k8 + _P14_9 * k9 + _P14_10 * k10 + _P14_11 * k11 + _P14_12 * k12
    )
    k14 = accel(y + h * (_C14 * v + h * q))
    q = (
        _P15_0 * k0 + _P15_3 * k3 + _P15_4 * k4 + _P15_5 * k5 + _P15_6 * k6 + _P15_7 * k7
        + _P15_8 * k8 + _P15_9 * k9 + _P15_10 * k10 + _P15_11 * k11 + _P15_12 * k12
        + _P15_13 * k13
    )
    k15 = accel(y + h * (_C15 * v + h * q))
    d = v1 - v
    f1 = h * k0 - d
    f2 = 2.0 * d - h * (k12 + k0)
    f3 = h * (
        _D3_0 * k0 + _D3_5 * k5 + _D3_6 * k6 + _D3_7 * k7 + _D3_8 * k8 + _D3_9 * k9
        + _D3_10 * k10 + _D3_11 * k11 + _D3_12 * k12 + _D3_13 * k13 + _D3_14 * k14
        + _D3_15 * k15
    )
    f4 = h * (
        _D4_0 * k0 + _D4_5 * k5 + _D4_6 * k6 + _D4_7 * k7 + _D4_8 * k8 + _D4_9 * k9
        + _D4_10 * k10 + _D4_11 * k11 + _D4_12 * k12 + _D4_13 * k13 + _D4_14 * k14
        + _D4_15 * k15
    )
    f5 = h * (
        _D5_0 * k0 + _D5_5 * k5 + _D5_6 * k6 + _D5_7 * k7 + _D5_8 * k8 + _D5_9 * k9
        + _D5_10 * k10 + _D5_11 * k11 + _D5_12 * k12 + _D5_13 * k13 + _D5_14 * k14
        + _D5_15 * k15
    )
    f6 = h * (
        _D6_0 * k0 + _D6_5 * k5 + _D6_6 * k6 + _D6_7 * k7 + _D6_8 * k8 + _D6_9 * k9
        + _D6_10 * k10 + _D6_11 * k11 + _D6_12 * k12 + _D6_13 * k13 + _D6_14 * k14
        + _D6_15 * k15
    )
    return (
        d + f1, f2 + f3 - f1, f4 + f5 - f2 - 2.0 * f3, f3 + f6 - 2.0 * f4 - 3.0 * f5,
        f4 + 3.0 * f5 - 3.0 * f6, 3.0 * f6 - f5, -f6,
    )


def _root(at: Callable[[float], tuple[float, float]], negative_at_0: bool, x: float) -> float:
    """The fraction x in [0, 1] at which f is 0, where at(x) = (f(x), f'(x)),
    f(0) < 0 exactly where negative_at_0, and f(1) has the other sign.

    Newton starts from x; a Newton step that leaves the bracket bisects it
    instead, and the iteration stops at a correction of at most _ROOT_STOP,
    at a zero of f, or after _ROOT_MAX_ITER iterations.
    """
    lo, hi = 0.0, 1.0  # f(lo) has the sign of f(0), f(hi) that of f(1)
    for _ in range(_ROOT_MAX_ITER):
        f, slope = at(x)
        if f == 0.0:
            break
        if (f < 0.0) == negative_at_0:
            lo = x
        else:
            hi = x
        x_new = x - f / slope if slope != 0.0 else math.nan
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        x, dx = x_new, x_new - x
        if abs(dx) <= _ROOT_STOP:
            break
    return x


def velocity_root(
    accel: Callable[[float], float],
    y: float,
    v: float,
    h: float,
    v1: float,
    ks: tuple[float, ...],
    k12: float,
) -> float:
    """The fraction x of the step at which the continuous extension of v
    (see _extension, same arguments) is 0, where v and v1 have opposite
    signs. v(0) = v and v(1) = v1 bracket the root, and Newton starts from
    the secant root (see _root).
    """
    c1, c2, c3, c4, c5, c6, c7 = _extension(accel, y, v, h, v1, ks, k12)
    d2, d3, d4, d5, d6, d7 = 2.0 * c2, 3.0 * c3, 4.0 * c4, 5.0 * c5, 6.0 * c6, 7.0 * c7

    def at(x: float) -> tuple[float, float]:
        f = v + x * (c1 + x * (c2 + x * (c3 + x * (c4 + x * (c5 + x * (c6 + x * c7))))))
        return f, c1 + x * (d2 + x * (d3 + x * (d4 + x * (d5 + x * (d6 + x * d7)))))

    return _root(at, v < 0.0, v / (v - v1))


def position_root(
    accel: Callable[[float], float],
    y: float,
    v: float,
    h: float,
    y1: float,
    v1: float,
    ks: tuple[float, ...],
    k12: float,
) -> float:
    """The fraction x of the step at which y is 0 on the antiderivative of
    the continuous extension of v, where y and y1 have opposite signs; the
    other arguments are _extension's.

    The displacement over the step is y(x) = y + h*x*(v + c1*x/2 + ... +
    c7*x**7/8), of degree 8, with slope h*v(x) in x. y(0) = y and y(1),
    within the extension's error of y1, bracket the root, and Newton starts
    from the secant root (see _root).
    """
    c1, c2, c3, c4, c5, c6, c7 = _extension(accel, y, v, h, v1, ks, k12)
    b1, b2, b3, b4, b5, b6, b7 = c1 / 2, c2 / 3, c3 / 4, c4 / 5, c5 / 6, c6 / 7, c7 / 8

    def at(x: float) -> tuple[float, float]:
        s = v + x * (b1 + x * (b2 + x * (b3 + x * (b4 + x * (b5 + x * (b6 + x * b7))))))
        d = v + x * (c1 + x * (c2 + x * (c3 + x * (c4 + x * (c5 + x * (c6 + x * c7))))))
        return y + h * (x * s), h * d

    return _root(at, y < 0.0, y / (y - y1))
