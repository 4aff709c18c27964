"""The closed forms against the large-amplitude bracket, engine-free.

For y0 > 2*l0, z + z0 > y0 on [0, y0], so (1 - 2*l0/y0)/l0 < g(y) <= 1/l0
and P_inf <= P(y0) < P_inf/sqrt(1 - 2*l0/y0), P_inf = pi*sqrt(2*m*l0/sigma).
Above y0 = 2**60*l both engines evaluate the period at y0 = 2**60*l.
"""

import math

from hypothesis import assume, given
from hypothesis import strategies as st

from ssp import (
    InvalidParameters,
    Oscillation,
    StringParams,
    exact_period,
    period_elliptic,
)

ENGINES = (exact_period, period_elliptic)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


@st.composite
def large_amplitudes(draw, rel_amp_lo=0.0):
    # every length and sigma/m scale, l/l0 from 1 + 1e-9 to 1e6, and y0/l
    # from just above 2*l0/l, or from rel_amp_lo, to 1e300
    l0 = draw(_log_uniform(1e-300, 1e300))
    l = l0 * (1.0 + draw(_log_uniform(1e-9, 1e6)))
    sigma, mass = draw(_log_uniform(1e-300, 1e300)), draw(_log_uniform(1e-300, 1e300))
    y0 = l * draw(_log_uniform(max(rel_amp_lo, 2.0000001 * l0 / l), 1e300))
    assume(l < math.inf and y0 < math.inf)
    try:
        p = StringParams(l0, l, sigma, mass)
    except InvalidParameters:
        # the linear-limit period is beyond the float range, or P_inf is
        # below the normal floats
        assume(False)
    return Oscillation(p, y0)


@given(large_amplitudes())
def test_closed_forms_lie_in_the_large_amplitude_bracket(osc):
    # on the unit values (model.StringParams), where sigma/m lies in
    # [0.25, 4], so the bracket itself cannot overflow
    p = osc.params
    l0, y0 = p._unit_l0, osc._unit_y0
    assume(y0 > 2.0 * l0)
    p_inf = math.pi * math.sqrt(2.0 * p._unit_mass * l0 / p._unit_sigma)
    upper = p_inf / math.sqrt(1.0 - 2.0 * l0 / y0)
    for engine in ENGINES:
        est = engine(osc)
        value = math.ldexp(est.value, -p._period_exp)
        err = math.ldexp(est.err_estimate, -p._period_exp)
        assert p_inf - err <= value <= upper + err, engine.__name__


@given(large_amplitudes(rel_amp_lo=2.0**60))
def test_closed_forms_above_the_cap_are_their_value_at_it(osc):
    p = osc.params
    assume(osc.y0 > 2.0**60 * p.l)
    at_cap = Oscillation(p, 2.0**60 * p.l)
    for engine in ENGINES:
        assert engine(osc) == engine(at_cap), engine.__name__
