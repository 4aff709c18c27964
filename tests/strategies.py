"""Hypothesis strategies shared across the property tests."""

import math

from hypothesis import strategies as st

from ssp import Oscillation, StringParams


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def string_params(draw):
    l0 = draw(log_uniform(0.5, 2.0))
    stretch = draw(log_uniform(1.01, 10.0))
    mass = draw(log_uniform(0.5, 2.0))
    sigma_over_mass = draw(log_uniform(1e-2, 1e2))
    return StringParams(l0=l0, l=l0 * stretch, sigma=sigma_over_mass * mass, mass=mass)


@st.composite
def oscillations(draw, rel_amp_lo=1e-4, rel_amp_hi=3.0):
    params = draw(string_params())
    rel_amp = draw(log_uniform(rel_amp_lo, rel_amp_hi))
    return Oscillation(params, rel_amp * params.l)


positive_scale = log_uniform(1e-2, 1e2)
