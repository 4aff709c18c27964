#!/usr/bin/env python3
"""Sweep the oscillation amplitude and compare every period engine.

Prints a table of the exact period (quadrature and closed form), the
simulated period, the a-priori bracket, and the relative deviation from the
harmonic approximation, then fits the small-amplitude scaling of that
deviation.

Run:  python3 scripts/period_vs_amplitude.py [--points N]
"""

import argparse

import numpy as np

from ssp import (
    Oscillation,
    SimConfig,
    StringParams,
    compute_bounds,
    exact_period,
    measure_period,
    period_elliptic,
    simulate,
)
from ssp.bounds import upper_bound


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=9)
    ap.add_argument("--l0", type=float, default=1.0)
    ap.add_argument("--l", type=float, default=1.25)
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("--mass", type=float, default=1.0)
    args = ap.parse_args()

    params = StringParams(l0=args.l0, l=args.l, sigma=args.sigma, mass=args.mass)
    harmonic = upper_bound(params)
    rel_amps = np.geomspace(0.01, 2.0, args.points)
    sim_cfg = SimConfig(rel_tol=1e-10, n_periods=4)

    print(f"harmonic period: {harmonic:.10g}")
    print(f"{'y0/l':>8s} {'P (quad)':>14s} {'P (closed)':>14s} {'P (sim)':>14s} "
          f"{'lower':>12s} {'upper':>12s} {'R':>12s}")
    devs = []
    for rel in rel_amps:
        osc = Oscillation(params, rel * params.l)
        q = exact_period(osc).value
        e = period_elliptic(osc).value
        s = measure_period(simulate(osc, sim_cfg)).value
        b = compute_bounds(osc)
        r = (q - harmonic) / q
        devs.append(abs(r))
        print(f"{rel:8.4f} {q:14.10g} {e:14.10g} {s:14.10g} "
              f"{b.lower_corrected:12.8g} {b.upper:12.8g} {r:12.5g}")

    small = rel_amps < 0.25
    if small.sum() >= 3:
        slope = np.polyfit(np.log(rel_amps[small]), np.log(np.array(devs)[small]), 1)[0]
        print(f"small-amplitude |R| slope: {slope:.4f} (quadratic law -> 2)")


if __name__ == "__main__":
    main()
