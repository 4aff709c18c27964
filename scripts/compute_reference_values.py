#!/usr/bin/env python3
"""Regenerate the high-precision reference values frozen into the test suite.

Everything here is computed independently of the package: mpmath arbitrary
precision for closed forms, and a Richardson-extrapolated composite Simpson
rule (float64, exact summation via math.fsum) for the period integral. The
Simpson value is the quadrature oracle proper; mpmath confirms its digits.

Run:  python3 scripts/compute_reference_values.py
"""

import math

import mpmath as mp

mp.mp.dps = 40

# reference instance used throughout the tests
L0 = mp.mpf(1)
L = mp.mpf("1.25")
SIGMA = mp.mpf(1)
MASS = mp.mpf(1)
Y0 = mp.mpf("0.5")


def z_of(y, l=L):
    return mp.sqrt(l * l + y * y)


def radicand_g(y, y0=Y0, l0=L0, l=L):
    return 1 / l0 - 2 / (z_of(y, l) + z_of(y0, l))


def rest_tension(l0=L0, l=L, sigma=SIGMA):
    return sigma * (l - l0) / l0


def rayleigh_period(l0=L0, l=L, sigma=SIGMA, mass=MASS):
    return 2 * mp.pi / mp.sqrt(2 * rest_tension(l0, l, sigma) / (mass * l))


def period_theta_mp(y0=Y0, l0=L0, l=L, sigma=SIGMA, mass=MASS):
    """Period by mpmath quadrature on the smooth sin-substituted integrand."""
    f = lambda th: 1 / mp.sqrt(radicand_g(y0 * mp.sin(th), y0, l0, l))
    return 4 * mp.sqrt(mass / (2 * sigma)) * mp.quad(f, [0, mp.pi / 2])


def period_zspace_mp(scale, y0=Y0, l0=L0, l=L, sigma=SIGMA, mass=MASS):
    """Period via the stretched coordinate z = sqrt(l^2 + y^2).

    Radicand is scale*(z^2-l^2)*(z0-z)*(z+z0-2*l0); the smooth substitution
    z = l + (z0-l)*sin(phi)^2 removes both square-root endpoint zeros.
    `scale` lets us discriminate the 1/l0 normalization from 1/(2*l0).
    """
    z0 = z_of(y0, l)

    def f(phi):
        s = mp.sin(phi)
        zz = l + (z0 - l) * s * s
        return 2 * zz / mp.sqrt(scale * (zz + l) * (zz + z0 - 2 * l0))

    return 4 * mp.sqrt(mass / (2 * sigma)) * mp.quad(f, [0, mp.pi / 2])


def period_legendre_mp(y0=Y0, l0=L0, l=L, sigma=SIGMA, mass=MASS):
    """Period via complete elliptic integrals K and Pi.

    Quartic roots in descending order a > b > c > d:
        a = z0, b = l, {c, d} = {2*l0 - z0, -l} sorted
    integral over [b, a], radicand (1/l0)*(z-d)(z-c)(z-b)(a-z):
        g*( d*K(k) + (a-d)*Pi(n, k) ),  g = 2/sqrt((a-c)(b-d)),
        k^2 = (a-b)(c-d)/((a-c)(b-d)),  n = -(a-b)/(b-d).
    """
    z0 = z_of(y0, l)
    c, d = sorted((2 * l0 - z0, -l), reverse=True)
    a, b = z0, l
    k2 = (a - b) * (c - d) / ((a - c) * (b - d))
    n = -(a - b) / (b - d)
    g = 2 / mp.sqrt((a - c) * (b - d))
    bracket = d * mp.ellipk(k2) + (a - d) * mp.ellippi(n, k2)
    return 4 * mp.sqrt(mass * l0 / (2 * sigma)) * g * bracket


def period_simpson_f64(y0, l0, l, sigma, mass, panels=2**20):
    """float64 composite Simpson on the sin-substituted form + Richardson."""
    y0, l0, l, sigma, mass = map(float, (y0, l0, l, sigma, mass))
    z0 = math.hypot(l, y0)

    def f(th):
        y = y0 * math.sin(th)
        return 1.0 / math.sqrt(1.0 / l0 - 2.0 / (math.hypot(l, y) + z0))

    def simpson(n):
        h = (math.pi / 2) / n
        terms = [f(0.0), f(math.pi / 2)]
        terms += [4.0 * f(i * h) for i in range(1, n, 2)]
        terms += [2.0 * f(i * h) for i in range(2, n, 2)]
        return math.fsum(terms) * h / 3.0

    coarse, fine = simpson(panels // 2), simpson(panels)
    integral = fine + (fine - coarse) / 15.0
    return 4.0 * math.sqrt(mass / (2.0 * sigma)) * integral


# Cells with z0 >= 2*l0 + l, where the root 2*l0 - z0 drops below -l, plus
# the switch itself (z0 = 2*l0 + l at l0=1, l=1.25, y0=3) and one ulp either
# side. The last two are inputs where the former adaptive Gauss-Kronrod
# quadrature missed its rel_tol; they pin both engines against the oracle.
NONSTANDARD_CELLS = [
    (1.0, 1.25, 1.0, 1.0, 3.1),
    (1.0, 1.25, 1.0, 1.0, 1e4),
    (1.0, 1.25, 1.0, 1.0, math.nextafter(3.0, 0.0)),
    (1.0, 1.25, 1.0, 1.0, 3.0),
    (1.0, 1.25, 1.0, 1.0, math.nextafter(3.0, math.inf)),
    (1.0, 1.5, 1.0, 1.0, 34.61714594547605),
    (
        1.6193910925484976,
        4.0879062620793505,
        0.04425648276791501,
        0.8392509334140884,
        188.9102371780467,
    ),
]


def nonstandard_periods():
    """40-digit periods on NONSTANDARD_CELLS: theta-form quadrature, checked
    against the Legendre reduction with the lower roots sorted."""
    rows = []
    for cell in NONSTANDARD_CELLS:
        l0, l, sigma, mass, y0 = (mp.mpf(v) for v in cell)  # exact binary inputs
        kw = dict(l0=l0, l=l, sigma=sigma, mass=mass)
        pt = period_theta_mp(y0=y0, **kw)
        pl = period_legendre_mp(y0=y0, **kw)
        rows.append((cell, pt, abs(pl - pt) / pt))
    return rows


def show(name, value, digits=20):
    print(f"{name:<28s} {mp.nstr(mp.mpf(value), digits)}")


def main():
    z0 = z_of(Y0)
    tension_half = SIGMA * (z_of(mp.mpf("0.5")) - L0) / L0
    y = mp.mpf("0.5")
    vforce_half = -2 * SIGMA * ((z_of(y) - L0) / L0) * (y / z_of(y))
    t_rest = rest_tension()

    print("== direct closed forms (mpmath, 40 dps) ==")
    show("z0 = sqrt(l^2+y0^2)", z0)
    show("tension(y=0.5)", tension_half)
    show("vertical_force(y=0.5)", vforce_half)
    show("acceleration(y=0.5, m=2)", vforce_half / 2)
    show("rest tension T", t_rest)
    show("energy(0,0)", 2 * SIGMA / MASS * (0 - z_of(mp.mpf(0))))
    show("rayleigh period", rayleigh_period())
    show("g(0)", radicand_g(mp.mpf(0)))
    show("speed(0)", mp.sqrt(2 * SIGMA / MASS * Y0 * Y0 * radicand_g(mp.mpf(0))))

    print("\n== quartic data at the reference instance ==")
    for r in sorted([-L, 2 * L0 - z0, L, z0]):
        show("root", r)
    show("root sum (= 2*l0)", -L + (2 * L0 - z0) + L + z0)

    print("\n== period, three independent routes ==")
    p_theta = period_theta_mp()
    p_z_1 = period_zspace_mp(1 / L0)
    p_z_half = period_zspace_mp(1 / (2 * L0))
    p_leg = period_legendre_mp()
    show("theta-form quadrature", p_theta)
    show("z-form, 1/l0 scale", p_z_1)
    show("z-form, 1/(2 l0) scale", p_z_half)
    show("Legendre K/Pi reduction", p_leg)
    show("1/(2 l0) vs theta ratio", p_z_half / p_theta)

    p_simpson = period_simpson_f64(Y0, L0, L, SIGMA, MASS)
    print(f"{'Simpson+Richardson (f64)':<28s} {p_simpson!r}")
    show("Simpson vs mpmath rel", abs(p_simpson - p_theta) / p_theta)

    print("\n== bounds at the reference instance ==")
    a_lin = 2 * t_rest / (MASS * L)
    upper = 2 * mp.pi / mp.sqrt(a_lin)
    lower_c = 2 * mp.pi / mp.sqrt(a_lin + SIGMA * Y0**2 / (MASS * L0 * L * L))
    lower_p = 2 * mp.pi / mp.sqrt(a_lin + SIGMA * Y0**2 / (L * L0))
    show("upper (= rayleigh)", upper)
    show("lower corrected", lower_c)
    show("lower as-printed variant", lower_p)
    show("R = (P - upper)/P", (p_theta - upper) / p_theta)
    show("R lower bound", -SIGMA * Y0**2 / (4 * t_rest * L0 * L))

    print("\n== small-amplitude behaviour ==")
    for frac in ("1e-3", "1e-4", "1e-8"):
        y0s = mp.mpf(frac) * L
        ps = period_theta_mp(y0=y0s)
        show(f"P(y0={frac}*l) rel dev", abs(ps - upper) / upper)
    y0s = mp.mpf("1e-4") * L
    lower_s = 2 * mp.pi / mp.sqrt(a_lin + SIGMA * y0s**2 / (MASS * L0 * L * L))
    show("GAP_HARMONIC_REF", 1 - lower_s / upper)  # 1 - lower/upper @1e-4*l
    y0s = mp.mpf("1e-4") * L0
    lower_s = 2 * mp.pi / mp.sqrt(a_lin + SIGMA * y0s**2 / (MASS * L0 * L * L))
    show("1 - lower/upper @1e-4*l0", 1 - lower_s / upper)

    print("\n== cross-check on an anharmonic cell (l/l0=1.05, y0/l=2, sigma/m=10) ==")
    kw = dict(l0=mp.mpf(1), l=mp.mpf("1.05"), sigma=mp.mpf(10), mass=mp.mpf(1))
    y0c = 2 * kw["l"]
    pt = period_theta_mp(y0=y0c, **kw)
    pl = period_legendre_mp(y0=y0c, **kw)
    ps = period_simpson_f64(y0c, kw["l0"], kw["l"], kw["sigma"], kw["mass"])
    show("theta-form", pt)
    show("Legendre reduction", pl)
    print(f"{'Simpson (f64)':<28s} {ps!r}")
    show("legendre rel dev", abs(pl - pt) / pt)

    print("\n== non-standard root ordering (oracle.NONSTANDARD_PERIODS) ==")
    for cell, p, dev in nonstandard_periods():
        print(f"    ({cell!r}, {float(p)!r}),  # {mp.nstr(p, 30)}, legendre rel dev {mp.nstr(dev, 3)}")


if __name__ == "__main__":
    main()
