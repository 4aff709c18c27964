"""Self-contained reference values and an independent period oracle.

Nothing here imports the package under test.  The frozen constants were
produced by scripts/compute_reference_values.py (40-digit arithmetic with a
float64 Richardson-Simpson cross-check) and pasted in; tests compare library
output against them instead of trusting the code being tested.
"""

import math

import mpmath
import numpy as np

# Reference configuration: l0=1, l=1.25, sigma=1, mass=1, y0=0.5.
P_REF = 9.005336275721726          # exact period, 9.00533627572172675538723387156...
RAYLEIGH_REF = 9.934588265796101   # harmonic period 2*pi/sqrt(0.4)
UPPER_REF = 9.934588265796101      # upper bound coincides with the harmonic period
LOWER_CORR_REF = 8.39625954181357  # 2*pi/sqrt(0.4 + 0.16)
LOWER_PRINTED_REF = 8.111557351947225
R_REF = -0.1031890383238243        # (P - harmonic)/P
R_BOUND_CORR_REF = -0.2            # -sigma*y0^2/(4*T*l0*l), exact in binary

# Bound gap 1 - lower_corrected/upper at y0 = 1e-4*l on the reference string,
# from the "GAP_HARMONIC_REF" line of scripts/compute_reference_values.py.
GAP_HARMONIC_REF = 1.2499999765625005e-08  # 1.2499999765625004883e-8

Z0_REF = 1.346291201783626         # sqrt(l^2 + y0^2)
ROOT_SECOND_REF = 0.653708798216374  # 2*l0 - z0
TENSION_AT_HALF = 0.346291201783626
# Tension where hypot(l, y) - l0 cancels: ((l0, l, sigma, y), tension) from
# tension_near_l0() in scripts/compute_reference_values.py.
TENSION_NEAR_L0 = [
    ((1.0, 1.000000000001, 1.0, 1e-07), 1.005088900582336e-12),  # 1.0050889005823359982165856182e-12
    ((1.0, 1.000000001, 1.0, 1e-05), 1.050000082689121e-09),  # 1.05000008268912100318747285747e-9
]
VFORCE_AT_HALF = -0.25721864729179256
ACCEL_AT_HALF_M2 = -0.12860932364589627  # same pull, mass=2
G_AT_ZERO = 0.22967038573099194    # radicand factor at y=0
ENERGY_AT_RELEASE = -2.442582403567252  # E(y=y0, v=0), -2.44258240356725201562535524577

# Strongly anharmonic cell: l0=1, l=1.05, sigma=10, mass=1, y0=2.1, its
# period at the float inputs exactly, from scripts/compute_reference_values.py.
ANHARMONIC_PARAMS = (1.0, 1.05, 10.0, 1.0, 2.1)
P_ANHARMONIC = 1.9823552080414926  # 1.98235520804149265573033280198

# Non-standard root ordering, z0 >= 2*l0 + l: ((l0, l, sigma, mass, y0), period)
# from nonstandard_periods() in scripts/compute_reference_values.py. At l0=1,
# l=1.25 the switch z0 = 2*l0 + l sits at y0 = 3 exactly; the cell one ulp
# below it is the last standard-ordering one. The last two cells are inputs
# where the former adaptive Gauss-Kronrod exact_period missed its rel_tol.
NONSTANDARD_PERIODS = [
    ((1.0, 1.25, 1.0, 1.0, 3.1), 5.534800315226235),  # 5.53480031522623534796520960551
    ((1.0, 1.25, 1.0, 1.0, 1e4), 4.443165809136588),  # 4.4431658091365887255303313086
    ((1.0, 1.25, 1.0, 1.0, 2.9999999999999996), 5.574236454384699),  # 5.57423645438469893021928419332
    ((1.0, 1.25, 1.0, 1.0, 3.0), 5.574236454384699),  # 5.57423645438469874922057842335
    ((1.0, 1.25, 1.0, 1.0, 3.0000000000000004), 5.574236454384699),  # 5.57423645438469856822187265337
    ((1.0, 1.5, 1.0, 1.0, 34.61714594547605), 4.526699427967754),  # 4.52669942796775451989718085035
    (
        (1.6193910925484976, 4.0879062620793505, 0.04425648276791501, 0.8392509334140884, 188.9102371780467),
        24.75594923591285,  # 24.7559492359128503635318692746
    ),
]
QUADRATURE_DEFECT_CELLS = NONSTANDARD_PERIODS[-2:]

# A string stretched by 1e-12 of its length: l0=1, l=1+1e-12 (the float),
# sigma=1, mass=1, y0=2e-9, from the "near-l0 cell" line of
# scripts/compute_reference_values.py. hypot(l, y) - l0 cancels here.
NEAR_L0_PARAMS = (1.0, 1.0 + 1e-12, 1.0, 1.0, 2e-9)
P_NEAR_L0 = 4442682.132172986  # 4442682.13217298589114907992585

# l0 one float above the smallest normal one, l = 1, sigma = 1, mass = 0.5,
# y0 = 0.01, from the "tiny-period cell" lines of
# scripts/compute_reference_values.py: the unit 2*sigma/(m*l0) nears the
# largest float, and the period is 4.7e-154.
TINY_PERIOD_PARAMS = (2.225073858507202e-308, 1.0, 1.0, 0.5, 0.01)
P_TINY = 4.68621368982162e-154  # 4.68621368982161978231750632081e-154


def random_cells(seed, n, y0_over_l):
    """n cells (l0, l, sigma, mass, y0), log-uniform over l0 in 0.1..10, the
    stretch l/l0 - 1 in 1e-6..1e3, sigma and mass each in 1e-3..1e3 and
    y0/l in the range y0_over_l: the draws of the ODE's error-estimate
    tests and of scripts/ode_coverage.py, the first n of a seed alike."""
    rng = np.random.default_rng(seed)
    lo, hi = (math.log(b) for b in y0_over_l)
    cells = []
    for _ in range(n):
        l0 = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        l = l0 * (1.0 + math.exp(rng.uniform(math.log(1e-6), math.log(1e3))))
        sigma, mass = (float(x) for x in np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 2)))
        cells.append((l0, l, sigma, mass, l * math.exp(rng.uniform(lo, hi))))
    return cells


def g_plain(l0, l, y, y0):
    """Textbook form of the period-integrand factor, no cancellation care."""
    return 1.0 / l0 - 2.0 / (math.sqrt(l * l + y * y) + math.sqrt(l * l + y0 * y0))


def period_simpson_raw(l0, l, sigma, mass, y0, panels):
    """Composite Simpson for the period after the sine substitution.

    The integrand is analytic on the closed interval, so this converges
    far faster than the nominal fourth order; it exists purely as an
    implementation-independent check.
    """
    if panels % 2:
        raise ValueError("panels must be even")
    half_pi = 0.5 * math.pi
    h = half_pi / panels

    def f(theta):
        return 1.0 / math.sqrt(g_plain(l0, l, y0 * math.sin(theta), y0))

    acc = f(0.0) + f(half_pi)
    acc += 4.0 * math.fsum(f(h * k) for k in range(1, panels, 2))
    acc += 2.0 * math.fsum(f(h * k) for k in range(2, panels, 2))
    integral = acc * h / 3.0
    return 4.0 * math.sqrt(mass / (2.0 * sigma)) * integral


def period_simpson(l0, l, sigma, mass, y0, panels=4096):
    """One Richardson step on top of the raw Simpson value."""
    coarse = period_simpson_raw(l0, l, sigma, mass, y0, panels // 2)
    fine = period_simpson_raw(l0, l, sigma, mass, y0, panels)
    return fine + (fine - coarse) / 15.0


def rayleigh_plain(l0, l, sigma, mass):
    tension = sigma * (l - l0) / l0
    return 2.0 * math.pi / math.sqrt(2.0 * tension / (mass * l))


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def period_mp(l0, l, sigma, mass, y0):
    """4*sqrt(m/(2*sigma*g(0))) * int_0^{pi/2} sqrt(g(0)/g(y0*sin(theta))) dtheta,
    at 40 digits from the floats' exact values. The integrand lies in
    (0, 1] at every scale, so mpmath.quad's absolute stop test is a relative
    one; on 1/sqrt(g) itself it stopped early where the period is tiny."""
    with mpmath.workdps(40):
        l0, l, sigma, mass, y0 = map(mpmath.mpf, (l0, l, sigma, mass, y0))
        z0 = mpmath.sqrt(l * l + y0 * y0)

        def g(y):
            return 1 / l0 - 2 / (mpmath.sqrt(l * l + y * y) + z0)

        g0 = g(0)
        integral = mpmath.quad(lambda theta: mpmath.sqrt(g0 / g(y0 * mpmath.sin(theta))),
                               [0, mpmath.pi / 2])
        return float(4 * mpmath.sqrt(mass / (2 * sigma * g0)) * integral)
