"""Self-contained reference values and an independent period oracle.

Nothing here imports the package under test.  The frozen constants were
produced by scripts/compute_reference_values.py (40-digit arithmetic with a
float64 Richardson-Simpson cross-check) and pasted in; tests compare library
output against them instead of trusting the code being tested.
"""

import math

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
VFORCE_AT_HALF = -0.25721864729179256
ACCEL_AT_HALF_M2 = -0.12860932364589627  # same pull, mass=2
G_AT_ZERO = 0.22967038573099194    # radicand factor at y=0
SPEED_AT_ZERO = 0.3388734171715096
ENERGY_AT_REST = -2.5              # E(y=0, v=0), exact in binary

# Strongly anharmonic cell: l0=1, l=1.05, sigma=10, mass=1, y0=2.1.
ANHARMONIC_PARAMS = (1.0, 1.05, 10.0, 1.0, 2.1)
P_ANHARMONIC = 1.9823552080414928

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
