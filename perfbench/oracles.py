"""Independent reference values for the benchmark's correctness checks.

None of these reuse chart code from the package: each is a closed form
(or, for the flat generator, the Ei primitive evaluated here at a
precision this module picks itself), so a fast path that drifts is
caught by a formula it does not share.
"""

import math

import mpmath

ABEL_TOL = 1e-9        # Abel-equation and group-law checks
RESIDUAL_TOL = 1e-8    # eigen-equation residuals


def poly_primitive(n, a, x):
    """Primitive of 1/(x**n + a x**(2n-1)) by partial fractions."""
    return (x ** (1 - n) / (1 - n) - a * math.log(x)
            + (a / (n - 1)) * math.log1p(a * x ** (n - 1)))


def poly_abel_time(n, a, x0, x):
    return poly_primitive(n, a, x) - poly_primitive(n, a, x0)


def quadratic_flow(t, x):
    """Time-t flow of x**2 d/dx."""
    return x / (1.0 - t * x)


def koenigs_flow_2x_plus_x2(t, x):
    """Time-t flow sigma^-1(2**t sigma(x)) of 2x + x**2 = (1 + x)**2 - 1,
    whose linearizing (Koenigs) coordinate is sigma = log1p."""
    return math.expm1(2.0 ** t * math.log1p(x))


def flat_abel_residual(x, y, t):
    """|F(y) - F(x) - t| for F(u) = u e**(1/u) - Ei(1/u), the flat primitive.

    F(u) grows like u**2 e**(1/u), so the difference needs about
    0.4343/u digits before the unit-size time t is visible; 30 more keep
    the result good to far below the Abel tolerance.
    """
    lo = min(float(x), float(y))
    dps = 30 + int(0.4343 / lo)
    with mpmath.workdps(dps):
        def prim(u):
            u = mpmath.mpf(u)
            return u * mpmath.exp(1 / u) - mpmath.ei(1 / u)
        return abs(prim(y) - prim(x) - t)


def rel_close(value, reference, tol, floor=1.0):
    return abs(value - reference) <= tol * max(floor, abs(reference))
