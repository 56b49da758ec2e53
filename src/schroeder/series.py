"""Truncated power series in one variable, used for jet manipulation.

Series are plain lists ``c`` with ``c[k]`` the coefficient of ``x**k``,
truncated at a fixed order.  Coefficients may be ``Fraction`` (exact
arithmetic, the default for normal-form work) or floats/complex.  All maps
handled here fix the origin, so ``c[0] == 0`` throughout.
"""

from fractions import Fraction
from math import comb, factorial

from .errors import InvalidInput, LengthMismatch


def truncate(c, order):
    out = list(c[: order + 1])
    out += [0] * (order + 1 - len(out))
    return out


def series_add(a, b, order):
    a = truncate(a, order)
    b = truncate(b, order)
    return [x + y for x, y in zip(a, b)]


def series_mul(a, b, order):
    a = truncate(a, order)
    b = truncate(b, order)
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(0, order + 1 - i):
            bj = b[j]
            if bj != 0:
                out[i + j] += ai * bj
    return out


def series_deriv(a, order):
    """Formal derivative, truncated to the same order."""
    a = truncate(a, order + 1)
    return [(k + 1) * a[k + 1] for k in range(order)] + [0]


def series_compose(f, g, order):
    """f(g(x)) truncated at ``order``; requires g[0] == 0."""
    g = truncate(g, order)
    if g[0] != 0:
        raise InvalidInput("inner series must fix the origin")
    f = truncate(f, order)
    # Horner on powers of g
    out = [0] * (order + 1)
    out[0] = f[order]
    for k in range(order - 1, -1, -1):
        out = series_mul(out, g, order)
        out[0] += f[k]
    return out


def series_inverse(f, order):
    """Compositional inverse of f with f[0]=0, f[1] != 0."""
    f = truncate(f, order)
    if f[0] != 0 or f[1] == 0:
        raise InvalidInput("series must fix 0 with invertible linear part")
    inv1 = Fraction(1, 1) / f[1] if isinstance(f[1], (int, Fraction)) else 1.0 / f[1]
    g = [0, inv1] + [0] * (order - 1)
    # Newton-free degree-by-degree solve of f(g(x)) = x
    for k in range(2, order + 1):
        comp = series_compose(f, g, k)
        g[k] = -comp[k] * inv1
    return g


def identity_series(order):
    return [0, 1] + [0] * (order - 1)


def lie_exponential_jets(rho, order):
    """Taylor jets of the time-1 map of the field ``rho(x) d/dx``.

    ``rho`` is a series with valuation >= 2 (coefficients of the generator).
    Returns the series of ``exp(rho d/dx)`` applied to x, truncated at
    ``order``.  Each application of the field raises the valuation by at
    least ``val(rho) - 1``, so the Lie sum is finite at fixed order.
    """
    rho = truncate(rho, order)
    val = next((k for k, c in enumerate(rho) if c != 0), None)
    if val is None:
        return identity_series(order)
    if val < 2:
        raise InvalidInput("generator must vanish to second order at 0")
    term = identity_series(order)
    total = list(term)
    k = 0
    while True:
        k += 1
        # X(term) = rho * term'
        term = series_mul(rho, series_deriv(term, order), order)
        if all(c == 0 for c in term):
            break
        fk = Fraction(1, factorial(k))
        contrib = [fk * c if isinstance(c, (int, Fraction)) else c / factorial(k)
                   for c in term]
        total = series_add(total, contrib, order)
        if 1 + k * (val - 1) > order:
            break
    return total


def bell_composition_derivatives(beta_derivs, phi_derivs, n_max):
    """Derivatives of a composition from derivative values of the factors.

    ``beta_derivs[k-1]`` holds the k-th derivative of the outer function at
    the inner value; ``phi_derivs[k-1]`` the k-th derivative of the inner
    function at the point.  Returns the list of derivatives of the
    composition for orders 1..n_max, via partial Bell polynomials:

        (beta o phi)^(n) = sum_k beta^(k) * B_{n,k}(phi', phi'', ...)

    The top term B_{n,n} = (phi')**n; the k < n terms vanish when the inner
    map flattens to a translation.
    """
    if len(beta_derivs) < n_max or len(phi_derivs) < n_max:
        raise LengthMismatch(
            f"need {n_max} derivatives, got {len(beta_derivs)} and {len(phi_derivs)}"
        )
    # bell[n][k] with 1-based n, k
    bell = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    bell[0][0] = 1
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            s = 0
            for j in range(1, n - k + 2):
                s += comb(n - 1, j - 1) * phi_derivs[j - 1] * bell[n - j][k - 1]
            bell[n][k] = s
    return [
        sum(beta_derivs[k - 1] * bell[n][k] for k in range(1, n + 1))
        for n in range(1, n_max + 1)
    ]
