"""Expanding diffeomorphisms of the half line [0, oo) and their jets.

Every map here fixes 0, is strictly increasing, and satisfies
``phi(x) > x`` for ``x > 0`` on its certified domain.  Maps are immutable
value objects; evaluation, inversion and iteration are pure functions.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import series
from .errors import (
    DomainExceeded,
    InsufficientJets,
    NoBracket,
    NotExpanding,
)
from .flow import AbelChart, VectorFieldGen, smoothstep

_EXPANSION_SLACK = 1e-12


# --------------------------------------------------------------------------
# jets and case classification

@dataclass(frozen=True)
class JetData:
    """Taylor coefficients of a half-line map at 0 (degree 0 first).

    ``coefficients[k]`` is the coefficient of x**k; the constant term is 0.
    ``flat`` records the constructor's declaration that the map is
    infinitely tangent to the identity: finite jets alone cannot certify
    that, so it is carried as metadata and only checked for consistency.
    Jets of expanding maps must have linear part >= 1; conjugacy jets
    (``expanding=False``) only need an invertible positive linear part.
    """

    coefficients: tuple
    flat: bool = False
    expanding: bool = True

    def __post_init__(self):
        if len(self.coefficients) < 2:
            raise InsufficientJets("need at least the 1-jet")
        if self.coefficients[0] != 0:
            raise ValueError("constant term must vanish (phi(0)=0)")
        if self.expanding and self.coefficients[1] < 1 - _EXPANSION_SLACK:
            raise NotExpanding("linear coefficient below 1")
        if not self.coefficients[1] > 0:
            raise ValueError("linear coefficient must be positive")
        if self.flat:
            for k, c in enumerate(self.coefficients):
                if (k != 1 and c != 0) or (k == 1 and c != 1):
                    raise ValueError("flat jets must match the identity")

    @property
    def order(self):
        return len(self.coefficients) - 1


@dataclass(frozen=True)
class Case1:
    mu: float


@dataclass(frozen=True)
class Case2:
    n: int


@dataclass(frozen=True)
class Case3:
    pass


def classify_case(jets: JetData):
    """Case of the germ: linear expansion, finite tangency, or flat.

    Case1 needs linear part > 1; Case2 the least degree n >= 2 with a
    positive coefficient after an identity (n-1)-jet; Case3 requires the
    declared ``flat`` flag on top of identity jets.
    """
    c = jets.coefficients
    c1 = c[1]
    if c1 > 1 + _EXPANSION_SLACK:
        return Case1(float(c1))
    if c1 < 1 - _EXPANSION_SLACK:
        raise NotExpanding(f"linear coefficient {c1} < 1")
    for k in range(2, len(c)):
        ck = c[k]
        if ck > 0:
            return Case2(k)
        if ck < 0:
            raise NotExpanding(f"first nonzero higher coefficient c[{k}] = {ck} < 0")
    if jets.flat:
        return Case3()
    raise InsufficientJets(
        "identity jets without the flat declaration: supply higher order or flat flag"
    )


# --------------------------------------------------------------------------
# the map variants

class HalfLineDiffeo:
    """Common behaviour of the map variants (evaluation guards, iteration)."""

    domain_hint = math.inf

    def _eval_raw(self, x):  # pragma: no cover - overridden
        raise NotImplementedError

    def __call__(self, x):
        if x == 0.0:
            return 0.0
        if x < 0.0:
            raise DomainExceeded("half-line maps are defined for x >= 0")
        if x > self.domain_hint:
            raise DomainExceeded(f"x={x} beyond certified domain {self.domain_hint}")
        y = self._eval_raw(x)
        if not y > x * (1 - _EXPANSION_SLACK):
            raise NotExpanding(f"phi({x}) = {y} <= x")
        return y

    def inverse_value(self, y, rtol=1e-13):
        """Generic monotone inverse: bisection with secant acceleration.

        phi(x) > x gives the bracket [0, y] for free; the root is refined
        to mixed absolute+relative tolerance ``rtol``.
        """
        if y == 0.0:
            return 0.0
        if y < 0.0:
            raise NoBracket("values of the map are nonnegative")
        if math.isfinite(self.domain_hint) and y > self(self.domain_hint):
            raise NoBracket(f"y={y} beyond the certified image")
        lo, f_lo = 0.0, -y
        hi = min(y, self.domain_hint)
        f_hi = self(hi) - y
        if f_hi < 0:
            raise NoBracket("bracket failed; map not expanding here?")
        # relative stopping rule: Koenigs limits multiply tiny roots by
        # mu**k, so absolute-only tolerance would be amplified badly
        for _ in range(300):
            if f_hi != f_lo:
                x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
                if not (lo < x < hi):
                    x = 0.5 * (lo + hi)
            else:
                x = 0.5 * (lo + hi)
            fx = self(x) - y
            if fx > 0:
                hi, f_hi = x, fx
            else:
                lo, f_lo = x, fx
            if hi - lo <= rtol * hi + 1e-300:
                break
        return 0.5 * (lo + hi)

    def jets(self, order):  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class Linear(HalfLineDiffeo):
    """x -> mu * x with mu > 1."""

    mu: float

    def __post_init__(self):
        if not self.mu > 1:
            raise NotExpanding("linear map requires mu > 1")

    domain_hint = math.inf

    def _eval_raw(self, x):
        return self.mu * x

    def inverse_value(self, y, rtol=1e-13):
        if y < 0:
            raise NoBracket("values of the map are nonnegative")
        return y / self.mu

    def jets(self, order):
        return JetData((0, self.mu) + (0,) * (order - 1))


@dataclass(frozen=True)
class TakensPoly(HalfLineDiffeo):
    """Polynomial normal form x + x**n + alpha x**(2n-1) on [0, x1].

    Beyond x1 the displacement is blended (C-infinity) into the constant
    x + x**n + alpha x**(2n-1) evaluated at x1, so the map is a translation
    far out and globally expanding.
    """

    n: int
    alpha: float
    x1: float = 0.25
    glue_width: float = 1.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("normal form needs n >= 2")
        if not self.x1 > 0:
            raise ValueError("x1 must be positive")
        x2 = self.x1 * (1.0 + self.glue_width)
        # the displacement must stay positive through the glue region
        for x in [self.x1 * k / 16 for k in range(1, 17)] + [
            self.x1 + (x2 - self.x1) * k / 32 for k in range(33)
        ]:
            if self._shift(x) <= 0:
                raise NotExpanding(f"displacement nonpositive at x={x}")
        prev = 0.0
        for k in range(1, 129):
            x = x2 * 1.05 * k / 128
            y = self._eval_raw(x)
            if y <= prev:
                raise NotExpanding(f"map not increasing near x={x}")
            prev = y

    domain_hint = math.inf

    def _poly_shift(self, x):
        return x**self.n + self.alpha * x ** (2 * self.n - 1)

    def _shift(self, x):
        if x <= self.x1:
            return self._poly_shift(x)
        x2 = self.x1 * (1.0 + self.glue_width)
        w = smoothstep((x - self.x1) / (x2 - self.x1))
        return (1.0 - w) * self._poly_shift(x) + w * self._poly_shift(self.x1)

    def _eval_raw(self, x):
        return x + self._shift(x)

    def jets(self, order):
        c = [0.0] * (order + 1)
        c[1] = 1.0
        if self.n <= order:
            c[self.n] += 1.0
        if 2 * self.n - 1 <= order:
            c[2 * self.n - 1] += self.alpha
        return JetData(tuple(c))


@dataclass(frozen=True)
class PolynomialMap(HalfLineDiffeo):
    """Expanding polynomial x -> c1 x + c2 x**2 + ... with nonnegative
    coefficients and c1 >= 1 (e.g. hyperbolic germs like 2x + x**2)."""

    coefficients: tuple  # degree 0 first; c0 must be 0

    def __post_init__(self):
        c = self.coefficients
        if len(c) < 2 or c[0] != 0:
            raise ValueError("need c0 = 0 and at least a linear term")
        if c[1] < 1:
            raise NotExpanding("linear coefficient below 1")
        if any(v < 0 for v in c):
            raise ValueError("nonnegative coefficients only")
        if c[1] == 1 and all(v == 0 for v in c[2:]):
            raise NotExpanding("the identity map is not expanding")

    domain_hint = math.inf

    def _eval_raw(self, x):
        total = 0.0
        for v in reversed(self.coefficients):
            total = total * x + v
        return total

    def jets(self, order):
        c = self.coefficients[: order + 1]
        return JetData(tuple(c) + (0,) * (order + 1 - len(c)))


class FlowGenerated(HalfLineDiffeo):
    """Time-``time`` map of the flow of a positive generator rho(x) d/dx."""

    def __init__(self, gen: VectorFieldGen, time: float = 1.0, x0: float = None):
        if not time > 0:
            raise NotExpanding("flow-generated maps require time > 0")
        self.gen = gen
        self.time = float(time)
        self.chart = AbelChart(gen, x0=x0)
        self.domain_hint = self.chart.max_start_for(self.time)

    def __repr__(self):
        return f"FlowGenerated({self.gen!r}, time={self.time})"

    def _eval_raw(self, x):
        return self.chart.flow_map(self.time, x)

    def inverse_value(self, y, rtol=1e-13):
        if y == 0.0:
            return 0.0
        if y < 0:
            raise NoBracket("values of the map are nonnegative")
        return self.chart.flow_map(-self.time, y)

    def jets(self, order):
        if self.gen.kind == "flat":
            return JetData((0, 1) + (0,) * (order - 1), flat=True)
        # x**n + a x**(2n-1) with a promoted to an exact dyadic Fraction
        rho = [Fraction(0)] * (order + 1)
        if self.gen.n <= order:
            rho[self.gen.n] = Fraction(1)
        if 2 * self.gen.n - 1 <= order:
            rho[2 * self.gen.n - 1] += Fraction(self.gen.a)
        if self.time != 1.0:
            rho = [Fraction(self.time) * c for c in rho]
        return JetData(tuple(series.lie_exponential_jets(rho, order)))


class IterateMap(HalfLineDiffeo):
    """k-fold composition of a base map (k may be negative)."""

    def __init__(self, base: HalfLineDiffeo, power: int):
        if power == 0:
            raise ValueError("use the identity explicitly rather than power 0")
        self.base = base
        self.power = int(power)
        self.domain_hint = self._forward_domain()

    def _forward_domain(self):
        if self.power < 0 or not math.isfinite(self.base.domain_hint):
            return self.base.domain_hint
        # largest x whose forward orbit of length `power` stays certified
        return iterate(self.base, 1 - self.power, self.base.domain_hint)

    def __repr__(self):
        return f"IterateMap({self.base!r}, {self.power})"

    def _eval_raw(self, x):
        return iterate(self.base, self.power, x)

    def __call__(self, x):
        # an inverse iterate is contracting, so skip the expansion guard
        if self.power > 0:
            return super().__call__(x)
        if x == 0.0:
            return 0.0
        if x < 0.0:
            raise DomainExceeded("half-line maps are defined for x >= 0")
        return self._eval_raw(x)

    def inverse_value(self, y, rtol=1e-13):
        return iterate(self.base, -self.power, y)

    def jets(self, order):
        base = list(self.base.jets(order).coefficients)
        flat = self.base.jets(order).flat
        if self.power < 0:
            base = series.series_inverse(base, order)
        out = series.identity_series(order)
        for _ in range(abs(self.power)):
            out = series.series_compose(base, out, order)
        return JetData(tuple(out), flat=flat, expanding=self.power > 0)


# --------------------------------------------------------------------------
# module-level operations (the public verbs)

def evaluate(phi: HalfLineDiffeo, x: float) -> float:
    """phi(x); exact 0 at x = 0, guarded against domain escape."""
    return phi(x)


def inverse(phi: HalfLineDiffeo, y: float) -> float:
    """The unique x >= 0 with phi(x) = y, to mixed tolerance 1e-13."""
    return phi.inverse_value(y)


def iterate(phi: HalfLineDiffeo, k: int, x: float) -> float:
    """k-fold composition (k < 0 iterates the inverse); k = 0 is identity."""
    if k == 0:
        return x
    y = x
    if k > 0:
        for _ in range(k):
            y = phi(y)
    else:
        for _ in range(-k):
            y = phi.inverse_value(y)
    return y


def composition_derivatives(beta_jets, phi_jets, n_max: int):
    """Derivatives of beta(phi(x)) from derivative values of both factors.

    ``beta_jets[k-1]`` = k-th derivative of beta at phi(x), ``phi_jets[k-1]``
    = k-th derivative of phi at x, both for k = 1..n_max at least.
    """
    return series.bell_composition_derivatives(beta_jets, phi_jets, n_max)


@dataclass(frozen=True)
class TakensNormalForm:
    n: int
    alpha: float
    conjugacy_jets: JetData


def _exact_root(c: Fraction, k: int):
    """c**(1/k) as a Fraction when exact, else None."""
    if k == 1:
        return c
    if c <= 0:
        return None
    num, den = c.numerator, c.denominator
    rn = round(num ** (1.0 / k))
    rd = round(den ** (1.0 / k))
    for dn in (rn - 1, rn, rn + 1):
        for dd in (rd - 1, rd, rd + 1):
            if dn > 0 and dd > 0 and dn**k == num and dd**k == den:
                return Fraction(dn, dd)
    return None


def takens_normalize(jets: JetData) -> TakensNormalForm:
    """Reduce a Case-2 jet to the polynomial normal form x + x^n + alpha x^(2n-1).

    Degree-by-degree conjugation: rescale so the degree-n coefficient is 1,
    then kill degrees n+1 .. 2n-2 with shifts x + g x^j (the response of the
    degree n+j-1 coefficient is linear with slope j - n), and read alpha off
    degree 2n-1.  Arithmetic is exact rational whenever the rescaling root
    is rational (always for n = 2).
    """
    case = classify_case(jets)
    if not isinstance(case, Case2):
        raise NotExpanding("normal-form reduction applies to Case-2 germs only")
    n = case.n
    order = 2 * n - 1
    if jets.order < order:
        raise InsufficientJets(f"need the {order}-jet, have order {jets.order}")

    coeffs = [Fraction(c) if not isinstance(c, Fraction) else c
              for c in jets.coefficients[: order + 1]]
    cn = coeffs[n]
    s = _exact_root(Fraction(1) / cn, n - 1)
    if s is None:
        coeffs = [float(c) for c in coeffs]
        s = float((1.0 / float(cn)) ** (1.0 / (n - 1)))
        one = 1.0
    else:
        one = Fraction(1)

    # conjugate by the scaling S(x) = s x: coefficient k picks up s**(k-1)
    phi = [coeffs[k] * s ** (k - 1) for k in range(order + 1)]
    conj = [0 * one, s] + [0 * one] * (order - 1)

    # conjugating by x + g x**j moves the coefficient at degree n+j-1 by
    # (n-j) g and nothing below; solve each degree in turn
    for m in range(n + 1, 2 * n - 1):
        j = m - n + 1
        em = phi[m]
        if em == 0:
            continue
        gamma = em / (j - n)
        h = [0 * one] * (order + 1)
        h[1] = one
        h[j] = gamma
        h_inv = series.series_inverse(h, order)
        phi = series.series_compose(
            h_inv, series.series_compose(phi, h, order), order
        )
        assert phi[m] == 0 or abs(phi[m]) < 1e-12, "elimination failed"
        conj = series.series_compose(conj, h, order)

    alpha = phi[2 * n - 1]
    return TakensNormalForm(
        n=n,
        alpha=alpha,
        conjugacy_jets=JetData(tuple(conj), expanding=False),
    )


def check_jet_consistency(phi: HalfLineDiffeo, jets: JetData, k_max=3,
                          h=1e-4, tol_scale=1e-6):
    """Finite-difference audit of declared jets at the origin.

    One-sided differences at step h with one Richardson level; the k-th
    derivative must match coefficients[k] * k! within tol_scale * k!.
    Returns the list of (k, estimate, target, ok).
    """
    from math import comb, factorial

    def forward_diff(step, k):
        return sum(
            (-1) ** (k - i) * comb(k, i) * phi(i * step) for i in range(k + 1)
        ) / step**k

    rows = []
    for k in range(1, k_max + 1):
        d_h = forward_diff(h, k)
        d_h2 = forward_diff(h / 2, k)
        est = 2.0 * d_h2 - d_h  # kills the O(h) one-sided error term
        target = float(jets.coefficients[k]) * factorial(k) if k <= jets.order else 0.0
        ok = abs(est - target) <= tol_scale * factorial(k)
        rows.append((k, est, target, ok))
    return rows


# --------------------------------------------------------------------------
# germ descriptors (JSON dicts consumed by the CLI)

def from_germ(desc: dict) -> HalfLineDiffeo:
    """Build a map from its JSON germ descriptor."""
    kind = desc.get("kind")
    if kind == "linear":
        return Linear(mu=float(desc["mu"]))
    if kind == "takens":
        return TakensPoly(
            n=int(desc["n"]), alpha=float(desc["alpha"]),
            x1=float(desc.get("x1", 0.25)),
        )
    if kind == "flow":
        rho = desc["rho"]
        if rho.get("kind") == "poly":
            gen = VectorFieldGen.poly(n=int(rho["n"]), a=float(rho.get("a", 0.0)))
        elif rho.get("kind") == "flat":
            form = rho.get("form", "exp(-1/x)")
            if form != "exp(-1/x)":
                raise ValueError(f"unsupported flat generator form {form!r}")
            gen = VectorFieldGen.flat()
        else:
            raise ValueError(f"unknown generator kind {rho.get('kind')!r}")
        time = float(desc.get("time", 1.0))
        if not time > 0:
            raise ValueError(f"flow time must be positive, got {time}")
        return FlowGenerated(gen, time=time)
    raise ValueError(f"unknown germ kind {kind!r}")
