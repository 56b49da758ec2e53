"""Expanding diffeomorphisms of the half line [0, oo) and their jets.

Every map here fixes 0, is strictly increasing, and satisfies
``phi(x) > x`` for ``x > 0`` on its certified domain.  There are three
map models, and each owns its inverse: ``Linear`` divides, ``PolynomialMap``
runs Newton's method on its coefficients, and ``FlowGenerated`` flows
backward in its Abel chart.  Maps are immutable value objects;
evaluation, inversion and iteration are pure functions.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import series
from .errors import (
    DomainExceeded,
    InsufficientJets,
    InvalidInput,
    NoBracket,
    NoConvergence,
    NotExpanding,
    NotExpandingInput,
    read_number,
    require_object,
)
from .flow import AbelChart, VectorFieldGen

_EXPANSION_SLACK = 1e-12
_NEWTON_STEPS = 100   # budget of the polynomial inverse


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
            raise InvalidInput("constant term must vanish (phi(0)=0)")
        if self.expanding and self.coefficients[1] < 1 - _EXPANSION_SLACK:
            raise NotExpanding("linear coefficient below 1")
        if not self.coefficients[1] > 0:
            raise InvalidInput("linear coefficient must be positive")
        if self.flat:
            for k, c in enumerate(self.coefficients):
                if (k != 1 and c != 0) or (k == 1 and c != 1):
                    raise InvalidInput("flat jets must match the identity")

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
    """Common behaviour of the map models: the evaluation guards."""

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

    def jets(self, order):  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class Linear(HalfLineDiffeo):
    """x -> mu * x with mu > 1."""

    mu: float

    def __post_init__(self):
        if not self.mu < math.inf:   # inf and nan; -inf fails mu > 1
            raise InvalidInput(f"mu must be finite, got {self.mu}")
        if not self.mu > 1:
            raise NotExpandingInput("linear map requires mu > 1")

    domain_hint = math.inf

    def _eval_raw(self, x):
        return self.mu * x

    def inverse_value(self, y):
        if not y >= 0:
            raise NoBracket(f"y={y} is not a value of the map")
        return y / self.mu

    def jets(self, order):
        return JetData((0, self.mu) + (0,) * (order - 1))


@dataclass(frozen=True)
class PolynomialMap(HalfLineDiffeo):
    """Expanding polynomial x -> c1 x + c2 x**2 + ... with nonnegative
    coefficients and c1 >= 1 (e.g. hyperbolic germs like 2x + x**2)."""

    coefficients: tuple  # degree 0 first; c0 must be 0

    def __post_init__(self):
        c = self.coefficients
        if len(c) < 2 or c[0] != 0:
            raise InvalidInput("need c0 = 0 and at least a linear term")
        if not all(abs(v) < math.inf for v in c):   # big ints pass
            raise InvalidInput(f"coefficients must be finite, got {c}")
        if c[1] < 1:
            raise NotExpandingInput("linear coefficient below 1")
        if any(v < 0 for v in c):
            raise InvalidInput("nonnegative coefficients only")
        if c[1] == 1 and all(v == 0 for v in c[2:]):
            raise NotExpandingInput("the identity map is not expanding")

    domain_hint = math.inf

    def _eval_raw(self, x):
        total = 0.0
        for v in reversed(self.coefficients):
            total = total * x + v
        return total

    def inverse_value(self, y):
        """The x >= 0 with phi(x) = y, by Newton's method.

        phi lies above c1 x and c_d x**d (d the top degree), so the start
        min(y / c1, (y / c_d)**(1/d)) lies above the root; phi is convex,
        so Newton falls monotonically from there.  The first iterate that
        does not fall ends the descent: a relative step test can cycle
        between two floats an ulp apart.
        """
        if not y >= 0:
            raise NoBracket(f"y={y} is not a value of the map")
        c = self.coefficients
        d = max(k for k, v in enumerate(c) if v)
        x = min(y / c[1], (y / c[d]) ** (1.0 / d))
        for _ in range(_NEWTON_STEPS):
            p = dp = 0.0
            for v in reversed(c):   # Horner for p and p' together
                dp = dp * x + p
                p = p * x + v
            x_new = x - (p - y) / dp
            if not x_new < x:
                return x
            x = x_new
        raise NoConvergence(f"Newton inverse of y={y} did not settle in "
                            f"{_NEWTON_STEPS} steps")

    def jets(self, order):
        c = self.coefficients[: order + 1]
        return JetData(tuple(c) + (0,) * (order + 1 - len(c)))


class FlowGenerated(HalfLineDiffeo):
    """Time-``time`` map of the flow of a positive generator rho(x) d/dx."""

    def __init__(self, gen: VectorFieldGen, time: float = 1.0):
        if not time > 0:
            raise InvalidInput(f"flow time must be positive, got {time}")
        if math.isinf(time):
            raise InvalidInput(f"flow time must be finite, got {time}")
        self.gen = gen
        self.time = float(time)
        self.chart = AbelChart(gen)
        self.domain_hint = self.chart.max_start_for(self.time)

    def __repr__(self):
        return f"FlowGenerated({self.gen!r}, time={self.time})"

    def _eval_raw(self, x):
        return self.chart.flow_map(self.time, x)

    def inverse_value(self, y):
        if y == 0.0:
            return 0.0
        if not y >= 0:
            raise NoBracket(f"y={y} is not a value of the map")
        x = self.chart.flow_map(-self.time, y)
        if x > self.domain_hint:
            raise NoBracket(f"y={y} beyond the certified image")
        return x

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


# --------------------------------------------------------------------------
# module-level operations (the public verbs)

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


# --------------------------------------------------------------------------
# germ descriptors (JSON dicts consumed by the CLI)

def from_germ(desc: dict) -> HalfLineDiffeo:
    """Build a map from its JSON germ descriptor, else ``InvalidInput``."""
    kind = require_object(desc, "a germ descriptor").get("kind")
    if kind == "linear":
        return Linear(mu=read_number(desc, "mu"))
    if kind == "flow":
        rho = require_object(desc.get("rho"), "'rho'")
        if rho.get("kind") == "poly":
            gen = VectorFieldGen.poly(n=read_number(rho, "n", int),
                                      a=read_number(rho, "a", default=0.0))
        elif rho.get("kind") == "flat":
            form = rho.get("form", "exp(-1/x)")
            if form != "exp(-1/x)":
                raise InvalidInput(f"unsupported flat generator form {form!r}")
            gen = VectorFieldGen.flat()
        else:
            raise InvalidInput(f"unknown generator kind {rho.get('kind')!r}")
        return FlowGenerated(gen, time=read_number(desc, "time", default=1.0))
    raise InvalidInput(f"unknown germ kind {kind!r}")
