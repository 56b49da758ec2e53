"""Flows of positive vector fields rho(x) d/dx on the half line.

The central object is the Abel chart: the coordinate
``t(x) = integral_{x0}^{x} du / rho(u)`` in which the flow is unit-speed
translation and the time-1 map becomes ``t -> t + 1``.  Time-t maps are
computed by monotone inversion of the chart, never by ODE stepping, so the
Abel equation holds up to rounding and root-finding error only.

Two generator families are supported:

* polynomial ``rho = x**n + a x**(2n-1)`` (optionally saturating to 1
  beyond a finite radius) in ordinary float arithmetic.  ``1/rho`` splits
  into partial fractions, so the chart is the exact primitive
  ``u**(1-n)/(1-n) + (a/(n-1)) log(u**(1-n) + a)``, inverted by Newton's
  method; only the smoothstep blend of a saturating generator is
  integrated numerically, by ``quad``: adaptive Gauss-Legendre, 64 nodes
  checked against 32 on each panel;
* the flat generator ``rho = exp(-1/x)``, whose Abel integral has the
  closed primitive ``u e**(1/u) - Ei(1/u)``.  Its values overflow every
  fixed-width float long before x reaches 1e-3, so this chart works in
  adaptive-precision arithmetic (mpmath) and returns ``mpf`` reals.

The flat chart spends digits only where a result needs them:

* ``abel_time`` keeps the difference grade: a time difference
  t(y) - t(x) of order 1 sits about 0.4343/x digits below
  t(x) ~ -x**2 e**(1/x), so it works at the chart precision
  ``dps = 40 + 0.4343/x`` digits, and flows at ``dps + 10``;
* a flow whose displacement d, from ``integral_x^{x+d} e**(1/u) du = t``,
  a three-term series gives to within the Newton tolerance
  ``10**-(dps + 10 - 12)`` relative to x takes that series: one ``exp``
  and no Ei (x below about 0.026 when |t| = 1).  Every other flow
  solves F(y) = F(x) + t by Newton's method on the Ei primitive, from
  a float guess by the same series or by the asymptotics of F;
* ``abel_time_float``, for callers that read only a float, evaluates the
  primitive at ``_FLOAT_DPS + log10(1/x)`` digits, since
  ``u e**(1/u) - Ei(1/u)`` cancels about log10(1/x) of them.

Chart precision is capped at ``_DPS_CAP`` digits (x down to about
8.8e-5); past the cap the chart raises ``PrecisionExceeded``.
"""

import functools
import math
from dataclasses import dataclass

import mpmath as mp

from .errors import (
    BlowUp,
    CentralizerNotFlow,
    DomainError,
    InvalidInput,
    NoConvergence,
    NotExpanding,
    PrecisionExceeded,
    QuadratureFail,
)

_QUAD_TOL = 1e-13      # panel agreement of the blend quadrature
_QUAD_DEPTH = 16       # halvings a blend quadrature panel may take
_NEWTON_STEPS = 100    # budget of the polynomial chart inversion
_DESCENT_RTOL = 1e-13  # settling of the Koenigs descent
_DESCENT_MAX_STEPS = 10_000   # its budget however close mu is to 1
# most digits of a flat-chart operation: 4383 at x = 1e-4, where one exp
# takes about 24 ms; x = 1e-5 would need 43 473 digits (1.65 s per exp)
_DPS_CAP = 5000
_FLOAT_DPS = 30        # digits of the float-grade flat time past cancellation


@functools.cache
def _gauss_legendre(n):
    # (nodes, weights) of the n-node rule on [-1, 1], as float tuples
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(n)
    return tuple(nodes.tolist()), tuple(weights.tolist())


def _gauss_sum(f, mid, half, n):
    nodes, weights = _gauss_legendre(n)
    return half * math.fsum(w * f(mid + half * u)
                            for u, w in zip(nodes, weights))


def _quad_panel(f, lo, hi, depth):
    # the 64-node rule, halved until the 32-node rule agrees with it
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fine = _gauss_sum(f, mid, half, 64)
    err = abs(fine - _gauss_sum(f, mid, half, 32))
    if err <= _QUAD_TOL * max(1.0, abs(fine)) or depth == _QUAD_DEPTH:
        return fine, err
    left, err_l = _quad_panel(f, lo, mid, depth + 1)
    right, err_r = _quad_panel(f, mid, hi, depth + 1)
    return left + right, err_l + err_r


def quad(f, lo, hi):
    """(integral of f over [lo, hi], error estimate) by adaptive
    Gauss-Legendre: a panel whose 64- and 32-node rules disagree by more
    than ``_QUAD_TOL`` relative (floor 1) is halved, at most
    ``_QUAD_DEPTH`` times; the estimate sums the disagreements of the
    panels kept.
    """
    return _quad_panel(f, lo, hi, 0)


def smoothstep(u):
    """C-infinity step w (0 for u <= 0, 1 for u >= 1) and 1 - w, as a pair.

    The complement is its own ratio: ``1 - w`` in floats keeps only the
    absolute error of w, which is all of 1 - w as w -> 1.
    """
    if u <= 0.0:
        return 0.0, 1.0
    if u >= 1.0:
        return 1.0, 0.0
    a = math.exp(-1.0 / u)
    b = math.exp(-1.0 / (1.0 - u))
    return a / (a + b), b / (a + b)


@dataclass(frozen=True)
class VectorFieldGen:
    """Generator rho(x) d/dx with rho(0) = 0 and rho > 0 on (0, domain).

    kind "poly": rho = x**n + a x**(2n-1) exactly on [0, guard*saturation],
    blended C-infinity to 1 on [guard*saturation, saturation] and identically
    1 beyond (saturation = inf means the pure polynomial everywhere, which
    for n >= 2 reaches infinity in finite time).

    kind "flat": rho = exp(-1/x), flat at 0 and asymptotically 1.
    """

    kind: str
    n: int = 0
    a: float = 0.0
    saturation: float = math.inf
    guard: float = 0.8

    @classmethod
    def poly(cls, n: int, a: float = 0.0, saturation: float = math.inf):
        if n < 2:
            raise InvalidInput("polynomial generators need order n >= 2")
        if not math.isfinite(a):
            raise InvalidInput(f"the coefficient a must be finite, got {a}")
        if not saturation > 0:
            raise InvalidInput(
                f"the saturation radius must be positive, got {saturation}")
        return cls(kind="poly", n=n, a=a, saturation=float(saturation))

    @classmethod
    def flat(cls):
        return cls(kind="flat")

    @property
    def positivity_bound(self):
        """sup of the interval on which the polynomial part stays positive."""
        if self.kind != "poly" or self.a >= 0:
            return math.inf
        return (-1.0 / self.a) ** (1.0 / (self.n - 1))

    def rho(self, x):
        if x <= 0.0:
            return 0.0
        if self.kind == "flat":
            return math.exp(-1.0 / x)
        p = x**self.n + self.a * x ** (2 * self.n - 1)
        if math.isinf(self.saturation):
            return p
        s0 = self.guard * self.saturation
        if x <= s0:
            return p
        w, rest = smoothstep((x - s0) / (self.saturation - s0))
        return rest * p + w


class AbelChart:
    """Abel coordinate of a generator.

    Polynomial charts evaluate the exact primitive of 1/rho (partial
    fractions); only the smoothstep blend of a saturating generator needs
    quadrature.  Construction fixes the base point (t(x0) = 0), the
    supremum of the coordinate and its value at the domain cap; all later
    operations are read-only.
    """

    def __init__(self, gen: VectorFieldGen):
        self.gen = gen
        if gen.kind == "poly":
            bound = gen.positivity_bound
            self.domain_sup = 0.95 * bound if math.isfinite(bound) else 1e9
            if math.isfinite(gen.saturation):
                self.domain_sup = min(max(10.0, 2.0 * gen.saturation),
                                      self.domain_sup)
        else:
            self.domain_sup = 10.0
        # x0 = 1 whenever the chart reaches that far, else mid-domain
        lid = min(gen.saturation, self.domain_sup)
        self.x0 = 1.0 if lid >= 1.0 else lid / 2.0
        self._t_sup = self._t_dom = math.inf
        if gen.kind == "flat":
            with mp.workdps(_FLOAT_DPS + 20):
                self._f_x0 = self._flat_primitive(mp.mpf(self.x0))
            return
        if self.x0 >= self.domain_sup:
            raise DomainError("x0 outside the positivity domain of rho")
        s0 = gen.guard * gen.saturation
        if s0 < self.domain_sup:
            self._p_s0 = self._poly_primitive(s0)
            self._blend = self._quad_blend(s0, gen.saturation)
        self._p0 = self._primitive(self.x0)
        if math.isinf(gen.saturation) and gen.a >= 0:
            # P(u) -> (a/(n-1)) log a as u -> inf; for a < 0 rho vanishes
            # at the far end and the time diverges
            lim = gen.a / (gen.n - 1) * math.log(gen.a) if gen.a > 0 else 0.0
            self._t_sup = lim - self._p0
        self._t_dom = self.abel_time(self.domain_sup)

    # -- polynomial primitive -------------------------------------------------

    def _poly_primitive(self, u):
        # P(u) = u**(1-n)/(1-n) + (a/(n-1)) log(u**(1-n) + a), P' = 1/rho;
        # the log of u**(1-n) + a, not of 1 + a u**(n-1), keeps large u exact
        n, a = self.gen.n, self.gen.a
        try:
            w = u ** (1 - n)
        except OverflowError:
            raise DomainError(f"the Abel time at x={u} overflows floats "
                              f"(n = {n})")
        if a == 0.0:
            return w / (1 - n)
        return w / (1 - n) + a / (n - 1) * math.log(w + a)

    def _quad_blend(self, lo, hi):
        try:
            val, err = quad(lambda u: 1.0 / self.gen.rho(u), lo, hi)
        except ZeroDivisionError:
            raise DomainError(f"rho underflows to 0 on the blend "
                              f"[{lo:.3g}, {hi:.3g}]")
        if not math.isfinite(val):
            raise DomainError(f"1/rho overflows on [{lo:.3g}, {hi:.3g}]")
        if not err <= 1e-9 * max(1.0, abs(val)):
            raise QuadratureFail(f"estimated error {err} on [{lo}, {hi}]")
        return val

    def _primitive(self, x):
        # exact P up to s0 = guard*saturation (everywhere if unsaturated),
        # quadrature across the blend, unit speed beyond saturation
        g = self.gen
        s0 = g.guard * g.saturation
        if x <= s0:
            return self._poly_primitive(x)
        if x <= g.saturation:
            return self._p_s0 + self._quad_blend(s0, x)
        return self._p_s0 + self._blend + (x - g.saturation)

    @property
    def t_sup(self):
        return self._t_sup

    # -- the coordinate -----------------------------------------------------

    def abel_time(self, x):
        """t(x) = integral_{x0}^{x} du/rho(u); strictly increasing in x.

        Polynomial charts return floats; the flat chart returns an ``mpf``
        carrying enough digits that t(phi(x)) - t(x) is still meaningful.
        """
        if not x > 0:
            raise DomainError("Abel time is defined for x > 0")
        if self.gen.kind == "flat":
            return self._abel_flat(x)
        if x > self.domain_sup:
            raise DomainError(
                f"x={x} beyond the chart domain (rho positivity cap "
                f"{self.domain_sup:.6g})")
        return self._primitive(x) - self._p0

    def abel_time_float(self, x):
        """float(abel_time(x)), computed at the precision a float needs.

        The flat chart evaluates its primitive at ``_FLOAT_DPS`` digits
        beyond the ``log10(1/x)`` that it cancels, against a stored F(x0);
        polynomial charts return ``abel_time`` itself.
        """
        if self.gen.kind != "flat":
            return self.abel_time(x)
        if not x > 0:
            raise DomainError("Abel time is defined for x > 0")
        if math.isinf(x):
            raise DomainError("the flat chart is defined for finite x")
        lost = max(0, int(-0.30103 * mp.mag(x)))   # about log10(1/x)
        with mp.workdps(_FLOAT_DPS + lost):
            return float(self._flat_primitive(mp.mpf(x)) - self._f_x0)

    # -- flat-generator machinery (adaptive precision) ----------------------

    @staticmethod
    def _flat_primitive(u):
        # primitive of e**(1/u): F(u) = u e**(1/u) - Ei(1/u); exp, not
        # mp.e**v, whose rounded base errs by v 10**-dps relative
        return u * mp.exp(1 / u) - mp.ei(1 / u)

    @staticmethod
    def _dps_for_x(x):
        # chart precision: a unit time difference sits 0.4343/x digits
        # below t(x); PrecisionExceeded past _DPS_CAP (also for x = 0)
        x = float(x)
        if math.isinf(x):
            raise DomainError("the flat chart is defined for finite x")
        if x < 1.0 and not 0.4343 < (_DPS_CAP - 40) * x:
            raise PrecisionExceeded(
                f"the flat chart at x={x:.3g} needs more than {_DPS_CAP} "
                "digits")
        return 40 + (int(0.4343 / x) if x < 1.0 else 0)

    @staticmethod
    def _asymptotic_guess(s):
        # |s| ~ y**2 e**(1/y) near 0: solve L = log|s| + 2 log L, y = 1/L
        logt = 0.0
        if float(s) != 0:
            with mp.workdps(30):
                logt = float(mp.log(abs(mp.mpf(s))))
        L = max(logt, 3.0)
        for _ in range(40):
            L = logt + 2.0 * math.log(L)
        return 1.0 / L

    def _abel_flat(self, x):
        dps = max(self._dps_for_x(x), self._dps_for_x(self.x0))
        with mp.workdps(dps):
            return self._flat_primitive(mp.mpf(x)) - self._flat_primitive(
                mp.mpf(self.x0))

    def _flat_displacement_flow(self, t, x):
        """x + d with integral_x^{x+d} e**(1/u) du = t, or None.

        With v = 1/x and tau = t e**-v, the integral is
        e**v (d - d**2 v**2/2 + d**3 (v**3 + v**4/2)/3 - ...); its reversion
        d = tau + tau**2 v**2/2 + tau**3 (v**4 - v**3)/3 omits about
        tau**4 v**6 / 4, below eps**3 |tau| v relative to x, where
        eps = |tau| v**2.  None when that bound exceeds the tolerance of
        the Ei Newton inversion at the same precision.
        """
        dps = self._dps_for_x(x) + 10
        v = 1.0 / float(x)
        # the bound in logs, log|tau| = log|t| - v; "not <=" also refuses
        # an infinite or nan t
        if t != 0 and not (4.0 * (math.log(abs(t)) - v) + 7.0 * math.log(v)
                           <= (12 - dps) * math.log(10.0)):
            return None
        with mp.workdps(dps):
            x = mp.mpf(x)
            v = 1 / x
            tau = mp.mpf(t) * mp.exp(-v)
            return x + tau * (1 + tau * v**2 / 2
                              + tau**2 * (v**4 - v**3) / 3)

    def _flat_guess(self, t, x, fx):
        # float start of the Newton inversion of F(y) = F(x) + t, fx = F(x):
        # the displacement series while it converges (|tau| below x**2 and
        # x), else the asymptotics of F: -y**2 e**(1/y) for a target below
        # -2 (that form never exceeds -e**2/4), y + log y above it
        v = 1.0 / x
        tau = float(t) * math.exp(-v)
        eps = tau * v * v
        if abs(eps) * max(x, 1.0) < 1.0:
            return x + tau * (1 + eps / 2 + eps * eps * (1 - x) / 3)
        target = fx + t
        if target < -2:
            return self._asymptotic_guess(target)
        return max(target, 1)

    def _invert_flat(self, t, x):
        # exp(t X)(x): Newton on F(y) = F(x) + t at the precision of the
        # smaller of x and the guess (a backward flow lands below x); F(x)
        # needs only that of x, since y moves by its error times e**(-1/y)
        if math.isinf(t):
            raise (BlowUp if t > 0 else DomainError)(
                f"the flat flow to time {t} leaves the chart")
        with mp.workdps(self._dps_for_x(x) + 10):
            fx = self._flat_primitive(mp.mpf(x))
        guess = self._flat_guess(t, float(x), fx)
        dps = self._dps_for_x(min(float(x), guess)) + 10
        with mp.workdps(dps):
            target = fx + mp.mpf(t)
            y = mp.mpf(guess)
            tol = mp.mpf(10) ** (-(dps - 12))
            for _ in range(120):
                step = (self._flat_primitive(y) - target) * mp.e ** (-1 / y)
                # from above concave F a full step overshoots, maybe to 0
                y_new = max(y - step, y / 2)
                if abs(y_new - y) <= tol * y_new:
                    return y_new
                y = y_new
            raise NoConvergence("flat-chart inversion stalled")

    # -- inversion and flows -------------------------------------------------

    def invert_abel(self, s):
        """The unique x > 0 with abel_time(x) = s."""
        if self.gen.kind == "flat":
            return self._invert_flat(s, self.x0)
        if s >= self._t_sup:
            raise BlowUp(f"target time {s} at or past the chart supremum "
                         f"{self._t_sup}")
        if s > self._t_dom:
            raise BlowUp(f"target {s} beyond the certified domain")
        # leading-term guess u**(1-n)/(1-n) = s + P(x0), then Newton with
        # t' = 1/rho; a step that leaves the bracket (lo, hi) or fails to
        # halve the previous one is replaced by bisection
        n = self.gen.n
        arg = (1 - n) * (s + self._p0)
        guess = arg ** (1.0 / (1 - n)) if arg > 1e-300 else math.inf
        x = guess if guess < self.domain_sup else self.x0
        lo, hi = 0.0, self.domain_sup
        step = math.inf
        for _ in range(_NEWTON_STEPS):
            t = self.abel_time(x)
            if t < s:
                lo = x
            else:
                hi = x
            prev, step = abs(step), (s - t) * self.gen.rho(x)
            if abs(step) <= 1e-15 * x:
                return x + step
            if hi - lo <= 1e-15 * hi:
                return 0.5 * (lo + hi)
            x += step
            if not (lo < x < hi and abs(step) < 0.5 * prev):
                x = math.sqrt(lo * hi) if lo > 0 else 0.5 * hi
        raise NoConvergence(f"chart inversion of t={s} stalled")

    def flow_map(self, t, x):
        """exp(t X)(x), via t(x) -> t(x) + t -> x."""
        if math.isnan(t):
            raise InvalidInput("the flow time is nan")
        if not x > 0:
            raise DomainError("flows are computed from x > 0")
        if self.gen.kind == "flat":
            y = self._flat_displacement_flow(t, x)
            return y if y is not None else self._invert_flat(t, x)
        s = self.abel_time(x) + t
        if s >= self._t_sup:
            raise BlowUp(
                f"time {t} from x={x} exceeds the remaining lifetime "
                f"{self._t_sup - self.abel_time(x):.6g}")
        return self.invert_abel(s)

    def remaining_lifetime(self, x):
        """Supremum of forward flow times defined from x (inf if complete)."""
        return self._t_sup - self.abel_time(x) if math.isfinite(self._t_sup) \
            else math.inf

    def _t_top(self):
        # time at which flows leave the certified chart: the escape time,
        # else (poly charts) the Abel time of the domain cap
        return self._t_sup if math.isfinite(self._t_sup) else self._t_dom

    def max_start_for(self, time):
        """Largest start so that the time-``time`` flow stays certified."""
        top = self._t_top()
        if math.isinf(top):
            return math.inf
        return self.invert_abel(top - time) * (1.0 - 1e-9)

    def blowup_x(self, time=1.0):
        """Boundary start value for the time-``time`` map.

        Without a finite escape time a polynomial chart ends at the Abel
        time of its domain cap instead, and the flat chart returns the cap
        itself (grid conventions rely on a finite value).
        """
        top = self._t_top()
        if math.isfinite(top):
            return self.invert_abel(top - time)
        return self.domain_sup


def fractional_iterate(phi, t, x):
    """phi**t for flow-generated phi: the time t*phi.time flow.

    Models the centralizer of phi as the 1-parameter group of its
    generator; anything without a generator is refused.
    """
    chart = getattr(phi, "chart", None)
    time = getattr(phi, "time", None)
    if chart is None or time is None:
        raise CentralizerNotFlow(
            f"{phi!r} carries no generator; fractional iterates undefined")
    if t == 0:
        return x
    if x == 0:
        return 0.0
    return chart.flow_map(t * time, x)


def _koenigs_descent(phi, x):
    """(mu, k, y) with y = phi**(-k)(x), at the first k where mu**k y settles.

    Near 0, phi is x -> mu x + O(x**2), so the limit is geometric.  The stop
    is relative, so small x converge like large ones; 1e-13 stays far
    above the relative error of one ``inverse_value``, a few ulps for the
    Newton inverse of a ``PolynomialMap``.
    """
    mu = float(phi.jets(2).coefficients[1])
    if not mu > 1:
        raise NotExpanding("Koenigs limit requires phi'(0) > 1 (Case 1)")
    # enough steps to contract any x by e**-64
    budget = min(int(64 / math.log(mu)) + 8, _DESCENT_MAX_STEPS)
    y = float(x)
    prev = None
    for k in range(1, budget + 1):
        y = phi.inverse_value(y)
        cur = mu**k * y
        if prev is not None and abs(cur - prev) <= _DESCENT_RTOL * abs(cur):
            return mu, k, y
        prev = cur
    raise NoConvergence(f"Koenigs limit did not settle in {budget} steps")


def koenigs(phi, x):
    """Linearizing coordinate sigma = lim mu**k phi**(-k) at a hyperbolic
    (mu = phi'(0) > 1) fixed point: sigma'(0) = 1 and
    sigma(phi(x)) = mu sigma(x), so phi**t = sigma**-1 o (mu**t .) o sigma.
    """
    mu, k, y = _koenigs_descent(phi, x)
    return mu**k * y
