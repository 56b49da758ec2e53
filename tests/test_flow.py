"""Abel charts, flows, and the linearizing limit."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schroeder import diffeo as D
from schroeder import flow
from schroeder.errors import (
    BlowUp,
    CentralizerNotFlow,
    DomainError,
    InvalidInput,
    NotExpanding,
    QuadratureFail,
)
from schroeder.flow import (
    AbelChart,
    VectorFieldGen,
    fractional_iterate,
    koenigs,
)


def chart_x2(**kw):
    return AbelChart(VectorFieldGen.poly(2, 0.0), **kw)


# -- Abel time ------------------------------------------------------------------

def test_abel_time_closed_form_x2():
    ch = chart_x2()
    # antiderivative of 1/u**2 is -1/u
    assert ch.abel_time(0.5) == pytest.approx(-1.0, abs=1e-13)
    assert ch.abel_time(2.0) == pytest.approx(0.5, abs=1e-13)


def test_abel_time_base_point_zero():
    for gen in (VectorFieldGen.poly(2, 0.0), VectorFieldGen.poly(3, 0.25),
                VectorFieldGen.flat()):
        ch = AbelChart(gen)
        assert float(ch.abel_time(ch.x0)) == 0.0


def test_abel_time_rejects_nonpositive():
    ch = chart_x2()
    with pytest.raises(DomainError):
        ch.abel_time(0.0)
    with pytest.raises(DomainError):
        ch.abel_time(-1.0)


def test_abel_time_matches_closed_form_pure_power():
    # quadrature-free oracle for a = 0: (x**(1-n) - x0**(1-n)) / (1 - n)
    for n in (2, 3, 4):
        ch = AbelChart(VectorFieldGen.poly(n, 0.0))
        for x in np.geomspace(1e-3, 5.0, 40):
            want = (x ** (1 - n) - 1.0) / (1 - n)
            got = ch.abel_time(float(x))
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def test_abel_time_matches_log_closed_form_with_cubic_term():
    # independent oracle: -1/u + (1/2) log((1 + u/2)/u) for x^2 + 0.5 x^3
    ch = AbelChart(VectorFieldGen.poly(2, 0.5))

    def oracle(u):
        return -1.0 / u + 0.5 * math.log((1.0 + 0.5 * u) / u)

    for x in np.geomspace(1e-3, 4.0, 30):
        want = oracle(float(x)) - oracle(1.0)
        got = ch.abel_time(float(x))
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def test_abel_equation_unit_shift_across_generators():
    gens = [VectorFieldGen.poly(2, 0.0), VectorFieldGen.poly(2, 0.5),
            VectorFieldGen.flat(), VectorFieldGen.poly(2, 0.0, saturation=2.0)]
    for gen in gens:
        ch = AbelChart(gen)
        hi = 0.9 * ch.blowup_x(1.0)
        for x in np.geomspace(1e-3, hi, 32):
            y = ch.flow_map(1.0, float(x))
            res = abs(ch.abel_time(y) - ch.abel_time(float(x)) - 1.0)
            assert float(res) <= 1e-9, (gen, x)


# -- flat chart near 0: Ei-primitive and quadrature oracles ---------------------

FLAT_TIMES = (1.0, -1.0, 0.5, -0.5, 3.0, -3.0, 1e-6)


def _ei_primitive(u):
    # F(u) = u e**(1/u) - Ei(1/u), at the caller's precision
    u = mp.mpf(u)
    return u * mp.exp(1 / u) - mp.ei(1 / u)


def test_flat_flow_against_ei_primitive():
    # t(y) - t(x) = 1 sits 0.4343/x digits below F(x): the oracle works 30
    # digits past that and never calls the chart
    ch = AbelChart(VectorFieldGen.flat())
    for x in np.geomspace(1e-3, 3e-2, 24):
        ys = {t: ch.flow_map(t, float(x)) for t in FLAT_TIMES}
        lo = min(float(x), *(float(y) for y in ys.values()))
        with mp.workdps(30 + int(0.4343 / lo)):
            fx = _ei_primitive(float(x))
            for t, y in ys.items():
                res = abs(_ei_primitive(y) - fx - t)
                assert res <= 1e-20, (x, t, mp.nstr(res, 3))


def test_flat_flow_below_1e3_against_quadrature():
    # Ei at the 4373 digits of x = 1e-4 takes tens of seconds, so the
    # oracle here integrates e**(1/u) over [x, y = x + d] itself, as
    # e**v d integral_0^1 exp(1/(x + d w) - v) dw with v = 1/x
    ch = AbelChart(VectorFieldGen.flat())
    for x in np.geomspace(1e-4, 1e-3, 6):
        x = float(x)
        for t in FLAT_TIMES:
            y = ch.flow_map(t, x)
            with mp.workdps(ch._dps_for_x(x) + 20):
                d = mp.mpf(y) - x
            with mp.workdps(40):
                v = 1 / mp.mpf(x)
                area = mp.exp(v) * d * mp.quad(
                    lambda w: mp.exp(-d * w * v / (x + d * w)), [0, 1])
                res = abs(area - t)
            assert res <= 1e-20, (x, t, mp.nstr(res, 3))


def test_flat_flow_switch_agrees_with_ei_newton():
    # on both sides of the switch the flow matches the Ei Newton inversion
    # of t(x) + t to the Newton tolerance 10**-(dps - 12)
    ch = AbelChart(VectorFieldGen.flat())
    paths = set()
    for x in np.geomspace(0.015, 0.04, 11):
        x = float(x)
        for t in (1.0, -1.0, 3.0, -3.0):
            paths.add(ch._flat_displacement_flow(t, x) is None)
            y = ch.flow_map(t, x)
            dps = ch._dps_for_x(x) + 10
            with mp.workdps(dps + 5):
                s = ch._abel_flat(x) + t
            want = ch.invert_abel(s)
            with mp.workdps(dps + 5):
                assert abs(y - want) <= mp.mpf(10) ** (12 - dps) * want
    assert paths == {True, False}


def test_flat_flow_above_the_switch_makes_few_ei_calls(monkeypatch):
    # one F(x) and the Newton steps from the chart's own float guess
    ch = AbelChart(VectorFieldGen.flat())
    calls = []
    ei = mp.ei
    monkeypatch.setattr(mp, "ei", lambda *a, **k: calls.append(1)
                        or ei(*a, **k))
    for x in np.geomspace(0.03, 9.0, 40):
        for t in (1.0, -1.0):
            calls.clear()
            ch.flow_map(t, float(x))
            assert 1 <= len(calls) <= 6, (x, t, len(calls))


@pytest.mark.parametrize("t, x", [(1e20, 0.03), (-1e20, 0.03), (1e300, 0.5),
                                  (-1e300, 0.5), (-2.718281828459045, 1.0),
                                  (-71.07107097635135, 8.0)])
def test_flat_flow_far_from_the_series_matches_the_primitive(t, x):
    # guesses from the asymptotics of F; from x = 1 a full Newton step
    # overshoots to about 0, and at x = 8 the series would move y forward
    ch = AbelChart(VectorFieldGen.flat())
    y = ch.flow_map(t, x)
    dps = ch._dps_for_x(min(x, float(y))) + 10
    with mp.workdps(dps + 10):
        res = ch._flat_primitive(mp.mpf(y)) - ch._flat_primitive(mp.mpf(x)) - t
        assert abs(res) * mp.exp(-1 / y) <= mp.mpf(10) ** (14 - dps) * y


def test_flat_float_time_is_float_of_abel_time():
    ch = AbelChart(VectorFieldGen.flat())
    for x in np.geomspace(1e-3, 10.0, 403):
        got = ch.abel_time_float(float(x))
        assert isinstance(got, float)
        assert got == float(ch.abel_time(float(x))), x


def test_flat_float_time_near_zero_is_minus_inf():
    # t(x) ~ -x**2 e**(1/x) passes -1.8e308 below x = 1.38e-3; the
    # primitive cancels log10(1/x) digits, down to the least subnormal
    ch = AbelChart(VectorFieldGen.flat())
    for x in [5e-324, 1e-320, *np.geomspace(1e-300, 1e-3, 40)]:
        assert ch.abel_time_float(float(x)) == -math.inf, x


# -- independent oracle: 30-digit quadrature of 1/rho ---------------------------

def _mp_rho(gen):
    n, a = gen.n, mp.mpf(gen.a)
    sat = mp.mpf(gen.saturation)
    s0 = gen.guard * sat

    def step(u):
        if u <= 0:
            return mp.mpf(0)
        if u >= 1:
            return mp.mpf(1)
        p, q = mp.exp(-1 / u), mp.exp(-1 / (1 - u))
        return p / (p + q)

    def rho(u):
        p = u**n + a * u ** (2 * n - 1)
        if u <= s0:
            return p
        w = step((u - s0) / (sat - s0))
        return (1 - w) * p + w

    return rho, [s0, sat] if mp.isfinite(sat) else []


def _mp_abel_time(gen, x0, x):
    rho, breaks = _mp_rho(gen)
    lo, hi = sorted((mp.mpf(x0), mp.mpf(x)))
    nodes = [lo] + [b for b in breaks if lo < b < hi] + [hi]
    val = mp.quad(lambda u: 1 / rho(u), nodes)
    return val if x >= x0 else -val


def _assert_rel(got, want, tol=1e-13):
    assert abs(got - want) <= tol * abs(want), (got, want)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("a", [-0.3, 0.5, 2.0])
def test_abel_time_matches_mpmath_quadrature(n, a):
    gen = VectorFieldGen.poly(n, a)
    ch = AbelChart(gen)
    with mp.workdps(30):
        for x in np.geomspace(1e-3, 0.9 * ch.blowup_x(1.0), 12):
            if abs(x - ch.x0) < 0.05 * ch.x0:
                continue  # t(x) -> 0 there, so no relative scale
            want = _mp_abel_time(gen, ch.x0, float(x))
            _assert_rel(ch.abel_time(float(x)), want)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("a", [0.0, 0.5, 2.0])
def test_t_sup_matches_mpmath_quadrature(n, a):
    gen = VectorFieldGen.poly(n, a)
    ch = AbelChart(gen)
    rho, _ = _mp_rho(gen)
    with mp.workdps(30):
        want = mp.quad(lambda u: 1 / rho(u), [ch.x0, 10 * ch.x0, mp.inf])
    _assert_rel(ch.t_sup, want)


def test_saturating_chart_matches_mpmath_quadrature():
    gen = VectorFieldGen.poly(2, 0.5, saturation=2.0)
    ch = AbelChart(gen)
    # below the blend [1.6, 2] and past it, where rho = 1
    with mp.workdps(30):
        for x in (1e-3, 0.02, 0.3, 0.7, 1.3, 1.55, 2.05, 3.0, 7.5):
            _assert_rel(ch.abel_time(x), _mp_abel_time(gen, ch.x0, x))


@pytest.mark.parametrize("n, a, sat", [(3, 0.5, 3.0), (4, 0.2, 5.0),
                                       (5, 0.0, 20.0)])
def test_blend_quadrature_matches_mpmath(n, a, sat):
    gen = VectorFieldGen.poly(n, a, saturation=sat)
    rho, _ = _mp_rho(gen)
    lo = gen.guard * sat
    got, _ = flow.quad(lambda u: 1.0 / gen.rho(u), lo, sat)
    with mp.workdps(30):
        want = mp.quad(lambda u: 1 / rho(u), [lo, sat])
    _assert_rel(got, want, tol=1e-12)


def test_blend_quadrature_is_one_call_per_integral(monkeypatch):
    ch = AbelChart(VectorFieldGen.poly(2, 0.5, saturation=2.0))
    original, calls = flow.quad, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(flow, "quad", counted)
    ch.abel_time(1.8)   # inside the blend [1.6, 2]
    assert len(calls) == 1


class _JumpGen(VectorFieldGen):
    # rho doubles at 1.6 + 0.4/3, which no halving of [1.6, 2] reaches
    def rho(self, x):
        r = super().rho(x)
        return 2.0 * r if x > 1.6 + 0.4 / 3 else r


def test_blend_quadrature_fails_on_a_jump():
    with pytest.raises(QuadratureFail):
        AbelChart(_JumpGen(kind="poly", n=2, saturation=2.0))


@pytest.mark.parametrize("s, error", [(-1.0, InvalidInput),
                                      (0.0, InvalidInput),
                                      (math.nan, InvalidInput),
                                      (1e-160, DomainError),
                                      (1e-300, DomainError)])
def test_saturation_radius_is_checked(s, error):
    # 1e-160: 1/rho overflows on the blend; 1e-300: rho underflows to 0
    with pytest.raises(error):
        AbelChart(VectorFieldGen.poly(2, 0.0, saturation=s))


@pytest.mark.parametrize("gen, method, args, error", [
    (VectorFieldGen.flat(), "flow_map", (math.nan, 0.5), InvalidInput),
    (VectorFieldGen.flat(), "flow_map", (1.0, math.inf), DomainError),
    (VectorFieldGen.flat(), "abel_time", (math.inf,), DomainError),
    (VectorFieldGen.flat(), "abel_time_float", (math.inf,), DomainError),
    (VectorFieldGen.poly(2, 0.0), "flow_map", (math.nan, 0.5), InvalidInput),
    (VectorFieldGen.poly(2, 0.0), "flow_map", (1.0, math.inf), DomainError),
    (VectorFieldGen.poly(2, 0.0), "flow_map", (math.inf, 0.5), BlowUp),
    (VectorFieldGen.flat(), "flow_map", (math.inf, 0.5), BlowUp),
    (VectorFieldGen.flat(), "flow_map", (-math.inf, 0.5), DomainError),
])
def test_non_finite_chart_inputs_raise_typed_errors(gen, method, args, error):
    with pytest.raises(error):
        getattr(AbelChart(gen), method)(*args)


@pytest.mark.parametrize("n, a", [(2, 0.0), (2, 0.5), (3, 2.0), (4, -0.3)])
def test_inversion_round_trip_at_the_chart_ends(n, a):
    ch = AbelChart(VectorFieldGen.poly(n, a))
    bx = ch.blowup_x(1.0)
    for x in (1e-3, 1.1e-3, 0.9 * bx, 0.99 * bx, bx):
        s = ch.abel_time(x)
        _assert_rel(ch.abel_time(ch.invert_abel(s)), s)


# -- flows -----------------------------------------------------------------------

def test_flow_identity_at_zero_time():
    ch = chart_x2()
    assert ch.flow_map(0.0, 0.3) == pytest.approx(0.3, rel=1e-14)


def test_flow_closed_form_oracle():
    ch = chart_x2()
    # flow of x**2: x / (1 - t x)
    assert ch.flow_map(0.5, 0.1) == pytest.approx(0.1 / 0.95, rel=1e-11)


def test_time_one_flow_equals_diffeo_eval():
    gen = VectorFieldGen.poly(2, 0.5)
    phi = D.FlowGenerated(gen)
    ch = phi.chart
    for x in (0.05, 0.2, 0.4):
        assert abs(ch.flow_map(1.0, x) - phi(x)) <= 1e-10


def test_flow_additivity():
    for gen, xs in [(VectorFieldGen.poly(2, 0.0), (0.1, 0.4)),
                    (VectorFieldGen.flat(), (0.1, 0.5, 1.5))]:
        ch = AbelChart(gen)
        for x in xs:
            a = ch.flow_map(0.3, ch.flow_map(0.45, x))
            b = ch.flow_map(0.75, x)
            assert abs(float(a) - float(b)) <= 1e-9 * max(1.0, float(b))


def test_flow_time_monotonicity():
    ch = chart_x2()
    x = 0.2
    h = 1e-6
    d = (ch.flow_map(h, x) - ch.flow_map(-h, x)) / (2 * h)
    assert d > 0
    assert d == pytest.approx(ch.gen.rho(x), rel=1e-4)


def test_flow_blowup_detection():
    ch = chart_x2()
    with pytest.raises(BlowUp):
        ch.flow_map(2.0, 0.9)  # remaining lifetime from 0.9 is 1/0.9 - 1


def test_saturated_generator_has_complete_flows():
    ch = AbelChart(VectorFieldGen.poly(2, 0.0, saturation=2.0))
    assert math.isinf(ch.t_sup)
    y = ch.flow_map(5.0, 0.5)
    assert y > 4.0  # unit speed far out


def test_negative_cubic_generator_domain():
    gen = VectorFieldGen.poly(2, -1.0)
    assert gen.positivity_bound == pytest.approx(1.0)
    ch = AbelChart(gen)
    assert ch.domain_sup <= 0.95
    assert math.isinf(ch.t_sup)  # the flow creeps toward the zero of rho
    with pytest.raises(DomainError):
        ch.abel_time(0.99)  # past the positivity cap
    # the time-1 map is certified only where its image stays in the chart
    phi = D.FlowGenerated(gen)
    assert math.isfinite(phi.domain_hint)
    for x in np.geomspace(1e-3, 0.9 * ch.blowup_x(1.0), 64):
        assert float(x) < phi.domain_hint
        assert phi(float(x)) <= ch.domain_sup


# -- fractional iterates ------------------------------------------------------------

def test_fractional_iterate_time_one_is_eval():
    phi = D.FlowGenerated(VectorFieldGen.poly(2, 0.0))
    x = 0.2
    assert fractional_iterate(phi, 1.0, x) == pytest.approx(phi(x), rel=1e-12)


def test_fractional_iterate_group_law():
    phi = D.FlowGenerated(VectorFieldGen.poly(2, 0.0))
    x = 0.15
    twice_half = fractional_iterate(phi, 0.5, fractional_iterate(phi, 0.5, x))
    assert abs(twice_half - phi(x)) <= 1e-10


def test_fractional_iterate_negative_time_oracle():
    phi = D.FlowGenerated(VectorFieldGen.poly(2, 0.0))
    assert fractional_iterate(phi, -1.0, 0.5) == pytest.approx(1.0 / 3.0,
                                                               rel=1e-11)


def test_fractional_iterate_requires_flow():
    with pytest.raises(CentralizerNotFlow):
        fractional_iterate(D.PolynomialMap((0, 1, 1)), 0.5, 0.1)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-1.0, max_value=0.9),
       st.floats(min_value=0.05, max_value=0.45))
def test_flow_additivity_property(t, x):
    ch = chart_x2()
    try:
        a = ch.flow_map(t, ch.flow_map(0.1, x))
        b = ch.flow_map(t + 0.1, x)
    except BlowUp:
        return
    assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


# -- Koenigs limit ---------------------------------------------------------------

def test_koenigs_linear_map_is_identity():
    phi = D.Linear(2.0)
    assert koenigs(phi, 0.3) == pytest.approx(0.3, rel=1e-12)


def test_koenigs_fixed_point():
    assert koenigs(D.Linear(2.0), 0.0) == 0.0


@pytest.mark.parametrize("c", [(0, 1.05, 1.0), (0, 2.0, 1.0), (0, 4.0, 1.0),
                               (0, 1.5, 0.0, 3.0)],
                         ids=["1.05", "2.0", "4.0", "cubic"])
def test_koenigs_conjugacy_residual(c):
    phi = D.PolynomialMap(c)
    mu = c[1]
    worst = 0.0
    for x in np.linspace(0.0, 0.5, 26):
        lhs = koenigs(phi, phi(x) if x > 0 else 0.0)
        rhs = mu * koenigs(phi, x)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    assert worst <= 1e-11


def test_koenigs_against_logarithm_oracle():
    # 2x + x^2 = (1+x)^2 - 1 linearizes through log(1+x); the relative
    # stop keeps small x as accurate as large x
    phi = D.PolynomialMap((0, 2.0, 1.0))
    for x in np.geomspace(1e-6, 1e4, 61):
        assert koenigs(phi, x) == pytest.approx(math.log1p(x),
                                                rel=1e-11, abs=0.0)


def test_koenigs_rejects_tangent_to_identity():
    with pytest.raises(NotExpanding):
        koenigs(D.PolynomialMap((0, 1, 1)), 0.2)
