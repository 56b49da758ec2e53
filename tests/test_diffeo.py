"""Half-line diffeomorphisms: evaluation, inversion, jets, normal forms."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from schroeder import diffeo as D
from schroeder import series
from schroeder.errors import (
    DomainExceeded,
    InsufficientJets,
    InvalidInput,
    NoBracket,
    NoConvergence,
    NotExpanding,
)
from schroeder.flow import VectorFieldGen


def flow_x2(time=1.0):
    return D.FlowGenerated(VectorFieldGen.poly(2, 0.0), time=time)


# -- evaluation -------------------------------------------------------------

def test_eval_linear():
    assert D.Linear(2.0)(1.0) == 2.0


def test_eval_flow_closed_form():
    # flow of x**2 for time 1 is x/(1-x)
    phi = flow_x2()
    assert phi(0.1) == pytest.approx(0.1 / 0.9, rel=1e-12)


def test_eval_zero_fixed():
    for phi in (D.Linear(3.0), D.PolynomialMap((0, 1, 1)), flow_x2(),
                D.PolynomialMap((0, 2.0, 1.0))):
        assert phi(0.0) == 0.0


def test_eval_domain_exceeded():
    phi = flow_x2()
    with pytest.raises(DomainExceeded):
        phi(1.5)
    with pytest.raises(DomainExceeded):
        phi(-0.1)


# -- inverse ----------------------------------------------------------------

def test_inverse_linear():
    assert D.Linear(2.0).inverse_value(1.0) == 0.5


def test_inverse_flow_closed_form():
    # inverse of x/(1-x) is y/(1+y)
    phi = flow_x2()
    assert phi.inverse_value(0.25) == pytest.approx(0.2, rel=1e-12)


def test_inverse_roundtrip_various():
    maps = [D.Linear(1.7), D.PolynomialMap((0, 1, 1)), flow_x2(),
            D.PolynomialMap((0, 2.0, 1.0))]
    for phi in maps:
        for y in (1e-4, 0.05, 0.3, 0.8):
            x = phi.inverse_value(y)
            assert abs(phi(x) - y) <= 1e-12 * max(1.0, abs(y))


def test_inverse_no_bracket():
    for phi in (D.Linear(2.0), D.PolynomialMap((0, 2.0, 1.0)), flow_x2()):
        for y in (-1.0, math.nan):
            with pytest.raises(NoBracket):
                phi.inverse_value(y)


@pytest.mark.parametrize("c", [(0, 1.05, 1), (0, 2, 1), (0, 1, 1), (0, 4, 1),
                               (0, 1.5, 0, 3)])
def test_polynomial_inverse_against_mpmath_root(c):
    # the positive real root of phi(x) = y at 40 digits
    phi = D.PolynomialMap(c)
    with mpmath.workdps(40):
        for y in np.geomspace(1e-6, 10.0, 61):
            roots = mpmath.polyroots(list(reversed(c[1:])) + [-y],
                                     maxsteps=200, extraprec=80)
            want = max(mpmath.re(r) for r in roots
                       if abs(mpmath.im(r)) < 1e-30)
            got = phi.inverse_value(y)
            assert abs(got - want) <= 4.5e-16 * want, (c, y, got)


def test_polynomial_inverse_budget_raises(monkeypatch):
    monkeypatch.setattr(D, "_NEWTON_STEPS", 1)
    with pytest.raises(NoConvergence):
        D.PolynomialMap((0, 2.0, 1.0)).inverse_value(3.0)


def test_flow_inverse_stays_in_certified_image():
    # poly(4, 0.5) maps domain_hint to about 21.2; the backward flow of a
    # larger y lands past domain_hint, where phi raises DomainExceeded
    phi = D.FlowGenerated(VectorFieldGen.poly(4, 0.5))
    top = phi(phi.domain_hint)
    x = phi.inverse_value(0.999 * top)
    assert x <= phi.domain_hint
    # phi' is about 1e10 here, so an ulp of x moves phi(x) by about 1e-8
    assert phi(x) == pytest.approx(0.999 * top, rel=1e-6)
    with pytest.raises(NoBracket):
        phi.inverse_value(2.0 * top)


# -- iteration --------------------------------------------------------------

def test_iterate_linear_power():
    assert D.iterate(D.Linear(2.0), 3, 1.0) == 8.0


def test_iterate_flow_closed_form():
    phi = flow_x2()
    assert D.iterate(phi, 2, 0.1) == pytest.approx(0.1 / 0.8, rel=1e-11)


def test_iterate_negative_matches_inverse():
    phi = flow_x2()
    assert D.iterate(phi, -1, 0.5) == pytest.approx(phi.inverse_value(0.5),
                                                    rel=1e-12)


def test_iterate_zero_is_identity():
    assert D.iterate(flow_x2(), 0, 0.37) == 0.37


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=-4, max_value=4),
       st.integers(min_value=-4, max_value=4))
def test_iterate_additivity(k, m):
    phi = D.PolynomialMap((0, 1, 1))
    x = 0.08
    a = D.iterate(phi, k + m, x)
    b = D.iterate(phi, k, D.iterate(phi, m, x))
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


# -- expansion and monotonicity properties ------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-6, max_value=0.9))
def test_monotone_expansion_flow(x):
    phi = flow_x2()
    y = phi(x)
    assert y > x
    x2 = min(x * 1.5, 0.95)
    if x2 > x:
        assert phi(x2) > y


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-6, max_value=50.0),
       st.floats(min_value=1.01, max_value=10.0))
def test_monotone_expansion_linear(x, mu):
    phi = D.Linear(mu)
    assert phi(x) > x


# -- classification ----------------------------------------------------------

def test_classify_cases():
    assert D.classify_case(D.JetData((0, 2, 1))) == D.Case1(2.0)
    assert D.classify_case(D.JetData((0, 1, 1))) == D.Case2(2)
    assert D.classify_case(D.JetData((0, 1, 0, 0.5))) == D.Case2(3)
    assert D.classify_case(D.JetData((0, 1, 0, 0), flat=True)) == D.Case3()


def test_classify_rejects_contraction():
    with pytest.raises(NotExpanding):
        D.JetData((0, 0.5, 0))
    with pytest.raises(NotExpanding):
        D.classify_case(D.JetData((0, 1, -1.0), expanding=True))


def test_classify_needs_flat_declaration():
    with pytest.raises(InsufficientJets):
        D.classify_case(D.JetData((0, 1, 0, 0)))


def check_jet_consistency(phi, jets, k_max=3, h=1e-4, tol_scale=1e-6):
    """Finite-difference audit of declared jets at the origin.

    One-sided differences at step h with one Richardson level; the k-th
    derivative must match coefficients[k] * k! within tol_scale * k!.
    Returns the list of (k, estimate, target, ok).
    """
    def forward_diff(step, k):
        return sum(
            (-1) ** (k - i) * math.comb(k, i) * phi(i * step)
            for i in range(k + 1)
        ) / step**k

    rows = []
    for k in range(1, k_max + 1):
        d_h = forward_diff(h, k)
        d_h2 = forward_diff(h / 2, k)
        est = 2.0 * d_h2 - d_h  # kills the O(h) one-sided error term
        target = (float(jets.coefficients[k]) * math.factorial(k)
                  if k <= jets.order else 0.0)
        ok = abs(est - target) <= tol_scale * math.factorial(k)
        rows.append((k, est, target, ok))
    return rows


def test_jet_consistency_finite_differences():
    for phi in (D.PolynomialMap((0, 1, 1, 0.5)), flow_x2(),
                D.PolynomialMap((0, 2.0, 1.0))):
        rows = phi.jets(4), check_jet_consistency(phi, phi.jets(4), k_max=3)
        for k, est, target, ok in rows[1]:
            assert ok, (phi, k, est, target)


# -- composition derivatives ---------------------------------------------------

def test_composition_identity_inner():
    beta = [3.0, -2.0, 7.0]
    out = series.bell_composition_derivatives(beta, [1.0, 0.0, 0.0], 3)
    assert out == beta


def test_composition_chain_rule_order_one():
    out = series.bell_composition_derivatives([3.0, 0.0], [2.5, 0.0], 1)
    assert out[0] == 2.5 * 3.0


def test_composition_order_two_against_sympy():
    # beta(u) = u**2 composed with phi(x) = x/(1-x) at x = 0.1
    x = sp.symbols("x")
    phi_expr = x / (1 - x)
    comp = phi_expr**2
    x0 = 0.1
    u0 = float(phi_expr.subs(x, x0))
    beta_derivs = [2.0 * u0, 2.0]
    phi_derivs = [float(sp.diff(phi_expr, x, k).subs(x, x0)) for k in (1, 2)]
    got = series.bell_composition_derivatives(beta_derivs, phi_derivs, 2)
    want = [float(sp.diff(comp, x, k).subs(x, x0)) for k in (1, 2)]
    assert got[0] == pytest.approx(want[0], abs=1e-10)
    assert got[1] == pytest.approx(want[1], abs=1e-10)


def test_composition_flattening_inner_limit():
    # as the inner map flattens to a translation the output tends to the
    # input derivatives (the correction polynomials vanish)
    beta = [1.5, -0.3, 2.0, 0.7]
    for eps in (1e-2, 1e-4, 1e-6):
        phi_derivs = [1.0 + eps, eps, eps, eps]
        out = series.bell_composition_derivatives(beta, phi_derivs, 4)
        dev = max(abs(a - b) for a, b in zip(out, beta))
        assert dev <= 50 * eps


# -- Takens normal form ---------------------------------------------------------

def test_takens_fixed_point_of_reduction():
    jets = D.JetData((0, 1, 1, Fraction(3, 4)))
    nf = D.takens_normalize(jets)
    assert nf.n == 2
    assert nf.alpha == Fraction(3, 4)
    assert nf.conjugacy_jets.coefficients == (0, 1, 0, 0)


@pytest.mark.parametrize("a", [Fraction(-1), Fraction(0), Fraction(1, 2)])
def test_takens_recovers_flow_coefficient(a):
    # time-1 map of x^2 + a x^3 has normal form alpha = a + n/2, n = 2
    phi = D.FlowGenerated(VectorFieldGen.poly(2, float(a)))
    nf = D.takens_normalize(phi.jets(3))
    assert nf.n == 2
    assert nf.alpha == a + 1


def test_takens_rescaling_against_composition_oracle():
    # x + 2x^2 + 5x^3: conjugate by s = 1/2 and verify by exact composition
    jets = D.JetData((0, Fraction(1), Fraction(2), Fraction(5)))
    nf = D.takens_normalize(jets)
    assert nf.n == 2
    h = list(nf.conjugacy_jets.coefficients)
    h_inv = series.series_inverse(h, 3)
    composed = series.series_compose(
        h_inv, series.series_compose(list(jets.coefficients), h, 3), 3)
    assert composed == [0, 1, 1, nf.alpha]


def test_takens_with_elimination_step():
    # n = 3 with a spurious degree-4 term the reduction must kill
    jets = D.JetData((0, Fraction(1), 0, Fraction(1), Fraction(2),
                      Fraction(0)))
    nf = D.takens_normalize(jets)
    assert nf.n == 3
    h = list(nf.conjugacy_jets.coefficients)
    h_inv = series.series_inverse(h, 5)
    composed = series.series_compose(
        h_inv, series.series_compose(list(jets.coefficients), h, 5), 5)
    assert composed[:5] == [0, 1, 0, 1, 0]
    assert composed[5] == nf.alpha


def test_takens_insufficient_jets():
    with pytest.raises(InsufficientJets):
        D.takens_normalize(D.JetData((0, 1, 1)))


def test_takens_requires_case_two():
    with pytest.raises(NotExpanding):
        D.takens_normalize(D.JetData((0, 2, 1, 0)))


@pytest.mark.parametrize("make, arg", [
    (D.Linear, math.inf), (D.Linear, math.nan),
    (D.PolynomialMap, (0, 2, math.inf)), (D.PolynomialMap, (0, 2, math.nan)),
    (D.PolynomialMap, (0, math.inf))])
def test_non_finite_map_coefficients_are_rejected(make, arg):
    with pytest.raises(InvalidInput):
        make(arg)


def test_big_integer_coefficients_are_finite():
    assert D.PolynomialMap((0, 2, 10**400)).jets(2).coefficients[2] == 10**400


# -- germ descriptors -------------------------------------------------------------

def test_from_germ_linear():
    phi = D.from_germ({"kind": "linear", "mu": 2.0})
    assert isinstance(phi, D.Linear) and phi(1.0) == 2.0


def test_from_germ_takens():
    # the polynomial normal form is no map model: no command completes on it
    with pytest.raises(InvalidInput):
        D.from_germ({"kind": "takens", "n": 2, "alpha": 0.0, "x1": 0.25})


def test_from_germ_flow_poly_and_flat():
    phi = D.from_germ({"kind": "flow",
                       "rho": {"kind": "poly", "n": 2, "a": 0.0},
                       "time": 1.0})
    assert phi(0.1) == pytest.approx(1.0 / 9.0, rel=1e-12)
    psi = D.from_germ({"kind": "flow", "rho": {"kind": "flat",
                                               "form": "exp(-1/x)"}})
    assert float(psi(0.5)) > 0.5


def test_from_germ_rejects_unknown():
    with pytest.raises(ValueError):
        D.from_germ({"kind": "spline"})
    with pytest.raises(ValueError):
        D.from_germ({"kind": "flow", "rho": {"kind": "flat",
                                             "form": "exp(-2/x)"}})
