"""Group algebra of boundary-compatible automorphisms."""

import cmath
import math

import numpy as np
import pytest

from schroeder import autgroup as A
from schroeder import diffeo as D
from schroeder import solutions as S
from schroeder.errors import (
    BoundaryMismatch,
    CentralizerNotFlow,
    MixedComponent,
)
from schroeder.flow import VectorFieldGen

ZS = [0.3 + 0.4j, -1.2 + 0.1j, 2.0 - 0.5j]
XS = [0.05, 0.2, 0.5, 0.8]


@pytest.fixture(scope="module")
def data_x2():
    return A.ReebData.from_flow(VectorFieldGen.poly(2, 0.0), math.e)


def deviation(f, g, xs=XS):
    worst = 0.0
    for z in ZS:
        for x in xs:
            (z1, x1) = f.leafwise(z, x)
            (z2, x2) = g.leafwise(z, x)
            worst = max(worst, abs(z1 - z2), abs(float(x1) - float(x2)))
    return worst


def random_element(data, rng):
    a = cmath.exp(complex(rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi)))
    coeffs = {l: complex(rng.normal(), rng.normal()) * 4.0 ** (-abs(l))
              for l in range(-3, 4)}
    b = S.synthesize(data.branch, data.chart, coeffs)
    return A.normalize(A.AutElement(data=data, a=a, b=b,
                                    t=float(rng.uniform(0, 1))))


# -- composition ----------------------------------------------------------------

def test_identity_laws(data_x2):
    rng = np.random.default_rng(3)
    ident = A.identity_element(data_x2)
    f = random_element(data_x2, rng)
    assert deviation(A.compose(ident, f), f) <= 1e-14
    assert deviation(A.compose(f, ident), f) <= 1e-14


def test_associativity_random_triple(data_x2):
    rng = np.random.default_rng(11)
    f, g, h = (random_element(data_x2, rng) for _ in range(3))
    lhs = A.compose(A.compose(f, g), h)
    rhs = A.compose(f, A.compose(g, h))
    assert deviation(lhs, rhs) <= 1e-10


def test_conjugation_scales_translation_exactly(data_x2):
    b = S.base_solution(data_x2.branch, data_x2.chart)
    a0 = 2j
    g_scale = A.AutElement(data=data_x2, a=a0,
                           b=data_x2.zero_translation(), t=0.0)
    g_trans = A.AutElement(data=data_x2, a=1.0 + 0.0j, b=b, t=0.0)
    conj = A.compose(A.invert(g_scale), A.compose(g_trans, g_scale))
    want = S.scale_solution(1.0 / a0, b)
    assert conj.b.layers == want.layers
    assert conj.t == 0.0


def test_mixed_component_rejected(data_x2):
    other = A.ReebData.from_flow(VectorFieldGen.poly(2, 0.5), math.e)
    rng = np.random.default_rng(5)
    with pytest.raises(MixedComponent):
        A.compose(random_element(data_x2, rng), random_element(other, rng))


# -- inversion ------------------------------------------------------------------

def test_invert_identity(data_x2):
    ident = A.identity_element(data_x2)
    assert deviation(A.invert(ident), ident) == 0.0


def test_invert_pure_scaling(data_x2):
    g = A.AutElement(data=data_x2, a=2.0 + 0.0j,
                     b=data_x2.zero_translation(), t=0.0)
    inv = A.invert(g)
    assert inv.a == 0.5 and inv.t == 0.0


def test_invert_roundtrip_random(data_x2):
    rng = np.random.default_rng(17)
    ident = A.identity_element(data_x2)
    f = random_element(data_x2, rng)
    assert deviation(A.compose(A.invert(f), f), ident) <= 1e-10
    assert deviation(A.compose(f, A.invert(f)), ident) <= 1e-10


# -- normalization ----------------------------------------------------------------

def test_normalize_in_domain_is_noop(data_x2):
    f = A.AutElement(data=data_x2, a=1.5 + 0j,
                     b=data_x2.zero_translation(), t=0.3)
    assert A.normalize(f) is f


def test_normalize_unit_shift(data_x2):
    lam = data_x2.lam
    b = S.base_solution(data_x2.branch, data_x2.chart)
    f = A.AutElement(data=data_x2, a=2.0 + 0j, b=b, t=1.0)
    n = A.normalize(f)
    assert n.t == 0.0
    assert n.a == pytest.approx(2.0 * lam ** (-1))
    assert n.b.layers[0][0] == pytest.approx(lam ** (-1))
    # the normalized triple is the same automorphism modulo the deck map:
    # composing with the pure deck shift recovers the original leafwise map
    for z in ZS:
        for x in (0.05, 0.2):
            z1, x1 = f.leafwise(z, x)
            z2, x2 = n.leafwise(lam * z, data_x2.phi(x))
            assert abs(z1 * lam - z2 * lam ** 0) <= 1e-9 * max(1, abs(z1)) \
                or abs(z2 - lam * z1 / lam) <= 1e-9


def test_normalize_idempotent_bytewise(data_x2):
    f = A.AutElement(data=data_x2, a=1 + 2j,
                     b=S.base_solution(data_x2.branch, data_x2.chart), t=1.7)
    once = A.normalize(f)
    assert A.normalize(once) is once
    assert 0.0 <= once.t < 1.0


# -- boundary restriction -----------------------------------------------------------

def test_restrict_identity(data_x2):
    c = A.restrict_boundary(A.identity_element(data_x2))
    assert c.isclose(A.BoundaryClass.of(1.0, data_x2.lam))


def test_restrict_deck_invariance(data_x2):
    lam = data_x2.lam
    a0 = 1.3 - 0.4j
    c1 = A.BoundaryClass.of(a0, lam)
    c2 = A.BoundaryClass.of(lam * a0, lam)
    c3 = A.BoundaryClass.of(a0 / lam, lam)
    assert c1.distance(c2) <= 1e-12
    assert c1.distance(c3) <= 1e-12


def test_restrict_is_homomorphism(data_x2):
    rng = np.random.default_rng(23)
    for _ in range(10):
        f, g = random_element(data_x2, rng), random_element(data_x2, rng)
        lhs = A.restrict_boundary(A.compose(f, g))
        rhs = A.restrict_boundary(f) * A.restrict_boundary(g)
        assert lhs.distance(rhs) <= 1e-10


def test_boundary_class_complex_multiplier():
    lam = 2.0 * cmath.exp(0.7j)
    c1 = A.BoundaryClass.of(0.9 + 0.2j, lam)
    c2 = A.BoundaryClass.of(lam * (0.9 + 0.2j), lam)
    assert c1.distance(c2) <= 1e-12


# -- the splitting section -------------------------------------------------------------

def test_section_unit(data_x2):
    s = A.section(1.0, data_x2)
    assert s.a == 1.0 and s.t == 0.0


def test_section_flow_time(data_x2):
    s = A.section(math.exp(0.5), data_x2)
    assert s.t == pytest.approx(0.5, abs=1e-14)


def test_section_splits_restriction(data_x2):
    rng = np.random.default_rng(29)
    for _ in range(10):
        a = cmath.exp(complex(rng.uniform(-2, 2), rng.uniform(-3, 3)))
        c = A.restrict_boundary(A.section(a, data_x2))
        assert c.distance(A.BoundaryClass.of(a, data_x2.lam)) <= 1e-10


def test_section_multiplicative(data_x2):
    a1, a2 = 2.0, 3.0 + 1.0j
    lhs = A.compose(A.section(a1, data_x2), A.section(a2, data_x2))
    rhs = A.section(a1 * a2, data_x2)
    assert deviation(lhs, rhs) <= 1e-9


def test_tangency_without_generator_rejected_at_construction():
    # a map tangent to the identity with no generator could have a wild
    # centralizer; the component data refuses it outright
    with pytest.raises(CentralizerNotFlow):
        A.ReebData(branch=S.LambdaBranch.principal(2.0),
                   phi=D.PolynomialMap((0, 1, 1)))


def test_case1_polynomial_map_flow():
    # phi = 2x + x^2 linearizes through log(1+x): the time-t map is
    # sigma^-1(2**t sigma(x)) = expm1(2**t log1p(x))
    data = A.ReebData(branch=S.LambdaBranch.principal(4.0),
                      phi=D.PolynomialMap((0, 2.0, 1.0)))
    for t in (-0.5, 0.25, 0.5, 0.9):
        for x in np.geomspace(1e-3, 0.5, 12):
            want = math.expm1(2.0**t * math.log1p(x))
            assert data.flow(t, x) == pytest.approx(want, rel=1e-11, abs=0.0)
    x = 0.3
    assert data.flow(0.5, data.flow(0.5, x)) == pytest.approx(
        data.phi(x), rel=1e-9)
    # near mu = 1 the descent is long; the flow still obeys the semigroup law
    slow = A.ReebData(branch=S.LambdaBranch.principal(1.05**2),
                      phi=D.PolynomialMap((0, 1.05, 1.0)))
    for s, t in ((0.3, 0.4), (0.5, 0.5), (0.9, -0.4)):
        assert slow.flow(s, slow.flow(t, x)) == pytest.approx(
            slow.flow(s + t, x), rel=1e-9)
    assert slow.flow(0.5, slow.flow(0.5, x)) == pytest.approx(
        slow.phi(x), rel=1e-9)


# -- kernel structure -------------------------------------------------------------------

def test_kernel_composition_is_coefficient_addition(data_x2):
    b1 = S.synthesize(data_x2.branch, data_x2.chart, {0: 1.0, 1: 0.5})
    b2 = S.synthesize(data_x2.branch, data_x2.chart, {0: -0.25j, 2: 0.125})
    k1 = A.AutElement(data=data_x2, a=1.0 + 0.0j, b=b1, t=0.0)
    k2 = A.AutElement(data=data_x2, a=1.0 + 0.0j, b=b2, t=0.0)
    comp = A.compose(k1, k2)
    want = S.add_solutions(1.0, b1, 1.0, b2)
    assert comp.a == 1.0 and comp.t == 0.0
    assert comp.b.layers == want.layers


# -- lemma conditions ---------------------------------------------------------------------

def test_lemma_conditions_identity(data_x2):
    rep = A.verify_lemma_conditions(A.identity_element(data_x2),
                                    np.geomspace(1e-3, 0.8, 16))
    assert rep.passed
    assert rep.check_value("b_eigen_residual_rel").value == 0.0
    assert rep.check_value("c_commutation").value == 0.0


def test_lemma_conditions_flow_time(data_x2):
    b = S.base_solution(data_x2.branch, data_x2.chart)
    f = A.normalize(A.AutElement(data=data_x2, a=1.5 + 0j, b=b, t=0.7))
    rep = A.verify_lemma_conditions(f, np.geomspace(1e-3, 0.9, 24))
    assert rep.check_value("c_commutation").value <= 1e-9
    assert rep.passed


def test_lemma_conditions_corrupted_translation(data_x2):
    b = S.base_solution(data_x2.branch, data_x2.chart)
    bump = lambda x: S.eval_solution(b, x) + 0.01 * x
    f = A.AutElement(data=data_x2, a=1.0 + 0.0j, b=bump, t=0.0)
    rep = A.verify_lemma_conditions(f, np.geomspace(1e-3, 0.9, 24))
    assert not rep.check_value("b_eigen_residual_rel").passed


# -- fiber products -------------------------------------------------------------------------

def test_fiber_identity_pair(data_x2):
    other = A.ReebData.from_flow(VectorFieldGen.poly(2, 0.5), math.e)
    pair = A.fiber_product(A.identity_element(data_x2),
                           A.identity_element(other))
    assert isinstance(pair, A.MatchedPair)


def test_fiber_deck_shifted_pair(data_x2):
    other = A.ReebData.from_flow(VectorFieldGen.poly(2, 0.5), math.e)
    lam = data_x2.lam
    f = A.section(2.0, data_x2)
    g = A.section(2.0 * lam ** 2, other)
    pair = A.fiber_product(f, g)
    comp = pair.compose(pair)
    assert isinstance(comp, A.MatchedPair)


def test_fiber_mismatch_carries_classes(data_x2):
    other = A.ReebData.from_flow(VectorFieldGen.poly(2, 0.5), math.e)
    f = A.section(2.0, data_x2)
    g = A.section(3.0, other)
    with pytest.raises(BoundaryMismatch) as exc:
        A.fiber_product(f, g)
    assert exc.value.class_a is not None
    assert exc.value.distance > 1e-10


def test_fiber_requires_equal_multiplier(data_x2):
    other = A.ReebData.from_flow(VectorFieldGen.poly(2, 0.0), 3.0)
    with pytest.raises(MixedComponent):
        A.fiber_product(A.identity_element(data_x2),
                        A.identity_element(other))


# -- linear-holonomy elements -------------------------------------------------------------------

@pytest.fixture(scope="module")
def data_linear():
    lin = D.Linear(2.0)
    return A.ReebData(branch=S.LambdaBranch.principal(4.0), phi=lin)


def test_case1_group_laws(data_linear):
    lin = data_linear.phi
    b1 = A.Case1Solution(1.0 + 0.0j, 2, 2.0, lin)
    b2 = A.Case1Solution(0.5j, 2, 2.0, lin)
    e1 = A.normalize(A.AutElement(data=data_linear, a=1 + 1j, b=b1, t=0.3))
    e2 = A.normalize(A.AutElement(data=data_linear, a=0.5 - 2j, b=b2, t=0.6))
    xs = [0.05, 0.2, 0.5]
    assert deviation(A.compose(A.compose(e1, e2), e1),
                     A.compose(e1, A.compose(e2, e1)), xs) <= 1e-10
    assert deviation(A.compose(A.invert(e1), e1),
                     A.identity_element(data_linear), xs) <= 1e-10


def test_case1_translation_satisfies_equation(data_linear):
    lin = data_linear.phi
    b = A.Case1Solution(0.7 - 0.2j, 2, 2.0, lin)
    f = A.AutElement(data=data_linear, a=1.0 + 0j, b=b, t=0.0)
    rep = A.verify_lemma_conditions(f, np.geomspace(0.01, 1.0, 12))
    assert rep.passed

