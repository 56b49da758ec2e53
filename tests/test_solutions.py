"""Eigenfunction solutions: construction, operator algebra, verification."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from schroeder import diffeo as D
from schroeder import solutions as S
from schroeder.errors import (
    DecayViolation,
    DegreeOverflow,
    NonResonantRequest,
    StepTooSmall,
)
from schroeder.flow import AbelChart, VectorFieldGen


@pytest.fixture(scope="module")
def setup_x2():
    gen = VectorFieldGen.poly(2, 0.0)
    phi = D.FlowGenerated(gen)
    branch = S.LambdaBranch.principal(math.e)
    return phi, phi.chart, branch


def std_grid(chart, count=64):
    return np.geomspace(1e-3, 0.9 * chart.blowup_x(1.0), count)


# -- the multiplier branch ------------------------------------------------------

def test_branch_exponentiates_back():
    for lam in (2.0, math.e, 2 + 1j, -3 + 0.5j):
        br = S.LambdaBranch.principal(lam)
        for l in (-2, 0, 3):
            assert abs(cmath.exp(br.log_value(l)) - complex(lam)) \
                <= 1e-14 * abs(lam)
        assert br.R > 0


def test_branch_rejects_contraction_and_bad_theta():
    with pytest.raises(ValueError):
        S.LambdaBranch.principal(0.5)
    with pytest.raises(ValueError):
        S.LambdaBranch(2.0 + 0j, theta0=1.0)


# -- base solution and Fourier basis ----------------------------------------------

def test_base_solution_normalization(setup_x2):
    phi, chart, branch = setup_x2
    bs = S.base_solution(branch, chart)
    assert S.eval_solution(bs, chart.x0) == 1.0 + 0.0j


def test_base_solution_closed_form(setup_x2):
    # exp(Lambda * t) with t = 1 - 1/x for the quadratic generator
    phi, chart, branch = setup_x2
    bs = S.base_solution(branch, chart)
    assert S.eval_solution(bs, 0.5) == pytest.approx(math.exp(-1), rel=1e-12)
    assert S.eval_solution(bs, 0.25) == pytest.approx(math.exp(-3), rel=1e-12)


def test_base_solution_residual(setup_x2):
    phi, chart, branch = setup_x2
    bs = S.base_solution(branch, chart)
    rep = S.verify_residual(bs, phi, std_grid(chart))
    assert rep.check_value("max_residual_rel").value <= 1e-8
    assert rep.passed


def test_eval_at_zero_is_zero(setup_x2):
    phi, chart, branch = setup_x2
    bs = S.base_solution(branch, chart)
    assert S.eval_solution(bs, 0.0) == 0.0 + 0.0j
    assert S.eval_solution(S.zero_solution(branch, chart), 0.7) == 0.0


def test_fourier_basis_l0_is_base(setup_x2):
    phi, chart, branch = setup_x2
    assert S.fourier_basis(branch, chart, 0).layers == \
        S.base_solution(branch, chart).layers


def test_fourier_basis_normalized(setup_x2):
    phi, chart, branch = setup_x2
    for l in (-5, -1, 1, 5):
        bl = S.fourier_basis(branch, chart, l)
        assert abs(S.eval_solution(bl, chart.x0) - 1.0) <= 1e-14


def test_fourier_basis_quarter_period_phase(setup_x2):
    phi, chart, branch = setup_x2
    x = chart.flow_map(0.25, chart.x0)
    b1 = S.fourier_basis(branch, chart, 1)
    b0 = S.base_solution(branch, chart)
    ratio = S.eval_solution(b1, x) / S.eval_solution(b0, x)
    assert abs(ratio - cmath.exp(0.5j * math.pi)) <= 1e-9


def test_fourier_basis_mode_cap(setup_x2):
    phi, chart, branch = setup_x2
    with pytest.raises(ValueError):
        S.fourier_basis(branch, chart, S.MODE_CAP + 1)


# -- synthesis ---------------------------------------------------------------------

def test_synthesize_zero(setup_x2):
    phi, chart, branch = setup_x2
    sol = S.synthesize(branch, chart, {})
    assert sol.is_zero
    assert S.eval_solution(sol, 0.3) == 0.0


def test_synthesize_single_mode_is_base(setup_x2):
    phi, chart, branch = setup_x2
    assert S.synthesize(branch, chart, {0: 1.0}).layers == \
        S.base_solution(branch, chart).layers


def test_synthesize_geometric_modes_residual(setup_x2):
    phi, chart, branch = setup_x2
    coeffs = {l: 2.0 ** (-abs(l)) for l in range(-10, 11)}
    sol = S.synthesize(branch, chart, coeffs)
    rep = S.verify_residual(sol, phi, std_grid(chart))
    assert rep.check_value("max_residual_rel").value <= 1e-8


def test_synthesize_decay_violation(setup_x2):
    phi, chart, branch = setup_x2
    with pytest.raises(DecayViolation):
        S.synthesize(branch, chart, {l: 1.0 for l in range(-30, 31)})


def test_linearity_of_evaluation(setup_x2):
    phi, chart, branch = setup_x2
    a = S.synthesize(branch, chart, {0: 1.0, 1: 0.25, -2: 0.1j})
    b = S.synthesize(branch, chart, {0: -0.5j, 2: 0.125})
    ca, cb = 1.7 - 0.3j, -2.2 + 1.1j
    combo = S.add_solutions(ca, a, cb, b)
    for x in (0.05, 0.3, 0.8):
        want = ca * S.eval_solution(a, x) + cb * S.eval_solution(b, x)
        assert abs(S.eval_solution(combo, x) - want) \
            <= 1e-12 * max(1.0, abs(want))


# -- the operator and chains --------------------------------------------------------

def test_operator_kernel_on_eigenfunctions(setup_x2):
    phi, chart, branch = setup_x2
    sol = S.synthesize(branch, chart, {0: 1.0, 3: 0.25})
    img = S.apply_operator(sol, phi)
    assert img.is_zero and img.layers == ()


def test_operator_on_first_layer(setup_x2):
    phi, chart, branch = setup_x2
    lam = branch.lam
    sol = S.SchroederSolution(branch=branch, chart=chart,
                              layers=({}, {0: 1.0 + 0.0j}))
    img = S.apply_operator(sol)
    assert img.layers == ({0: lam},)


def test_operator_nilpotent(setup_x2):
    phi, chart, branch = setup_x2
    sol = S.SchroederSolution(branch=branch, chart=chart,
                              layers=({0: 0.3}, {0: 1.0, 1: 0.5j}))
    once = S.apply_operator(sol)
    twice = S.apply_operator(once)
    assert twice.is_zero and twice.layers == ()


def test_chain_solution_roundtrip_exact(setup_x2):
    phi, chart, branch = setup_x2
    coeffs = {0: 1.0, 1: 0.5, -1: 0.25j}
    b1 = S.synthesize(branch, chart, coeffs)
    b2 = S.jordan_solve(branch, chart, 2, seeds=[coeffs, {}])[1]
    back = S.apply_operator(b2)
    assert back.layers == b1.layers or _max_coeff_dev(back, b1) <= 4e-16


def test_chain_zero(setup_x2):
    phi, chart, branch = setup_x2
    assert S.jordan_solve(branch, chart, 2, seeds=[{}, {}])[1].is_zero


def test_chain_closed_form_and_residual(setup_x2):
    phi, chart, branch = setup_x2
    bs = S.base_solution(branch, chart)
    b2 = S.jordan_solve(branch, chart, 2, seeds=[{0: 1.0}, {}])[1]
    # (1/e) * (1 - 1/x) * exp(1 - 1/x) at x = 0.5
    want = math.exp(-1) * (1 - 2.0) * math.exp(1 - 2.0)
    assert S.eval_solution(b2, 0.5) == pytest.approx(want, rel=1e-12)
    rep = S.verify_residual(b2, phi, std_grid(chart), equation="II", prev=bs)
    assert rep.check_value("max_residual_rel").value <= 1e-8


def _max_coeff_dev(a, b):
    worst = 0.0
    for j in range(max(len(a.layers), len(b.layers))):
        la = a.layers[j] if j < len(a.layers) else {}
        lb = b.layers[j] if j < len(b.layers) else {}
        for l in set(la) | set(lb):
            va, vb = la.get(l, 0.0), lb.get(l, 0.0)
            worst = max(worst, abs(va - vb) / max(1.0, abs(vb)))
    return worst


def test_jordan_m1_reduces_to_synthesis(setup_x2):
    phi, chart, branch = setup_x2
    sols = S.jordan_solve(branch, chart, 1, seeds=[{0: 1.0, 2: 0.5}])
    assert sols[0].layers == S.synthesize(branch, chart,
                                          {0: 1.0, 2: 0.5}).layers


def test_jordan_m2_matches_chain(setup_x2):
    phi, chart, branch = setup_x2
    sols = S.jordan_solve(branch, chart, 2, seeds=[{0: 1.0}, {}])
    bs = S.base_solution(branch, chart)
    assert sols[0].layers == bs.layers
    # the chain step of a degree-0 b1 is (1/lambda) * b1 * t
    chain = S.SchroederSolution(
        branch=branch, chart=chart,
        layers=({}, {l: v / branch.lam for l, v in bs.layers[0].items()}))
    assert _max_coeff_dev(sols[1], chain) <= 4e-16


def test_jordan_m3_chain_identities(setup_x2):
    phi, chart, branch = setup_x2
    sols = S.jordan_solve(branch, chart, 3,
                          seeds=[{0: 1.0, 1: 0.5}, {0: 0.25j}, {}])
    for m in (2, 1):
        img = S.apply_operator(sols[m], phi)
        assert _max_coeff_dev(img, sols[m - 1]) <= 4e-16
    grid = std_grid(chart, 32)
    rep = S.verify_residual(sols[1], phi, grid, equation="II", prev=sols[0])
    assert rep.check_value("max_residual_rel").value <= 1e-8
    rep = S.verify_residual(sols[2], phi, grid, equation="II", prev=sols[1])
    assert rep.check_value("max_residual_rel").value <= 1e-8


def test_jordan_degree_overflow(setup_x2):
    phi, chart, branch = setup_x2
    with pytest.raises(DegreeOverflow):
        S.jordan_solve(branch, chart, S.LAYER_CAP + 2)


# -- resonance ------------------------------------------------------------------------

def test_resonance_examples():
    assert S.classify_resonance(2, 4) == S.Resonant(2)
    assert S.classify_resonance(2, 2) == S.Resonant(1)
    assert S.classify_resonance(3, 9) == S.Resonant(2)
    assert S.classify_resonance(2, 3) == S.NonResonant()
    assert S.classify_resonance(2, 4.1) == S.NonResonant()
    assert S.classify_resonance(2, 4 + 0.001j) == S.NonResonant()


def test_jet_constraints_examples():
    rows = S.jet_constraints(2, 4, 5)
    assert [k for k, forced in rows if not forced] == [2]
    rows = S.jet_constraints(2, 3, 10)
    assert all(forced for _, forced in rows)
    rows = S.jet_constraints(3, 3, 3)
    assert [k for k, forced in rows if not forced] == [1]


def test_resonance_past_the_float_range():
    # 2**1024 overflows to inf, and |3 - inf| <= 1e-9 inf would hold
    assert S.classify_resonance(2, 3, n_max=2000) == S.NonResonant()
    assert all(forced for _, forced in S.jet_constraints(2, 3, 2000))


@pytest.mark.parametrize("mu,lam", [(2, 2), (2, 4), (2, 8), (3, 9),
                                    (2, 3), (2, 5), (2, 4.1), (1.5, 2 + 1j)])
def test_resonance_dichotomy_agreement(mu, lam):
    res = S.classify_resonance(mu, lam)
    unforced = [k for k, forced in S.jet_constraints(mu, lam, 10)
                if not forced]
    if isinstance(res, S.Resonant) and res.n <= 10:
        assert unforced == [res.n]
    else:
        assert unforced == []


# -- hyperbolic solutions ---------------------------------------------------------------

def test_hyperbolic_linear_map():
    lin = D.Linear(2.0)
    assert S.hyperbolic_solution(lin, 4.0, 3.0) == pytest.approx(9.0)
    assert S.hyperbolic_solution(lin, 3.0, 3.0) == 0.0


def test_hyperbolic_strict_raises():
    with pytest.raises(NonResonantRequest):
        S.hyperbolic_solution(D.Linear(2.0), 3.0, 1.0, strict=True)


def test_hyperbolic_quadratic_residual():
    phi = D.PolynomialMap((0, 2.0, 1.0))
    worst = 0.0
    for x in np.linspace(0.0, 0.5, 21):
        lhs = S.hyperbolic_solution(phi, 4.0, phi(x) if x > 0 else 0.0)
        rhs = 4.0 * S.hyperbolic_solution(phi, 4.0, x)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert worst <= 1e-8


def test_hyperbolic_proportional_to_oracle():
    # the solution space is one-dimensional: the iteration-limit route and
    # the closed-form linearizer log(1+x) give proportional squares
    phi = D.PolynomialMap((0, 2.0, 1.0))
    ratios = []
    for x in np.linspace(0.05, 0.5, 10):
        ratios.append(S.hyperbolic_solution(phi, 4.0, float(x)).real
                      / math.log1p(x) ** 2)
    spread = (max(ratios) - min(ratios)) / abs(np.mean(ratios))
    assert spread <= 1e-6


# -- verification reports ------------------------------------------------------------------

def test_verify_residual_zero_solution(setup_x2):
    phi, chart, branch = setup_x2
    rep = S.verify_residual(S.zero_solution(branch, chart), phi,
                            std_grid(chart, 16))
    assert rep.check_value("max_residual_abs").value == 0.0
    assert rep.passed


def test_verify_residual_corrupted_coefficient(setup_x2):
    # a stray chain layer breaks the pure eigen equation
    phi, chart, branch = setup_x2
    bad = S.SchroederSolution(branch=branch, chart=chart,
                              layers=({0: 1.0 + 0.0j}, {0: 0.01 + 0.0j}))
    rep = S.verify_residual(bad, phi, std_grid(chart, 16))
    assert not rep.passed


def test_flatness_zero_solution(setup_x2):
    phi, chart, branch = setup_x2
    rep = S.verify_flatness(S.zero_solution(branch, chart), 3,
                            [0.2, 0.1, 0.05, 0.025, 0.0125])
    assert rep.passed
    assert all(v == 0.0 for row in rep.tables["derivatives"]
               for k, v in row.items() if k != "x")


def test_flatness_poly_chart_tail_grid(setup_x2):
    # past the hump at x ~ 1/(2k) every derivative column decays; this grid
    # sits entirely in that regime for k <= 5
    phi, chart, branch = setup_x2
    bs = S.base_solution(branch, chart)
    rep = S.verify_flatness(bs, 5, [0.1, 0.05, 0.025, 0.0125, 0.00625])
    assert rep.passed


def test_flatness_poly_table_matches_exact_derivatives(setup_x2):
    # over rho = x^2 with lambda = e the base solution is e^(1 - 1/x); its
    # finite-difference table matches mpmath's derivatives, and those rise
    # from 0.2 to 0.1 for k = 3..5, so no correct table is monotone there
    phi, chart, branch = setup_x2
    bs = S.base_solution(branch, chart)
    grid = [0.2, 0.1, 0.05, 0.025, 0.0125]
    rep = S.verify_flatness(bs, 5, grid)
    with mpmath.workdps(30):
        beta = lambda u: mpmath.e ** (1 - 1 / u)
        exact = {(x, k): float(abs(mpmath.diff(beta, mpmath.mpf(x), k)))
                 for x in grid for k in range(1, 6)}
    for row in rep.tables["derivatives"]:
        for k in range(1, 6):
            assert row[f"d{k}"] == pytest.approx(exact[row["x"], k],
                                                 rel=5e-3)
    for k in (3, 4, 5):
        assert exact[0.1, k] > exact[0.2, k]


def test_flatness_flat_chart():
    gen = VectorFieldGen.flat()
    chart = AbelChart(gen)
    bs = S.base_solution(S.LambdaBranch.principal(math.e), chart)
    rep = S.verify_flatness(bs, 5, [0.2, 0.1, 0.05, 0.025, 0.0125])
    assert rep.passed


def test_flatness_evaluates_each_stencil_abscissa_once():
    # the stencils of orders 1..5 share 11 offsets (6 half-integers and 5
    # integers); the table must equal the formula evaluated per order
    calls = []

    def beta(x):
        calls.append(x)
        return cmath.exp(-1.0 / x + 3j / x)

    grid = [0.2, 0.1, 0.05, 0.025, 0.0125]
    rep = S.verify_flatness(beta, 5, grid)
    assert len(calls) <= 11 * len(grid)
    eps = np.finfo(float).eps
    for row, x in zip(rep.tables["derivatives"], grid):
        h = max(min(x / 7.0, 0.05 * x * x / 4.0), 64.0 * eps * x)
        for k in range(1, 6):
            num = 0.0
            for i in range(k + 1):
                num += ((-1) ** i * math.comb(k, i)
                        * abs(beta(x + (k / 2.0 - i) * h)))
            assert row[f"d{k}"] == abs(num / h**k)


def test_flatness_negative_control_quadratic():
    rep = S.verify_flatness(lambda x: x * x, 2,
                            [0.2, 0.1, 0.05, 0.025, 0.0125])
    row = rep.check_value("final_k2")
    assert row.value == pytest.approx(2.0, rel=1e-6)
    assert not row.passed


def test_flatness_step_too_small():
    with pytest.raises(StepTooSmall):
        S.verify_flatness(lambda x: 1.0 + x, 2,
                          [1e-10, 1e-11, 1e-12, 1e-13, 1e-14])


def test_flatness_requires_decreasing_grid(setup_x2):
    phi, chart, branch = setup_x2
    bs = S.base_solution(branch, chart)
    with pytest.raises(Exception):
        S.verify_flatness(bs, 2, [0.1, 0.2])


# -- coefficient files -------------------------------------------------------------------------

def test_coefficient_dict_roundtrip(setup_x2):
    phi, chart, branch = setup_x2
    sols = S.jordan_solve(branch, chart, 2, seeds=[{0: 1.0, -2: 0.5j}, {1: 2.0}])
    data = S.solution_to_coeff_dict(sols[1])
    back = S.solution_from_coeff_dict(data, chart)
    assert back.layers == sols[1].layers
    assert back.branch == sols[1].branch


def test_verify_residual_escaping_row_fails(setup_x2):
    phi, chart, branch = setup_x2
    # the escaping point is last: a plain max() would keep the finite values
    rep = S.verify_residual(S.base_solution(branch, chart), phi,
                            [0.05, 0.2, 0.5, 2.0])
    rows = rep.tables["residuals"]
    assert all(r["residual_rel"] <= 1e-8 for r in rows[:3])
    assert math.isnan(rows[-1]["residual_rel"])
    assert math.isnan(rep.check_value("max_residual_rel").value)
    assert not rep.passed


def test_sup_residual_keeps_nan():
    rows = [{"residual_rel": 0.0}, {"residual_rel": math.nan},
            {"residual_rel": 1e-3}]
    assert math.isnan(S.sup_residual(rows))
    assert S.sup_residual(rows[::2]) == 1e-3
    assert S.sup_residual([]) == 0.0
