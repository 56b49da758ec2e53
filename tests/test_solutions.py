"""Eigenfunction solutions: construction, operator algebra, verification."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from schroeder import diffeo as D
from schroeder import solutions as S
from schroeder.errors import (
    BlowUp,
    DecayViolation,
    DegreeOverflow,
    DomainError,
    DomainExceeded,
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
    # 2**1024 overflows to inf, and |3 - inf| <= 1e-9 inf would hold; at
    # lambda = 1e308, 2 |lambda| = inf never stops the scan before it
    for lam in (3, 1e308):
        assert S.classify_resonance(2, lam, n_max=2000) == S.NonResonant()
        assert all(forced for _, forced in S.jet_constraints(2, lam, 2000))


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

def _to_coeff_dict(sol):
    # the coefficient-file format, written independently of its reader
    return {
        "lambda": {"re": sol.branch.lam.real, "im": sol.branch.lam.imag},
        "theta0": sol.branch.theta0,
        "layers": [
            {"j": j, "coeffs": [
                {"l": l, "re": v.real, "im": v.imag}
                for l, v in sorted(layer.items())]}
            for j, layer in enumerate(sol.layers)
        ],
    }


def test_coefficient_dict_roundtrip(setup_x2):
    phi, chart, branch = setup_x2
    sols = S.jordan_solve(branch, chart, 2, seeds=[{0: 1.0, -2: 0.5j}, {1: 2.0}])
    data = _to_coeff_dict(sols[1])
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


# -- the array evaluator and the residual kernel -----------------------------------

def _bits(z):
    # repr tells -0.0 from 0.0 and shows nan, which == does not
    z = complex(z)
    return repr(z.real), repr(z.imag)


def _random_solution(rng, chart, degree):
    lam = rng.uniform(1.2, 4.0) * cmath.exp(1j * rng.uniform(-3.14, 3.14))
    layers = []
    for _ in range(degree + 1):
        modes = rng.permutation(np.arange(-20, 21))[:rng.integers(1, 42)]
        layers.append({int(l): complex(rng.normal(), rng.normal())
                       * 4.0 ** (-abs(int(l))) for l in modes})
    return S.SchroederSolution(branch=S.LambdaBranch.principal(lam),
                               chart=chart, layers=tuple(layers))


def _assert_eval_times_matches(sol, xs):
    ts = [sol.chart.abel_time_float(x) for x in xs]
    got = S.eval_times(sol, ts, xs)
    assert [_bits(v) for v in got] == \
        [_bits(S.eval_solution(sol, x)) for x in xs]


@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize("seed", range(4))
def test_eval_times_matches_scalar_bit_for_bit(seed, degree):
    rng = np.random.default_rng([seed, degree])
    for gen in (VectorFieldGen.poly(2, 0.0), VectorFieldGen.poly(3, 0.5)):
        chart = AbelChart(gen)
        sol = _random_solution(rng, chart, degree)
        xs = [float(x) for x in
              np.geomspace(1e-4, 0.9 * chart.blowup_x(1.0), 200)]
        # points just past the magnitude guard, where only the layer term
        # log|t| keeps a solution of degree 1 alive (up to R t ~ -752)
        R = sol.branch.R
        xs += [chart.invert_abel(-(745.0 + d) / R)
               for d in (0.5, 2.0, 4.0, 10.0)]
        _assert_eval_times_matches(sol, xs)
        _assert_eval_times_matches(S.zero_solution(sol.branch, chart), xs)


def test_eval_times_dead_exponential_is_zero(setup_x2):
    phi, chart, branch = setup_x2
    sol = S.synthesize(branch, chart, {0: 1.0, 1: 0.5j, -1: 0.25})
    xs = [1e-5, 1e-4, 1e-3]            # R t = -99999, -9999, -999
    assert all(v == 0 for v in S.eval_times(
        sol, [chart.abel_time_float(x) for x in xs], xs))
    _assert_eval_times_matches(sol, xs)


def test_eval_times_keeps_the_sign_of_zero(setup_x2):
    # sum() starts from +0 and turns a -0.0 first term into +0.0; at
    # x0 = 1 (t = 0) each single-mode layer below is such a term
    phi, chart, branch = setup_x2
    for c in (complex(-1.0, -0.0), complex(-0.0, -1.0), complex(-0.0, -0.0)):
        for layers in (({0: c},), ({1: c},), ({0: c}, {-2: c})):
            sol = S.SchroederSolution(branch=branch, chart=chart,
                                      layers=layers)
            _assert_eval_times_matches(sol, [1.0, 0.5, 0.9])


def test_eval_times_flat_chart_minus_inf_times():
    chart = AbelChart(VectorFieldGen.flat())
    rng = np.random.default_rng(7)
    sol = _random_solution(rng, chart, 1)
    xs = [1e-300, 1e-100, 1e-3, 0.05, 0.5, 3.0]
    assert chart.abel_time_float(1e-100) == -math.inf
    _assert_eval_times_matches(sol, xs)


def test_eval_times_overflow_raises_as_the_scalar_path():
    # over rho = x^30 - 0.5 x^31 the Abel time grows without bound toward
    # x = 2; points with R t in (700, 709.7) take cmath.exp, and the first
    # point past the float range raises with its x
    chart = AbelChart(VectorFieldGen.poly(30, -0.5))
    branch = S.LambdaBranch.principal(2.0 + 1.0j)
    sol = S.synthesize(branch, chart, {0: 1.0, 2: 0.1, -1: 0.2j})
    R = branch.R
    hot = [chart.invert_abel(s / R) for s in (600.0, 701.0, 705.0, 709.0)]
    _assert_eval_times_matches(sol, hot)
    xs = hot + [chart.invert_abel(712.0 / R), chart.invert_abel(720.0 / R)]
    with pytest.raises(DomainError) as scalar:
        for x in xs:
            S.eval_solution(sol, x)
    with pytest.raises(DomainError) as array:
        S.eval_times(sol, [chart.abel_time_float(x) for x in xs], xs)
    assert str(array.value) == str(scalar.value)
    assert str(xs[4]) in str(array.value)


def test_eval_times_non_finite_times(setup_x2):
    phi, chart, branch = setup_x2
    sol = S.base_solution(branch, chart)
    assert all(np.isnan(S.eval_times(sol, [math.nan], [math.nan]).view(float)))
    with pytest.raises(DomainError, match="Abel time overflow"):
        S.eval_times(sol, [0.0, math.inf], [1.0, 2.0])


def _reference_rows(b, lam, phi, grid, prev=None):
    # the per-point residual kernel, with a second Abel time for abel_t
    values = []
    for x in grid:
        x = float(x)
        bx = b(x)
        rhs = lam * bx + (prev(x) if prev is not None else 0.0)
        try:
            r_abs = abs(b(phi(x)) - rhs)
        except (BlowUp, DomainExceeded):
            r_abs = math.nan
        values.append((x, bx, r_abs, abs(rhs)))
    scale = max((v[3] for v in values), default=0.0)
    rows = [{"x": x, "beta_re": bx.real, "beta_im": bx.imag,
             "residual_abs": r_abs,
             "residual_rel": (r_abs / max(mag, 1e-6 * scale, 1e-300)
                              if r_abs else 0.0)}
            for x, bx, r_abs, mag in values]
    for row in rows:
        row["abel_t"] = b.chart.abel_time_float(row["x"])
    return rows


def _assert_rows_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        assert {k: repr(v) for k, v in g.items()} == \
            {k: repr(v) for k, v in w.items()}


@pytest.mark.parametrize("n,a", [(2, 0.0), (3, 0.5)])
def test_residual_rows_match_the_point_loop(n, a):
    phi = D.FlowGenerated(VectorFieldGen.poly(n, a))
    chart = phi.chart
    rng = np.random.default_rng(n)
    grid = std_grid(chart)
    for _ in range(3):
        sol = _random_solution(rng, chart, 0)
        lam = sol.branch.lam
        # equation I, and equation II on a Jordan chain over the same modes
        _assert_rows_equal(S.residual_rows(sol, lam, phi, grid),
                           _reference_rows(sol, lam, phi, grid))
        chain = S.jordan_solve(sol.branch, chart, 2,
                               seeds=[sol.layers[0], {1: 0.5, -3: 0.1j}])
        _assert_rows_equal(
            S.residual_rows(chain[1], lam, phi, grid, prev=chain[0]),
            _reference_rows(chain[1], lam, phi, grid, prev=chain[0]))


def test_residual_rows_match_the_point_loop_on_escaping_rows(setup_x2):
    phi, chart, branch = setup_x2
    rng = np.random.default_rng(11)
    sol = _random_solution(rng, chart, 1)
    lam = sol.branch.lam
    grid = list(np.geomspace(1e-3, 3.0, 32)) + [0.05, 0.2, 0.5, 2.0]
    rows = S.residual_rows(sol, lam, phi, grid)
    _assert_rows_equal(rows, _reference_rows(sol, lam, phi, grid))
    # over rho = x^2 every x >= 1 escapes
    assert [math.isnan(r["residual_rel"]) for r in rows] == \
        [x >= 1.0 for x in grid]
    prev = S.base_solution(sol.branch, chart)
    _assert_rows_equal(S.residual_rows(sol, lam, phi, grid, prev=prev),
                       _reference_rows(sol, lam, phi, grid, prev=prev))
    # the zero solution, whose escaped rows carry nan and not 0
    zero = S.zero_solution(sol.branch, chart)
    rows = S.residual_rows(zero, lam, phi, grid)
    _assert_rows_equal(rows, _reference_rows(zero, lam, phi, grid))
    assert [math.isnan(r["residual_abs"]) for r in rows] == \
        [x >= 1.0 for x in grid]


def test_flat_verify_computes_one_abel_time_per_point(monkeypatch):
    # the abel_t column reuses the evaluation time: on 64 points the
    # per-point kernel made 438 Ei calls, 64 of them for that column
    phi = D.FlowGenerated(VectorFieldGen.flat())
    sol = S.base_solution(S.LambdaBranch.principal(math.e), phi.chart)
    calls = []
    ei = mpmath.ei
    monkeypatch.setattr(mpmath, "ei", lambda *a, **k: calls.append(1)
                        or ei(*a, **k))
    rep = S.verify_residual(sol, phi, np.geomspace(1e-3, 9.0, 64))
    assert rep.passed
    assert len(calls) == 341
