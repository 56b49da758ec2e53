"""Solutions of the half-line eigenfunction equations of a pull-back operator.

For an expanding map phi with Abel chart t(x) and a constant lambda with
|lambda| > 1, the equation ``beta(phi(x)) = lambda beta(x)`` and its
Jordan-chain refinements ``beta_m(phi(x)) = lambda beta_m(x) + beta_{m-1}(x)``
are solved in the representation

    beta(x) = e**(L0 t(x)) * sum_j t(x)**j * sum_l c_{j,l} e**(2 pi i l t(x))

with L0 a fixed value of log(lambda) and rapidly decreasing mode
coefficients.  Pulling back by phi shifts t by 1, so the operator
``phi* - lambda`` acts exactly on coefficients; all chain algebra happens
at that level and evaluation error enters only through the chart.

The circle coordinate has period 1 throughout (one unit of Abel time per
application of the map).
"""

import cmath
import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import (
    BlowUp,
    DecayViolation,
    DegreeOverflow,
    DomainError,
    DomainExceeded,
    InvalidInput,
    NonResonantRequest,
    StepTooSmall,
)
from .flow import AbelChart, koenigs
from .report import VerificationReport

MODE_CAP = 64          # largest Fourier mode index handled by default
LAYER_CAP = 8          # largest polynomial degree in Abel time
FLATNESS_WINDOW = 5    # grid points the flatness verdict judges
K_MAX_CAP = 5000       # highest derivative order verify_flatness estimates
DEGREE_CAP = 100_000   # highest power mu**k the resonance checks scan
DECAY_P = 6            # power-law decay exponent demanded of coefficients
DECAY_ALLOWANCE = 4.0 ** DECAY_P

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class LambdaBranch:
    """A multiplier lambda with a fixed branch of its logarithm.

    ``L(l) = R + i (theta0 + 2 pi l)`` enumerates all values of log(lambda);
    the l = 0 branch is the one used in the solution representation.
    """

    lam: complex
    theta0: float

    def __post_init__(self):
        if not (cmath.isfinite(self.lam) and abs(self.lam) > 1
                and math.isfinite(self.theta0)):
            raise InvalidInput(f"need finite |lambda| > 1 and theta0, got "
                               f"{self.lam} and {self.theta0}")
        if abs(cmath.exp(complex(self.R, self.theta0)) - self.lam) \
                > 1e-14 * abs(self.lam):
            raise InvalidInput("theta0 is not an argument of lambda")

    @classmethod
    def principal(cls, lam):
        lam = complex(lam)
        return cls(lam=lam, theta0=cmath.phase(lam))

    @property
    def R(self):
        return math.log(abs(self.lam))

    def log_value(self, l=0):
        return complex(self.R, self.theta0 + _TWO_PI * l)


def _check_decay(coeffs, p=DECAY_P, allowance=DECAY_ALLOWANCE):
    """Power-law surrogate for rapid decrease on finite data.

    Requires |c_l| <= allowance * max|c| * (1+|l|)**(-p); geometric decay
    passes comfortably, constant or slowly decaying tails do not.
    """
    if not coeffs:
        return
    cmax = max(abs(v) for v in coeffs.values())
    if cmax == 0.0:
        return
    for l, v in coeffs.items():
        bound = allowance * cmax * (1.0 + abs(l)) ** (-p)
        if abs(v) > bound:
            raise DecayViolation(
                f"|c_{l}| = {abs(v):.3e} exceeds the decay bound {bound:.3e}")


def _clean(layer):
    try:
        return {int(l): complex(v) for l, v in layer.items() if v != 0}
    except (OverflowError, TypeError, ValueError):
        raise InvalidInput(f"coefficients map integer modes to numbers, "
                           f"got {layer}")


@dataclass(frozen=True)
class SchroederSolution:
    """Immutable layered solution over an Abel chart.

    ``layers[j]`` maps the Fourier mode l to the coefficient c_{j,l} of
    ``t**j e**(2 pi i l t)``; an empty tuple is the zero solution.  Pure
    eigenfunctions have a single layer; chain solutions carry higher j.
    """

    branch: LambdaBranch
    chart: AbelChart
    layers: tuple

    @property
    def degree(self):
        return len(self.layers) - 1

    @property
    def is_zero(self):
        return not any(self.layers)

    def modes(self):
        out = set()
        for layer in self.layers:
            out.update(layer.keys())
        return sorted(out)

    # the translation protocol shared with autgroup.Case1Solution

    def __call__(self, x):
        return eval_solution(self, x)

    def scaled(self, c):
        return scale_solution(c, self)

    def shifted(self, s):
        return shift_solution(self, s)

    def plus(self, other):
        return add_solutions(1.0, self, 1.0, other)


def _wrap(branch, chart, layers):
    layers = [
        {l: complex(v) for l, v in layer.items()} for layer in layers]
    while layers and not layers[-1]:
        layers.pop()
    return SchroederSolution(branch=branch, chart=chart,
                             layers=tuple(layers))


def zero_solution(branch, chart):
    return SchroederSolution(branch=branch, chart=chart, layers=())


def base_solution(branch, chart):
    """The canonical never-vanishing eigenfunction, normalized to 1 at x0."""
    return SchroederSolution(branch=branch, chart=chart,
                             layers=({0: 1.0 + 0.0j},))


def fourier_basis(branch, chart, l):
    """Eigenfunction of the l-th logarithm branch, normalized to 1 at x0."""
    if abs(l) > MODE_CAP:
        raise InvalidInput(f"mode {l} beyond the cap {MODE_CAP}")
    return SchroederSolution(branch=branch, chart=chart,
                             layers=({int(l): 1.0 + 0.0j},))


def synthesize(branch, chart, coeffs):
    """Single-layer solution with the given mode coefficients."""
    coeffs = _clean(coeffs)
    for l in coeffs:
        if abs(l) > MODE_CAP:
            raise InvalidInput(f"mode {l} beyond the cap {MODE_CAP}")
    _check_decay(coeffs)
    if not coeffs:
        return zero_solution(branch, chart)
    return SchroederSolution(branch=branch, chart=chart, layers=(coeffs,))


def add_solutions(ca, sol_a, cb, sol_b):
    """ca * sol_a + cb * sol_b at the coefficient level."""
    if sol_a.branch != sol_b.branch:
        raise InvalidInput("solutions live over different multiplier branches")
    if sol_a.chart is not sol_b.chart:
        raise InvalidInput("solutions live over different charts")
    d = max(len(sol_a.layers), len(sol_b.layers))
    layers = []
    for j in range(d):
        la = sol_a.layers[j] if j < len(sol_a.layers) else {}
        lb = sol_b.layers[j] if j < len(sol_b.layers) else {}
        out = {}
        for l in set(la) | set(lb):
            v = ca * la.get(l, 0.0) + cb * lb.get(l, 0.0)
            if v != 0:
                out[l] = v
        layers.append(out)
    return _wrap(sol_a.branch, sol_a.chart, layers)


def scale_solution(c, sol):
    if c == 1.0:
        return sol
    return _wrap(sol.branch, sol.chart,
                 [{l: c * v for l, v in layer.items()} for layer in sol.layers])


def _time(chart, x):
    # the Abel time a solution is evaluated at; -inf at x = 0, where every
    # solution is 0 (the flat extension)
    if x < 0:
        raise DomainError("solutions live on [0, oo)")
    return chart.abel_time_float(x) if x != 0 else -math.inf


def eval_solution(sol, x):
    """Value at x >= 0; x = 0 returns exactly 0 (the flat extension).

    Every product has complex operands and each layer sums its modes
    from 0j in the layer's order, so the bits do not hang on how a
    Python version mixes complex with float or sums complex numbers.
    """
    if sol.is_zero and not x < 0:
        return 0.0 + 0.0j
    tf = _time(sol.chart, x)
    if math.isinf(tf):
        if tf < 0:
            return 0.0 + 0.0j
        raise DomainError("Abel time overflow on the expanding side")
    # magnitude guard: polynomial layers cannot rescue a dead exponential
    top = sol.degree
    mag = sol.branch.R * tf + max(top, 0) * math.log(max(abs(tf), 1.0))
    if mag < -745.0:
        return 0.0 + 0.0j
    try:
        base = cmath.exp(sol.branch.log_value(0) * complex(tf))
    except OverflowError:
        raise DomainError(f"the solution overflows floats at x={x}")
    total = 0.0 + 0.0j
    for j, layer in enumerate(sol.layers):
        if not layer:
            continue
        per = 0j
        for l, v in layer.items():
            per += v * cmath.exp(complex(0.0, _TWO_PI * l * tf))
        total += per * complex(tf**j)
    return base * total


def eval_times(sol, ts, xs):
    """Values at the points ``xs``, whose Abel times are ``ts``.

    The array form of ``eval_solution``, equal to it bit for bit: every
    complex product is formed from real and imaginary parts as Python
    forms a product of two complex numbers, the modes are summed in the
    layer's order, and powers of t are Python's.  The bits of numpy's
    complex exp are those of ``cmath.exp`` on the builds the tests run
    on.  A time of -inf gives 0 and a nan time nan; ``xs`` only names
    the point in an error.
    """
    ts = np.asarray(ts, dtype=float)
    if sol.is_zero:
        return np.where(np.isnan(ts), complex(math.nan, math.nan), 0j)
    out = np.zeros(len(ts), dtype=complex)
    L0 = sol.branch.log_value(0)
    R, theta = L0.real, L0.imag
    live = np.isfinite(ts)
    # magnitude guard of eval_solution; R t >= -745 already passes it
    for i in np.flatnonzero(live & (R * ts < -745.0)):
        tf = float(ts[i])
        mag = R * tf + sol.degree * math.log(max(abs(tf), 1.0))
        live[i] = not mag < -745.0
    tt = np.where(live, ts, 0.0)
    re = R * tt - theta * 0.0          # L0 * complex(t)
    im = R * 0.0 + theta * tt
    # past log(DBL_MAX / 4) ~ 708.4 cmath.exp rescales, and numpy's
    # exp differs from it; such points, and overflow, take cmath itself
    hot = live & (re > 700.0)
    z = np.empty(len(ts), dtype=complex)
    z.real, z.imag = np.where(hot, 0.0, re), im
    base = np.exp(z)
    for i in np.flatnonzero(hot | (ts == math.inf)):
        tf = float(ts[i])
        if tf == math.inf:
            raise DomainError("Abel time overflow on the expanding side")
        try:
            base[i] = cmath.exp(L0 * complex(tf))
        except OverflowError:
            raise DomainError(f"the solution overflows floats at x={xs[i]}")
    tot_re = tot_im = 0.0               # total = 0j, as in eval_solution
    for j, layer in enumerate(sol.layers):
        if not layer:
            continue
        # e**(2 pi i l t) and the layer's sum in its order; a zero phase or
        # term may carry either sign, since the total's +0.0 absorbs it
        z = np.empty((len(tt), len(layer)), dtype=complex)
        z.real = 0.0
        z.imag = np.multiply.outer(tt, [_TWO_PI * l for l in layer])
        e = np.exp(z)
        v = np.array(list(layer.values()))
        per_re = np.cumsum(v.real * e.real - v.imag * e.imag, axis=1)[:, -1]
        per_im = np.cumsum(v.real * e.imag + v.imag * e.real, axis=1)[:, -1]
        p = 1.0 if j == 0 else np.array([t**j for t in tt.tolist()])
        tot_re = tot_re + (per_re * p - per_im * 0.0)
        tot_im = tot_im + (per_re * 0.0 + per_im * p)
    br, bi = base.real, base.imag
    out.real = np.where(live, br * tot_re - bi * tot_im, 0.0)
    out.imag = np.where(live, br * tot_im + bi * tot_re, 0.0)
    out[np.isnan(ts)] = complex(math.nan, math.nan)
    return out


def shift_solution(sol, s):
    """Coefficient-exact pullback by the time-s flow: beta o phi**s.

    Shifting t by s multiplies each mode by e**(L0 s) e**(2 pi i l s) and
    reshuffles the polynomial layers binomially.  s = 0 returns the input
    unchanged (bit-identical).
    """
    if s == 0 or sol.is_zero:
        return sol
    d = len(sol.layers)
    fac = cmath.exp(sol.branch.log_value(0) * s)
    layers = [dict() for _ in range(d)]
    for j, layer in enumerate(sol.layers):
        for l, v in layer.items():
            w = v * fac * cmath.exp(2j * math.pi * l * s)
            for i in range(j + 1):
                u = layers[i].get(l, 0.0) + comb(j, i) * (s ** (j - i)) * w
                layers[i][l] = u
    return _wrap(sol.branch, sol.chart, layers)


def apply_operator(sol, phi=None):
    """Exact coefficient image under (phi* - lambda).

    The pullback shifts Abel time by 1, so on a layer polynomial q the
    operator acts as q(t) -> lambda (q(t+1) - q(t)); periodic factors are
    fixed.  The degree drops by one, making the operator nilpotent.
    """
    _check_phi_matches(sol, phi)
    if sol.is_zero or sol.degree <= 0:
        return zero_solution(sol.branch, sol.chart)
    lam = sol.branch.lam
    d = sol.degree
    layers = [dict() for _ in range(d)]
    for j, layer in enumerate(sol.layers):
        for i in range(j):
            b = comb(j, i)
            for l, v in layer.items():
                layers[i][l] = layers[i].get(l, 0.0) + lam * b * v
    return _wrap(sol.branch, sol.chart, layers)


def _check_phi_matches(sol, phi):
    if phi is None:
        return
    chart = getattr(phi, "chart", None)
    if chart is not None and chart is not sol.chart:
        if chart.gen != sol.chart.gen or chart.x0 != sol.chart.x0:
            raise InvalidInput("phi does not generate the solution's chart")
    time = getattr(phi, "time", 1.0)
    if time != 1.0:
        raise InvalidInput("the operator is the pullback of the time-1 map")


def jordan_solve(branch, chart, M, seeds=None):
    """Solutions (beta_1 .. beta_M) of the single-Jordan-block system.

    beta_1 solves the eigenfunction equation; each next level satisfies
    (phi* - lambda) beta_m = beta_{m-1}.  Built by back-substitution on
    the layer polynomials (lambda * (q_m(t+1) - q_m(t)) = q_{m-1}(t) per
    mode), adding the seed kernel element at every level.
    """
    if M < 1:
        raise InvalidInput("M >= 1 required")
    if M - 1 > LAYER_CAP:
        raise DegreeOverflow(f"M = {M} exceeds the layer cap {LAYER_CAP + 1}")
    seeds = list(seeds or [])
    seeds += [{}] * (M - len(seeds))
    seeds = [_clean(s or {}) for s in seeds]
    lam = branch.lam

    out = [synthesize(branch, chart, seeds[0])]
    for m in range(2, M + 1):
        prev = out[-1]
        modes = prev.modes()
        deg = max(prev.degree, 0)
        layers = [dict() for _ in range(deg + 2)]
        for l in modes:
            p = [prev.layers[j].get(l, 0.0) if j <= prev.degree else 0.0
                 for j in range(deg + 1)]
            u = [0.0 + 0.0j] * (deg + 2)
            for i in range(deg, -1, -1):
                s = sum(comb(j, i) * u[j] for j in range(i + 2, deg + 2))
                u[i + 1] = (p[i] / lam - s) / (i + 1)
            for j in range(1, deg + 2):
                if u[j] != 0:
                    layers[j][l] = u[j]
        for l, v in seeds[m - 1].items():
            layers[0][l] = layers[0].get(l, 0.0) + v
        out.append(_wrap(branch, chart, layers))
    return out


# --------------------------------------------------------------------------
# the hyperbolic (linear holonomy) side

@dataclass(frozen=True)
class Resonant:
    n: int


@dataclass(frozen=True)
class NonResonant:
    pass


def _matches(lam, power):
    """Whether lambda equals ``power`` = mu**k within 1e-9 relative.

    A power past the float range matches no lambda, although
    |lam - inf| <= 1e-9 inf holds.
    """
    return not math.isinf(power) and abs(complex(lam) - power) <= 1e-9 * power


def classify_resonance(mu, lam, n_max=32):
    """Resonant(n) iff lambda = mu**n within 1e-9 relative, n <= n_max."""
    if not mu > 1:
        raise InvalidInput("mu > 1 required")
    if not abs(lam) > 1:
        raise InvalidInput("|lambda| > 1 required")
    if n_max > DEGREE_CAP:
        raise InvalidInput(f"n_max must be at most {DEGREE_CAP}, got {n_max}")
    power = 1.0
    for n in range(1, n_max + 1):
        power *= mu
        if _matches(lam, power):
            return Resonant(n)
        if power > 2.0 * abs(lam):   # mu**n only grows from here
            break
    return NonResonant()


def jet_constraints(mu, lam, order):
    """Which Taylor degrees the jet recursion mu**k b_k = lambda b_k kills.

    Returns (k, forced_zero) for k = 1..order; exactly one unforced degree
    appears in the resonant case and none otherwise.
    """
    if not 1 <= order <= DEGREE_CAP:
        raise InvalidInput(f"order must be in 1..{DEGREE_CAP}, got {order}")
    rows = []
    power = 1.0
    for k in range(1, order + 1):
        power *= mu
        rows.append((k, not _matches(lam, power)))
    return rows


def hyperbolic_solution(phi, lam, x, n_max=32, strict=False):
    """Eigenfunction value for linear holonomy: sigma(x)**n in the
    linearizing coordinate when lambda = mu**n.

    The solution space is {0} off resonance: the default returns 0 there,
    ``strict=True`` raises instead.
    """
    mu = float(phi.jets(2).coefficients[1])
    res = classify_resonance(mu, lam, n_max=n_max)
    if isinstance(res, NonResonant):
        if strict:
            raise NonResonantRequest(
                f"lambda = {lam} is not a power of mu = {mu}")
        return 0.0 + 0.0j
    return complex(koenigs(phi, x)) ** res.n


# --------------------------------------------------------------------------
# verification

def _solution_residuals(b, lam, phi, xs, prev):
    # residual_rows over the whole grid: one Abel time per point and per
    # image, values from eval_times, and the complex arithmetic of the
    # per-point loop split into real and imaginary parts
    chart = b.chart
    pts, times = [], []            # x0, phi(x0), x1, phi(x1), ...
    escaped = []
    for i, x in enumerate(xs):
        pts.append(x)
        times.append(_time(chart, x))
        try:
            y = phi(x)
            ty = _time(chart, y)
        except (BlowUp, DomainExceeded):   # the image escapes the window
            y = ty = math.nan
            escaped.append(i)
        pts.append(y)
        times.append(ty)
    values = eval_times(b, times, pts)
    bx, by = values[0::2], values[1::2]
    tx = times[0::2]
    if prev is None:
        px = np.zeros(len(xs), dtype=complex)
    elif isinstance(prev, SchroederSolution) and prev.chart is chart:
        px = eval_times(prev, tx, xs)
    else:
        px = np.array([complex(prev(x)) for x in xs])
    lam = complex(lam)
    rhs_re = (lam.real * bx.real - lam.imag * bx.imag) + px.real
    rhs_im = (lam.real * bx.imag + lam.imag * bx.real) + px.imag
    r_abs = np.hypot(by.real - rhs_re, by.imag - rhs_im)
    r_abs[escaped] = math.nan
    return bx.tolist(), r_abs.tolist(), np.hypot(rhs_re, rhs_im).tolist(), tx


def residual_rows(b, lam, phi, grid, prev=None):
    """Residual of ``b(phi(x)) = lam b(x) + prev(x)`` at each grid point.

    The one residual kernel: every residual the package reports comes
    from here.  Each row holds x, b(x) and the absolute and relative
    residual.  The relative residual divides by ``max(|rhs(x)|,
    1e-6 max|rhs|)``, rhs the right-hand side over the grid, so zeros of
    b do not inflate it.  A row whose image phi(x) escapes the certified
    flow window carries nan residuals.  ``b`` and ``prev`` are anything
    callable on floats: solutions, Case-1 translations, plain functions.

    A ``SchroederSolution`` is evaluated over the whole grid at once
    (``eval_times``), at one Abel time per point and one per image; its
    rows also carry that time as ``abel_t``.  Other callables are
    called point by point.
    """
    xs = [float(x) for x in grid]
    if isinstance(b, SchroederSolution):
        bx, r_abs, mags, tx = _solution_residuals(b, lam, phi, xs, prev)
    else:
        bx, r_abs, mags, tx = [], [], [], None
        for x in xs:
            v = b(x)
            rhs = lam * v + (prev(x) if prev is not None else 0.0)
            try:
                r = abs(b(phi(x)) - rhs)
            except (BlowUp, DomainExceeded):
                r = math.nan
            bx.append(v)
            r_abs.append(r)
            mags.append(abs(rhs))
    scale = max(mags, default=0.0)
    rows = [{"x": x, "beta_re": v.real, "beta_im": v.imag,
             "residual_abs": r,
             "residual_rel": (r / max(mag, 1e-6 * scale, 1e-300)
                              if r else 0.0)}
            for x, v, r, mag in zip(xs, bx, r_abs, mags)]
    if tx is not None:
        for row, t in zip(rows, tx):
            row["abel_t"] = t
    return rows


def sup_residual(rows, key="residual_rel"):
    """Largest entry of a residual column, nan if any row is nan.

    A bare ``max`` drops a nan that is not first (``max(0.0, nan)`` is
    0.0); an escaped row must make a residual check fail, not pass.
    """
    values = [row[key] for row in rows]
    if any(math.isnan(v) for v in values):
        return math.nan
    return max(values, default=0.0)


def verify_residual(sol, phi, grid, equation="I", prev=None, rel_tol=1e-8):
    """Sup-norm residual report for the eigen or chain equation on a grid.

    equation "I":   beta(phi(x)) - lambda beta(x)
    equation "II":  beta(phi(x)) - lambda beta(x) - prev(x)

    Rows come from ``residual_rows``, with the Abel time of each x; a
    grid point whose image escapes the flow window fails the verdict.
    """
    if equation not in ("I", "II"):
        raise InvalidInput("equation must be 'I' or 'II'")
    if equation == "II" and prev is None:
        raise InvalidInput("chain residual needs the previous chain element")
    table = residual_rows(sol, sol.branch.lam, phi, grid, prev)
    report = VerificationReport(
        kind=f"residual-{equation}",
        tolerances={"rel_tol": rel_tol})
    report.tables["residuals"] = table
    report.add_check("max_residual_abs", sup_residual(table, "residual_abs"),
                     math.inf, True)
    report.add_check("max_residual_rel", sup_residual(table), rel_tol)
    return report


def _fd_derivative(at, k, h):
    # central difference of order k; at(m) is the value at x + m h
    num = 0.0
    for i in range(k + 1):
        num += (-1) ** i * comb(k, i) * at(k / 2.0 - i)
    return num / h**k


def verify_flatness(sol, k_max, x_grid, final_tol=1e-6):
    """Finite-difference decay table of |beta^(k)| toward x = 0.

    Columns k = 1..k_max >= 1 are estimated at each of five or more grid
    points decreasing toward 0; the verdict demands each column be
    non-increasing over the final five points and end below ``final_tol``.
    """
    try:
        xs = [float(x) for x in x_grid]
    except (OverflowError, TypeError, ValueError):
        xs = []
    if len(xs) < FLATNESS_WINDOW or not (
            xs[-1] > 0 and all(a > b for a, b in zip(xs, xs[1:]))):
        raise InvalidInput(f"x_grid needs {FLATNESS_WINDOW} or more positive, "
                           f"strictly decreasing numbers, got {x_grid!r}")
    if not 1 <= k_max <= K_MAX_CAP:
        raise InvalidInput(f"flatness needs 1 <= k_max <= {K_MAX_CAP}, "
                           f"got {k_max}")

    fn = lambda x: abs(complex(sol(x)))
    if isinstance(sol, SchroederSolution):
        lam_mag = max(abs(sol.branch.log_value(0)), 1.0)
        scale = lambda x: sol.chart.gen.rho(x) / lam_mag
    else:
        scale = lambda x: x * x / 4.0

    eps = np.finfo(float).eps
    columns = {k: [] for k in range(1, k_max + 1)}
    for x in xs:
        h_want = min(x / (k_max + 2.0), 0.05 * scale(x))
        h = max(h_want, 64.0 * eps * x)
        # the stencils of all orders share their offsets, which are
        # half-integers m: each abscissa x + m h is evaluated once
        vals = {}

        def at(m):
            if m not in vals:
                vals[m] = fn(x + m * h)
            return vals[m]

        stencil_vals = [at(k_max / 2.0 - i) for i in range(k_max + 1)]
        if h > h_want * 1.0001 and any(v != 0.0 for v in stencil_vals):
            raise StepTooSmall(
                f"step {h_want:.3e} at x={x} is below float spacing")
        try:
            for k in range(1, k_max + 1):
                columns[k].append(abs(_fd_derivative(at, k, h)))
        except (OverflowError, ZeroDivisionError):
            raise StepTooSmall(f"h**{k} at step {h:.3e} and x={x} leaves "
                               "the float range")

    report = VerificationReport(
        kind="flatness",
        tolerances={"final_tol": final_tol, "window": FLATNESS_WINDOW})
    table = []
    for i, x in enumerate(xs):
        row = {"x": x}
        for k in range(1, k_max + 1):
            row[f"d{k}"] = columns[k][i]
        table.append(row)
    report.tables["derivatives"] = table
    for k in range(1, k_max + 1):
        col = columns[k][-FLATNESS_WINDOW:]
        mono = all(a >= b - 1e-12 * max(abs(a), 1.0)
                   for a, b in zip(col, col[1:]))
        worst_step = max((b - a for a, b in zip(col, col[1:])), default=0.0)
        report.add_check(f"monotone_k{k}", max(worst_step, 0.0), 0.0, mono)
        report.add_check(f"final_k{k}", col[-1], final_tol)
    return report


# --------------------------------------------------------------------------
# coefficient files

def solution_from_coeff_dict(data, chart):
    """The solution stored in a coefficient file's data.

    ``data`` holds ``lambda`` ({"re", "im"}), an optional ``theta0`` (else
    the principal argument) and ``layers``, a list of {"j", "coeffs":
    [{"l", "re", "im"}, ...]}; other data is InvalidInput.
    """
    try:
        lam = complex(data["lambda"]["re"], data["lambda"].get("im", 0.0))
        theta0 = data.get("theta0")
        theta0 = None if theta0 is None else float(theta0)
        layers = {}
        for entry in data.get("layers", []):
            j = int(entry["j"])
            layers[j] = {int(c["l"]): complex(c["re"], c.get("im", 0.0))
                         for c in entry.get("coeffs", [])}
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise InvalidInput(f"not a coefficient file: {exc!r}")
    if not all(0 <= j <= LAYER_CAP for j in layers):
        raise InvalidInput(f"layer indices must lie in 0..{LAYER_CAP}")
    branch = (LambdaBranch(lam, theta0) if theta0 is not None
              else LambdaBranch.principal(lam))
    if not layers:
        return zero_solution(branch, chart)
    d = max(layers)
    return _wrap(branch, chart, [layers.get(j, {}) for j in range(d + 1)])
