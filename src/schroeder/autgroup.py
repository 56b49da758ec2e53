"""Automorphism algebra of a 3-dimensional Reeb component with complex leaves.

The component is cut out by a leafwise linear expansion ``z -> lam z`` and
a transverse expanding holonomy ``phi``.  Every boundary-compatible
automorphism lifts to ``(z, x) -> (a z + b(x), phi**t(x))`` with a != 0,
b a solution of ``b(phi(x)) = lam b(x)`` and ``phi**t`` in the flow
centralizer of phi; elements are normalized modulo the deck relation
``(a, b, t) ~ (lam a, lam b, t + 1)`` into t in [0, 1).

Translation parts b are coefficient objects: layered Fourier solutions
(``SchroederSolution``) over an Abel chart when phi is tangent to the
identity, or multiples of ``sigma**n`` (``Case1Solution``, sigma the
linearizing coordinate) in the linear-holonomy case.  Both kinds follow
one translation protocol, which is all the group algebra uses:

    b(x)          the value at x >= 0
    b.scaled(c)   c * b
    b.shifted(s)  b o phi**s, the pullback through the time-s flow
    b.plus(other) b + other, for a translation of the same kind

Group operations act on coefficients exactly; flows contribute the only
numeric error.  Evaluation and verification need only ``b(x)``, so any
callable serves there (e.g. a deliberately corrupted translation).
"""

import cmath
import math
from dataclasses import dataclass

from .diffeo import FlowGenerated, HalfLineDiffeo, Linear
from .errors import (
    BlowUp,
    BoundaryMismatch,
    CentralizerNotFlow,
    DomainExceeded,
    MixedComponent,
    NoBracket,
)
from .flow import AbelChart, fractional_iterate, koenigs
from .report import VerificationReport
from .solutions import (
    LambdaBranch,
    SchroederSolution,
    residual_rows,
    sup_residual,
    zero_solution,
)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Case1Solution:
    """Translation part c * sigma(x)**n for linear transverse holonomy.

    The kernel there is at most one-dimensional (resonance lam = mu**n);
    pulling back through phi**s rescales by mu**(n s), exactly.
    """

    c: complex
    n: int
    mu: float
    phi: HalfLineDiffeo

    def __call__(self, x):
        if self.c == 0 or x == 0:
            return 0.0 + 0.0j
        return self.c * complex(koenigs(self.phi, x)) ** self.n

    def scaled(self, factor):
        return Case1Solution(self.c * factor, self.n, self.mu, self.phi)

    def shifted(self, s):
        if s == 0 or self.c == 0:
            return self
        return self.scaled(self.mu ** (self.n * s))

    def plus(self, other):
        if self.n != other.n and self.c != 0 and other.c != 0:
            raise ValueError("incompatible resonance degrees")
        n = self.n if self.c != 0 else other.n
        return Case1Solution(self.c + other.c, n, self.mu, self.phi)


def _koenigs_flow(phi, t, x, rtol=1e-12):
    """phi**t through the linearizing coordinate: sigma^-1(mu**t sigma(x)).

    The conjugacy turns the flow into pure scaling; the inverse image is
    recovered by monotone bisection on sigma.
    """
    mu = float(phi.jets(2).coefficients[1])
    target = mu**t * koenigs(phi, x)
    lo, hi = 0.0, max(x, 1e-6)
    while koenigs(phi, hi) < target:
        hi *= 2.0
        if hi > 1e12:
            raise NoBracket("linearizing coordinate never reaches the target")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if koenigs(phi, mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rtol * max(hi, 1e-300):
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ReebData:
    """Component data: multiplier branch, transverse holonomy, chart.

    The transverse centralizer is modeled as the flow of the holonomy:
    the map must either carry a generator (flow-generated tangency cases)
    or have linear part > 1 (the flow then comes from the linearizing
    coordinate).  Anything else could have a wild centralizer that no
    finite data represents, and is rejected here.
    """

    branch: LambdaBranch
    phi: HalfLineDiffeo
    chart: AbelChart = None

    def __post_init__(self):
        if self.chart is None:
            chart = getattr(self.phi, "chart", None)
            if chart is not None:
                object.__setattr__(self, "chart", chart)
        if self.chart is None:
            mu = float(self.phi.jets(2).coefficients[1])
            if not mu > 1:
                raise CentralizerNotFlow(
                    "holonomy tangent to the identity needs a generator "
                    "(flow-generated map) to model its centralizer")

    @property
    def lam(self):
        return self.branch.lam

    @classmethod
    def from_flow(cls, gen, lam, theta0=None, time=1.0):
        phi = FlowGenerated(gen, time=time)
        branch = (LambdaBranch(complex(lam), theta0) if theta0 is not None
                  else LambdaBranch.principal(lam))
        return cls(branch=branch, phi=phi, chart=phi.chart)

    def zero_translation(self):
        if self.chart is not None:
            return zero_solution(self.branch, self.chart)
        mu = float(self.phi.jets(2).coefficients[1])
        return Case1Solution(0.0 + 0.0j, 1, mu, self.phi)

    def flow(self, t, x):
        """phi**t(x): the flow centralizer parameterized by real t."""
        if t == 0 or x == 0:
            return x
        if isinstance(self.phi, Linear):
            return self.phi.mu**t * x
        if self.chart is not None:
            return fractional_iterate(self.phi, t, x)
        return _koenigs_flow(self.phi, t, x)


@dataclass(frozen=True)
class AutElement:
    """Normalized triple (a, b, t) for (z, x) -> (a z + b(x), phi**t(x))."""

    data: ReebData
    a: complex
    b: object
    t: float

    def leafwise(self, z, x):
        """The lifted map evaluated at a point (z, x)."""
        return (self.a * z + self.b(x),
                self.data.flow(self.t, x))


def identity_element(data):
    return AutElement(data=data, a=1.0 + 0.0j, b=data.zero_translation(),
                      t=0.0)


def normalize(f: AutElement) -> AutElement:
    """Quotient by the deck relation: the unique shift with t in [0, 1).

    (a, b, t) ~ (lam**k a, lam**k b, t + k); idempotent, and a no-op
    (bit-identical) when t is already in the fundamental domain.
    """
    k = -math.floor(f.t)
    if k == 0:
        return f
    factor = f.data.lam ** k
    return AutElement(data=f.data, a=f.a * factor,
                      b=f.b.scaled(factor), t=f.t + k)


def compose(f: AutElement, g: AutElement) -> AutElement:
    """(f o g), normalized.

    Leafwise: a_f a_g z + a_f b_g(x) + b_f(phi**(t_g)(x)); the pullback of
    b_f through phi**(t_g) is a coefficient-level shift of Abel time.
    """
    if f.data is not g.data:
        raise MixedComponent("elements live over different components")
    b = g.b.scaled(f.a).plus(f.b.shifted(g.t))
    return normalize(AutElement(data=f.data, a=f.a * g.a, b=b, t=f.t + g.t))


def invert(f: AutElement) -> AutElement:
    """Group inverse: (a, b, t)^(-1) = (1/a, -(1/a) b o phi**(-t), -t)."""
    ai = 1.0 / f.a
    b = f.b.shifted(-f.t).scaled(-ai)
    return normalize(AutElement(data=f.data, a=ai, b=b, t=-f.t))


# --------------------------------------------------------------------------
# boundary restriction and the splitting section

@dataclass(frozen=True)
class BoundaryClass:
    """A point of C* / lam**Z in computable coordinates.

    u is the fractional part of log|a| / log|lam| (radial position within
    the fundamental annulus); psi is the multiplier-corrected argument,
    both invariant under a -> lam a.
    """

    lam: complex
    u: float
    psi: float
    rep: complex

    @classmethod
    def of(cls, a, lam):
        a = complex(a)
        lam = complex(lam)
        if a == 0:
            raise ValueError("boundary classes live in C*")
        ratio = math.log(abs(a)) / math.log(abs(lam))
        u = ratio - math.floor(ratio)
        psi = (cmath.phase(a) - ratio * cmath.phase(lam)) % _TWO_PI
        rep = a * lam ** (-math.floor(ratio))
        return cls(lam=lam, u=u, psi=psi, rep=rep)

    @staticmethod
    def _circle_dist(x, y, period):
        d = abs(x - y) % period
        return min(d, period - d)

    def distance(self, other):
        return math.hypot(
            self._circle_dist(self.u, other.u, 1.0),
            self._circle_dist(self.psi, other.psi, _TWO_PI))

    def isclose(self, other, tol=1e-10):
        return self.distance(other) <= tol

    def __mul__(self, other):
        return BoundaryClass.of(self.rep * other.rep, self.lam)

    def __repr__(self):
        return f"BoundaryClass(u={self.u:.12g}, psi={self.psi:.12g})"


def restrict_boundary(f: AutElement) -> BoundaryClass:
    """The class of the leafwise linear part in C* / lam**Z."""
    return BoundaryClass.of(f.a, f.data.lam)


def section(a, data: ReebData) -> AutElement:
    """The homomorphic section over the boundary classes.

    Exists exactly when the transverse centralizer is the full flow
    (guaranteed by ReebData construction); the lift pairs a with the
    flow time t(a) = log|a| / log|lam|.
    """
    a = complex(a)
    if a == 0:
        raise ValueError("a must be nonzero")
    t_a = math.log(abs(a)) / math.log(abs(data.lam))
    return normalize(AutElement(data=data, a=a, b=data.zero_translation(),
                                t=t_a))


# --------------------------------------------------------------------------
# verification and fiber products

def verify_lemma_conditions(f: AutElement, grid, rel_tol=1e-8,
                            comm_tol=1e-9) -> VerificationReport:
    """Check the structural conditions of a lifted automorphism on a grid.

    (a) holds by construction (affine leafwise form); (b) is the
    eigenfunction residual of the translation part; (c) the commutation
    of phi**t with phi, measured pointwise.
    """
    data = f.data
    report = VerificationReport(
        kind="lemma-conditions",
        tolerances={"rel_tol": rel_tol, "comm_tol": comm_tol})
    report.add_check("a_affine_form", 0.0, 0.0, True)

    rows = residual_rows(f.b, data.lam, data.phi, grid)
    report.add_check("b_eigen_residual_rel", sup_residual(rows), rel_tol)
    report.tables["b_residuals"] = rows

    worst_c = 0.0
    used = 0
    for x in grid:
        x = float(x)
        try:
            lhs = data.phi(data.flow(f.t, x))
            rhs = data.flow(f.t, data.phi(x))
        except (BlowUp, DomainExceeded):
            continue  # composite escapes the certified window at this x
        worst_c = max(worst_c, abs(float(lhs) - float(rhs)))
        used += 1
    report.add_check("c_commutation", worst_c, comm_tol)
    report.add_check("c_points_evaluated", float(used), math.inf,
                     used >= max(2, len(list(grid)) // 4))
    return report


@dataclass(frozen=True)
class MatchedPair:
    """A fiber-product element: two automorphisms agreeing on the boundary."""

    left: AutElement
    right: AutElement

    def compose(self, other):
        return MatchedPair(compose(self.left, other.left),
                           compose(self.right, other.right))


def fiber_product(f: AutElement, g: AutElement, tol=1e-10) -> MatchedPair:
    """Pair automorphisms of two pasted components along the boundary.

    Requires equal multipliers (the pasting identifies the boundary
    curves); accepts iff the boundary classes agree within ``tol``.
    """
    lam_f, lam_g = f.data.lam, g.data.lam
    if abs(lam_f - lam_g) > 1e-14 * abs(lam_f):
        raise MixedComponent(
            "fiber products need equal boundary multipliers")
    cf = restrict_boundary(f)
    cg = restrict_boundary(g)
    d = cf.distance(cg)
    if d > tol:
        raise BoundaryMismatch(cf, cg, d)
    return MatchedPair(f, g)


# --------------------------------------------------------------------------
# element files

def element_to_dict(f: AutElement):
    from .solutions import solution_to_coeff_dict

    if isinstance(f.b, SchroederSolution):
        b_desc = solution_to_coeff_dict(f.b)
    else:
        b_desc = {"case1_c": {"re": f.b.c.real, "im": f.b.c.imag},
                  "n": f.b.n}
    return {"a": {"re": f.a.real, "im": f.a.imag}, "t": f.t, "b": b_desc}


def element_from_dict(desc, data: ReebData) -> AutElement:
    from .solutions import solution_from_coeff_dict

    a = complex(desc["a"]["re"], desc["a"].get("im", 0.0))
    t = float(desc.get("t", 0.0))
    b_desc = desc.get("b")
    if b_desc is None:
        b = data.zero_translation()
    elif "case1_c" in b_desc:
        mu = float(data.phi.jets(2).coefficients[1])
        b = Case1Solution(
            complex(b_desc["case1_c"]["re"], b_desc["case1_c"].get("im", 0.0)),
            int(b_desc.get("n", 1)), mu, data.phi)
    else:
        b = solution_from_coeff_dict(b_desc, data.chart)
    return normalize(AutElement(data=data, a=a, b=b, t=t))
