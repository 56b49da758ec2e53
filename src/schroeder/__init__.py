"""Schroeder-type functional equations on the half line.

Expanding diffeomorphisms of [0, oo), their Abel charts and flows,
layered Fourier solutions of the pull-back eigenfunction equations, and
the automorphism algebra of the associated Reeb components.
"""

from .autgroup import (
    AutElement,
    BoundaryClass,
    Case1Solution,
    MatchedPair,
    ReebData,
    compose,
    fiber_product,
    identity_element,
    invert,
    normalize,
    restrict_boundary,
    section,
    verify_lemma_conditions,
)
from .diffeo import (
    Case1,
    Case2,
    Case3,
    FlowGenerated,
    HalfLineDiffeo,
    JetData,
    Linear,
    PolynomialMap,
    classify_case,
    from_germ,
    iterate,
    takens_normalize,
)
from .flow import (
    AbelChart,
    VectorFieldGen,
    fractional_iterate,
    koenigs,
)
from .report import VerificationReport
from .solutions import (
    LambdaBranch,
    NonResonant,
    Resonant,
    SchroederSolution,
    add_solutions,
    apply_operator,
    base_solution,
    classify_resonance,
    eval_solution,
    fourier_basis,
    hyperbolic_solution,
    jet_constraints,
    jordan_solve,
    scale_solution,
    shift_solution,
    synthesize,
    verify_flatness,
    verify_residual,
    zero_solution,
)

__version__ = "0.1.0"
