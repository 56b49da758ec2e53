"""Exception hierarchy shared by every module of the package.

``InvalidInput`` and its subclasses ``DecayViolation`` and
``NotExpandingInput`` reject input (CLI exit code 2); every other
``SchroederError`` is a numerical failure (exit 3).
"""


class SchroederError(Exception):
    """Base class for all errors raised by this package."""


class DomainExceeded(SchroederError):
    """Evaluation requested beyond the certified domain of a map."""


class NotExpanding(SchroederError):
    """A map failed an expansion or monotonicity check."""


class NoBracket(SchroederError):
    """Root finding could not bracket a solution (value outside image)."""


class LengthMismatch(SchroederError):
    """Jet sequences of incompatible length."""


class InsufficientJets(SchroederError):
    """Jet data of too low order for the requested reduction."""


class DomainError(SchroederError):
    """Argument outside the admissible domain (e.g. x <= 0)."""


class QuadratureFail(SchroederError):
    """Adaptive quadrature did not reach the requested tolerance."""


class BlowUp(SchroederError):
    """Flow requested past the finite escape time of the generator."""


class NoConvergence(SchroederError):
    """An iteration limit was reached before the tolerance was met."""


class PrecisionExceeded(SchroederError):
    """A computation needs more digits than its precision cap allows."""


class InvalidInput(SchroederError, ValueError):
    """Input outside the hypotheses or the format a function accepts."""


class DecayViolation(InvalidInput):
    """Fourier coefficients violate the declared decay profile."""


class NotExpandingInput(NotExpanding, InvalidInput):
    """A map's defining data fail the expansion check at construction."""


class DegreeOverflow(SchroederError):
    """Requested Jordan-chain length exceeds the layer cap."""


class NonResonantRequest(SchroederError):
    """Hyperbolic solution requested at a non-resonant eigenvalue."""


class MixedComponent(SchroederError):
    """Group operation between elements over different component data."""


class CentralizerNotFlow(SchroederError):
    """Operation requires a flow-generated transverse holonomy."""


class BoundaryMismatch(SchroederError):
    """Boundary classes of a candidate fiber pair disagree."""

    def __init__(self, class_a, class_b, distance=None):
        super().__init__(
            f"boundary classes disagree: {class_a} vs {class_b}"
            + (f" (distance {distance:.3e})" if distance is not None else "")
        )
        self.class_a = class_a
        self.class_b = class_b
        self.distance = distance


class StepTooSmall(SchroederError):
    """Finite differences lost all significant digits."""


def require_object(value, what):
    """``value`` if it is a dict (a JSON object), else ``InvalidInput``."""
    if not isinstance(value, dict):
        raise InvalidInput(f"{what} must be an object, got {value!r}")
    return value


def read_number(spec, key, cast=float, default=None):
    """``cast(spec.get(key, default))``, else ``InvalidInput`` naming key."""
    value = spec.get(key, default)
    try:
        return cast(value)
    except (OverflowError, TypeError, ValueError):
        raise InvalidInput(f"{key!r} must be a number, got {value!r}")
