"""Verification reports: residual tables with explicit tolerances."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckRow:
    name: str
    value: float
    tolerance: float
    passed: bool


@dataclass
class VerificationReport:
    """Outcome of a verification run.

    Carries every tolerance actually used, the per-check verdicts and any
    sample tables, so a serialized report is self-describing.
    """

    kind: str
    tolerances: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)

    def add_check(self, name, value, tolerance, passed=None):
        if passed is None:
            passed = bool(value <= tolerance)
        self.checks.append(CheckRow(name, float(value), float(tolerance), passed))
        return passed

    @property
    def passed(self):
        # a report that checked nothing certifies nothing
        return bool(self.checks) and all(c.passed for c in self.checks)

    def check_value(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self):
        return {
            "kind": self.kind,
            "tolerances": dict(self.tolerances),
            "checks": [
                {"name": c.name, "value": c.value,
                 "tolerance": c.tolerance, "pass": c.passed}
                for c in self.checks
            ],
            "tables": self.tables,
            "pass": self.passed,
        }
