"""Structured pass/fail reports for the verification suites."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from .freegroup import Rat, format_rat

_RELATIONS = {
    "==": operator.eq,
    "<=": operator.le,
    ">=": operator.ge,
    ">": operator.gt,
}


@dataclass(frozen=True)
class CheckCase:
    """One checked relation: lhs <relation> rhs, with printed inputs."""

    inputs: dict[str, str]
    relation: str
    lhs: Rat
    rhs: Rat
    passed: bool

    @staticmethod
    def compare(inputs: dict[str, str], relation: str, lhs: Rat, rhs: Rat) -> "CheckCase":
        return CheckCase(inputs, relation, lhs, rhs, _RELATIONS[relation](lhs, rhs))

    def to_json(self) -> dict:
        return {
            "inputs": dict(self.inputs),
            "relation": self.relation,
            "lhs": format_rat(self.lhs),
            "rhs": format_rat(self.rhs),
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    suite: str
    parameters: dict[str, str] = field(default_factory=dict)
    cases: list[CheckCase] = field(default_factory=list)
    seed: int = 0

    def add(self, case: CheckCase) -> None:
        self.cases.append(case)

    @property
    def summary(self) -> dict[str, int]:
        passed = sum(1 for c in self.cases if c.passed)
        return {"total": len(self.cases), "passed": passed, "failed": len(self.cases) - passed}

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0

    def failures(self) -> list[CheckCase]:
        return [c for c in self.cases if not c.passed]

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "parameters": dict(self.parameters),
            "cases": [c.to_json() for c in self.cases],
            "summary": self.summary,
            "seed": self.seed,
        }

    def render_text(self) -> str:
        lines = [f"suite: {self.suite}", f"seed: {self.seed}"]
        for key in sorted(self.parameters):
            lines.append(f"{key}: {self.parameters[key]}")
        s = self.summary
        lines.append(f"total: {s['total']}  passed: {s['passed']}  failed: {s['failed']}")
        for c in self.failures():
            shown = " ".join(f"{k}={v}" for k, v in sorted(c.inputs.items()))
            lines.append(
                f"FAIL {shown}: {format_rat(c.lhs)} {c.relation} {format_rat(c.rhs)}"
            )
        return "\n".join(lines)
