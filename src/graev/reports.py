"""Structured pass/fail reports for the verification suites.

A report prints as text (render_text) or as JSON (render_json), the JSON
byte-identical to json.dumps(report.to_json(), sort_keys=True, indent=2)
but written directly: with indent set, json.dumps runs its pure-Python
encoder.  When a printed rational is longer than the interpreter's digit
limit, either form raises the digit-limit error naming the suite and the
first case that cannot be printed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

from .errors import ResourceLimitError
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
        try:
            for c in self.failures():
                lines.append(
                    f"FAIL {_shown(c)}: {format_rat(c.lhs)} {c.relation} {format_rat(c.rhs)}"
                )
        except ResourceLimitError as exc:
            raise self._unprintable(c, exc) from None
        return "\n".join(lines)

    def render_json(self) -> str:
        """json.dumps(self.to_json(), sort_keys=True, indent=2), byte for byte."""
        cases = []
        try:
            for c in self.cases:
                cases.append(
                    f'    {{\n      "inputs": {_json_object(c.inputs, "      ")},\n'
                    f'      "lhs": {_quote(format_rat(c.lhs))},\n'
                    f'      "pass": {"true" if c.passed else "false"},\n'
                    f'      "relation": {_quote(c.relation)},\n'
                    f'      "rhs": {_quote(format_rat(c.rhs))}\n    }}'
                )
        except ResourceLimitError as exc:
            raise self._unprintable(c, exc) from None
        listed = "[\n" + ",\n".join(cases) + "\n  ]" if cases else "[]"
        s = self.summary
        return (
            f'{{\n  "cases": {listed},\n'
            f'  "parameters": {_json_object(self.parameters, "  ")},\n'
            f'  "seed": {self.seed},\n'
            f'  "suite": {_quote(self.suite)},\n'
            f'  "summary": {{\n    "failed": {s["failed"]},\n'
            f'    "passed": {s["passed"]},\n    "total": {s["total"]}\n  }}\n}}'
        )

    def _unprintable(self, case: CheckCase, exc: ResourceLimitError) -> ResourceLimitError:
        """exc, raised printing case's lhs or rhs, naming the suite and the case."""
        return ResourceLimitError(f"suite {self.suite}, case {_shown(case)}: {exc}")


def _shown(case: CheckCase) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(case.inputs.items()))


def _json_object(entries: dict[str, str], indent: str) -> str:
    """A string-to-string dict as json.dumps(sort_keys=True, indent=2) nests
    it at the given indent."""
    if not entries:
        return "{}"
    inner = ",\n".join(
        f"{indent}  {_quote(k)}: {_quote(v)}" for k, v in sorted(entries.items())
    )
    return f"{{\n{inner}\n{indent}}}"
