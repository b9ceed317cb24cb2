"""Verification report carried by every machine-checked identity."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Verdict:
    identity: str
    passed: bool
    witness: str | None = None  # reproducible counterexample when failed

    def line(self) -> str:
        tail = "" if self.passed else f"  witness: {self.witness}"
        return f"{'PASS' if self.passed else 'FAIL'} {self.identity}{tail}"


@dataclass(frozen=True)
class PolynomialReport:
    description: str
    polynomials: dict[str, str] = field(default_factory=dict)
    verdicts: tuple[Verdict, ...] = ()

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def lines(self) -> list[str]:
        return [v.line() for v in self.verdicts]

    def __post_init__(self):
        for v in self.verdicts:
            if not v.passed and v.witness is None:
                raise ValueError("failed verdict requires a witness")
