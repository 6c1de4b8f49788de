"""Structured outcome of a property suite run."""

from __future__ import annotations

from dataclasses import dataclass, field

VERDICTS = ("pass", "fail")


@dataclass
class PropertyReport:
    """One property's verdict with the evidence that produced it.

    A failing report carries at least one counterexample and no witnesses;
    a passing one carries no counterexamples.
    """

    name: str
    verdict: str
    cases: int
    counterexamples: list[str] = field(default_factory=list)
    witnesses: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "fail" and not self.counterexamples:
            raise ValueError("failing report without a counterexample")
        if self.verdict == "pass" and self.counterexamples:
            raise ValueError("passing report with counterexamples")
        if self.verdict == "fail" and self.witnesses:
            raise ValueError("failing report with witnesses")

    @classmethod
    def from_checks(cls, name: str, cases: int, counterexamples: list[str],
                    witnesses: "list[str] | None" = None) -> "PropertyReport":
        """Verdict from the counterexamples; the witnesses back a passing
        claim, so a failing report drops them."""
        if counterexamples:
            return cls(name, "fail", cases, list(counterexamples))
        return cls(name, "pass", cases, [], list(witnesses or []))

    def to_dict(self) -> dict:
        return {
            "suite": self.name,
            "verdict": self.verdict,
            "cases": self.cases,
            "counterexamples": list(self.counterexamples),
            "witnesses": list(self.witnesses),
        }
