"""Structured outcome of a property suite run."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PropertyReport:
    """One property's verdict with the evidence that produced it.

    The verdict is ``"fail"`` exactly when there are counterexamples; a
    failing report carries no witnesses.
    """

    name: str
    cases: int
    counterexamples: list[str] = field(default_factory=list)
    witnesses: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.counterexamples and self.witnesses:
            raise ValueError("failing report with witnesses")

    @property
    def verdict(self) -> str:
        return "fail" if self.counterexamples else "pass"

    @classmethod
    def from_checks(cls, name: str, cases: int, counterexamples: list[str],
                    witnesses: "list[str] | None" = None) -> "PropertyReport":
        """A failing report drops the witnesses, which back a pass."""
        if counterexamples:
            return cls(name, cases, list(counterexamples))
        return cls(name, cases, [], list(witnesses or []))

    def to_dict(self) -> dict:
        return {
            "suite": self.name,
            "verdict": self.verdict,
            "cases": self.cases,
            "counterexamples": list(self.counterexamples),
            "witnesses": list(self.witnesses),
        }
