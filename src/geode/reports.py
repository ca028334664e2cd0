"""Result records produced by the verification routines."""

from __future__ import annotations

from typing import NamedTuple


class Mismatch(NamedTuple):
    """One failed equality, keyed by the monomial (canonical text form).

    Grade-level checks key by weight instead, e.g. "weight 3".
    """

    monomial: str
    expected: int
    actual: int


class CheckGroup(NamedTuple):
    label: str
    checked: int
    mismatches: tuple[Mismatch, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.mismatches


class VerificationReport(NamedTuple):
    """Outcome of one verification run, split into labelled check groups.

    A failed verification is still a report; callers decide whether to treat
    it as an error.
    """

    name: str
    bound: int
    groups: tuple[CheckGroup, ...]

    @property
    def passed(self) -> bool:
        return all(group.passed for group in self.groups)

    @property
    def checked(self) -> int:
        return sum(group.checked for group in self.groups)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "bound": self.bound,
            "passed": self.passed,
            "checked": self.checked,
            "groups": [
                {
                    "label": g.label,
                    "checked": g.checked,
                    "mismatches": [
                        {
                            "monomial": m.monomial,
                            "expected": m.expected,
                            "actual": m.actual,
                        }
                        for m in g.mismatches
                    ],
                }
                for g in self.groups
            ],
        }

    def lines(self) -> list[str]:
        """Human-readable summary, one string per output line."""
        verdict = "PASS" if self.passed else "FAIL"
        out = [f"{self.name} (weight <= {self.bound}): {verdict}"]
        for g in self.groups:
            line = f"  {g.label}: {g.checked} checked"
            if g.mismatches:
                line += f", {len(g.mismatches)} mismatches"
            out.append(line)
            for m in g.mismatches:
                out.append(
                    f"    [{m.monomial}]: expected {m.expected}, got {m.actual}"
                )
        return out
