"""Result records produced by the verification routines."""

# no postponed annotations: NamedTuple would compile each string one to a ForwardRef at import
from typing import Iterable, NamedTuple, Sequence


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


def compare(label: str, rows: Iterable[tuple]) -> CheckGroup:
    """The group of these (key, expected, actual) rows, each one checked equality; a key
    is a monomial's entry tuple, or already text such as "weight 3"."""
    rows = list(rows)
    return CheckGroup(label, len(rows), _unequal(rows))


def tally(label: str, rows: Iterable[tuple]) -> CheckGroup:
    """The group of these (key, objects expected, objects that passed) rows, keyed as
    for ``compare``: the objects expected are the ones checked."""
    rows = list(rows)
    return CheckGroup(label, sum(expected for _, expected, _ in rows), _unequal(rows))


def _unequal(rows: list[tuple]) -> tuple[Mismatch, ...]:
    # only an unequal row's key is rendered: most rows are equal
    return tuple(
        Mismatch(key if isinstance(key, str) else ",".join(map(str, key)), expected, actual)
        for key, expected, actual in rows
        if expected != actual
    )


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
                    "mismatches": [m._asdict() for m in g.mismatches],
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


def json_report(bound: int, reports: Sequence[VerificationReport]) -> str:
    """``json.dumps(payload, indent=2)`` of verify's payload {bound, passed, checks}, a check
    each report's ``to_dict()``, written with no json module to import."""
    checks = []
    for check in (report.to_dict() for report in reports):
        for group in check["groups"]:
            group["mismatches"] = [_json_object(m, 12) for m in group["mismatches"]]
        check["groups"] = [_json_object(group, 8) for group in check["groups"]]
        checks.append(_json_object(check, 4))
    passed = all(report.passed for report in reports)
    return _json_object({"bound": bound, "passed": passed, "checks": checks}, 0)


def _json_object(fields: dict, indent: int) -> str:
    """An object as ``json.dumps(indent=2)`` writes it at this indent, each value an int, a
    bool, a string that JSON need not escape (names, labels and monomial texts), or a list of
    objects already written one level deeper."""
    pad = " " * (indent + 2)

    def text(value: object) -> str:
        if isinstance(value, list):
            return "[" + ",".join(f"\n{pad}  {v}" for v in value) + f"\n{pad}]" if value else "[]"
        if isinstance(value, bool):
            return "true" if value else "false"
        return f'"{value}"' if isinstance(value, str) else str(value)

    return "{" + ",".join(f'\n{pad}"{k}": {text(v)}' for k, v in fields.items()) + f"\n{pad[2:]}}}"
