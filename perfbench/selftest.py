"""Self-test of the benchmark: tiny runs, and a checker that catches corruption.

    python3 perfbench/selftest.py

Runs every workload once at tiny bounds, end to end and traced, and requires
failed_ops = 0.  Then captures real CLI output, corrupts the captured text
(a flipped coefficient digit, two coefficients swapped within a grade, a
dropped tree line, a changed count or verdict) and requires the checker to
count each corrupted invocation as failed.  Also checks that metrics.py and
workloads.py describe exactly the metrics and workloads BENCHMARK.json
names.  Exits 0 if everything holds, 1 otherwise.
"""

from __future__ import annotations

import re
import sys

import check
import child
import metrics
import run
from workloads import LISTING_FULL, WORKLOADS, listing_sets

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def test_benchmark_json() -> None:
    expect(
        [w["name"] for w in metrics.SPEC["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json lists the workloads defined in workloads.py",
    )
    listed = [m["name"] for m in metrics.END_TO_END + metrics.PER_LAYER]
    expect(listed == list(metrics.FEEDS), "metrics.FEEDS describes every metric in BENCHMARK.json")


def test_listing_draws() -> None:
    sets = listing_sets(LISTING_FULL)
    expect(len(sets) >= 20, f"listing has {len(sets)} admissible type sets to draw from")
    lines = [
        sum(check.tree_count(m) + check.marked_tree_count(m) for m in combo)
        for combo in sets
    ]
    target = LISTING_FULL["lines"]
    expect(
        all(abs(n - target) <= 0.01 * target for n in lines),
        f"every listing set lists {target} lines within 1 % ({min(lines)}..{max(lines)})",
    )
    draws = {tuple(map(tuple, WORKLOADS["listing"].passes(seed, False))) for seed in range(20)}
    expect(len(draws) > 1, "different seeds draw different listing sets")


def test_tiny_runs() -> None:
    for name in WORKLOADS:
        for trace in (False, True):
            result = run.run_workload(name, seed=7, seconds=0, trace=trace, tiny=True)
            kind = "traced" if trace else "end-to-end"
            expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                f"{name} {kind} tiny run: failed_ops {result['failed']}/{result['attempted']}",
            )
            want = metrics.PER_LAYER if trace else metrics.END_TO_END
            expect(
                list(result["metrics"]) == [m["name"] for m in want],
                f"{name} {kind} tiny run reports every {kind} metric",
            )


def _flip_digit(text: str) -> str:
    """Change the last digit of the text: the last row's last number."""
    j = len(text.rstrip("\n")) - 1
    return text[:j] + str((int(text[j]) + 1) % 10) + text[j + 1 :]


def _swap_in_grade(text: str) -> str:
    """Swap the coefficients of two rows of one grade, which keeps its sum.

    In the weight-4 S table these are the rows [2,1] and [1,0,1].
    """
    lines = text.splitlines()
    (m1, c1), (m2, c2) = (line.rsplit(",", 1) for line in lines[-4:-2])
    lines[-4:-2] = [f"{m1},{c2}", f"{m2},{c1}"]
    return "\n".join(lines) + "\n"


def _move_mark_last(text: str) -> str:
    """Move the mark of the first marked tree to its last leaf."""
    lines = text.splitlines()
    plain = lines[0].replace("*", "()")
    pos = plain.rindex("()")
    lines[0] = plain[:pos] + "*" + plain[pos + 2 :]
    return "\n".join(lines) + "\n"


CORRUPTIONS = {
    "s-table coefficient digit flipped": ("tables", 0, _flip_digit),
    "s-table coefficients swapped within a grade": ("tables", 0, _swap_in_grade),
    "g-table row dropped": ("tables", 1, lambda t: "\n".join(t.splitlines()[:-1]) + "\n"),
    "JSON table coefficient changed": (
        "tables", 2, lambda t: t.replace('"coefficient": 1\n', '"coefficient": 2\n', 1)),
    "JSON report says passed: false": ("algebra", 0, lambda t: t.replace('"passed": true', '"passed": false', 1)),
    "JSON report checked count changed": ("algebra", 0, lambda t: re.sub(r'"checked": (\d+)', '"checked": 1', t, count=1)),
    "text report says FAIL": ("enumeration", 0, lambda t: t.replace("PASS", "FAIL", 1)),
    "counted column disagrees": ("enumeration", 2, _flip_digit),
    "tree line dropped": ("listing", 0, lambda t: t.split("\n", 1)[1]),
    "tree line duplicated": ("listing", 0, lambda t: t.split("\n", 1)[0] + "\n" + t),
    "marked tree marks a non-initial leaf": ("listing", 1, _move_mark_last),
}


def test_corruption_is_caught() -> None:
    env = run.child_env()
    captured = {}
    for name in {w for w, _, _ in CORRUPTIONS.values()}:
        argvs = WORKLOADS[name].passes(7, True)
        outs = [
            child.run_child([sys.executable, "-m", "geode.cli", *a], env).stdout.decode()
            for a in argvs
        ]
        captured[name] = (argvs, outs)
        ledger = check.Ledger(argvs)
        ledger.record(outs, [0] * len(outs))
        expect(ledger.failed == 0, f"{name}: captured output passes the checker")

    for label, (name, index, corrupt) in CORRUPTIONS.items():
        argvs, outs = captured[name]
        bad = list(outs)
        bad[index] = corrupt(outs[index])
        expect(bad[index] != outs[index], f"{label}: corruption changed the text")
        ledger = check.Ledger(argvs)
        ledger.record(bad, [0] * len(bad))
        expect(ledger.failed == 1, f"{label}: checker counts one failed invocation")

        # A later pass whose output differs from the first is also a failure.
        ledger = check.Ledger(argvs)
        ledger.record(outs, [0] * len(outs))
        ledger.record(bad, [0] * len(bad))
        expect(ledger.failed == 1, f"{label}: digest differs from the first pass")

    argvs, outs = captured["algebra"]
    ledger = check.Ledger(argvs)
    ledger.record(outs, [1])
    expect(ledger.failed == 1, "a non-zero exit status counts as failed")


def test_scanner() -> None:
    expect(check.scan_tree("()") == ((), 1), "single-node tree has one initial leaf")
    expect(check.scan_tree("((())())") == ((1, 1), 1), "a unary chain ends the initial leaves")
    expect(check.scan_tree("(()(()()))") == ((0, 2), 3), "scanner finds type and initial leaves")
    for text in ("(()", "())", "()()", "(x)", "", "*"):
        try:
            check.scan_tree(text)
            ok = False
        except ValueError:
            ok = True
        expect(ok, f"scanner rejects {text!r}")


def main() -> int:
    test_benchmark_json()
    test_listing_draws()
    test_scanner()
    test_corruption_is_caught()
    test_tiny_runs()
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
