"""Benchmark for the geode CLI.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seconds 28 --trace 1
    python3 perfbench/selftest.py

Run from the root of a source checkout: the package is imported from its
``src/`` directory, not from an installed copy.  With ``--trace 0`` each pass
runs the workload's invocations (workloads.py) as fresh ``python -m
geode.cli`` processes, one at a time, and the end-to-end metrics are
reported as medians over the run's samples, with pass times divided by a
fixed calibration job timed in the same run (metrics.py says why).  With
``--trace 1`` the same invocations run in this process through
``geode.cli.main``, alternately with and without spans around the package's
layers (tracing.py), and the per-layer metrics are reported.
``--workload all`` runs every workload in turn.

Every output is checked by ``check.py``, which shares no code with geode.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit status is 0 if every output was correct, 1 if one was
not, and 2 if there is no geode source tree to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path
from statistics import median

import check
import child
import metrics
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 25
MIN_PASSES = 3
CALIBRATION_SHARE = 0.15
SETUP_CODE = (
    "import geode, geode.cli as cli\n"
    "build = getattr(cli, '_build_parser', None)\n"
    "build and build()\n"
    "print(geode.__file__)\n"
)
# The reference job that pass times are divided by: fixed pure-Python work
# (tuple-keyed dict updates on growing integers) that no change to geode can
# speed up, run as a child just like the workload's invocations.
CALIBRATION_CODE = (
    "t = {}\n"
    "for i in range(160_000):\n"
    "    k = (i % 97, i % 13)\n"
    "    t[k] = t.get(k, 1) * 3 + i\n"
    "print(sum(v % 1000003 for v in t.values()))\n"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def tail(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {median(values):.6g}"
    if n >= 11:
        ordered = sorted(values)
        text += f", p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.6g}"
    else:
        text += ", no percentile has 10 samples beyond it"
    return text + f" (n={n})"


def end_to_end(argvs: list[list[str]], seconds: float):
    """Fresh-process passes until ``seconds`` have gone by.

    Returns the samples, the ledger of the workload's invocations, the
    problems of failed set-up or calibration children, and geode's path.
    """
    python = sys.executable
    env = child_env()
    start = time.perf_counter()
    # The first child compiles bytecode, which users pay once, not per run.
    warm = child.run_child([python, "-c", SETUP_CODE], env)
    geode_file = warm.stdout.decode().strip()
    if warm.exit_code != 0 or Path(geode_file).resolve().parent.parent != SRC:
        raise RuntimeError(f"geode does not import from {SRC}: {warm.stderr.decode()[-500:]}")
    calibration_out = child.run_child([python, "-c", CALIBRATION_CODE], env).stdout.decode().strip()
    setups: list[child.ChildResult] = []
    calibrations: list[child.ChildResult] = []
    side_failures: list[str] = []

    def sample(label: str, code: str, into: list, want: str) -> None:
        result = child.run_child([python, "-c", code], env)
        into.append(result)
        if result.exit_code != 0 or result.stdout.decode().strip() != want:
            side_failures.append(f"{label} child: exit status {result.exit_code}")

    def due(count: int) -> int:
        if seconds <= 0:
            return count
        return min(count, int(count * (time.perf_counter() - start) / seconds) + 1)

    # Set-up samples are spread evenly over the run, and calibration samples
    # follow the invocations until they add up to a fixed share of their
    # time, so that both see the machine the passes see.
    ledger = check.Ledger(argvs)
    invoked_s = 0.0
    walls, cpus, rss, rates = [], [], [], []
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        results = []
        for a in argvs:
            results.append(child.run_child([python, "-m", "geode.cli", *a], env))
            invoked_s += results[-1].wall_s
            while len(setups) < due(SETUP_SAMPLES):
                sample("set-up", SETUP_CODE, setups, geode_file)
            while sum(c.wall_s for c in calibrations) < CALIBRATION_SHARE * invoked_s:
                sample("calibration", CALIBRATION_CODE, calibrations, calibration_out)
        ledger.record([r.stdout.decode() for r in results], [r.exit_code for r in results])
        walls.append(sum(r.wall_s for r in results))
        cpus.append(sum(r.cpu_s for r in results))
        rss.append(max(r.max_rss_mb for r in results))
        rates.append(sum(ledger.items) / walls[-1])
    while len(setups) < SETUP_SAMPLES:
        sample("set-up", SETUP_CODE, setups, geode_file)
    samples = {
        "setup_s": [r.wall_s for r in setups],
        "calibration_s": [c.wall_s for c in calibrations],
        "calibration_cpu_s": [c.cpu_s for c in calibrations],
        "wall_s": walls, "cpu_s": cpus, "items_per_s": rates, "peak_rss_mb": rss,
    }
    return samples, ledger, side_failures, geode_file


def end_to_end_metrics(samples: dict[str, list[float]]) -> dict[str, float]:
    """Medians; pass times are divided by the run's calibration job time."""
    calib = median(samples["calibration_s"])
    return {
        "setup_s": median(samples["setup_s"]),
        "wall_calib": median(samples["wall_s"]) / calib,
        "cpu_calib": median(samples["cpu_s"]) / median(samples["calibration_cpu_s"]),
        "items_per_calib": median(samples["items_per_s"]) * calib,
        "peak_rss_mb": median(samples["peak_rss_mb"]),
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    workload = WORKLOADS[name]
    argvs = workload.passes(seed, tiny)
    meta = {
        "workload": name,
        "seed": seed,
        "seed_controls": workload.seed,
        "trace": trace,
        "seconds": seconds,
        "argv": [" ".join(a) for a in argvs],
        "items": workload.items,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }
    print(f"== {name}: seed {seed}, {len(argvs)} invocations per pass")
    if trace:
        values, ledger, spans = tracing.traced_run(argvs, seconds, SRC)
        meta["geode_file"] = str(SRC / "geode" / "__init__.py")
        side_failures = []
        specs = metrics.PER_LAYER
        for spec in specs:
            value = values[spec["name"]]
            shown = "unobserved" if value == -1 else f"{value:.6g}"
            print(f"  {spec['name']:48} {spec['unit']:6} {shown}")
        child.SPOOL.mkdir(exist_ok=True)
        (child.SPOOL / f"spans-{name}-seed{seed}.json").write_text(json.dumps(spans))
    else:
        samples, ledger, side_failures, meta["geode_file"] = end_to_end(argvs, seconds)
        specs = metrics.END_TO_END
        values = end_to_end_metrics(samples)
        meta["passes"] = len(samples["wall_s"])
        meta["samples"] = samples
        for key, unit in (("setup_s", "s"), ("calibration_s", "s"), ("wall_s", "s"),
                          ("cpu_s", "s"), ("items_per_s", "1/s"), ("peak_rss_mb", "MB")):
            print(f"  {key:15} {unit:5} {tail(samples[key])}")
        for spec in specs:
            print(f"  {spec['name']:15} {spec['unit']:7} {values[spec['name']]:.6g}")
        meta["items_per_pass"] = sum(ledger.items)
    print(f"  failed_ops {ledger.failed}/{ledger.attempted} = "
          f"{ledger.failed / ledger.attempted:.3g} of workload invocations")
    if side_failures:
        print(f"  {len(side_failures)} set-up or calibration children failed")
    for problem in (ledger.problems + side_failures)[:10]:
        print(f"  problem: {problem}")
    print("meta " + json.dumps(meta))
    return {
        "correct": ledger.failed == 0 and not side_failures,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "geode" / "cli.py").is_file():
        print(f"error: no geode source tree at {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        for n in names:
            print(f"{n} " + json.dumps(results[n]))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
