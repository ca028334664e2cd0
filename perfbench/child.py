"""Run one child process and account for it from its own rusage.

``os.wait4`` returns the rusage of exactly the reaped child.  The
``RUSAGE_CHILDREN`` totals would instead keep a running maximum RSS over every
child ever reaped, hiding how much memory each workload needs.
"""

from __future__ import annotations

import os
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

TIMEOUT_S = 150.0
# Captured output is spooled here, inside the checkout, not in the system's
# temporary directory.
SPOOL = Path(__file__).resolve().parent.parent / ".perfbench"


@dataclass(frozen=True)
class ChildResult:
    exit_code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    max_rss_mb: float


def run_child(argv: list[str], env: dict[str, str]) -> ChildResult:
    """Run argv to completion with empty stdin, capturing stdout and stderr.

    A child still running after TIMEOUT_S is killed, and reported with exit
    code -9.
    """
    SPOOL.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=SPOOL) as out, tempfile.TemporaryFile(dir=SPOOL) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(
            exit_code=proc.returncode,
            stdout=out.read(),
            stderr=err.read(),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            max_rss_mb=usage.ru_maxrss / 1024.0,
        )
