"""Running workload commands as CLI children, one at a time, and checking each answer."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

COMMAND_TIMEOUT_S = 60  # a runaway command becomes a counted failure; the longest takes ~25 s


@dataclass
class Outcome:
    sub: str
    wall: float
    cpu: float
    rss_mb: float
    ok: bool


def check_report(cmd, code, stdout) -> bool:
    if code != 0:
        return False
    try:
        return bool(cmd.check(json.loads(stdout)))
    except (ValueError, KeyError, TypeError):
        return False


class Cli:
    """Runs commands as `python -m rackring.cli` children and keeps every outcome."""

    def __init__(self, src, scratch):
        self.env = {k: v for k, v in os.environ.items() if k != "RACKRING_WORKSPACE"}
        self.env["PYTHONPATH"] = src
        self.scratch = scratch
        self.outcomes = []

    def __call__(self, cmd) -> Outcome:
        out_path = os.path.join(self.scratch, "stdout")
        err_path = os.path.join(self.scratch, "stderr")
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "rackring.cli", *cmd.argv], stdout=out, stderr=err,
                                    env=self.env)
            # wait4 gives the child's own rusage: CPU time and peak resident set
            waited = []
            reaper = threading.Thread(target=lambda: waited.append(os.wait4(proc.pid, 0)))
            reaper.start()
            reaper.join(COMMAND_TIMEOUT_S)
            timed_out = reaper.is_alive()
            if timed_out:
                os.kill(proc.pid, signal.SIGKILL)
                reaper.join()
            wall = time.perf_counter() - start
            _, status, usage = waited[0]
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            out.seek(0)
            ok = not timed_out and check_report(cmd, code, out.read().decode())
            if not ok:
                err.seek(0)
                reason = "timed out" if timed_out else f"exit {code}: {err.read().decode()[-400:].strip()}"
                print(f"FAILED {' '.join(cmd.argv[3:])}: {reason}", file=sys.stderr)
        outcome = Outcome(cmd.sub, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, ok)
        self.outcomes.append(outcome)
        return outcome


def set_up(workload_cls, work, seed, execute):
    """Build the workload's inputs in a fresh directory; returns (workload, root, seconds)."""
    root = tempfile.mkdtemp(dir=work)
    workload = workload_cls()
    start = time.perf_counter()
    workload.setup(root, seed, execute)
    return workload, root, time.perf_counter() - start


def run_pass(workload, root, execute):
    """One pass of the command list; returns (wall seconds, outcomes)."""
    pass_dir = tempfile.mkdtemp(dir=root)
    commands = workload.commands(pass_dir)
    start = time.perf_counter()
    outcomes = [execute(cmd) for cmd in commands]
    wall = time.perf_counter() - start
    shutil.rmtree(pass_dir)
    return wall, outcomes
