"""Start the benchmark's child processes from a process that stays small.

Linux carries the RSS high-water mark of the process that spawns a child into
the child's ru_maxrss, so a child started from run.py, whose memory grows
with the outputs it checks and the spans it loads, would report run.py's
peak as its own. run.py therefore starts this helper first, while it is
still small, and has it start every child.

Protocol: one JSON request per line on stdin
    {"argv": [...], "cwd": ..., "stdout": path, "stderr": path, "timeout": seconds}
and one JSON reply per line on stdout
    {"code", "start", "wall", "cpu", "maxrss_kib", "killed"}.
A child still running after `timeout` seconds, or when stdin closes, is
killed. The helper exits when its stdin closes.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = now()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        fd = os.pidfd_open(proc.pid)
        try:
            # Wait for the exit without reaping, so wait4 below gets the
            # rusage. stdin turning readable means run.py has gone away: the
            # protocol never sends while a child runs.
            ready, _, _ = select.select([fd, sys.stdin], [], [], max(req["timeout"], 0.0))
            killed = fd not in ready
            if killed:
                signal.pidfd_send_signal(fd, signal.SIGKILL)
        finally:
            os.close(fd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = now() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "start": start, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime, "maxrss_kib": usage.ru_maxrss,
            "killed": killed}


def main():
    while line := sys.stdin.readline():
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
