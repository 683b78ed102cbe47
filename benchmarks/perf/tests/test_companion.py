"""The companion busy loop exits when its parent is killed."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

COMPANION = Path(__file__).resolve().parent.parent / "companion.py"

PARENT = f"""
import subprocess, sys, time
child = subprocess.Popen([sys.executable, {str(COMPANION)!r}, sys.argv[1]],
                         stdout=subprocess.PIPE, text=True)
assert child.stdout.readline().strip() == "spinning"
print(child.pid, flush=True)
time.sleep(60)
"""


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_companion_exits_when_parent_is_killed():
    cpu = sorted(os.sched_getaffinity(0))[0]
    parent = subprocess.Popen([sys.executable, "-c", PARENT, str(cpu)],
                              stdout=subprocess.PIPE, text=True)
    try:
        child_pid = int(parent.stdout.readline())
        assert _alive(child_pid)
        assert os.sched_getaffinity(child_pid) == {cpu}
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=10)
        deadline = time.monotonic() + 10
        while _alive(child_pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(child_pid), "companion outlived its parent"
    finally:
        parent.kill()
        parent.wait(timeout=10)
        parent.stdout.close()
