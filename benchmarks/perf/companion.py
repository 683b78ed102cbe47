"""Pinned busy-loop companion: holds a sibling CPU in its contended state.

On the shared 2-vCPU hosts this benchmark runs on, the measured core
flips between a fast and a slow state depending on whether the *other*
vCPU is busy (README.md, "Noise").  ``run.py`` starts one companion per
other allowed CPU so the measured core stays in the slow state for the
whole run.  Run as a script: ``companion.py <cpu>``.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter


def spin(parent_pid: int) -> None:
    """Burn CPU until the parent process is gone."""
    x = 1
    while os.getppid() == parent_pid:
        deadline = perf_counter() + 0.05
        while perf_counter() < deadline:
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF


def main(argv: list[str]) -> int:
    cpu = int(argv[1])
    # Taken before anything slow, so a parent that dies during start-up
    # is still noticed (the orphan is re-parented and getppid changes).
    parent_pid = os.getppid()
    os.sched_setaffinity(0, {cpu})
    try:
        # Lowest priority where the kernel allows it: the companion must
        # never take the CPU from anything else pinned there.
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        pass
    print("spinning", flush=True)
    spin(parent_pid)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
