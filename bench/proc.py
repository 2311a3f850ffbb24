"""CPU time and peak memory of the driver and its shard workers.

Read from ``/proc`` so the workers (separate processes the program
spawns) are measured from outside, without asking them anything.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing import resource_tracker
from typing import Dict, List

_TICK = 1.0 / os.sysconf("SC_CLK_TCK")


def worker_pids() -> List[int]:
    """Pids of the live child processes (the shard workers)."""
    return [p.pid for p in multiprocessing.active_children() if p.pid]


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    Shard workers ignore SIGTERM by design, so they are killed.  The
    ``spawn`` start method also leaves multiprocessing's resource tracker
    running; it ends only once its pipe is closed, which without this
    happens at interpreter exit -- it would outlive the run by a moment.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    # Closes the pipe and waits for the tracker; a no-op if none runs.
    resource_tracker._resource_tracker._stop()


def cpu_seconds(pid: int) -> float:
    """user+sys CPU seconds a process has consumed so far."""
    with open(f"/proc/{pid}/stat") as f:
        # The command name may contain spaces; fields resume after ")".
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * _TICK


def cpu_by_process(workers: List[int]) -> Dict[int, float]:
    """CPU seconds per process: the driver (exact, key 0) and workers."""
    usage = {0: time.process_time()}
    for pid in workers:
        usage[pid] = cpu_seconds(pid)
    return usage


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over the given processes."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0
