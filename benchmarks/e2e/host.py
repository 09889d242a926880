"""Process accounting read from ``/proc`` and the provenance block."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
from pathlib import Path

_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """``utime + stime`` of a live process (10 ms resolution)."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # The command name may contain spaces; fields resume after the ')'.
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpus() -> "list[int]":
    return sorted(os.sched_getaffinity(0))


def pin_to_one_cpu() -> int:
    """Restrict this process (and children spawned later) to one CPU."""
    cpu = cpus()[0]
    os.sched_setaffinity(0, {cpu})
    return cpu


def git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_block(root: Path) -> dict:
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "nproc": len(cpus()),
        "loadavg_1m": os.getloadavg()[0],
    }
