"""What the ``benchmarks/bench_*.py`` scripts share (ROADMAP item 3):
the one writer of the ``BENCH_*.json`` trajectories, and what their
multi-process points use to split an MPL over client processes and to
read a process's CPU and context switches."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path


def append_bench_record(path: Path, benchmark: str, record: dict) -> None:
    """Append ``record`` to ``path``, a ``{"benchmark", "runs": [...]}``
    trajectory, stamped with when and where it was measured: the UTC
    time, the commit of the checkout holding ``path`` (``None`` outside a
    git work tree), the Python version and the host's core count.  A
    missing or empty ``path`` starts a trajectory; any other file that
    is not one (an older JSON-lines record file, say) raises
    ``ValueError`` and is left as it was."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=path.parent, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    stamp = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": sha,
        "python": platform.python_version(),
        "cores": os.cpu_count() or 1,
    }
    data: object = {"benchmark": benchmark, "runs": []}
    text = path.read_text() if path.exists() else ""
    if text.strip():
        try:
            data = json.loads(text)
        except ValueError:
            data = None
        if not (isinstance(data, dict) and isinstance(data.get("runs"), list)):
            raise ValueError(
                f"{path} exists and is not a trajectory "
                '({"benchmark", "runs": [...]}); not overwriting it'
            )
    data["runs"].append({**stamp, **record})
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def split_mpl(mpl: int, processes: int) -> "list[int]":
    """``mpl`` clients over ``processes`` client processes (at least
    one, at most ``mpl``), the first ones taking the remainder."""
    processes = max(1, min(processes, mpl))
    return [mpl // processes + (i < mpl % processes) for i in range(processes)]


def process_work(pid: int) -> dict:
    """CPU seconds of a process and the context switches of its live
    threads, from ``/proc`` (clock-tick resolution: keep points long)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    work = {
        "cpu_s": (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK"),
        "voluntary": 0,
        "involuntary": 0,
    }
    for status in Path(f"/proc/{pid}/task").glob("*/status"):
        for line in status.read_text().splitlines():
            name, _, value = line.partition(":")
            if name == "voluntary_ctxt_switches":
                work["voluntary"] += int(value)
            elif name == "nonvoluntary_ctxt_switches":
                work["involuntary"] += int(value)
    return work
