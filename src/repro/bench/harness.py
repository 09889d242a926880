"""What the ``benchmarks/bench_*.py`` scripts share (ROADMAP item 3):
so far the one writer of the ``BENCH_*.json`` trajectories."""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path


def append_bench_record(path: Path, benchmark: str, record: dict) -> None:
    """Append ``record`` to ``path``, a ``{"benchmark", "runs": [...]}``
    trajectory, stamped with where it was measured: the commit of the
    checkout holding ``path`` (``None`` outside a git work tree), the
    Python version and the host's core count."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=path.parent, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    stamp = {
        "git_sha": sha,
        "python": platform.python_version(),
        "cores": os.cpu_count() or 1,
    }
    data: object = None
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (ValueError, OSError):
            pass  # corrupt or unreadable trajectory: start fresh
    if not (isinstance(data, dict) and isinstance(data.get("runs"), list)):
        data = {"benchmark": benchmark, "runs": []}
    data["runs"].append({**stamp, **record})
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
