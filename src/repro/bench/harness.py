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
    Python version and the host's core count.  A missing or empty
    ``path`` starts a trajectory; any other file that is not one (an
    older JSON-lines record file, say) raises ``ValueError`` and is left
    as it was."""
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
