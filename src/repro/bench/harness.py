"""What the ``benchmarks/bench_*.py`` scripts share (ROADMAP item 3):
the one writer of the ``BENCH_*.json`` trajectories, the one counter of
Python-level calls, and what their multi-process points use to split an
MPL over client processes and to read a process's CPU and switches."""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

COUNT_RUNS = 5  # :func:`count_calls` keeps the fewest of this many runs
#: Where the end-to-end benchmark's host probes live in a source checkout.
_E2E = Path(__file__).resolve().parents[3] / "benchmarks" / "e2e"
POST_TIMEOUT = 10.0  # seconds :func:`count_calls` waits for a server loop


def append_bench_record(
    path: Path, benchmark: str, record: dict, before: "float | None" = None
) -> None:
    """Append ``record`` to ``path``, a ``{"benchmark", "runs": [...]}``
    trajectory, stamped with when and where it was measured: the UTC
    time, the commit of the checkout holding ``path`` (``None`` outside a
    git work tree) and ``git_dirty``, whether a tracked file other than
    ``path`` differed from that commit (so the numbers are not the
    commit's own), the Python version, the host's core count and the
    :func:`provenance` block (``before``: the :func:`speed_probe` taken before
    the run).  A
    missing or empty ``path`` starts a trajectory; any other file that
    is not one (an older JSON-lines record file, say) raises
    ``ValueError`` and is left as it was."""
    def git(*args: str) -> "str | None":
        try:
            done = subprocess.run(
                ["git", *args], cwd=path.parent,
                capture_output=True, text=True, timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout if done.returncode == 0 else None

    sha = (git("rev-parse", "HEAD") or "").strip() or None
    changed = git(
        "status", "--porcelain", "--untracked-files=no", "--",
        ":(top)", f":(exclude){path.resolve()}",
    )
    stamp = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": sha,
        "git_dirty": None if sha is None or changed is None else bool(changed.strip()),
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
    data["runs"].append({**stamp, "provenance": provenance(before), **record})
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _e2e_module(name: str):
    """``benchmarks/e2e/<name>.py`` of this checkout, imported by path."""
    spec = importlib.util.spec_from_file_location(f"_e2e_{name}", _E2E / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def speed_probe() -> "float | None":
    """Seconds of one reference probe (``benchmarks/e2e/calibrate.py``)
    taken now, to pass as :func:`provenance`'s ``before``; ``None`` where
    the checkout has no ``benchmarks/e2e``."""
    return _e2e_module("calibrate").probe() if _E2E.is_dir() else None


def provenance(before: "float | None" = None) -> "dict | None":
    """How the host stood as a record was written: the CPUs this process
    may run on, the 1-minute load average and the speed factor of a
    reference probe taken now (1.0 at the reference host's undisturbed
    speed, lower when it runs slower).  Given ``before``, the
    :func:`speed_probe` its caller took before the run, the factor is the
    pair's, the window's as ``benchmarks/e2e`` reads it, and both probe
    times are stamped.  ``None`` where the checkout has no
    ``benchmarks/e2e``."""
    if not _E2E.is_dir():
        return None
    host, calibrate = _e2e_module("host"), _e2e_module("calibrate")
    after = calibrate.probe()
    block = {
        "allowed_cpus": host.cpus(),
        "loadavg_1m": os.getloadavg()[0],
        "speed_factor": round(calibrate.factor(before or after, after), 3),
    }
    if before is not None:
        block.update(probe_before_s=round(before, 6), probe_after_s=round(after, 6))
    return block


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


def count_calls(body, *args, servers=()) -> "dict[str, Counter]":
    """Python-level calls (profiler ``call`` events) ``body(*args)`` makes,
    per ``repro.<package>`` layer (``other`` outside ``repro``): on this
    thread, ``body``'s own frame not counted (``"caller"``), and on the
    loop threads of the in-process servers ``servers``, less what
    installing and removing a profiler there costs (``"servers"``).
    Each side is the fewest of ``COUNT_RUNS`` runs."""

    def profile(modules, done=None) -> None:
        """Record the module of each call on this thread into ``modules``
        (stop recording if it is ``None``), then set ``done``."""
        if modules is None:
            sys.setprofile(None)
        else:

            def profiler(frame, event, arg) -> None:
                if event == "call":
                    modules.append(frame.f_globals.get("__name__", ""))

            sys.setprofile(profiler)
        if done is not None:
            done.set()

    def post(loops: list) -> None:
        """Run ``profile`` on each server's loop with its ``loops`` entry.
        It is posted only while the loop waits in its selector, so each
        post costs the loop exactly one wake-up."""
        for server, modules in zip(servers, loops):
            waiting = type(server._selector).select.__code__
            deadline = time.monotonic() + POST_TIMEOUT
            while sys._current_frames()[server._thread.ident].f_code is not waiting:
                if time.monotonic() > deadline:
                    raise RuntimeError("a server's loop did not return to its select")
                time.sleep(1e-4)
            done = threading.Event()
            server._post(profile, modules, done)
            if not done.wait(POST_TIMEOUT):
                raise RuntimeError("a server's loop did not run a _post")

    def layer(module: str) -> str:
        return module.split(".")[1] if module.startswith("repro.") else "other"

    def run(work) -> "tuple[Counter, Counter]":
        caller, loops = [], [[] for _ in servers]
        post(loops)
        profile(caller)
        try:
            work(*args)
        finally:
            sys.setprofile(None)
            post([None] * len(servers))
        on_loops = Counter(layer(module) for modules in loops for module in modules)
        return Counter(map(layer, caller[1:])), on_loops

    def fewest(counts) -> Counter:
        return min(counts, key=lambda layers: sum(layers.values()))

    runs = [run(body) for _ in range(COUNT_RUNS)]
    on_loops = fewest(loops for _, loops in runs)
    if servers:
        on_loops.subtract(fewest(run(lambda *_: None)[1] for _ in range(COUNT_RUNS)))
    return {"caller": fewest(caller for caller, _ in runs), "servers": on_loops}
