"""Schema checks for the end-to-end benchmark.

Run explicitly (outside tier-1's ``testpaths``)::

    python -m pytest benchmarks/e2e -q

One ``--smoke`` run of the whole suite is shared by the tests below.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = run("--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return out


def test_spec_has_exactly_the_contract_keys_and_legal_names() -> None:
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [
        entry["name"]
        for group in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[group]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()


def test_every_declared_metric_appears_for_every_workload(smoke: Path) -> None:
    record = json.loads(smoke.read_text())
    assert set(record["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, entry in record["workloads"].items():
        for metric in SPEC["end_to_end"]:
            row = entry["end_to_end"][metric["name"]]
            assert row["unit"] == metric["unit"], (name, metric)
            assert row["median"] > 0, (name, metric)
        for metric in SPEC["per_layer"]:
            row = entry["per_layer"][metric["name"]]
            assert row["unit"] == metric["unit"], (name, metric)
        # The wall-clock reading behind each reference value, and the factor.
        assert set(entry["wall"]) == {
            "tps", "p50_ms", "p95_ms", "cpu_us_per_txn", "setup_s",
            "speed_factor", "speed_setup_factor",
        }
        assert entry["failed"] == 0, name
    for key in ("git_sha", "python", "nproc", "loadavg_1m", "loadavg_1m_after"):
        assert key in record["host"]


def test_comparing_a_record_with_itself_is_all_ok(smoke: Path) -> None:
    done = run("--compare", str(smoke), str(smoke))
    assert done.returncode == 0, done.stdout + done.stderr
    verdicts = [line.split()[0] for line in done.stdout.strip().splitlines()]
    assert len(verdicts) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert set(verdicts) == {"ok"}


def test_records_made_with_other_settings_are_not_compared(smoke: Path) -> None:
    record = json.loads(smoke.read_text())
    for key in ("seed", "seconds", "runs"):
        other = smoke.with_name(f"other-{key}.json")
        other.write_text(json.dumps({**record, key: record[key] + 1}))
        done = run("--compare", str(smoke), str(other))
        assert done.returncode == 2, done.stdout + done.stderr
        assert "not comparable" in done.stdout
