"""Tests for version chains and snapshot visibility."""

from __future__ import annotations

import pytest

from repro.engine.versions import Version, VersionChain, freeze_row


def chain_with(*history: tuple[int, int, dict | None]) -> VersionChain:
    chain = VersionChain()
    for commit_ts, txid, value in history:
        chain.append_committed(Version(commit_ts, txid, freeze_row(value)))
    return chain


def test_empty_chain_sees_nothing():
    chain = VersionChain()
    assert chain.visible(10) is None
    assert chain.latest() is None
    assert chain.latest_commit_ts() == 0
    assert not chain.exists_at(10)


def test_visibility_picks_newest_version_at_or_before_snapshot():
    chain = chain_with(
        (2, 1, {"v": "a"}),
        (5, 2, {"v": "b"}),
        (9, 3, {"v": "c"}),
    )
    assert chain.visible(1) is None
    assert chain.visible(2).value["v"] == "a"
    assert chain.visible(4).value["v"] == "a"
    assert chain.visible(5).value["v"] == "b"
    assert chain.visible(8).value["v"] == "b"
    assert chain.visible(100).value["v"] == "c"


def test_tombstone_is_visible_but_marks_row_dead():
    chain = chain_with((2, 1, {"v": "a"}), (5, 2, None))
    assert chain.exists_at(4)
    assert not chain.exists_at(5)
    version = chain.visible(6)
    assert version is not None and version.is_tombstone


def test_commit_timestamps_must_increase():
    chain = chain_with((5, 1, {"v": "a"}))
    with pytest.raises(ValueError):
        chain.append_committed(Version(3, 2, freeze_row({"v": "b"})))


def test_successor_of_returns_next_version():
    chain = chain_with((2, 1, {"v": "a"}), (5, 2, {"v": "b"}), (9, 3, {"v": "c"}))
    assert chain.successor_of(0).commit_ts == 2
    assert chain.successor_of(2).commit_ts == 5
    assert chain.successor_of(5).commit_ts == 9
    assert chain.successor_of(9) is None


def test_version_at_exact_timestamp():
    chain = chain_with((2, 1, {"v": "a"}), (5, 2, {"v": "b"}))
    assert chain.version_at(5).value["v"] == "b"
    assert chain.version_at(3) is None
    assert chain.version_at(99) is None


def test_frozen_rows_are_read_only():
    frozen = freeze_row({"v": 1})
    with pytest.raises(TypeError):
        frozen["v"] = 2  # type: ignore[index]
    assert freeze_row(None) is None
    assert freeze_row(frozen) is frozen


def test_uncommitted_version_slot():
    chain = chain_with((2, 1, {"v": "a"}))
    chain.uncommitted = (7, freeze_row({"v": "pending"}))
    # Uncommitted data never affects snapshot visibility.
    assert chain.visible(100).value["v"] == "a"
    assert len(chain) == 1
