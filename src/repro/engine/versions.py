"""Multi-version row storage.

Each logical row (identified by its primary key within a table) owns a
:class:`VersionChain`:

* an append-only list of *committed* versions ordered by commit timestamp;
* at most one *uncommitted* version, a ``(txid, value)`` pair owned by
  the transaction currently holding the row's exclusive write lock (SI
  allows a single in-flight writer per row — that is what the write lock
  enforces).

A version's ``value`` is an immutable mapping of column name to value, or
``None`` for a deletion tombstone.  Versions never mutate; updates append.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional


def freeze_row(value: Optional[Mapping[str, object]]) -> Optional[Mapping[str, object]]:
    """Return a read-only view of a row mapping (``None`` passes through)."""
    if value is None:
        return None
    if isinstance(value, MappingProxyType):
        return value
    return MappingProxyType(dict(value))


class Version(NamedTuple):
    """One committed version of a row: a tuple, so building one sets no
    attribute one at a time, and it cannot be changed once built.

    Attributes
    ----------
    commit_ts:
        Commit timestamp of the creating transaction (``0`` for bootstrap
        data loaded before any transaction ran).
    txid:
        Id of the creating transaction (``0`` for bootstrap data).
    value:
        Column mapping, or ``None`` if this version is a deletion tombstone.
    """

    commit_ts: int
    txid: int
    value: Optional[Mapping[str, object]]

    @property
    def is_tombstone(self) -> bool:
        return self.value is None


class VersionChain:
    """The full version history of one logical row."""

    __slots__ = ("_committed", "uncommitted")

    def __init__(
        self,
        first: Optional[Version] = None,
        uncommitted: Optional[tuple[int, Optional[Mapping[str, object]]]] = None,
    ) -> None:
        self._committed: list[Version] = [] if first is None else [first]
        #: ``(txid, value)`` of the in-flight (locked, not yet committed)
        #: version, or ``None``.
        self.uncommitted = uncommitted

    # ------------------------------------------------------------------
    # Committed-version access
    # ------------------------------------------------------------------
    def append_committed(self, version: Version) -> None:
        """Append a committed version; commit timestamps must increase."""
        if self._committed and version.commit_ts < self._committed[-1].commit_ts:
            raise ValueError(
                "commit timestamps must be appended in increasing order: "
                f"{version.commit_ts} < {self._committed[-1].commit_ts}"
            )
        self._committed.append(version)

    @property
    def committed(self) -> tuple[Version, ...]:
        return tuple(self._committed)

    def latest(self) -> Optional[Version]:
        """The newest committed version, or ``None`` if the row never existed."""
        return self._committed[-1] if self._committed else None

    def latest_commit_ts(self) -> int:
        """Commit timestamp of the newest committed version (0 if none)."""
        latest = self.latest()
        return latest.commit_ts if latest is not None else 0

    def visible(self, snapshot_ts: int) -> Optional[Version]:
        """The version a snapshot taken at ``snapshot_ts`` sees.

        Returns the newest committed version with ``commit_ts <= snapshot_ts``
        or ``None`` when no version is visible (row did not exist yet).
        A visible tombstone is returned as a :class:`Version` whose
        ``is_tombstone`` is true; callers translate that to "row absent".
        """
        # Linear scan from the tail: chains are short and the newest
        # versions are by far the most frequently requested.
        for version in reversed(self._committed):
            if version.commit_ts <= snapshot_ts:
                return version
        return None

    def successor_of(self, commit_ts: int) -> Optional[Version]:
        """The committed version immediately following ``commit_ts``.

        Used by the MVSG builder to derive rw anti-dependency edges: a
        transaction that read the version at ``commit_ts`` has an
        anti-dependency toward the writer of the successor.
        """
        for version in self._committed:
            if version.commit_ts > commit_ts:
                return version
        return None

    def version_at(self, commit_ts: int) -> Optional[Version]:
        """The committed version created exactly at ``commit_ts``."""
        for version in reversed(self._committed):
            if version.commit_ts == commit_ts:
                return version
            if version.commit_ts < commit_ts:
                break
        return None

    def exists_at(self, snapshot_ts: int) -> bool:
        """True when the row is visible and alive at ``snapshot_ts``."""
        version = self.visible(snapshot_ts)
        return version is not None and not version.is_tombstone

    def prune(self, horizon_ts: int) -> int:
        """Drop committed versions no snapshot at or after ``horizon_ts``
        can see; returns how many were dropped.

        A snapshot at ``horizon_ts`` sees the newest version with
        ``commit_ts <= horizon_ts``, so that version (and everything newer)
        is kept; all older versions are unreachable once every live
        snapshot is at or past the horizon.  The surviving suffix is
        published as a *new* list — concurrent lock-free readers keep
        traversing whichever (immutable-element) list they already hold.
        """
        committed = self._committed
        keep_from = 0
        for i in range(len(committed) - 1, -1, -1):
            if committed[i].commit_ts <= horizon_ts:
                keep_from = i
                break
        if keep_from == 0:
            return 0
        self._committed = committed[keep_from:]
        return keep_from

    def __len__(self) -> int:
        return len(self._committed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tip = self.latest()
        return (
            f"VersionChain(n={len(self._committed)}, tip_ts="
            f"{tip.commit_ts if tip else None}, "
            f"uncommitted={self.uncommitted is not None})"
        )
