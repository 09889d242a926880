"""Multi-version row storage.

Each logical row (identified by its primary key within a table) owns a
:class:`VersionChain`:

* an append-only list of *committed* versions ordered by commit timestamp;
* at most one *uncommitted* version, a ``(txid, value)`` pair owned by
  the transaction currently holding the row's exclusive write lock (SI
  allows a single in-flight writer per row — that is what the write lock
  enforces).

A version's ``value`` is a :class:`FrozenRow` (column name -> value), or
``None`` for a deletion tombstone.  Versions never mutate; updates append.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional


class FrozenRow(dict):
    """A row as the engine stores and hands it out: a ``dict`` whose
    mutating methods raise ``TypeError``.

    One object per row version, with no read-only view wrapped around a
    private dict (a ``MappingProxyType`` cost 40 bytes more per version,
    and a method call per ``copy``); ``copy()`` gives a plain, mutable
    ``dict``.  Read-only by contract: ``dict.__setitem__(row, ...)``
    still writes, and nothing in the engine does it to a row it has
    handed out."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("a stored row is read-only; copy() it to change it")

    __setitem__ = __delitem__ = _read_only
    clear = pop = popitem = setdefault = update = __ior__ = _read_only

    def __reduce__(self):
        return FrozenRow, (dict(self),)


def freeze_row(value: Optional[Mapping[str, object]]) -> Optional[Mapping[str, object]]:
    """Return a read-only copy of a row mapping (``None`` and a row that
    is already frozen pass through)."""
    if value is None or value.__class__ is FrozenRow:
        return value
    return FrozenRow(value)


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

    __slots__ = ("versions", "uncommitted")

    def __init__(
        self,
        first: Optional[Version] = None,
        uncommitted: Optional[tuple[int, Optional[Mapping[str, object]]]] = None,
    ) -> None:
        #: The committed versions, oldest first: appended to in place (the
        #: engine's commit does it itself, under its commit mutex, with the
        #: timestamp check :meth:`append_committed` makes) and replaced
        #: whole by :meth:`prune`, so a lock-free reader may iterate the
        #: list it loaded.
        self.versions: list[Version] = [] if first is None else [first]
        #: ``(txid, value)`` of the in-flight (locked, not yet committed)
        #: version, or ``None``.
        self.uncommitted = uncommitted

    # ------------------------------------------------------------------
    # Committed-version access
    # ------------------------------------------------------------------
    def append_committed(self, version: Version) -> None:
        """Append a committed version; commit timestamps must increase."""
        if self.versions and version.commit_ts < self.versions[-1].commit_ts:
            raise ValueError(
                "commit timestamps must be appended in increasing order: "
                f"{version.commit_ts} < {self.versions[-1].commit_ts}"
            )
        self.versions.append(version)

    @property
    def committed(self) -> tuple[Version, ...]:
        return tuple(self.versions)

    def latest(self) -> Optional[Version]:
        """The newest committed version, or ``None`` if the row never existed."""
        return self.versions[-1] if self.versions else None

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
        for version in reversed(self.versions):
            if version.commit_ts <= snapshot_ts:
                return version
        return None

    def successor_of(self, commit_ts: int) -> Optional[Version]:
        """The committed version immediately following ``commit_ts``.

        Used by the MVSG builder to derive rw anti-dependency edges: a
        transaction that read the version at ``commit_ts`` has an
        anti-dependency toward the writer of the successor.
        """
        for version in self.versions:
            if version.commit_ts > commit_ts:
                return version
        return None

    def version_at(self, commit_ts: int) -> Optional[Version]:
        """The committed version created exactly at ``commit_ts``."""
        for version in reversed(self.versions):
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
        committed = self.versions
        keep_from = 0
        for i in range(len(committed) - 1, -1, -1):
            if committed[i].commit_ts <= horizon_ts:
                keep_from = i
                break
        if keep_from == 0:
            return 0
        self.versions = committed[keep_from:]
        return keep_from

    def __len__(self) -> int:
        return len(self.versions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tip = self.latest()
        return (
            f"VersionChain(n={len(self.versions)}, tip_ts="
            f"{tip.commit_ts if tip else None}, "
            f"uncommitted={self.uncommitted is not None})"
        )
