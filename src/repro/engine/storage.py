"""Relational storage: schemas, typed columns, tables of version chains.

A :class:`Table` is its bootstrap rows — ``base``, the image's shared
``key -> Version`` dict — plus a :class:`VersionChain` for each key this
instance wrote.  A key with no chain reads its bootstrap version, which
every snapshot sees (commit timestamp 0).
Uniqueness of secondary columns (e.g. ``Account.CustomerId`` in SmallBank)
is enforced at commit time and accelerated by a *superset index*: a map from
column value to the tuple of primary keys that have **ever** carried that
value.  Lookups fetch the candidates from the index and then apply snapshot
visibility, which keeps the index itself version-free yet correct.

Concurrency contract (see DESIGN.md §9): tables are read lock-free by SI
readers.  Structures a reader traverses — version chains, the sorted-key
cache, the superset indexes — are only ever *replaced*, never mutated in
place: index entries are copy-on-write tuples and the key cache is an
immutable tuple rebuilt on demand, so a reader either sees the old or the
new value, both internally consistent.  A chain is created at most once
per key and starts from the key's bootstrap version, so a reader that
finds none may read ``base``.  All mutation happens on the writer side
under the engine's commit mutex (chain creation and staging, version
publication, index maintenance).

A :class:`BootstrapImage` is the part of a database that
:meth:`~repro.engine.engine.Database.load_row` installed, in load order:
the checkpoint that recovery starts from, and what a second database over
the same data is instantiated from without validating a row again
(DESIGN.md §8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Mapping, Optional

from repro.errors import IntegrityError, SchemaError
from repro.engine.versions import Version, VersionChain

#: Python types a column kind accepts; ``bool`` never counts as a number.
_KIND_TYPES: dict[str, tuple[type, ...]] = {
    "int": (int,),
    "numeric": (int, float),
    "text": (str,),
}


@dataclass(frozen=True)
class Column:
    """A typed column.  ``kind`` is one of ``int``, ``numeric``, ``text``."""

    name: str
    kind: str = "numeric"
    nullable: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KIND_TYPES:
            raise SchemaError(f"unknown column type {self.kind!r}")

    def check(self, value: object) -> None:
        if value is None:
            if not self.nullable:
                raise IntegrityError(f"column {self.name!r} is NOT NULL")
            return
        if not isinstance(value, _KIND_TYPES[self.kind]) or isinstance(value, bool):
            raise IntegrityError(
                f"column {self.name!r} expects {self.kind}, got {value!r}"
            )


@dataclass(frozen=True)
class TableSchema:
    """Schema of one table.

    Attributes
    ----------
    name:
        Table name.
    columns:
        Ordered column definitions.  The primary-key column must be listed.
    primary_key:
        Name of the primary-key column (single-column keys, as in SmallBank).
    unique:
        Names of additional columns carrying a uniqueness constraint.
    """

    name: str
    columns: tuple[Column, ...]
    primary_key: str
    unique: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column in table {self.name!r}")
        if self.primary_key not in names:
            raise SchemaError(
                f"primary key {self.primary_key!r} is not a column of {self.name!r}"
            )
        for col in self.unique:
            if col not in names:
                raise SchemaError(
                    f"unique column {col!r} is not a column of {self.name!r}"
                )
        # Schemas are immutable, so name lookups are precomputed once here
        # instead of rebuilding sets/tuples on every validate_row call
        # (row validation is on the write hot path).
        object.__setattr__(self, "_names", tuple(names))
        object.__setattr__(self, "_name_set", frozenset(names))
        object.__setattr__(
            self, "_by_name", {c.name: c for c in self.columns}
        )
        checks = tuple((c.name, _KIND_TYPES[c.kind], c) for c in self.columns)
        object.__setattr__(self, "_checks", checks)

    @property
    def column_names(self) -> tuple[str, ...]:
        return self._names

    @property
    def column_name_set(self) -> frozenset[str]:
        return self._name_set

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def validate_row(self, row: Mapping[str, object]) -> dict[str, object]:
        """Type-check a full row and return a plain-dict copy: the copy is
        what gets checked, so the caller may freeze it as it is."""
        row = dict(row)
        name_set = self._name_set
        keys = row.keys()
        if keys != name_set:
            extra = keys - name_set
            if extra:
                raise SchemaError(
                    f"unknown column(s) {sorted(extra)} for table {self.name!r}"
                )
            missing = name_set - keys
            if missing:
                raise IntegrityError(
                    f"missing column(s) {sorted(missing)} for table {self.name!r}"
                )
        for name, types, column in self._checks:
            value = row[name]
            # Column.check's accepting case inline; it words the rejections.
            if not isinstance(value, types) or value is True or value is False:
                column.check(value)
        return row


Indexes = dict[str, dict[Hashable, tuple[Hashable, ...]]]


def _index_version(indexes: Indexes, key: Hashable, version: Version) -> None:
    """Add ``key`` to the superset-index entries of ``version``'s values.

    Entries are copy-on-write: the candidate tuple is replaced, never
    mutated, so a lock-free lookup always iterates a consistent (and
    pre-sorted) list — and a tuple may sit in two index dicts at once.
    """
    if version.value is None:
        return
    for column, index in indexes.items():
        value = version.value[column]
        existing = index.get(value)
        if existing is None:
            index[value] = (key,)
        elif key not in existing:
            index[value] = tuple(sorted((*existing, key), key=repr))


class TableImage:
    """One table's share of a :class:`BootstrapImage`: the bootstrap
    version of every loaded key (dict order is load order) and the
    unique-index entries those versions produce."""

    __slots__ = ("schema", "versions", "indexes")

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.versions: dict[Hashable, Version] = {}
        self.indexes: Indexes = {col: {} for col in schema.unique}

    def add(self, key: Hashable, version: Version) -> None:
        self.versions[key] = version
        if self.indexes:
            _index_version(self.indexes, key, version)

    def copy(self) -> "TableImage":
        clone = TableImage(self.schema)
        clone.versions = dict(self.versions)
        clone.indexes = {col: dict(index) for col, index in self.indexes.items()}
        return clone


class BootstrapImage:
    """The rows ``load_row`` installed, ready to instantiate from.

    ``Database(schemas, config, image=image)`` reads its tables' bootstrap
    rows straight from one and copies only the index dicts; the
    ``key -> Version`` dicts, the frozen versions and the index tuples are
    all an instance shares with the image and with its siblings.  Whoever
    holds an image must treat it as immutable: a
    :class:`~repro.engine.engine.Database` writes only to an image nobody
    else has seen and copies it first otherwise.
    """

    __slots__ = ("tables",)

    def __init__(self) -> None:
        self.tables: dict[str, TableImage] = {}

    def table(self, schema: TableSchema) -> TableImage:
        """The image of ``schema``'s table, created empty when missing."""
        image = self.tables.get(schema.name)
        if image is None:
            image = self.tables[schema.name] = TableImage(schema)
        return image

    def copy(self) -> "BootstrapImage":
        clone = BootstrapImage()
        clone.tables = {name: t.copy() for name, t in self.tables.items()}
        return clone

    def __len__(self) -> int:
        return sum(len(t.versions) for t in self.tables.values())


class Table:
    """Bootstrap rows plus the version chains of written rows, and the
    table's superset indexes."""

    def __init__(
        self, schema: TableSchema, image: Optional[TableImage] = None
    ) -> None:
        self.schema = schema
        if image is None:
            image = TableImage(schema)
        elif image.schema != schema:
            raise SchemaError(
                f"bootstrap image of table {schema.name!r} was built "
                "for a different schema"
            )
        #: key -> bootstrap version, in load order: the image's own dict,
        #: never written through this table (``Database.load_row`` adds to
        #: an image nobody else holds and points ``base`` at it).
        self.base: dict[Hashable, Version] = image.versions
        #: key -> chain, only for keys this instance wrote, inserted,
        #: recovered or was asked for through :meth:`chain`; a chain starts
        #: from the key's bootstrap version.  Keys are never removed.
        self.rows: dict[Hashable, VersionChain] = {}
        # Superset indexes: column -> value -> tuple of pks that ever had
        # it, kept sorted by repr.  Entries are copy-on-write (replaced,
        # never mutated) so lock-free readers always see a consistent
        # candidate list.
        self._indexes: Indexes = {
            col: dict(index) for col, index in image.indexes.items()
        }
        # Commercial-platform SELECT FOR UPDATE bookkeeping: pk -> commit_ts
        # of the last transaction that SFU-locked the row (treated like a
        # write for conflict detection, though no version is created).
        self.cc_write_ts: dict[Hashable, int] = {}
        # Scan-order cache: (len(base) + len(rows), keys sorted by repr).
        # Neither dict ever loses a key, so the pair is valid while that
        # sum holds — no invalidation hook is needed and a stale rebuild
        # can never mask a newer insert.
        self._sorted_keys: tuple[int, tuple[Hashable, ...]] = (0, ())

    # ------------------------------------------------------------------
    # Chains
    # ------------------------------------------------------------------
    def chain(self, key: Hashable) -> Optional[VersionChain]:
        """The key's chain, made on first ask; ``None`` for a key this
        table never held."""
        if key in self.rows or key in self.base:
            return self.chain_or_create(key)
        return None

    def chain_or_create(self, key: Hashable) -> VersionChain:
        chain = self.rows.get(key)
        if chain is None:
            chain = self.rows[key] = VersionChain(self.base.get(key))
        return chain

    def keys(self) -> Iterator[Hashable]:
        """Every key, committed or in-flight: the loaded ones in load
        order, then the rest in the order their chains were made."""
        base = self.base
        return iter([*base, *[key for key in list(self.rows) if key not in base]])

    def sorted_keys(self) -> tuple[Hashable, ...]:
        """All keys (committed or in-flight) sorted by repr.

        Scans iterate this cache instead of re-sorting every call.  The
        stamp is read before the keys are (``list(dict)`` is atomic under
        the GIL), so it is safe against concurrent inserts: a rebuild that
        raced with one publishes a stamp that no longer matches, which
        simply forces the next call to look again — a stale tuple can
        never be mistaken for current.  A chain made for a loaded key adds
        no key, so only a longer key list is sorted again.
        """
        stamp, keys = self._sorted_keys
        count = len(self.base) + len(self.rows)
        if count != stamp:
            fresh = list(self.keys())
            if len(fresh) != len(keys):
                fresh.sort(key=repr)
                keys = tuple(fresh)
            self._sorted_keys = (count, keys)
        return keys

    # ------------------------------------------------------------------
    # Snapshot reads
    # ------------------------------------------------------------------
    def visible(self, key: Hashable, snapshot_ts: int) -> Optional[Version]:
        """The version of ``key`` a snapshot at ``snapshot_ts`` sees,
        tombstones included (None when absent)."""
        chain = self.rows.get(key)
        if chain is None:
            return self.base.get(key)
        return chain.visible(snapshot_ts)

    def visible_row(
        self, key: Hashable, snapshot_ts: int
    ) -> Optional[Mapping[str, object]]:
        """The row value visible at ``snapshot_ts`` (None when absent)."""
        chain = self.rows.get(key)  # visible(), inlined: lookups run it
        version = self.base.get(key) if chain is None else chain.visible(snapshot_ts)
        return None if version is None else version.value

    def scan_visible(
        self,
        snapshot_ts: int,
        predicate: Optional[Callable[[Mapping[str, object]], bool]] = None,
    ) -> Iterator[tuple[Hashable, Mapping[str, object]]]:
        """Yield ``(key, row)`` for rows visible at ``snapshot_ts``.

        Keys are visited in sorted order so scans are deterministic.
        """
        for key in self.sorted_keys():
            row = self.visible_row(key, snapshot_ts)
            if row is None:
                continue
            if predicate is None or predicate(row):
                yield key, row

    def lookup_unique(
        self, column: str, value: Hashable, snapshot_ts: int
    ) -> Optional[tuple[Hashable, Mapping[str, object]]]:
        """Find the visible row whose unique ``column`` equals ``value``."""
        if column == self.schema.primary_key:
            row = self.visible_row(value, snapshot_ts)
            return (value, row) if row is not None else None
        if column not in self._indexes:
            raise SchemaError(
                f"column {column!r} of {self.schema.name!r} has no unique index"
            )
        # Index entries are pre-sorted copy-on-write tuples, so this is a
        # lock-free read of an immutable candidate list.
        for key in self._indexes[column].get(value, ()):
            row = self.visible_row(key, snapshot_ts)
            if row is not None and row[column] == value:
                return key, row
        return None

    # ------------------------------------------------------------------
    # Commit-time maintenance (called by the engine under its mutex)
    # ------------------------------------------------------------------
    def check_unique_on_commit(
        self,
        key: Hashable,
        row: Optional[Mapping[str, object]],
        as_of_ts: int,
        staged: Optional[Mapping[Hashable, Optional[Mapping[str, object]]]] = None,
    ) -> None:
        """Verify unique constraints for a row about to be committed.

        ``as_of_ts`` is the committing transaction's snapshot-independent
        view: uniqueness is checked against the *latest committed* state,
        because two snapshots must not both install the same unique value.
        ``staged`` maps keys the same transaction is committing to their
        new values, so validation (which runs before any version is
        published) sees the transaction's own writes — a value moved from
        one row to another inside one transaction is not a violation.
        """
        if row is None:
            return
        for column in self.schema.unique:
            value = row[column]
            for other_key in self._indexes[column].get(value, ()):
                if other_key == key:
                    continue
                if staged is not None and other_key in staged:
                    other = staged[other_key]
                else:
                    other = self.visible_row(other_key, as_of_ts)
                if other is not None and other[column] == value:
                    raise IntegrityError(
                        f"unique constraint on {self.schema.name}.{column} "
                        f"violated by value {value!r}"
                    )

    def index_committed_version(self, key: Hashable, version: Version) -> None:
        """Record a freshly committed version in the superset indexes.

        Only the committer mutates the index, under the engine's commit
        mutex.
        """
        _index_version(self._indexes, key, version)


class Catalog:
    """The set of tables making up one database."""

    def __init__(
        self,
        schemas: tuple[TableSchema, ...] | list[TableSchema],
        image: Optional[BootstrapImage] = None,
    ) -> None:
        self._tables: dict[str, Table] = {}
        images = image.tables if image is not None else {}
        for schema in schemas:
            if schema.name in self._tables:
                raise SchemaError(f"duplicate table {schema.name!r}")
            self._tables[schema.name] = Table(schema, images.get(schema.name))
        unknown = images.keys() - self._tables.keys()
        if unknown:
            raise SchemaError(
                f"bootstrap image holds unknown table(s) {sorted(unknown)}"
            )

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    def add_table(self, schema: TableSchema) -> Table:
        if schema.name in self._tables:
            raise SchemaError(f"duplicate table {schema.name!r}")
        table = Table(schema)
        self._tables[schema.name] = table
        return table

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())
