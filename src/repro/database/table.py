"""Tables: the unit of storage.

A table stores JSON-serializable ``dict`` records under string primary keys,
optionally persisted through a :class:`~repro.database.persistence.SnapshotJournal`
and optionally indexed on record fields.  All operations are thread-safe via
a readers/writer lock; queries return copies so callers can mutate results
freely.

Records are published copy-on-write: a mutation builds a new dict and swaps
it into ``_records`` under the write lock, and a stored record is never
changed in place.  A single-key :meth:`Table.get` therefore reads without the
lock (one atomic dict lookup), which keeps the hot point-read path free of
the lock-handoff convoy that several reader threads otherwise form.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.database.errors import DuplicateKeyError, RecordNotFoundError
from repro.database.index import SecondaryIndex
from repro.database.locks import RWLock
from repro.database.persistence import SnapshotJournal

__all__ = ["Table"]


class Table:
    """A keyed collection of dict records with secondary indexes."""

    def __init__(self, name: str, *, storage: SnapshotJournal | None = None) -> None:
        self.name = name
        self._storage = storage
        self._lock = RWLock()
        self._records: dict[str, dict[str, Any]] = {}
        self._indexes: dict[str, SecondaryIndex] = {}
        if storage is not None:
            loaded = storage.load()
            self._records = {str(k): dict(v) for k, v in loaded.items()}

    # -- index management ----------------------------------------------------
    def create_index(self, field: str, *, unique: bool = False) -> None:
        """Declare (or re-declare) an index on ``field`` and build it."""

        with self._lock.write():
            index = SecondaryIndex(field, unique=unique)
            index.rebuild(self._records)
            self._indexes[field] = index

    def has_index(self, field: str) -> bool:
        with self._lock.read():
            return field in self._indexes

    # -- basic operations ----------------------------------------------------
    def insert(self, key: str, record: Mapping[str, Any], *, overwrite: bool = False) -> None:
        """Insert a record; raises :class:`DuplicateKeyError` unless ``overwrite``."""

        key = str(key)
        record = dict(record)
        with self._lock.write():
            existing = self._records.get(key)
            if existing is not None and not overwrite:
                raise DuplicateKeyError(f"table {self.name!r}: key {key!r} already exists")
            for index in self._indexes.values():
                if existing is not None:
                    index.replace(key, existing, record)
                else:
                    index.add(key, record)
            self._records[key] = record
            if self._storage is not None:
                self._storage.log_put(key, record, self._snapshot_view)

    def put(self, key: str, record: Mapping[str, Any]) -> None:
        """Insert-or-replace (upsert)."""

        self.insert(key, record, overwrite=True)

    def get(self, key: str, default: Any = ...) -> dict[str, Any]:
        """Return a copy of the record for ``key``.

        Raises :class:`RecordNotFoundError` when missing unless a ``default``
        is supplied.
        """

        key = str(key)
        record = self._records.get(key)
        if record is None:
            if default is not ...:
                return default
            raise RecordNotFoundError(f"table {self.name!r}: no record for key {key!r}")
        return dict(record)

    def update(self, key: str, fields: Mapping[str, Any]) -> dict[str, Any]:
        """Merge ``fields`` into an existing record and return the new copy."""

        key = str(key)
        with self._lock.write():
            existing = self._records.get(key)
            if existing is None:
                raise RecordNotFoundError(f"table {self.name!r}: no record for key {key!r}")
            new_record = dict(existing)
            new_record.update(fields)
            for index in self._indexes.values():
                index.replace(key, existing, new_record)
            self._records[key] = new_record
            if self._storage is not None:
                self._storage.log_put(key, new_record, self._snapshot_view)
            return dict(new_record)

    def delete(self, key: str) -> bool:
        """Delete a record; returns False if it did not exist."""

        key = str(key)
        with self._lock.write():
            record = self._records.pop(key, None)
            if record is None:
                return False
            for index in self._indexes.values():
                index.remove(key, record)
            if self._storage is not None:
                self._storage.log_delete(key, self._snapshot_view)
            return True

    def clear(self) -> None:
        with self._lock.write():
            self._records.clear()
            for index in self._indexes.values():
                index.rebuild({})
            if self._storage is not None:
                self._storage.log_clear(self._snapshot_view)

    # -- queries -------------------------------------------------------------
    def find(self, predicate: Callable[[dict[str, Any]], bool] | None = None,
             **equals: Any) -> list[dict[str, Any]]:
        """Return copies of records matching a predicate and/or field equality.

        When one of the equality fields is indexed, the index narrows the scan.
        """

        with self._lock.read():
            candidates: Iterable[str]
            indexed = [f for f in equals if f in self._indexes]
            if indexed:
                field = indexed[0]
                candidates = self._indexes[field].lookup(equals[field])
            else:
                candidates = list(self._records.keys())
            results = []
            for key in candidates:
                record = self._records.get(key)
                if record is None:
                    continue
                if any(record.get(f) != v for f, v in equals.items()):
                    continue
                if predicate is not None and not predicate(record):
                    continue
                results.append(dict(record))
            return results

    def find_one(self, predicate: Callable[[dict[str, Any]], bool] | None = None,
                 **equals: Any) -> dict[str, Any] | None:
        matches = self.find(predicate, **equals)
        return matches[0] if matches else None

    def lookup(self, field: str, value: Any) -> list[dict[str, Any]]:
        """Indexed lookup: records whose ``field`` equals ``value``."""

        with self._lock.read():
            index = self._indexes.get(field)
            if index is None:
                keys = [k for k, r in self._records.items() if r.get(field) == value]
            else:
                keys = list(index.lookup(value))
            return [dict(self._records[k]) for k in keys if k in self._records]

    def keys(self) -> list[str]:
        with self._lock.read():
            return list(self._records.keys())

    def all(self) -> list[dict[str, Any]]:
        with self._lock.read():
            return [dict(r) for r in self._records.values()]

    def items(self) -> list[tuple[str, dict[str, Any]]]:
        with self._lock.read():
            return [(k, dict(r)) for k, r in self._records.items()]

    def __contains__(self, key: object) -> bool:
        with self._lock.read():
            return str(key) in self._records

    def __len__(self) -> int:
        with self._lock.read():
            return len(self._records)

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    # -- persistence ---------------------------------------------------------
    def _snapshot_view(self) -> dict[str, Any]:
        # Called with the write lock already held by the mutating operation.
        return dict(self._records)

    def checkpoint(self) -> None:
        """Force a snapshot to disk (no-op for in-memory tables)."""

        if self._storage is None:
            return
        with self._lock.read():
            snapshot = dict(self._records)
        self._storage.checkpoint(snapshot)

    def close(self) -> None:
        if self._storage is not None:
            self._storage.close()
