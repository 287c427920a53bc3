"""An embedded JSON document store with a Mongo-like query surface.

Supports ``insert_one/insert_many``, ``find/find_one/count`` with a filter
dict (equality plus ``$gt/$gte/$lt/$lte/$ne/$in`` operators and dotted
paths), ``delete_many``, and optional JSON-lines persistence per
collection. Enough surface to play MongoDB's role in the PDSP-Bench
workflow: persisting workload runs and serving them back as ML training
corpora.

A crash mid-append can leave a torn, unterminated last line: loading
drops it with a warning, so the collection stays readable, while a
corrupt line that ends in a newline is an error. A complete last line
without its newline gets one before the next append.
"""

from __future__ import annotations

import json
import os
import warnings
from collections.abc import Callable, Iterable
from typing import Any

from repro.common.errors import StorageError

__all__ = ["DocumentStore", "Collection"]

_OPERATORS: dict[str, Callable[[Any, Any], bool]] = {
    "$gt": lambda value, arg: value is not None and value > arg,
    "$gte": lambda value, arg: value is not None and value >= arg,
    "$lt": lambda value, arg: value is not None and value < arg,
    "$lte": lambda value, arg: value is not None and value <= arg,
    "$ne": lambda value, arg: value != arg,
    "$in": lambda value, arg: value in arg,
    "$nin": lambda value, arg: value not in arg,
    "$exists": lambda value, arg: (value is not None) == bool(arg),
}


def _resolve(document: dict, path: str) -> Any:
    """Fetch a possibly-dotted path; None when any segment is missing."""
    current: Any = document
    for part in path.split("."):
        if not isinstance(current, dict) or part not in current:
            return None
        current = current[part]
    return current


def _matches(document: dict, query: dict) -> bool:
    for path, condition in query.items():
        value = _resolve(document, path)
        if isinstance(condition, dict) and any(
            key.startswith("$") for key in condition
        ):
            for op_name, arg in condition.items():
                op = _OPERATORS.get(op_name)
                if op is None:
                    raise StorageError(f"unknown query operator {op_name!r}")
                if not op(value, arg):
                    return False
        elif value != condition:
            return False
    return True


class Collection:
    """One named collection of JSON-serialisable documents."""

    def __init__(self, name: str, path: str | None = None) -> None:
        self.name = name
        self._path = path
        self._docs: list[dict] = []
        self._next_id = 1
        #: the file's last line has no newline: the next append adds one
        self._unterminated = False
        if path and os.path.exists(path):
            self._load()

    # ----------------------------------------------------------- persistence

    def _load(self) -> None:
        loaded = 0
        with open(self._path, "rb") as handle:
            for line in handle:
                terminated = line.endswith(b"\n")
                try:
                    self._load_line(line)
                except StorageError:
                    if terminated:
                        raise
                    # Only the last line can lack its newline: an append
                    # the process died in. Nothing acknowledged it.
                    warnings.warn(
                        f"{self._path}: dropping a torn last line "
                        f"({len(line)} bytes)",
                        RuntimeWarning,
                        stacklevel=4,
                    )
                    os.truncate(self._path, loaded)
                    return
                self._unterminated = not terminated
                loaded += len(line)

    def _load_line(self, line: bytes) -> None:
        if not line.strip():
            return
        try:
            document = json.loads(line)
        except ValueError as exc:
            raise StorageError(
                f"corrupt document in {self._path}: {exc}"
            ) from exc
        self._docs.append(document)
        self._next_id = max(self._next_id, int(document.get("_id", 0)) + 1)

    def _append_to_disk(self, documents: Iterable[dict]) -> None:
        if not self._path:
            return
        with open(self._path, "a", encoding="utf-8") as handle:
            if self._unterminated:
                handle.write("\n")
                self._unterminated = False
            for document in documents:
                handle.write(json.dumps(document, sort_keys=True) + "\n")

    def _rewrite_disk(self) -> None:
        if not self._path:
            return
        tmp = self._path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            for document in self._docs:
                handle.write(json.dumps(document, sort_keys=True) + "\n")
        os.replace(tmp, self._path)
        self._unterminated = False

    # ------------------------------------------------------------- mutation

    def insert_one(self, document: dict) -> int:
        """Insert one document; returns its assigned ``_id``."""
        return self.insert_many([document])[0]

    def insert_many(self, documents: Iterable[dict]) -> list[int]:
        """Insert documents; returns their assigned ids."""
        inserted = []
        fresh = []
        for document in documents:
            if not isinstance(document, dict):
                raise StorageError(
                    f"documents must be dicts, got {type(document).__name__}"
                )
            copy = dict(document)
            copy.setdefault("_id", self._next_id)
            self._next_id = max(self._next_id, int(copy["_id"]) + 1)
            try:
                json.dumps(copy)
            except TypeError as exc:
                raise StorageError(
                    f"document is not JSON-serialisable: {exc}"
                ) from exc
            self._docs.append(copy)
            fresh.append(copy)
            inserted.append(copy["_id"])
        self._append_to_disk(fresh)
        return inserted

    def delete_many(self, query: dict) -> int:
        """Delete matching documents; returns how many were removed."""
        before = len(self._docs)
        self._docs = [d for d in self._docs if not _matches(d, query)]
        removed = before - len(self._docs)
        if removed:
            self._rewrite_disk()
        return removed

    # --------------------------------------------------------------- query

    def find(
        self,
        query: dict | None = None,
        limit: int | None = None,
        sort_by: str | None = None,
        descending: bool = False,
    ) -> list[dict]:
        """All matching documents (copies), optionally sorted/limited."""
        results = [
            dict(d) for d in self._docs if _matches(d, query or {})
        ]
        if sort_by is not None:
            results.sort(
                key=lambda d: (_resolve(d, sort_by) is None,
                               _resolve(d, sort_by)),
                reverse=descending,
            )
        if limit is not None:
            results = results[:limit]
        return results

    def find_one(self, query: dict | None = None) -> dict | None:
        """The first matching document, or None."""
        for document in self._docs:
            if _matches(document, query or {}):
                return dict(document)
        return None

    def count(self, query: dict | None = None) -> int:
        """Number of matching documents."""
        if not query:
            return len(self._docs)
        return sum(1 for d in self._docs if _matches(d, query))

    def distinct(self, path: str) -> list:
        """Sorted distinct values at a (dotted) path."""
        values = {
            _resolve(d, path)
            for d in self._docs
            if _resolve(d, path) is not None
        }
        return sorted(values, key=lambda v: (str(type(v)), v))


class DocumentStore:
    """A set of named collections, optionally persisted to a directory."""

    def __init__(self, directory: str | None = None) -> None:
        self._directory = directory
        self._collections: dict[str, Collection] = {}
        if directory:
            os.makedirs(directory, exist_ok=True)

    def collection(self, name: str) -> Collection:
        """Get or create a collection."""
        if not name or "/" in name:
            raise StorageError(f"invalid collection name {name!r}")
        if name not in self._collections:
            path = (
                os.path.join(self._directory, f"{name}.jsonl")
                if self._directory
                else None
            )
            self._collections[name] = Collection(name, path)
        return self._collections[name]

    def __getitem__(self, name: str) -> Collection:
        return self.collection(name)

    def list_collections(self) -> list[str]:
        """Names of all collections opened (and, if persistent, on disk)."""
        names = set(self._collections)
        if self._directory:
            for filename in os.listdir(self._directory):
                if filename.endswith(".jsonl"):
                    names.add(filename[: -len(".jsonl")])
        return sorted(names)

    def drop(self, name: str) -> None:
        """Delete a collection and its file."""
        self._collections.pop(name, None)
        if self._directory:
            path = os.path.join(self._directory, f"{name}.jsonl")
            if os.path.exists(path):
                os.remove(path)
