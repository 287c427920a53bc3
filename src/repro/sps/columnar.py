"""Columnar micro-batches.

The scalar engine moves one :class:`~repro.sps.tuples.StreamTuple` per
event; per-tuple Python dispatch dominates its cost.  Batch mode
(:mod:`repro.sps.batch`) instead moves :class:`TupleBatch` objects —
fixed-size micro-batches whose values live in NumPy *column* arrays and
whose per-tuple metadata (event/origin times, key, payload size, the
data-plane timestamp and a global emission sequence) live in parallel
arrays.  Operators with a vectorized form consume whole batches; all
others fall back to per-tuple processing via :meth:`TupleBatch.to_tuples`.

Columns are typed per field from the actual values: homogeneous numeric
fields become ``int64``/``float64`` arrays, anything else (strings,
Nones, mixed types) an ``object`` array.  Streams whose rows disagree on
arity are stored row-wise (``columns is None``) and force the scalar
fallback — vectorized operators check :attr:`TupleBatch.columns` first.

NumPy is a hard dependency of the simulator at large, but batch mode is
the layer that genuinely cannot degrade without it, so this module keeps
the import soft and :func:`require_numpy` raises a clear
:class:`~repro.common.errors.ConfigurationError` when batch execution is
requested on an interpreter without NumPy.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import ConfigurationError
from repro.sps.tuples import StreamTuple

try:  # pragma: no cover - numpy is installed in every supported env
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised via require_numpy tests
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

__all__ = [
    "HAVE_NUMPY",
    "TupleBatch",
    "require_numpy",
    "run_heads",
    "segment_reduce",
]

_NUMERIC_TYPES = (int, float, bool)


def require_numpy() -> None:
    """Raise a helpful error when batch mode is requested without NumPy."""
    if not HAVE_NUMPY:
        raise ConfigurationError(
            "batch_size requires numpy (>= 1.24): batch mode evaluates "
            "operators over NumPy column arrays. Install numpy, or leave "
            "batch_size unset to use the scalar engine."
        )


def run_heads(breaks):
    """First-row index of every run; ``breaks[i]`` cuts before row
    ``i + 1``."""
    heads = np.flatnonzero(breaks)
    heads += 1
    return np.concatenate(((0,), heads))


def segment_reduce(breaks, values, origins):
    """Reduce every run of a run-sorted micro-batch in one pass.

    ``breaks[i]`` says row ``i + 1`` opens a new run.  Returns ``(heads,
    bounds, seg_min, seg_max, seg_origin, values)``: the run-head row
    index array (to pick each run's identity columns with), then plain
    lists — run ``s`` covers rows ``bounds[s]:bounds[s + 1]``, its value
    min/max and earliest origin come from one ``reduceat`` each, and
    ``values`` is left for the caller's order-exact sum
    (:func:`repro.sps.windows.ordered_sum` over the run's slice; a
    ``reduceat`` sum is pairwise and would re-associate it).
    """
    heads = run_heads(breaks)
    bounds = heads.tolist()
    bounds.append(len(values))
    return (
        heads,
        bounds,
        np.minimum.reduceat(values, heads).tolist(),
        np.maximum.reduceat(values, heads).tolist(),
        np.minimum.reduceat(origins, heads).tolist(),
        values.tolist(),
    )


def _column_from(items: list) -> "np.ndarray":
    """One field's values as the tightest safe array type."""
    for item in items:
        if not isinstance(item, _NUMERIC_TYPES):
            break
    else:
        try:
            array = np.asarray(items)
        except (OverflowError, ValueError):
            array = None
        if array is not None and array.dtype.kind in "bif":
            return array
    array = np.empty(len(items), dtype=object)
    array[:] = items
    return array


class TupleBatch:
    """A micro-batch of tuples in columnar form.

    ``columns[j][i]`` is field ``j`` of row ``i`` (or ``columns is None``
    for ragged streams, with rows kept in :attr:`rows`).  ``now`` is the
    data-plane timestamp each row is *processed* at — the ideal
    pipeline time batch mode windows against, independent of batch
    granularity — and ``seq`` the global emission order used to merge
    streams deterministically.
    """

    __slots__ = (
        "columns",
        "rows",
        "event_time",
        "origin_time",
        "key",
        "size_bytes",
        "now",
        "seq",
    )

    def __init__(
        self,
        columns: tuple | None,
        rows,
        event_time,
        origin_time,
        key,
        size_bytes,
        now,
        seq,
    ) -> None:
        self.columns = columns
        self.rows = rows
        self.event_time = event_time
        self.origin_time = origin_time
        self.key = key
        self.size_bytes = size_bytes
        self.now = now
        self.seq = seq

    def __len__(self) -> int:
        return len(self.event_time)

    # ------------------------------------------------------------ building

    @classmethod
    def from_tuples(
        cls, tuples: list[StreamTuple], now, seq
    ) -> "TupleBatch":
        """Columnarize scalar tuples (``now``/``seq`` are arrays)."""
        n = len(tuples)
        event_time = np.empty(n, dtype=np.float64)
        origin_time = np.empty(n, dtype=np.float64)
        size_bytes = np.empty(n, dtype=np.float64)
        keys: list[Any] = []
        any_key = False
        arity: int | None = None
        ragged = False
        for i, tup in enumerate(tuples):
            event_time[i] = tup.event_time
            origin_time[i] = tup.origin_time
            size_bytes[i] = tup.size_bytes
            key = tup.key
            keys.append(key)
            if key is not None:
                any_key = True
            width = len(tup.values)
            if arity is None:
                arity = width
            elif width != arity:
                ragged = True
        columns: tuple | None
        rows = None
        if ragged or arity is None:
            columns = None
            rows = np.empty(n, dtype=object)
            rows[:] = [tup.values for tup in tuples]
        else:
            columns = tuple(
                _column_from([tup.values[j] for tup in tuples])
                for j in range(arity)
            )
        key_col = _column_from(keys) if any_key else None
        return cls(
            columns,
            rows,
            event_time,
            origin_time,
            key_col,
            size_bytes,
            np.asarray(now, dtype=np.float64),
            np.asarray(seq, dtype=np.int64),
        )

    @classmethod
    def from_lists(
        cls, fields, key_field: int, origin_time, size_bytes: float, now, seq
    ) -> "TupleBatch":
        """Columnarize per-field value lists, typed as :meth:`from_tuples`
        types them; every row is stamped ``event_time = now`` and carries
        ``size_bytes``.  Field ``key_field`` is also the rows' key (an
        unkeyed stream holds ``None`` in every row of it)."""
        now = np.asarray(now, dtype=np.float64)
        columns = tuple(_column_from(items) for items in fields)
        keyed = any(key is not None for key in fields[key_field])
        return cls(
            columns,
            None,
            now,
            np.asarray(origin_time, dtype=np.float64),
            columns[key_field] if keyed else None,
            np.full(len(now), size_bytes),
            now,
            seq,
        )

    # ----------------------------------------------------------- reshaping

    def take(self, indices) -> "TupleBatch":
        """Row subset/permutation by an integer index array."""
        columns = self.columns
        return TupleBatch(
            tuple(col[indices] for col in columns)
            if columns is not None
            else None,
            self.rows[indices] if self.rows is not None else None,
            self.event_time[indices],
            self.origin_time[indices],
            self.key[indices] if self.key is not None else None,
            self.size_bytes[indices],
            self.now[indices],
            self.seq[indices],
        )

    def compress(self, mask) -> "TupleBatch":
        """Rows where the boolean mask holds (vectorized filter)."""
        return self.take(np.flatnonzero(mask))

    def slice(self, start: int, stop: int) -> "TupleBatch":
        """Contiguous row range as array views (no copies)."""
        columns = self.columns
        return TupleBatch(
            tuple(col[start:stop] for col in columns)
            if columns is not None
            else None,
            self.rows[start:stop] if self.rows is not None else None,
            self.event_time[start:stop],
            self.origin_time[start:stop],
            self.key[start:stop] if self.key is not None else None,
            self.size_bytes[start:stop],
            self.now[start:stop],
            self.seq[start:stop],
        )

    @staticmethod
    def concat(batches: list["TupleBatch"]) -> "TupleBatch":
        """Row-concatenate batches (all columnar & same arity, or rebuilt
        row-wise when shapes disagree)."""
        if len(batches) == 1:
            return batches[0]
        arities = {
            len(b.columns) if b.columns is not None else -1 for b in batches
        }
        if len(arities) == 1 and -1 not in arities:
            arity = arities.pop()
            columns = tuple(
                _concat_field([b.columns[j] for b in batches])
                for j in range(arity)
            )
            rows = None
        else:
            columns = None
            parts = []
            for b in batches:
                if b.rows is not None:
                    parts.extend(b.rows)
                else:
                    parts.extend(zip(*[c.tolist() for c in b.columns]))
            rows = np.empty(len(parts), dtype=object)
            rows[:] = parts
        any_key = any(b.key is not None for b in batches)
        key = None
        if any_key:
            key = _concat_field(
                [
                    b.key
                    if b.key is not None
                    else np.full(len(b), None, dtype=object)
                    for b in batches
                ]
            )
        return TupleBatch(
            columns,
            rows,
            np.concatenate([b.event_time for b in batches]),
            np.concatenate([b.origin_time for b in batches]),
            key,
            np.concatenate([b.size_bytes for b in batches]),
            np.concatenate([b.now for b in batches]),
            np.concatenate([b.seq for b in batches]),
        )

    def with_columns(self, columns: tuple) -> "TupleBatch":
        """Same rows with transformed values (vectorized map)."""
        return TupleBatch(
            tuple(np.asarray(col) for col in columns),
            None,
            self.event_time,
            self.origin_time,
            self.key,
            self.size_bytes,
            self.now,
            self.seq,
        )

    def repeat_rows(self, counts, columns: tuple) -> "TupleBatch":
        """Fan-out expansion (vectorized flat-map).

        Row ``i`` of this batch yields ``counts[i]`` consecutive output
        rows whose values come from the pre-expanded ``columns`` and
        whose provenance metadata (timestamps, key, payload size) is row
        ``i``'s, repeated — matching what per-tuple ``with_values``
        emission would produce.  ``seq`` is left unassigned; the
        executor numbers emissions.
        """
        return TupleBatch(
            tuple(np.asarray(col) for col in columns),
            None,
            np.repeat(self.event_time, counts),
            np.repeat(self.origin_time, counts),
            np.repeat(self.key, counts) if self.key is not None else None,
            np.repeat(self.size_bytes, counts),
            np.repeat(self.now, counts),
            None,
        )

    def with_key(self, key) -> "TupleBatch":
        """Same rows re-keyed (vectorized hash-exchange rekey)."""
        return TupleBatch(
            self.columns,
            self.rows,
            self.event_time,
            self.origin_time,
            key,
            self.size_bytes,
            self.now,
            self.seq,
        )

    # --------------------------------------------------------- scalar view

    def values_lists(self) -> list[list]:
        """Per-field Python value lists (``tolist`` per column)."""
        if self.columns is None:
            return []
        return [col.tolist() for col in self.columns]

    def to_tuples(self) -> list[StreamTuple]:
        """Materialize scalar tuples (the fallback boundary)."""
        n = len(self)
        if self.columns is not None:
            value_rows = list(zip(*self.values_lists())) if n else []
        else:
            value_rows = list(self.rows)
        event_time = self.event_time.tolist()
        origin_time = self.origin_time.tolist()
        size_bytes = self.size_bytes.tolist()
        keys = self.key.tolist() if self.key is not None else None
        out = []
        for i in range(n):
            tup = StreamTuple.__new__(StreamTuple)
            tup.values = tuple(value_rows[i])
            tup.key = keys[i] if keys is not None else None
            tup.event_time = event_time[i]
            tup.origin_time = origin_time[i]
            tup.size_bytes = size_bytes[i]
            tup.prov = None
            out.append(tup)
        return out


def _concat_field(arrays: list) -> "np.ndarray":
    """Concatenate one field's chunk arrays, widening dtype if needed."""
    kinds = {a.dtype.kind for a in arrays}
    if "O" in kinds and len(kinds) > 1:
        out = np.empty(sum(len(a) for a in arrays), dtype=object)
        offset = 0
        for a in arrays:
            out[offset : offset + len(a)] = a.tolist()
            offset += len(a)
        return out
    return np.concatenate(arrays)
