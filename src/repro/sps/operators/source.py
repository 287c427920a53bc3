"""Source logic.

Sources do not consume tuples; the engine polls them through
:meth:`SourceLogic.generate` each time the subtask's arrival process fires,
and batch mode through :meth:`SourceLogic.generate_columns` once per
micro-batch. A source is defined by a columnar generator ``(rng, n) ->
(columns, sizes)`` — the workload layer's and the application suite's form
— or, for a caller that owns one (a replayed log), by a row generator
``(rng, event_time) -> StreamTuple``; never by both.

A row generator is called in its subtask's arrival order, with each
arrival's instant. The engine draws a subtask's arrival instants a
:data:`SOURCE_CHUNK` block ahead; a run whose horizon is pinned
(``StreamEngine.step`` "evented") calls ``generate`` at the clock, one
arrival per event, but any other calls it up to a block ahead of the
clock, a block per subtask at a time. State a generator shares *between* source
subtasks (one without ``per_subtask()``) is therefore not visited in
simulated-time order there; state of one subtask is.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import repeat

import numpy as np

from repro.common.errors import ConfigurationError
from repro.sps.operators.base import OperatorLogic
from repro.sps.tuples import StreamTuple

__all__ = ["SOURCE_CHUNK", "SourceLogic"]

#: Row form: ``(rng, event_time) -> StreamTuple``. A generator that keeps
#: state between calls (a replay cursor) also defines ``per_subtask()``,
#: returning a fresh instance; each :class:`SourceLogic` takes its own.
TupleGenerator = Callable[[np.random.Generator, float], StreamTuple]

#: Columnar form: ``(rng, n) -> (columns, sizes)`` where ``columns`` is a
#: tuple of ``n``-row arrays (one per value field) and ``sizes`` is a float
#: or an ``n``-row array of tuple sizes in bytes. It may lay its draws out
#: in the RNG stream however it likes (a ``StreamSpec`` and the
#: applications draw column-major): :class:`SourceLogic` calls it for whole
#: :data:`SOURCE_CHUNK`-row chunks only, so the values cannot depend on who
#: asks for how many rows.
VectorTupleGenerator = Callable[[np.random.Generator, int], tuple]

#: Rows per chunk of a columnar source. A constant of the stream's
#: definition, not a tuning knob: chunk ``c`` of a subtask is the ``c``-th
#: ``SOURCE_CHUNK``-row block drawn from its private RNG stream, whatever
#: the batch size, request size or execution mode. Larger chunks amortise
#: the per-call cost further but over-draw more at the end of a short run
#: (a Fig. 3 XXL cell reads 18 rows per source subtask).
SOURCE_CHUNK = 32


class SourceLogic(OperatorLogic):
    """Wraps a tuple generator; one instance per source subtask.

    A row ``generator`` is called once per tuple. A ``vector_generator``
    is read through a per-subtask chunk buffer: :meth:`generate_columns`
    hands out the next rows as columns and :meth:`generate` pops the next
    row of the same buffer — one stream, whichever way it is read.
    """

    def __init__(
        self,
        generator: TupleGenerator | None,
        vector_generator: VectorTupleGenerator | None = None,
    ) -> None:
        if (generator is None) == (vector_generator is None):
            raise ConfigurationError(
                "a source takes one of generator and vector_generator"
            )
        per_subtask = getattr(generator, "per_subtask", None)
        self._generator = generator if per_subtask is None else per_subtask()
        self._vector_generator = vector_generator
        self.emitted = 0
        # The chunk buffer: the current chunk's columns, its scalar tuple
        # size (None: per-row sizes ride along as a last column), the
        # next unread row, and the unread rows as Python values, last row
        # first (built by the first generate() after a refill or a read).
        self._chunk: tuple = ()
        self._sizes: float | None = None
        self._cursor = SOURCE_CHUNK
        self._rows: list | None = None

    @property
    def has_vector_generator(self) -> bool:
        """Whether batch mode can generate whole micro-batches at once."""
        return self._vector_generator is not None

    def _refill(self) -> None:
        columns, sizes = self._vector_generator(self.ctx.rng, SOURCE_CHUNK)
        if isinstance(sizes, np.ndarray):
            columns, sizes = (*columns, sizes), None
        self._chunk, self._sizes = columns, sizes
        self._cursor = 0

    def generate_columns(self, nows: np.ndarray) -> tuple:
        """Columns + sizes for one micro-batch of arrivals (batch mode)."""
        wanted = len(nows)
        self.emitted += wanted
        self._rows = None
        pieces = []
        while wanted:
            if self._cursor == SOURCE_CHUNK:
                self._refill()
            start = self._cursor
            stop = self._cursor = min(start + wanted, SOURCE_CHUNK)
            wanted -= stop - start
            if stop - start == SOURCE_CHUNK:
                pieces.append(self._chunk)
            else:
                pieces.append([col[start:stop] for col in self._chunk])
        columns = [np.concatenate(part) for part in zip(*pieces)]
        if self._sizes is None:
            return tuple(columns[:-1]), columns[-1]
        return tuple(columns), np.full(len(nows), self._sizes, np.float64)

    def generate(self, now: float) -> StreamTuple:
        """Produce the next tuple at simulated time ``now``."""
        self.emitted += 1
        if self._generator is not None:
            tup = self._generator(self.ctx.rng, now)
            tup.origin_time = now
            tup.event_time = now
            return tup
        rows = self._rows
        if not rows:
            if self._cursor == SOURCE_CHUNK:
                self._refill()
            # tolist(): rows carry Python int/float/str, never NumPy
            # scalars. Popped as read, so a consumed row is not kept alive.
            fields = [col[self._cursor :].tolist() for col in self._chunk]
            sizes = self._sizes
            sizes = fields.pop() if sizes is None else repeat(sizes)
            rows = self._rows = list(zip(zip(*fields), sizes))
            rows.reverse()
        self._cursor += 1
        values, size = rows.pop()
        return StreamTuple(values, now, None, None, size)

    def flush(self, now: float) -> list[StreamTuple]:
        """End of stream: the unread rest of the chunk is let go."""
        self._chunk = ()
        self._cursor = SOURCE_CHUNK
        self._rows = None
        return []

    def process(
        self, tup: StreamTuple, now: float, port: int = 0
    ) -> list[StreamTuple]:
        raise RuntimeError("sources are polled via generate(), not process()")
