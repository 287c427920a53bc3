"""Window assigners and aggregate functions.

Table 3 enumerates window *types* (sliding, tumbling) crossed with window
*policies* (time, count), window durations / lengths, sliding ratios, and the
aggregate functions ``min, max, avg, mean, sum``. This module implements all
four assigner combinations with real window semantics; the window operators
in :mod:`repro.sps.operators.aggregate` and ``...join`` build on them.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.common.errors import ConfigurationError

__all__ = [
    "Window",
    "WindowAssigner",
    "TumblingTimeWindows",
    "SlidingTimeWindows",
    "TumblingCountWindows",
    "SlidingCountWindows",
    "AggregateFunction",
    "index_range_arrays",
    "ordered_sum",
    "window_end_arrays",
]


def ordered_sum(values, start=0.0):
    """Left fold ``((start + v0) + v1) + ...`` in plain float arithmetic.

    The one sum every window aggregate goes through, scalar or batch, so
    a window's float sum has the same bits on every path.  Builtin
    ``sum()`` is not that fold: since Python 3.12 it is Neumaier-
    compensated over floats, and NumPy's ``add.reduce`` is pairwise.
    """
    for value in values:
        start += value
    return start


def window_end_arrays(assigner: "WindowAssigner", indices):
    """Vectorized ``window_end`` over an int64 window-index array.

    Elementwise bit-equal to ``assigner.window_end`` (same ``index *
    step + duration`` expression).  Time-based assigners only.
    """
    if isinstance(assigner, TumblingTimeWindows):
        return indices * assigner.duration + assigner.duration
    if not isinstance(assigner, SlidingTimeWindows):
        raise ConfigurationError(
            f"window_end_arrays needs a time-based assigner, "
            f"got {type(assigner).__name__}"
        )
    return indices * assigner.slide + assigner.duration


def index_range_arrays(assigner: "WindowAssigner", times):
    """Vectorized ``assign_index_range`` over a float64 timestamp array.

    Returns ``(lo, hi)`` int64 arrays; row ``i`` equals
    ``assigner.assign_index_range(times[i])`` bit-for-bit — the same
    IEEE division, floor, and correction predicates, evaluated
    array-wide (the correction loop runs at most a few passes).  Batch
    mode's window kernels use this to assign a whole micro-batch at
    once.  Time-based assigners only.
    """
    import numpy as np

    if isinstance(assigner, TumblingTimeWindows):
        duration = assigner.duration
        index = np.floor(times / duration).astype(np.int64)
        index[index * duration > times] -= 1
        return index, index
    if not isinstance(assigner, SlidingTimeWindows):
        raise ConfigurationError(
            f"index_range_arrays needs a time-based assigner, "
            f"got {type(assigner).__name__}"
        )
    slide = assigner.slide
    duration = assigner.duration
    hi = np.floor(times / slide).astype(np.int64)
    hi[hi * slide > times] -= 1
    threshold = times - duration
    lo = np.floor(threshold / slide).astype(np.int64) - 2
    while True:
        mask = (lo * slide <= threshold) | (lo * slide + duration <= times)
        if not mask.any():
            return lo, hi
        lo[mask] += 1


@dataclass(frozen=True, order=True)
class Window:
    """A half-open time interval ``[start, end)`` in seconds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ConfigurationError(
                f"window end must exceed start, got [{self.start}, {self.end})"
            )

    def contains(self, timestamp: float) -> bool:
        """Whether a timestamp falls inside the window."""
        return self.start <= timestamp < self.end

    @property
    def duration(self) -> float:
        """Window length in seconds."""
        return self.end - self.start


class WindowAssigner:
    """Base class of the four type x policy window combinations.

    Time-based assigners additionally expose an *index space*: window
    ``i`` is ``[window_start(i), window_end(i))`` and
    :meth:`assign_index_range` returns the inclusive index interval of
    the windows containing a timestamp.  Slice-based operators
    (:mod:`repro.sps.operators.aggregate`, ``...join``) work entirely in
    index space, which avoids materialising ``duration/slide``
    :class:`Window` objects per tuple.  The index API is defined to be
    bit-for-bit consistent with :meth:`assign`: window ``i`` is in the
    range iff a :class:`Window` with the same start would be returned.
    """

    #: Whether windows are bounded by time (vs. by tuple count).
    is_time_based: bool = True

    def describe(self) -> str:
        """Short label used in plan descriptions and ML features."""
        raise NotImplementedError

    @property
    def feature_length(self) -> float:
        """Window extent as an ML feature: seconds or tuple count."""
        raise NotImplementedError

    @property
    def feature_slide_ratio(self) -> float:
        """slide / length; 1.0 for tumbling windows."""
        raise NotImplementedError


class TumblingTimeWindows(WindowAssigner):
    """Fixed, non-overlapping time windows of ``duration`` seconds."""

    is_time_based = True

    def __init__(self, duration: float) -> None:
        if duration <= 0:
            raise ConfigurationError("window duration must be positive")
        self.duration = float(duration)
        # (start, end, [Window]) of the last assignment: consecutive
        # timestamps usually hit the same window, so skip the floor and
        # the Window construction. Never mutated by callers.
        self._last: tuple[float, float, list[Window]] | None = None

    def assign(self, event_time: float) -> list[Window]:
        """The single window containing the timestamp."""
        last = self._last
        if last is not None and last[0] <= event_time < last[1]:
            return last[2]
        index = math.floor(event_time / self.duration)
        # Floating point can push index*duration past event_time.
        if index * self.duration > event_time:
            index -= 1
        start = index * self.duration
        windows = [Window(start, start + self.duration)]
        self._last = (start, start + self.duration, windows)
        return windows

    def assign_index_range(self, event_time: float) -> tuple[int, int]:
        """Inclusive index interval of windows containing the timestamp."""
        index = math.floor(event_time / self.duration)
        if index * self.duration > event_time:
            index -= 1
        return index, index

    def window_start(self, index: int) -> float:
        """Start of window ``index`` (same expression as :meth:`assign`)."""
        return index * self.duration

    def window_end(self, index: int) -> float:
        """End of window ``index`` (same expression as :meth:`assign`)."""
        return index * self.duration + self.duration

    def describe(self) -> str:
        return f"tumbling-time({self.duration * 1e3:g}ms)"

    @property
    def feature_length(self) -> float:
        return self.duration

    @property
    def feature_slide_ratio(self) -> float:
        return 1.0


class SlidingTimeWindows(WindowAssigner):
    """Overlapping time windows: length ``duration``, advancing by ``slide``.

    The paper's sliding ratio parameter is ``slide / duration`` in
    ``[0.3, 0.7]``; a ratio of 1.0 degenerates to tumbling windows.
    """

    is_time_based = True

    def __init__(self, duration: float, slide: float) -> None:
        if duration <= 0 or slide <= 0:
            raise ConfigurationError("duration and slide must be positive")
        if slide > duration:
            raise ConfigurationError(
                f"slide ({slide}) must not exceed duration ({duration})"
            )
        self.duration = float(duration)
        self.slide = float(slide)

    def assign(self, event_time: float) -> list[Window]:
        """All windows containing the timestamp (~duration/slide of them).

        Starts are computed as ``index * slide`` per index (not by repeated
        subtraction) so they agree bit-for-bit with
        :meth:`Window.contains` under floating point.
        """
        index = math.floor(event_time / self.slide)
        if index * self.slide > event_time:
            index -= 1
        windows = []
        while index * self.slide > event_time - self.duration:
            start = index * self.slide
            window = Window(start, start + self.duration)
            # start + duration can round *down* to exactly event_time
            # (half-open end), so re-check containment bit-for-bit.
            if window.contains(event_time):
                windows.append(window)
            index -= 1
        windows.reverse()
        return windows

    def assign_index_range(self, event_time: float) -> tuple[int, int]:
        """Inclusive index interval of windows containing the timestamp.

        Uses the exact same floating-point predicates as :meth:`assign`
        (``index * slide`` compared against the timestamp, the half-open
        end re-checked through the same ``start + duration`` rounding),
        so the interval ``[lo, hi]`` covers precisely the windows
        ``assign`` would return.  ``lo > hi`` when rounding leaves no
        containing window.  O(1): the scan below starts at most a couple
        of indices under the true lower bound.
        """
        slide = self.slide
        duration = self.duration
        hi = math.floor(event_time / slide)
        if hi * slide > event_time:
            hi -= 1
        threshold = event_time - duration
        lo = math.floor(threshold / slide) - 2
        # Window lo is included iff lo*slide > event_time - duration
        # (assign's loop bound) and its half-open end exceeds the
        # timestamp (assign's bit-for-bit containment re-check).
        while lo * slide <= threshold or lo * slide + duration <= event_time:
            lo += 1
        return lo, hi

    def window_start(self, index: int) -> float:
        """Start of window ``index`` (same expression as :meth:`assign`)."""
        return index * self.slide

    def window_end(self, index: int) -> float:
        """End of window ``index`` (same expression as :meth:`assign`)."""
        return index * self.slide + self.duration

    def describe(self) -> str:
        return (
            f"sliding-time({self.duration * 1e3:g}ms,"
            f"{self.slide * 1e3:g}ms)"
        )

    @property
    def feature_length(self) -> float:
        return self.duration

    @property
    def feature_slide_ratio(self) -> float:
        return self.slide / self.duration


class TumblingCountWindows(WindowAssigner):
    """Non-overlapping windows of exactly ``length`` tuples (per key)."""

    is_time_based = False

    def __init__(self, length: int) -> None:
        if length <= 0:
            raise ConfigurationError("window length must be positive")
        self.length = int(length)

    def describe(self) -> str:
        return f"tumbling-count({self.length})"

    @property
    def feature_length(self) -> float:
        return float(self.length)

    @property
    def feature_slide_ratio(self) -> float:
        return 1.0


class SlidingCountWindows(WindowAssigner):
    """Windows of ``length`` tuples firing every ``slide`` tuples (per key)."""

    is_time_based = False

    def __init__(self, length: int, slide: int) -> None:
        if length <= 0 or slide <= 0:
            raise ConfigurationError("length and slide must be positive")
        if slide > length:
            raise ConfigurationError(
                f"slide ({slide}) must not exceed length ({length})"
            )
        self.length = int(length)
        self.slide = int(slide)

    def describe(self) -> str:
        return f"sliding-count({self.length},{self.slide})"

    @property
    def feature_length(self) -> float:
        return float(self.length)

    @property
    def feature_slide_ratio(self) -> float:
        return self.slide / self.length


class AggregateFunction(enum.Enum):
    """Window aggregate functions of Table 3.

    The paper lists both ``avg`` and ``mean``; they compute the same value
    and are kept as distinct enumeration members so generated queries cover
    the paper's full parameter range.
    """

    MIN = "min"
    MAX = "max"
    SUM = "sum"
    AVG = "avg"
    MEAN = "mean"
    COUNT = "count"

    def apply(self, values: Sequence[float]) -> float:
        """Aggregate a non-empty sequence of numeric values."""
        if not values and self is not AggregateFunction.COUNT:
            raise ConfigurationError(
                f"{self.value} of an empty window is undefined"
            )
        if self is AggregateFunction.MIN:
            return float(min(values))
        if self is AggregateFunction.MAX:
            return float(max(values))
        if self is AggregateFunction.SUM:
            return float(ordered_sum(values, 0))
        if self is AggregateFunction.COUNT:
            return float(len(values))
        return float(ordered_sum(values, 0)) / len(values)  # AVG and MEAN
