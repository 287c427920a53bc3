"""User-defined operators.

The paper's real-world applications mix standard operators with UDOs whose
"custom logic, state handling and coordination needs" make their scaling
behaviour less predictable (O3). :class:`FunctionUDO` wraps an arbitrary
stateful function; the application suite (:mod:`repro.apps`) also subclasses
:class:`~repro.sps.operators.base.OperatorLogic` directly for richer UDOs.
"""

from __future__ import annotations

import copy
from collections.abc import Callable
from typing import Any

from repro.sps.operators.base import OperatorLogic
from repro.sps.tuples import StreamTuple

__all__ = ["FunctionUDO"]

UDOFunction = Callable[[dict[str, Any], StreamTuple, float], list[StreamTuple]]


class FunctionUDO(OperatorLogic):
    """A UDO defined by a function over (state, tuple, now).

    ``state`` is a per-instance dict the function may mutate freely;
    ``work_profile`` optionally maps a tuple to its work units, letting
    applications express data-dependent compute intensity.
    """

    #: the state dict is opaque to the engine — it cannot be split by
    #: key, so migrating it across a parallelism change is unsound
    rescale_supported = False

    def __init__(
        self,
        fn: UDOFunction,
        work_profile: Callable[[StreamTuple], float] | None = None,
        timer_fn: Callable[[dict[str, Any], float], list[StreamTuple]]
        | None = None,
        timer_interval: float | None = None,
    ) -> None:
        self._fn = fn
        self._work_profile = work_profile
        self._timer_fn = timer_fn
        if timer_interval is not None:
            self.timer_interval = timer_interval
        self.state: dict[str, Any] = {}

    def process(
        self, tup: StreamTuple, now: float, port: int = 0
    ) -> list[StreamTuple]:
        return self._fn(self.state, tup, now)

    def on_time(self, now: float) -> list[StreamTuple]:
        if self._timer_fn is None:
            return []
        return self._timer_fn(self.state, now)

    def work_units(self, tup: StreamTuple) -> float:
        if self._work_profile is None:
            return self.work_factor
        return self._work_profile(tup)

    # The state dict is opaque to keyed migration but perfectly
    # checkpointable. Nothing is known about what the user function
    # mutates, so snapshots deep-copy the whole dict, both ways.
    def snapshot_state(self):
        """Deep copy of the opaque state dict (None when empty)."""
        if not self.state:
            return None
        return copy.deepcopy(self.state)

    def restore_state(self, snapshot) -> None:
        if snapshot:
            self.state = copy.deepcopy(snapshot)

    def state_items(self) -> int:
        return len(self.state)

    def dsan_targets(self) -> tuple[Callable | None, ...]:
        """Callables the determinism sanitizer should scan.

        The static AST pass (:mod:`repro.analysis.sanitizer`) cannot see
        through ``FunctionUDO`` to the wrapped user function; this
        protocol hands it the actual callables whose source matters.
        """
        return (self._fn, self._work_profile, self._timer_fn)
