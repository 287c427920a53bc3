"""Declarative chaos scenarios, compiled onto the engine's event heap.

A :class:`Scenario` is a named, immutable bundle of injections. The
engine compiles each injection into heap events at run start, so an
identical ``(plan, seed, scenario)`` triple replays the exact same
perturbation sequence — chaos runs are reproducible bit-for-bit, which
is what lets CI assert on them (the ``chaos-smoke`` job).

Injection semantics:

- :class:`NodeFailure` — the node's non-sink subtasks *fail* at
  ``at``: their in-memory state and queued tuples are lost and fresh
  instances come up after ``duration``. With checkpointing off the
  engine accounts the damage (``extras["elastic"]["state_loss"]``);
  with ``checkpoint_interval`` set the fault-tolerance subsystem
  (DESIGN.md §13) performs a global restart instead — every
  processing subtask restores the last completed checkpoint and the
  sources replay their durable logs.
- :class:`LoadSpike` — all sources emit ``factor``× faster for the
  window.
- :class:`Straggler` — one subtask's service time inflates by
  ``factor`` (a slow disk, a noisy neighbour). If the operator
  rescales while straggling, the replacement subtasks are built from
  the clean cost model — rescaling *repairs* the straggler, as it does
  in production.
- :class:`NetworkDegradation` — every cross-node channel's latency and
  bandwidth degrade by the given factors for the window.

Windows of one kind may overlap: while they do, every open window's
factor applies, to the unperturbed value, in start order; the value
comes back bit for bit when the last one closes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.errors import ConfigurationError, check_count

__all__ = [
    "NodeFailure",
    "LoadSpike",
    "Straggler",
    "NetworkDegradation",
    "Scenario",
    "make_scenario",
]


def _check_window(at: float, duration: float, *factors: float) -> None:
    if not all(map(math.isfinite, (at, duration, *factors))):
        # NaN passes every ordered comparison, and would order the
        # event heap arbitrarily.
        raise ConfigurationError("injection parameters must be finite")
    if at < 0 or duration <= 0:
        raise ConfigurationError(
            "injection needs at >= 0 and duration > 0"
        )


@dataclass(frozen=True)
class NodeFailure:
    """One node's subtasks fail at ``at``; replacements are up after
    ``duration`` seconds.

    The node's processing subtasks lose their in-memory state and
    queues; sinks (transactional external systems) survive. Its
    sources stop generating for the outage. What happens next depends
    on the run's fault-tolerance configuration — explicit loss
    accounting when checkpointing is off, a global restart from the
    last completed checkpoint plus source replay when it is on.

    ``node`` is a cluster node id; ``None`` picks the node hosting the
    plan's first non-source, non-sink subtask (deterministic, and
    guaranteed to hit processing work).
    """

    at: float
    duration: float
    node: int | None = None

    def __post_init__(self) -> None:
        _check_window(self.at, self.duration)
        if self.node is not None and self.node < 0:
            raise ConfigurationError("failure node must be >= 0")


@dataclass(frozen=True)
class LoadSpike:
    """All sources emit ``factor``× faster during the window."""

    at: float
    duration: float
    factor: float = 3.0

    def __post_init__(self) -> None:
        _check_window(self.at, self.duration, self.factor)
        if self.factor <= 1.0:
            raise ConfigurationError("spike factor must be > 1")


@dataclass(frozen=True)
class Straggler:
    """One subtask's service time inflates by ``factor``.

    ``op`` is the operator id; ``None`` picks the non-source, non-sink
    operator with the highest cost-model service time (the plan's
    bottleneck). ``subtask`` indexes into the operator's live subtasks
    modulo its parallelism.
    """

    at: float
    duration: float
    factor: float = 4.0
    op: str | None = None
    subtask: int = 0

    def __post_init__(self) -> None:
        _check_window(self.at, self.duration, self.factor)
        if self.factor <= 1.0:
            raise ConfigurationError("straggler factor must be > 1")
        if self.subtask < 0:
            raise ConfigurationError("subtask index must be >= 0")


@dataclass(frozen=True)
class NetworkDegradation:
    """Cross-node channels slow down: latency ×``latency_factor``,

    bandwidth ×``bandwidth_factor``, for the window."""

    at: float
    duration: float
    latency_factor: float = 10.0
    bandwidth_factor: float = 0.1

    def __post_init__(self) -> None:
        _check_window(
            self.at, self.duration, self.latency_factor, self.bandwidth_factor
        )
        if self.latency_factor < 1.0 or not 0.0 < self.bandwidth_factor <= 1.0:
            raise ConfigurationError(
                "need latency_factor >= 1 and bandwidth_factor in (0, 1]"
            )


@dataclass(frozen=True)
class Scenario:
    """A named, reproducible bundle of injections."""

    name: str = "none"
    injections: tuple = ()


_INJECTION_NAMES = {
    "failure": NodeFailure,
    "spike": LoadSpike,
    "straggler": Straggler,
    "netdeg": NetworkDegradation,
}

#: Default timing when a scenario is named without parameters: the
#: perturbation lands mid-run for the quick configurations CI uses.
_DEFAULTS: dict[str, dict[str, float]] = {
    "failure": {"at": 1.5, "duration": 0.8},
    "spike": {"at": 1.5, "duration": 1.5},
    "straggler": {"at": 1.5, "duration": 2.0},
    "netdeg": {"at": 1.5, "duration": 1.5},
}

_INT_PARAMS = {"node", "subtask"}
_STR_PARAMS = {"op"}


def _parse_injection(part: str):
    name, _, rest = part.partition(":")
    name = name.strip().lower()
    cls = _INJECTION_NAMES.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown injection {name!r} "
            f"(use one of {sorted(_INJECTION_NAMES)})"
        )
    kwargs: dict[str, object] = dict(_DEFAULTS[name])
    if rest.strip():
        for pair in rest.split(","):
            key, sep, value = pair.partition("=")
            if not sep:
                raise ConfigurationError(
                    f"bad injection parameter {pair!r} (want key=value)"
                )
            key = key.strip()
            value = value.strip()
            if key in _STR_PARAMS:
                kwargs[key] = value
                continue
            try:
                parsed = float(value)
            except ValueError:
                parsed = math.nan
            if not math.isfinite(parsed):
                raise ConfigurationError(
                    f"injection parameter {key!r} needs a number (finite), "
                    f"got {value!r}"
                )
            if key in _INT_PARAMS:
                parsed = int(parsed) if parsed.is_integer() else parsed
                check_count(f"injection parameter {key!r}", parsed, 0)
            kwargs[key] = parsed
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(
            f"injection {name!r} rejected parameters "
            f"{sorted(kwargs)}: {exc}"
        ) from None


def make_scenario(spec) -> Scenario:
    """Build a :class:`Scenario` from a spec string.

    ``"none"`` yields an empty scenario; otherwise the spec is
    ``+``-separated injections, each ``name:key=value,...`` —
    e.g. ``"failure:at=1,duration=0.5+spike:at=2,factor=4"``. A ready
    :class:`Scenario` passes through; a single injection instance is
    wrapped.
    """
    if isinstance(spec, Scenario):
        return spec
    if isinstance(spec, tuple(_INJECTION_NAMES.values())):
        return Scenario(name=type(spec).__name__, injections=(spec,))
    text = str(spec).strip()
    if not text or text.lower() == "none":
        return Scenario()
    injections = tuple(
        _parse_injection(part) for part in text.split("+") if part.strip()
    )
    return Scenario(name=text, injections=injections)
