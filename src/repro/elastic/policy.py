"""Autoscaling policies: per-operator load snapshots in, targets out.

A policy is a Strategy object the engine consults at a fixed control
cadence (``SimulationConfig.autoscale_interval``). Each tick the engine
builds one :class:`OpSnapshot` per rescalable operator and calls
:meth:`AutoscalePolicy.decide`; any operator whose returned target
differs from its live parallelism is rescaled through the drain-barrier
protocol (DESIGN.md §12).

The contract keeps policies deterministic and fork-safe:

- ``decide`` must be a pure function of the snapshots and the policy's
  own accumulated state — no wall clock, no ambient randomness;
- policies are selected by *spec string* (``"reactive:high=32,low=2"``)
  rather than by instance, so a frozen ``RunnerConfig`` can cross a
  process-pool boundary and each forked engine builds its own fresh,
  unshared policy state;
- returned targets are clamped by the engine to operators that passed
  the rescale validation (stateless or keyed with hash-partitioned
  inputs; never sources, sinks or chained operators).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.errors import ConfigurationError, check_count

__all__ = [
    "OpSnapshot",
    "AutoscalePolicy",
    "NoAutoscale",
    "ReactiveQueuePolicy",
    "PredictiveCostPolicy",
    "make_policy",
]


@dataclass(frozen=True)
class OpSnapshot:
    """One operator's load picture over the last control interval."""

    op_id: str
    #: live parallelism (after any prior rescales)
    parallelism: int
    #: total tuples waiting across the operator's input queues
    queue_depth: int
    #: busy fraction over the last interval, averaged across subtasks
    utilization: float
    #: tuples served per simulated second over the last interval
    service_rate: float
    #: cost-model per-tuple service time at the live parallelism
    base_service_s: float


def _check_cooldown(cooldown: float, *thresholds: float) -> None:
    """Refuse a negative cooldown, and NaN or infinite parameters:
    NaN passes every ordered comparison a policy makes."""
    if not all(map(math.isfinite, (cooldown, *thresholds))):
        raise ConfigurationError("policy parameters must be finite")
    if cooldown < 0:
        raise ConfigurationError("cooldown must be >= 0")


class AutoscalePolicy:
    """Strategy interface: snapshots of all rescalable operators in,

    ``{op_id: target_parallelism}`` out. Returning an empty dict (or
    omitting an operator) leaves its parallelism unchanged."""

    name: str = "abstract"

    def decide(
        self, now: float, snapshots: list[OpSnapshot]
    ) -> dict[str, int]:
        """Return new parallelism targets for operators that should move."""
        raise NotImplementedError


class NoAutoscale(AutoscalePolicy):
    """Static baseline: never rescales.

    Selecting it (rather than leaving ``autoscale=None``) still enables
    elastic accounting — resource-seconds and the rescale log appear in
    ``extras["elastic"]`` — so policy comparisons have a cost baseline.
    """

    name = "none"

    def decide(
        self, now: float, snapshots: list[OpSnapshot]
    ) -> dict[str, int]:
        """Never move anything."""
        return {}


class ReactiveQueuePolicy(AutoscalePolicy):
    """Queue-depth hysteresis: scale up when backlog per subtask crosses

    ``high``, down when it falls below ``low`` *and* utilization is
    slack. A per-operator cooldown suppresses oscillation: after any
    decision for an operator, further changes wait ``cooldown``
    simulated seconds — the streaming analogue of Flink's reactive-mode
    stabilization window."""

    name = "reactive"

    def __init__(
        self,
        high: float = 24.0,
        low: float = 2.0,
        step: int = 1,
        cooldown: float = 0.5,
        min_parallelism: int = 1,
        max_parallelism: int = 8,
    ) -> None:
        _check_cooldown(cooldown, high, low)
        if high <= low:
            raise ConfigurationError(
                "reactive policy needs high > low (hysteresis band)"
            )
        if step < 1 or min_parallelism < 1:
            raise ConfigurationError("step and min_parallelism must be >= 1")
        if max_parallelism < min_parallelism:
            raise ConfigurationError("max_parallelism < min_parallelism")
        self.high = float(high)
        self.low = float(low)
        self.step = int(step)
        self.cooldown = float(cooldown)
        self.min_parallelism = int(min_parallelism)
        self.max_parallelism = int(max_parallelism)
        self._last_change: dict[str, float] = {}

    def decide(
        self, now: float, snapshots: list[OpSnapshot]
    ) -> dict[str, int]:
        """Step parallelism against the hysteresis band, per operator."""
        targets: dict[str, int] = {}
        for snap in snapshots:
            last = self._last_change.get(snap.op_id)
            if last is not None and now - last < self.cooldown:
                continue
            per_subtask = snap.queue_depth / snap.parallelism
            target = snap.parallelism
            if per_subtask > self.high:
                target = min(
                    snap.parallelism + self.step, self.max_parallelism
                )
            elif per_subtask < self.low and snap.utilization < 0.5:
                target = max(
                    snap.parallelism - self.step, self.min_parallelism
                )
            if target != snap.parallelism:
                targets[snap.op_id] = target
                self._last_change[snap.op_id] = now
        return targets


class PredictiveCostPolicy(AutoscalePolicy):
    """Model-driven sizing: pick the parallelism the cost model says

    keeps utilization at ``target_util`` for the observed demand.

    Demand is the served rate plus the backlog amortized over one
    cooldown period (backlog must drain, not just stop growing); the
    per-tuple cost estimate is the engine's own ``base_service`` — the
    same calibrated cost model the trained predictors consume — so the
    required degree is ``ceil(demand * cost / target_util)``. Scale-down
    additionally requires measured utilization below ``0.6 *
    target_util``, mirroring the reactive policy's hysteresis."""

    name = "predictive"

    def __init__(
        self,
        target_util: float = 0.7,
        cooldown: float = 0.5,
        min_parallelism: int = 1,
        max_parallelism: int = 8,
    ) -> None:
        _check_cooldown(cooldown)
        if not 0.0 < target_util <= 1.0:
            raise ConfigurationError("target_util must be in (0, 1]")
        if max_parallelism < min_parallelism or min_parallelism < 1:
            raise ConfigurationError("bad parallelism bounds")
        self.target_util = float(target_util)
        self.cooldown = float(cooldown)
        self.min_parallelism = int(min_parallelism)
        self.max_parallelism = int(max_parallelism)
        self._last_change: dict[str, float] = {}

    def decide(
        self, now: float, snapshots: list[OpSnapshot]
    ) -> dict[str, int]:
        """Size each operator from demand x cost / target utilization."""
        targets: dict[str, int] = {}
        horizon = max(self.cooldown, 1e-9)
        for snap in snapshots:
            last = self._last_change.get(snap.op_id)
            if last is not None and now - last < self.cooldown:
                continue
            demand = snap.service_rate + snap.queue_depth / horizon
            if snap.base_service_s <= 0:
                continue
            required = math.ceil(
                demand * snap.base_service_s / self.target_util
            )
            required = min(
                max(required, self.min_parallelism), self.max_parallelism
            )
            target = snap.parallelism
            if required > snap.parallelism:
                target = required
            elif (
                required < snap.parallelism
                and snap.utilization < 0.6 * self.target_util
            ):
                target = required
            if target != snap.parallelism:
                targets[snap.op_id] = target
                self._last_change[snap.op_id] = now
        return targets


_POLICY_NAMES = {
    "none": NoAutoscale,
    "static": NoAutoscale,
    "reactive": ReactiveQueuePolicy,
    "predictive": PredictiveCostPolicy,
}

_PARAM_ALIASES = {
    "max": "max_parallelism",
    "min": "min_parallelism",
    "util": "target_util",
}

_INT_PARAMS = {"step", "min_parallelism", "max_parallelism"}


def make_policy(spec: str | AutoscalePolicy) -> AutoscalePolicy:
    """Build a policy from a spec string like ``"reactive:high=32,max=8"``.

    The part before ``:`` names the policy (``none``/``static``,
    ``reactive``, ``predictive``); the rest is ``key=value`` pairs
    passed as constructor arguments (``max``, ``min`` and ``util`` are
    accepted shorthands). A ready policy instance passes through.
    """
    if isinstance(spec, AutoscalePolicy):
        return spec
    name, _, rest = str(spec).partition(":")
    name = name.strip().lower()
    cls = _POLICY_NAMES.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown autoscale policy {name!r} "
            f"(use one of {sorted(_POLICY_NAMES)})"
        )
    kwargs: dict[str, float | int] = {}
    if rest.strip():
        for pair in rest.split(","):
            key, sep, value = pair.partition("=")
            if not sep:
                raise ConfigurationError(
                    f"bad policy parameter {pair!r} (want key=value)"
                )
            key = _PARAM_ALIASES.get(key.strip(), key.strip())
            try:
                parsed = float(value)
            except ValueError:
                parsed = math.nan
            if not math.isfinite(parsed):
                raise ConfigurationError(
                    f"policy parameter {key!r} needs a number (finite), "
                    f"got {value!r}"
                )
            if key in _INT_PARAMS:
                parsed = int(parsed) if parsed.is_integer() else parsed
                check_count(f"policy parameter {key!r}", parsed, 0)
            kwargs[key] = parsed
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(
            f"policy {name!r} rejected parameters {sorted(kwargs)}: {exc}"
        ) from None
