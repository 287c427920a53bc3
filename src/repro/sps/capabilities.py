"""What composes: the one definition of which execution features may
share a run, and how a run executes the scalar step (DESIGN.md §4).

A *feature* is something a run turns on beyond the plain scalar engine;
:data:`KNOBS` spells each the way its user does. :data:`EXCLUDES` holds
one row per unsupported pair. A reason is one sentence about simulated
semantics, or says ``not implemented: …`` where only a seam in the code
stands in the way — those rows are the ones to lift (ROADMAP).
:data:`EVENTED` holds the features whose runs pin the step's horizon at
``-inf`` (§14) — sharding alone: every hop completes as an event, in
clock order, and such a run's step reads ``"evented"``. Deleting a row
lets that feature's runs compute ahead up to the next control instant,
as stalls, node failures and an observer's sampling deadlines do.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError

__all__ = ["EVENTED", "EXCLUDES", "KNOBS", "check", "features_of", "step_of"]

KNOBS = {
    "batch": "batch_size",
    "shards": "shards",
    "checkpoint": "checkpoint_interval",
    "stalls": "stall injection (stalls)",
    "rescale": "rescaling (rescales/autoscale)",
    "scenario": "a chaos scenario",
    "observer": "an observer",
    "sanitize": "sanitize",
    "chaining": "operator chaining",
}

# fmt: off
EXCLUDES = (
    ("batch", "stalls", "not implemented: the batch timing plane serves whole micro-batches and cannot hold a server for an interval"),
    ("batch", "rescale", "the columnar executor runs stage at a time, so an operator meets its whole input at once and there is no mid-run instant to drain and migrate it at"),
    ("batch", "scenario", "the columnar executor runs stage at a time, so there is no clock instant at which an injection could act on every stage"),
    ("checkpoint", "batch", "not implemented: barriers are per-tuple queue items and the columnar executor keeps no per-tuple queue"),
    ("checkpoint", "rescale", "not implemented: a snapshot belongs to a subtask gid, and recovery cannot restore it across a rescale generation"),
    ("checkpoint", "chaining", "not implemented: ChainedLogic neither snapshots nor restores its members' state"),
    ("shards", "batch", "not implemented: the epoch protocol drives the scalar step, and the columnar executor is one process"),
    ("shards", "rescale", "a drain barrier and an autoscaler tick read and rewire every subtask at one instant, and shards exchange state only at epoch boundaries"),
    ("shards", "scenario", "not implemented: control-plane events live on one kernel, and a sharded run has one per shard"),
    ("shards", "checkpoint", "not implemented: barrier acknowledgements and FIFO clocks need a global channel view that no shard holds"),
    ("shards", "observer", "not implemented: hooks and sampling would need cross-process event ordering"),
    ("shards", "chaining", "not implemented: only untested — no golden or K-invariance suite runs a fused chain under the epoch protocol"),
    ("rescale", "chaining", "not implemented: a fused member has no subtasks of its own to drain, migrate and rewire"),
    ("scenario", "chaining", "not implemented: injections name logical operators, and a fused member has no subtask to straggle or restart"),
)

EVENTED = {
    "shards": "the epoch sequence is defined over pending event times, DONEs included",
}
# fmt: on


def features_of(config, observer=None, sanitize=False, chains=()) -> frozenset:
    """The features a run of ``config`` turns on. ``scenario`` means a
    scenario *with injections* (``"none"`` is calm and composes with
    everything); ``autoscale="none"`` still arms the control loop."""
    scenario = config.scenario
    if scenario:
        from repro.elastic.scenarios import make_scenario

        scenario = make_scenario(scenario).injections
    on = {
        "batch": config.batch_size is not None,
        "shards": config.shards is not None,
        "checkpoint": config.checkpoint_interval is not None,
        "stalls": config.stalls,
        "rescale": config.rescales or config.autoscale,
        "scenario": scenario,
        "observer": observer is not None,
        "sanitize": sanitize,
        "chaining": chains,
    }
    return frozenset(name for name, value in on.items() if value)


def check(features) -> None:
    """Refuse the first unsupported pair among ``features``."""
    for one, other, reason in EXCLUDES:
        if one in features and other in features:
            raise ConfigurationError(
                f"{KNOBS[one]} and {KNOBS[other]} do not compose: {reason}"
            )


def step_of(features) -> str | None:
    """``StreamEngine.step`` of a run with ``features``: ``"evented"``
    where the horizon is pinned, ``None`` under the batch executor,
    which runs no scalar step."""
    if "batch" in features:
        return None
    return "evented" if features & EVENTED.keys() else "computed"
