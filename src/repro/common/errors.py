"""Exception hierarchy for the PDSP-Bench reproduction.

All library errors derive from :class:`ReproError` so callers can catch one
base type. Subclasses mark which subsystem rejected the input, mirroring the
components of the paper (workload generation, placement, simulation, ML
training, storage). :func:`check_time` and :func:`check_count` refuse the
non-finite and non-integral knob values the configs share.
"""

import math
import numbers


class ReproError(Exception):
    """Base class for all errors raised by this library.

    ``code`` optionally carries the stable diagnostic rule code
    (``PLAN003``, ``COST501``, ...) of the static-analysis rule the input
    violated, so ad-hoc validation in constructors and the whole-plan
    analyzer (:mod:`repro.analysis`) speak the same vocabulary.
    """

    def __init__(self, *args, code: str | None = None) -> None:
        super().__init__(*args)
        self.code = code


class ConfigurationError(ReproError):
    """An invalid user-supplied configuration value."""


def check_time(name: str, value, instant: bool = False) -> None:
    """Refuse a duration that is not positive and finite, or an instant
    (``instant=True``) that is not non-negative and finite.

    NaN passes no ordered comparison, so it fails both bounds here; left
    through, it orders the event heap arbitrarily.
    """
    if not ((value >= 0 if instant else value > 0) and value < math.inf):
        kind = "non-negative" if instant else "positive"
        raise ConfigurationError(f"{name} must be {kind}, finite")


def check_count(name: str, value, minimum: int = 1) -> None:
    """Refuse a count that is not an integer ``>= minimum``.

    A float is refused even when integral: NaN, infinities and fractions
    otherwise fail far from the knob, or never (an event budget of NaN).
    """
    if not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}")


class PlanError(ReproError):
    """A logical or physical query plan is malformed (cycle, dangling edge,

    missing source/sink, invalid parallelism degree, ...).
    """


class PlacementError(ReproError):
    """The scheduler could not place all subtasks on the cluster."""


class SimulationError(ReproError):
    """The discrete-event engine detected an inconsistency while running."""


class DeterminismError(SimulationError):
    """The determinism sanitizer found a reproducibility hazard.

    Raised by ``run_plan(sanitize=True)`` when the static pass or the
    runtime race detector (:mod:`repro.analysis.racecheck`) reports an
    ERROR-severity DET finding; ``code`` carries the DET rule code.
    """


class TrainingError(ReproError):
    """An ML model could not be trained on the provided corpus."""


class StorageError(ReproError):
    """The embedded document store rejected an operation."""
