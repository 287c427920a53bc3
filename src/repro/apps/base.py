"""Shared scaffolding for the application suite (paper Table 2).

Each application module defines:

- an :class:`AppInfo` describing it (abbreviation, area, whether it uses
  user-defined operators, how data-intensive those are — the properties the
  paper's observations O1-O7 are phrased in terms of),
- a block sampler drawing realistic tuples for its domain (a source:
  :func:`block_source`), and
- a ``build(event_rate, seed, space)`` function returning an
  :class:`AppQuery` whose plan starts at parallelism 1.

The registry in :mod:`repro.apps` maps abbreviations to builders.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.common.errors import ConfigurationError
from repro.sps import builders
from repro.sps.logical import LogicalOperator, LogicalPlan
from repro.sps.types import Schema

__all__ = [
    "AppInfo",
    "AppQuery",
    "block_source",
    "cut_rows",
    "DataIntensity",
]


class DataIntensity:
    """How compute-heavy an app's operators are, per the paper's grouping.

    ``LOW`` apps (WC, LR) show flat latency across parallelism; ``HIGH``
    apps (SG, SD, SA) keep improving up to parallelism 128 (O1/O2).
    """

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


@dataclass(frozen=True)
class AppInfo:
    """Metadata of one benchmark application (one Table 2 row)."""

    abbrev: str
    name: str
    area: str
    description: str
    uses_udo: bool
    data_intensity: str
    origin: str = ""

    def __post_init__(self) -> None:
        if self.data_intensity not in (
            DataIntensity.LOW,
            DataIntensity.MEDIUM,
            DataIntensity.HIGH,
        ):
            raise ConfigurationError(
                f"{self.abbrev}: invalid data intensity "
                f"{self.data_intensity!r}"
            )


@dataclass
class AppQuery:
    """A built application: plan plus provenance, ready to parallelise."""

    plan: LogicalPlan
    info: AppInfo
    event_rate: float
    params: dict[str, Any] = field(default_factory=dict)

    def set_parallelism(self, degree: int) -> "AppQuery":
        """Apply one parallelism degree to all non-sink operators."""
        self.plan.set_uniform_parallelism(degree)
        return self


def block_source(
    op_id: str,
    sampler: Callable[[np.random.Generator, int], tuple],
    schema: Schema,
    event_rate: float,
) -> LogicalOperator:
    """An application source, drawn in blocks under every executor.

    ``sampler(rng, n)`` returns ``n`` rows as one array per schema field
    (INT ``int64``, DOUBLE ``float64``, STRING object) and keeps no
    state; the tuple size comes from the schema.
    """
    size = float(schema.tuple_size_bytes())

    def generate_block(rng: np.random.Generator, n: int) -> tuple:
        return sampler(rng, n), size

    return builders.source(
        op_id, None, schema, event_rate, vector_generator=generate_block
    )


def cut_rows(flat: list, lengths: np.ndarray) -> list[list]:
    """Cut one flat block of draws back into rows of ``lengths`` items.

    The text sources draw a block of row lengths, then every row's words
    in one flat block; this is the step between the two.
    """
    stops = np.cumsum(lengths).tolist()
    return [flat[start:stop] for start, stop in zip([0, *stops], stops)]
