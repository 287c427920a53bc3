"""The evaluation parameter ranges of Table 3.

Every range is configurable (the paper: "these values are highly
configurable in PDSP-Bench"); the module-level constants are the defaults
the paper reports, and :class:`ParameterSpace` bundles one concrete choice
of ranges with sampling helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.sps.predicates import FilterFunction
from repro.sps.types import DataType
from repro.sps.windows import AggregateFunction

__all__ = [
    "PARALLELISM_DEGREES",
    "PARALLELISM_CATEGORIES",
    "EVENT_RATES",
    "WINDOW_DURATIONS_MS",
    "WINDOW_LENGTHS",
    "SLIDING_RATIOS",
    "TUPLE_WIDTHS",
    "PARTITIONING_STRATEGIES",
    "ParameterSpace",
]

#: Parallelism degrees enumerated by the paper (upper end used on the large
#: heterogeneous cluster; 128 exceeds single-node cores and forces
#: distribution).
PARALLELISM_DEGREES: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)

#: The parallelism *categories* the figures are labelled with.
PARALLELISM_CATEGORIES: dict[str, int] = {
    "XS": 1,
    "S": 2,
    "M": 4,
    "L": 8,
    "XL": 16,
    "XXL": 32,
}

#: Event rates (events/second) of Table 3: "10, 100, 1k, 5k, 10k, 50k,
#: 100k, 200k, 500k, 1mn, 2mn, 4mn".
EVENT_RATES: tuple[float, ...] = (
    10.0,
    100.0,
    1_000.0,
    5_000.0,
    10_000.0,
    50_000.0,
    100_000.0,
    200_000.0,
    500_000.0,
    1_000_000.0,
    2_000_000.0,
    4_000_000.0,
)

#: Time-window durations in milliseconds.
WINDOW_DURATIONS_MS: tuple[int, ...] = (250, 500, 750, 1000)

#: Count-window lengths in tuples.
WINDOW_LENGTHS: tuple[int, ...] = (10, 50, 100, 500, 1000)

#: Sliding length as a ratio of window length (Table 3).
SLIDING_RATIOS: tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7)

#: Tuple widths: 1-15 data items per tuple.
TUPLE_WIDTHS: tuple[int, ...] = tuple(range(1, 16))

#: Data partitioning strategies of Table 3.
PARTITIONING_STRATEGIES: tuple[str, ...] = ("forward", "rebalance", "hashing")


def _pick(options: tuple, rng: np.random.Generator):
    """One option, uniformly.

    Draws the same index from the same bits as ``Generator.choice`` does,
    which converts the tuple to an array on every call first.
    """
    return options[int(rng.integers(len(options)))]


@dataclass(frozen=True)
class ParameterSpace:
    """One concrete workload parameter space, with sampling helpers."""

    parallelism_degrees: tuple[int, ...] = PARALLELISM_DEGREES
    event_rates: tuple[float, ...] = EVENT_RATES
    window_durations_ms: tuple[int, ...] = WINDOW_DURATIONS_MS
    window_lengths: tuple[int, ...] = WINDOW_LENGTHS
    sliding_ratios: tuple[float, ...] = SLIDING_RATIOS
    tuple_widths: tuple[int, ...] = TUPLE_WIDTHS
    data_types: tuple[DataType, ...] = (
        DataType.STRING,
        DataType.INT,
        DataType.DOUBLE,
    )
    aggregate_functions: tuple[AggregateFunction, ...] = tuple(
        AggregateFunction
    )
    filter_functions: tuple[FilterFunction, ...] = tuple(FilterFunction)
    selectivity_band: tuple[float, float] = (0.15, 0.85)
    key_cardinality: int = 100

    def __post_init__(self) -> None:
        if not self.parallelism_degrees or min(self.parallelism_degrees) < 1:
            raise ConfigurationError("parallelism degrees must be >= 1")
        if not self.event_rates or min(self.event_rates) <= 0:
            raise ConfigurationError("event rates must be positive")
        lo, hi = self.selectivity_band
        if not 0.0 < lo < hi < 1.0:
            raise ConfigurationError(
                "selectivity band must satisfy 0 < lo < hi < 1"
            )
        if self.key_cardinality < 1:
            raise ConfigurationError("key cardinality must be >= 1")

    # ------------------------------------------------------------- sampling

    def sample_event_rate(self, rng: np.random.Generator) -> float:
        """Draw one of the configured event rates."""
        return float(_pick(self.event_rates, rng))

    def sample_tuple_width(self, rng: np.random.Generator) -> int:
        """Draw a tuple width."""
        return int(_pick(self.tuple_widths, rng))

    def sample_window_duration_s(self, rng: np.random.Generator) -> float:
        """Draw a time-window duration (seconds)."""
        return float(_pick(self.window_durations_ms, rng)) * 1e-3

    def sample_window_length(self, rng: np.random.Generator) -> int:
        """Draw a count-window length (tuples)."""
        return int(_pick(self.window_lengths, rng))

    def sample_sliding_ratio(self, rng: np.random.Generator) -> float:
        """Draw a sliding ratio."""
        return float(_pick(self.sliding_ratios, rng))

    def sample_parallelism(self, rng: np.random.Generator) -> int:
        """Draw a parallelism degree."""
        return int(_pick(self.parallelism_degrees, rng))

    def sample_aggregate(
        self, rng: np.random.Generator
    ) -> AggregateFunction:
        """Draw an aggregate function."""
        return _pick(self.aggregate_functions, rng)

    def sample_data_type(self, rng: np.random.Generator) -> DataType:
        """Draw a data type for a field."""
        return _pick(self.data_types, rng)
