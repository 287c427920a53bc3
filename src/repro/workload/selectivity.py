"""Selectivity estimation and selectivity-aware literal generation.

The paper (Section 3.1): random filter literals "may result that data never
passes the generated filter. To avoid this, we use selectivity estimation
methods to estimate selectivity of given filter operators such that queries
with only valid literals are generated". These functions implement that:
:func:`estimate_selectivity` computes the pass probability of a predicate
under a field's value distribution, and :func:`draw_predicate` inverts the
distribution to hit a target selectivity inside a configured band.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigurationError
from repro.sps.predicates import FilterFunction, Predicate
from repro.sps.types import DataType
from repro.workload.distributions import StringVocabulary, ValueDistribution

__all__ = ["estimate_selectivity", "draw_predicate"]


def estimate_selectivity(
    function: FilterFunction, literal, dist: ValueDistribution
) -> float:
    """Estimated P(predicate passes) for values drawn from ``dist``."""
    if function is FilterFunction.LT:
        return dist.cdf(literal) - dist.point_mass(literal)
    if function is FilterFunction.LE:
        return dist.cdf(literal)
    if function is FilterFunction.GT:
        return 1.0 - dist.cdf(literal)
    if function is FilterFunction.GE:
        return 1.0 - dist.cdf(literal) + dist.point_mass(literal)
    if function is FilterFunction.EQ:
        return dist.point_mass(literal)
    if function is FilterFunction.NE:
        return 1.0 - dist.point_mass(literal)
    if not isinstance(dist, StringVocabulary):
        raise ConfigurationError(
            f"{function.value} requires a string vocabulary distribution"
        )
    if function is FilterFunction.STARTS_WITH:
        return dist.prefix_mass(literal)
    if function is FilterFunction.ENDS_WITH:
        return dist.suffix_mass(literal)
    return dist.substring_mass(literal)  # CONTAINS


def _candidate_functions(dtype: DataType) -> list[FilterFunction]:
    return [f for f in FilterFunction if f.applies_to(dtype)]


def _draw_string_literal(
    function: FilterFunction,
    dist: StringVocabulary,
    rng: np.random.Generator,
) -> str:
    word = dist.words[int(rng.integers(len(dist.words)))]
    if function is FilterFunction.EQ or function is FilterFunction.NE:
        return word
    if function is FilterFunction.STARTS_WITH:
        return word[: int(rng.integers(1, max(len(word), 2)))]
    if function is FilterFunction.ENDS_WITH:
        return word[-int(rng.integers(1, max(len(word), 2))) :]
    # CONTAINS: a random slice
    if len(word) <= 2:
        return word
    start = int(rng.integers(0, len(word) - 1))
    stop = int(rng.integers(start + 1, len(word) + 1))
    return word[start:stop]


def draw_predicate(
    dist: ValueDistribution,
    field_index: int,
    rng: np.random.Generator,
    band: tuple[float, float] = (0.15, 0.85),
    functions: list[FilterFunction] | None = None,
    max_attempts: int = 50,
) -> Predicate:
    """Draw a predicate whose estimated selectivity lies inside ``band``.

    Range functions (<, >, <=, >=) invert the distribution directly via its
    quantile function; equality and string functions are drawn and checked,
    retrying up to ``max_attempts`` before falling back to a range function
    (which always succeeds on numeric fields) or the widest available string
    literal. The achieved estimate is recorded as the predicate's
    ``selectivity_hint``.
    """
    lo, hi = band
    if not 0.0 < lo < hi < 1.0:
        raise ConfigurationError(
            "selectivity band must satisfy 0 < lo < hi < 1"
        )
    candidates = functions or _candidate_functions(dist.dtype)
    candidates = [f for f in candidates if f.applies_to(dist.dtype)]
    if not candidates:
        raise ConfigurationError(
            f"no filter functions apply to {dist.dtype.value} fields"
        )
    best: Predicate | None = None
    best_distance = float("inf")
    for _ in range(max_attempts):
        function = candidates[int(rng.integers(len(candidates)))]
        target = float(rng.uniform(lo, hi))
        if function in (FilterFunction.LT, FilterFunction.LE):
            literal = dist.quantile(target)
        elif function in (FilterFunction.GT, FilterFunction.GE):
            literal = dist.quantile(1.0 - target)
        elif dist.dtype is DataType.STRING:
            literal = _draw_string_literal(
                function, dist, rng  # type: ignore[arg-type]
            )
        else:
            literal = dist.sample(rng)
        estimate = estimate_selectivity(function, literal, dist)
        predicate = Predicate(
            field_index=field_index,
            function=function,
            literal=literal,
            selectivity_hint=min(max(estimate, 0.0), 1.0),
        )
        if lo <= estimate <= hi:
            return predicate
        distance = min(abs(estimate - lo), abs(estimate - hi))
        if 0.0 < estimate < 1.0 and distance < best_distance:
            best = predicate
            best_distance = distance
    if dist.dtype is not DataType.STRING:
        target = float(rng.uniform(lo, hi))
        literal = dist.quantile(target)
        estimate = estimate_selectivity(FilterFunction.LE, literal, dist)
        return Predicate(
            field_index=field_index,
            function=FilterFunction.LE,
            literal=literal,
            selectivity_hint=min(max(estimate, 1e-6), 1.0),
        )
    if best is not None:
        return best
    raise ConfigurationError(
        "could not generate a valid predicate: the vocabulary admits no "
        f"literal with selectivity in ({lo}, {hi})"
    )
