"""Fraud Detection (FD) — Markov-model transaction scoring.

From DSPBench's finance suite: score each account's transaction sequence
against a learned Markov transition model; improbable state sequences
indicate fraud. Dataflow::

    transactions -> UDO(per-account Markov scorer) ->
    filter(score > threshold) -> sink
"""

from __future__ import annotations

import math

import numpy as np

from repro.apps.base import AppInfo, AppQuery, DataIntensity, block_source
from repro.sps import builders
from repro.sps.logical import LogicalPlan
from repro.sps.operators.base import OperatorLogic
from repro.sps.predicates import FilterFunction, Predicate
from repro.sps.tuples import StreamTuple
from repro.sps.types import DataType, Field, Schema

__all__ = ["INFO", "build", "MarkovScoreLogic"]

INFO = AppInfo(
    abbrev="FD",
    name="Fraud Detection",
    area="Finance",
    description="Scores per-account transaction sequences against a "
    "Markov transition model; flags improbable sequences",
    uses_udo=True,
    data_intensity=DataIntensity.HIGH,
    origin="DSPBench [13]",
)

_NUM_ACCOUNTS = 500
#: Transaction state: bucketed (amount band x merchant category).
_NUM_STATES = 12

_SCHEMA = Schema(
    [
        Field("account", DataType.INT),
        Field("state", DataType.INT),
        Field("amount", DataType.DOUBLE),
    ]
)


def _transaction_block(rng: np.random.Generator, n: int) -> tuple:
    account = rng.integers(_NUM_ACCOUNTS, size=n)
    # Normal accounts walk between neighbouring states; fraudulent
    # bursts jump randomly.
    state = np.where(
        rng.random(n) < 0.03,
        rng.integers(_NUM_STATES, size=n),
        (account + rng.integers(0, 2, size=n)) % _NUM_STATES,
    )
    return (account, state, rng.uniform(1.0, 2_000.0, size=n))


def _transition_matrix() -> np.ndarray:
    """A banded 'normal behaviour' transition model."""
    matrix = np.full((_NUM_STATES, _NUM_STATES), 0.01)
    for i in range(_NUM_STATES):
        matrix[i, i] = 0.5
        matrix[i, (i + 1) % _NUM_STATES] = 0.3
        matrix[i, (i - 1) % _NUM_STATES] = 0.15
    return matrix / matrix.sum(axis=1, keepdims=True)


class MarkovScoreLogic(OperatorLogic):
    """Negative log-likelihood of each account's last transition.

    Keeps each account's previous state and a sliding sum of transition
    surprisals; emits ``(account, score, amount)``.
    """

    def __init__(self, history: int = 8) -> None:
        self._matrix = _transition_matrix()
        self._previous: dict[int, int] = {}
        self._scores: dict[int, list[float]] = {}
        self.history = history

    def process(
        self, tup: StreamTuple, now: float, port: int = 0
    ) -> list[StreamTuple]:
        account, state, amount = tup.values
        previous = self._previous.get(account)
        self._previous[account] = state
        if previous is None:
            return []
        surprisal = -math.log(
            max(float(self._matrix[previous, state]), 1e-9)
        )
        window = self._scores.setdefault(account, [])
        window.append(surprisal)
        if len(window) > self.history:
            window.pop(0)
        score = sum(window) / len(window)
        return [tup.with_values((account, score, amount))]


def build(
    event_rate: float = 100_000.0, seed: int = 0, space=None
) -> AppQuery:
    """Build the FD dataflow at parallelism 1."""
    plan = LogicalPlan("FD")
    plan.add_operator(
        block_source("transactions", _transaction_block, _SCHEMA, event_rate)
    )
    scorer = builders.udo(
        "markov_score",
        MarkovScoreLogic,
        selectivity=1.0,
        cost_scale=7.0,
        name="per-account Markov scorer",
        output_schema=Schema(
            [
                Field("account", DataType.INT),
                Field("score", DataType.DOUBLE),
                Field("amount", DataType.DOUBLE),
            ]
        ),
    )
    scorer.metadata["key_field"] = 0
    scorer.metadata["key_cardinality"] = _NUM_ACCOUNTS
    plan.add_operator(scorer)
    plan.add_operator(
        builders.filter_op(
            "suspicious",
            Predicate(1, FilterFunction.GT, 2.5, selectivity_hint=0.05),
        )
    )
    plan.add_operator(builders.sink("sink"))
    plan.connect("transactions", "markov_score")
    plan.connect("markov_score", "suspicious")
    plan.connect("suspicious", "sink")
    return AppQuery(plan=plan, info=INFO, event_rate=event_rate)
