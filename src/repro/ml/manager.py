"""The ML Manager (paper Section 2, C3/S3).

Trains registered cost models on the *same* corpus with the *same*
train/validation/test split and early-stopping protocol, and reports both
accuracy (q-error) and training overhead (queries and time) — the "fair
comparison between ML models" the paper's controller provides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import TrainingError
from repro.ml.dataset import Dataset
from repro.ml.models import CostModel, default_models
from repro.ml.qerror import regression_metrics, summarize_q_errors
from repro.ml.training import TrainingResult

__all__ = ["ModelReport", "MLManager"]


@dataclass
class ModelReport:
    """Accuracy and training-efficiency results for one model."""

    model_name: str
    training: TrainingResult
    q_error: dict[str, float]
    per_structure: dict[str, dict[str, float]] = field(default_factory=dict)
    regression: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain-dict form for storage and rendering."""
        return {
            "model": self.model_name,
            "training": self.training.to_dict(),
            "q_error": dict(self.q_error),
            "per_structure": {
                k: dict(v) for k, v in self.per_structure.items()
            },
            "regression": dict(self.regression),
        }


class MLManager:
    """Trains and fairly compares learned cost models."""

    def __init__(
        self, models: list[CostModel] | None = None, seed: int = 0
    ) -> None:
        self.models = models if models is not None else default_models()
        if not self.models:
            raise TrainingError("MLManager needs at least one model")
        names = [model.name for model in self.models]
        if len(set(names)) != len(names):
            raise TrainingError(f"duplicate model names: {names}")
        self.seed = seed

    def model(self, name: str) -> CostModel:
        """Look up a registered model by name."""
        for model in self.models:
            if model.name == name:
                return model
        known = ", ".join(m.name for m in self.models)
        raise TrainingError(f"unknown model {name!r}; registered: {known}")

    def train_and_evaluate(
        self,
        dataset: Dataset,
        test: Dataset | None = None,
        val_fraction: float = 0.15,
        test_fraction: float = 0.15,
    ) -> dict[str, ModelReport]:
        """Train every model on one shared split; evaluate on the test set.

        When ``test`` is provided (e.g. unseen query structures for the
        generalisation experiment), ``dataset`` is split into train/val
        only and the provided test set is used for all models.
        """
        rng = np.random.default_rng(self.seed)
        train, val, held_out = dataset.split(
            rng,
            val_fraction=val_fraction,
            test_fraction=test_fraction if test is None else 0.0,
        )
        test = held_out if test is None else test
        latencies = test.latencies()
        reports: dict[str, ModelReport] = {}
        for model in self.models:
            result = model.fit(train, val, seed=self.seed)
            predictions = model.predict(test)
            reports[model.name] = ModelReport(
                model_name=model.name,
                training=result,
                q_error=summarize_q_errors(latencies, predictions),
                per_structure=self._per_structure(
                    test, latencies, predictions
                ),
                regression=regression_metrics(latencies, predictions),
            )
        return reports

    @staticmethod
    def _per_structure(
        test: Dataset, latencies: np.ndarray, predictions: np.ndarray
    ) -> dict[str, dict[str, float]]:
        by_structure: dict[str, list[int]] = {}
        for i, structure in enumerate(test.structures()):
            by_structure.setdefault(structure or "?", []).append(i)
        results: dict[str, dict[str, float]] = {}
        for structure, indices in sorted(by_structure.items()):
            results[structure] = summarize_q_errors(
                latencies[indices], predictions[indices]
            )
        return results
