"""Persistence of trained cost models.

The paper's workflow trains models once on collected corpora and reuses
them for inference on new PQPs; these helpers serialise each model's
learned state into the document store (alongside the corpora and run
records) and restore it into a fresh instance.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import TrainingError
from repro.ml.models import (
    CostModel,
    GNNCostModel,
    LinearRegressionModel,
    MLPCostModel,
    RandomForestModel,
)
from repro.ml.models.forest import _Node, _RegressionTree
from repro.ml.training import Standardizer

__all__ = ["save_model", "load_model", "model_state", "restore_model"]


def _scaler_state(scaler: Standardizer) -> dict:
    if scaler.mean is None:
        raise TrainingError("model has no fitted scaler to persist")
    return {"mean": scaler.mean.tolist(), "std": scaler.std.tolist()}


def _restore_scaler(state: dict) -> Standardizer:
    scaler = Standardizer()
    scaler.mean = np.asarray(state["mean"], dtype=float)
    scaler.std = np.asarray(state["std"], dtype=float)
    return scaler


def _tree_state(node: _Node) -> dict:
    if node.feature is None:
        return {"value": node.value}
    return {
        "value": node.value,
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _tree_state(node.left),
        "right": _tree_state(node.right),
    }


def _restore_tree(state: dict) -> _Node:
    node = _Node(value=float(state["value"]))
    if "feature" in state:
        node.feature = int(state["feature"])
        node.threshold = float(state["threshold"])
        node.left = _restore_tree(state["left"])
        node.right = _restore_tree(state["right"])
    return node


def model_state(model: CostModel) -> dict:
    """The learned state of a fitted model as a JSON-serialisable dict."""
    if isinstance(model, LinearRegressionModel):
        model._check_fitted("weights")
        return {
            "model": model.name,
            "weights": model.weights.tolist(),
            "bias": model.bias,
            "scaler": _scaler_state(model.scaler),
        }
    if isinstance(model, MLPCostModel):
        model._check_fitted("params")
        return {
            "model": model.name,
            "hidden": list(model.hidden),
            "params": {k: v.tolist() for k, v in model.params.items()},
            "scaler": _scaler_state(model.scaler),
        }
    if isinstance(model, RandomForestModel):
        model._check_fitted("trees")
        return {
            "model": model.name,
            "trees": [
                {
                    "root": _tree_state(tree.root),
                    "node_count": tree.node_count,
                }
                for tree in model.trees
            ],
        }
    if isinstance(model, GNNCostModel):
        model._check_fitted("params")
        return {
            "model": model.name,
            "hidden": model.hidden,
            "layers": model.layers,
            "head_hidden": model.head_hidden,
            "params": {k: v.tolist() for k, v in model.params.items()},
        }
    raise TrainingError(
        f"don't know how to persist model type {type(model).__name__}"
    )


def restore_model(state: dict) -> CostModel:
    """Rebuild a fitted model from :func:`model_state` output."""
    name = state.get("model")
    if name == "LR":
        model = LinearRegressionModel()
        model.weights = np.asarray(state["weights"], dtype=float)
        model.bias = float(state["bias"])
        model.scaler = _restore_scaler(state["scaler"])
        return model
    if name == "MLP":
        model = MLPCostModel(hidden=tuple(state["hidden"]))
        model.params = {
            k: np.asarray(v, dtype=float)
            for k, v in state["params"].items()
        }
        model.scaler = _restore_scaler(state["scaler"])
        return model
    if name == "RF":
        model = RandomForestModel()
        trees = []
        for tree_state in state["trees"]:
            tree = _RegressionTree(
                max_depth=model.max_depth,
                min_samples_leaf=model.min_samples_leaf,
                max_features=1,
                rng=np.random.default_rng(0),
            )
            tree.root = _restore_tree(tree_state["root"])
            tree.node_count = int(tree_state["node_count"])
            trees.append(tree)
        model.trees = trees
        return model
    if name == "GNN":
        model = GNNCostModel(
            hidden=int(state["hidden"]),
            layers=int(state["layers"]),
            head_hidden=int(state["head_hidden"]),
        )
        model.params = {
            k: np.asarray(v, dtype=float)
            for k, v in state["params"].items()
        }
        return model
    raise TrainingError(f"unknown persisted model name {name!r}")


def save_model(model: CostModel, collection, tag: str = "") -> int:
    """Persist a fitted model into a document-store collection."""
    document = model_state(model)
    document["tag"] = tag
    return collection.insert_one(document)


def load_model(
    collection, name: str, tag: str | None = None
) -> CostModel:
    """Load the most recently saved model with the given name (and tag)."""
    query: dict = {"model": name}
    if tag is not None:
        query["tag"] = tag
    documents = collection.find(query, sort_by="_id", descending=True)
    if not documents:
        raise TrainingError(
            f"no persisted model {name!r}"
            + (f" with tag {tag!r}" if tag else "")
        )
    return restore_model(documents[0])
