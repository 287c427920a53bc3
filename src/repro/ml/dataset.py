"""Labelled query datasets for the cost models.

A :class:`QueryRecord` is one (PQP, cluster) pair with its measured latency
label, carrying both encodings. Records round-trip through the document
store so corpora persist exactly as PDSP-Bench persists runs in MongoDB.
Targets are modelled in log space (latencies span orders of magnitude);
:meth:`Dataset.split` provides the train/validation/test partition used by
every model, keeping the comparison fair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.cluster.cluster import Cluster
from repro.common.errors import TrainingError
from repro.ml.encoding import flat_features, graph_encoding
from repro.sps.logical import LogicalPlan

__all__ = [
    "QueryRecord",
    "Dataset",
    "encode_query",
    "OBS_FEATURE_KEYS",
    "observability_features",
]

#: Run-wide observability totals used as auxiliary model features, in
#: fixed order so feature vectors align across records.
OBS_FEATURE_KEYS = (
    "tuples_in",
    "tuples_out",
    "busy_s",
    "shuffle_bytes",
    "stall_s",
)


def observability_features(observability: dict | None) -> np.ndarray:
    """Fixed-order feature vector from an observability summary.

    Sums each :data:`OBS_FEATURE_KEYS` entry over the summary's
    operators; zeros when the record carries no summary, so observed
    and unobserved records can share a corpus.
    """
    values = np.zeros(len(OBS_FEATURE_KEYS))
    if not observability:
        return values
    ops = observability.get("ops", {})
    for index, key in enumerate(OBS_FEATURE_KEYS):
        values[index] = sum(
            float(entry.get(key, 0.0)) for entry in ops.values()
        )
    return values


@dataclass
class QueryRecord:
    """One labelled training example."""

    flat: np.ndarray
    node_features: np.ndarray
    adj_in: np.ndarray
    adj_out: np.ndarray
    globals_vec: np.ndarray
    latency_s: float
    structure: str = ""
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def log_latency(self) -> float:
        """The regression target."""
        return float(np.log(self.latency_s))

    def to_document(self) -> dict:
        """JSON-serialisable form for the document store."""
        return {
            "flat": self.flat.tolist(),
            "node_features": self.node_features.tolist(),
            "adj_in": self.adj_in.tolist(),
            "adj_out": self.adj_out.tolist(),
            "globals": self.globals_vec.tolist(),
            "latency_s": self.latency_s,
            "structure": self.structure,
            "meta": self.meta,
        }

    @classmethod
    def from_document(cls, document: dict) -> "QueryRecord":
        """Inverse of :meth:`to_document`."""
        return cls(
            flat=np.asarray(document["flat"], dtype=float),
            node_features=np.asarray(
                document["node_features"], dtype=float
            ),
            adj_in=np.asarray(document["adj_in"], dtype=float),
            adj_out=np.asarray(document["adj_out"], dtype=float),
            globals_vec=np.asarray(document["globals"], dtype=float),
            latency_s=float(document["latency_s"]),
            structure=document.get("structure", ""),
            meta=document.get("meta", {}),
        )


def encode_query(
    plan: LogicalPlan,
    cluster: Cluster,
    latency_s: float,
    structure: str = "",
    meta: dict | None = None,
    observability: dict | None = None,
) -> QueryRecord:
    """Encode one (plan, cluster, label) into a record.

    ``observability`` is the per-operator run summary persisted by the
    sweep drivers; it rides along in ``meta["observability"]`` so
    :func:`observability_features` can derive auxiliary features.
    """
    if latency_s <= 0:
        raise TrainingError(
            f"latency label must be positive, got {latency_s}"
        )
    node_features, adj_in, adj_out, globals_vec = graph_encoding(
        plan, cluster
    )
    record_meta = dict(meta or {})
    if observability:
        record_meta["observability"] = observability
    return QueryRecord(
        flat=flat_features(plan, cluster),
        node_features=node_features,
        adj_in=adj_in,
        adj_out=adj_out,
        globals_vec=globals_vec,
        latency_s=latency_s,
        structure=structure,
        meta=record_meta,
    )


class Dataset:
    """An ordered collection of query records with split helpers."""

    def __init__(self, records: list[QueryRecord]) -> None:
        if not records:
            raise TrainingError("dataset must contain at least one record")
        self.records = list(records)

    def __len__(self) -> int:
        return len(self.records)

    def flat_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, y) with y in log-latency space, for the flat models."""
        x = np.stack([record.flat for record in self.records])
        y = np.array([record.log_latency for record in self.records])
        return x, y

    def latencies(self) -> np.ndarray:
        """Raw latency labels in seconds."""
        return np.array([record.latency_s for record in self.records])

    def structures(self) -> list[str]:
        """Structure label of each record."""
        return [record.structure for record in self.records]

    def observability_matrix(self) -> np.ndarray:
        """(n, len(OBS_FEATURE_KEYS)) auxiliary-feature matrix.

        Rows for records without an observability summary are zero.
        """
        return np.stack(
            [
                observability_features(
                    record.meta.get("observability")
                )
                for record in self.records
            ]
        )

    def subset(self, indices) -> "Dataset":
        """Dataset restricted to the given indices."""
        return Dataset([self.records[i] for i in indices])

    def filter_structure(self, structures: set[str]) -> "Dataset":
        """Records whose structure label is in the given set."""
        kept = [r for r in self.records if r.structure in structures]
        if not kept:
            raise TrainingError(
                f"no records with structures {sorted(structures)}"
            )
        return Dataset(kept)

    def split(
        self,
        rng: np.random.Generator,
        val_fraction: float = 0.15,
        test_fraction: float = 0.15,
    ) -> tuple["Dataset", "Dataset", "Dataset | None"]:
        """Shuffled train/validation/test split; no test at fraction 0."""
        if val_fraction + test_fraction >= 1.0:
            raise TrainingError("val + test fractions must be < 1")
        n = len(self.records)
        if n < 5:
            raise TrainingError(f"need >= 5 records to split, have {n}")
        order = rng.permutation(n)
        n_test = max(int(n * test_fraction), 1) if test_fraction else 0
        n_val = max(int(n * val_fraction), 1)
        test_idx = order[:n_test]
        val_idx = order[n_test : n_test + n_val]
        train_idx = order[n_test + n_val :]
        return (
            self.subset(train_idx),
            self.subset(val_idx),
            self.subset(test_idx) if n_test else None,
        )

    # --------------------------------------------------------- persistence

    def save(self, collection) -> None:
        """Persist all records into a document-store collection."""
        collection.insert_many(
            record.to_document() for record in self.records
        )

    @classmethod
    def load(cls, collection, query: dict | None = None) -> "Dataset":
        """Load records from a document-store collection."""
        documents = collection.find(query)
        if not documents:
            raise TrainingError(
                f"collection {collection.name!r} has no matching records"
            )
        return cls([QueryRecord.from_document(d) for d in documents])
