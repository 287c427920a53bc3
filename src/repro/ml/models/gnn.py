"""Graph neural network cost model.

The paper's fourth family [62, 2, 26]: "encodes PQP as a DAG within GNN,
allowing the model to treat different operators within PQP as nodes, and
the relationships between them as edges". Observation O8 attributes the
GNN's consistently lowest q-error to exactly this structure awareness.

Architecture (NumPy, manual backprop):

- L message-passing layers; each node combines its own state with the mean
  of its in-neighbours and out-neighbours:
  ``H' = relu(H Ws + A_in H Wi + A_out H Wo + b)``
- readout: ``[mean-pool(H_L) | max-pool(H_L) | cluster globals]``
- a ReLU head regressing log latency.

``fit``, its validation loss and ``predict`` run one batched path: the
nodes of a mini-batch's graphs are stacked into one ``[ΣN, d]`` matrix with
block-diagonal ``A_in``/``A_out``, a layer is the single GEMM
``[H | A_in H | A_out H] @ [Ws; Wi; Wo]``, pooling is per graph segment.
"""

from __future__ import annotations

import time
from collections import namedtuple

import numpy as np

from repro.common.errors import TrainingError, check_count
from repro.ml.dataset import Dataset, QueryRecord
from repro.ml.encoding import OPERATOR_FEATURE_DIM
from repro.ml.models.base import CostModel
from repro.ml.training import Adam, EarlyStopping, TrainingResult

__all__ = ["GNNCostModel"]

#: B graphs stacked: layer-0 operand [T, 3d] of their T nodes, block-diagonal
#: [A_in, A_out] as [2, T, T], first row and size of each [B], globals [B, g].
_Batch = namedtuple("_Batch", "operand adj offsets sizes globals")


class _Graphs:
    """The graphs of a dataset, ready to be stacked into batches."""

    def __init__(self, records: list[QueryRecord], global_dim: int) -> None:
        expected = ((OPERATOR_FEATURE_DIM,), (global_dim,))
        for index, record in enumerate(records):
            nodes, globals_ = record.node_features, record.globals_vec
            if (nodes.shape[1:], globals_.shape) != expected or not len(nodes):
                raise TrainingError(
                    f"record {index}: node features {nodes.shape}, globals "
                    f"{globals_.shape}; expected [n >= 1, {expected[0][0]}], "
                    f"{expected[1]}"
                )
        self.sizes = np.array([len(r.node_features) for r in records])
        self.globals = np.stack([r.globals_vec for r in records])
        self.y = np.array([r.log_latency for r in records])
        self.adj = [np.stack((r.adj_in, r.adj_out)) for r in records]
        # Layer 0 never changes: [X | A_in X | A_out X], once per graph.
        self.operands = [
            np.hstack((r.node_features, *(adj @ r.node_features)))
            for r, adj in zip(records, self.adj)
        ]

    def batch(self, index: np.ndarray) -> _Batch:
        """The graphs at ``index``, stacked in that order."""
        sizes = self.sizes[index]
        offsets = np.cumsum(sizes) - sizes
        adj = np.zeros((2, sizes.sum(), sizes.sum()))
        for lo, n, graph in zip(offsets.tolist(), sizes.tolist(), index):
            adj[:, lo : lo + n, lo : lo + n] = self.adj[graph]
        operand = np.concatenate([self.operands[graph] for graph in index])
        return _Batch(operand, adj, offsets, sizes, self.globals[index])


class GNNCostModel(CostModel):
    """Message-passing GNN over the PQP DAG."""

    name = "GNN"

    def __init__(
        self,
        hidden: int = 48,
        layers: int = 3,
        head_hidden: int = 32,
        lr: float = 2e-3,
        batch_size: int = 16,
        max_epochs: int = 400,
        patience: int = 20,
    ) -> None:
        check_count("hidden", hidden)
        check_count("layers", layers)
        check_count("batch_size", batch_size)
        check_count("max_epochs", max_epochs)
        self.hidden = hidden
        self.layers = layers
        self.head_hidden = head_hidden
        self.lr = lr
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.patience = patience
        self.params: dict[str, np.ndarray] | None = None

    # -------------------------------------------------------------- params

    def _init_params(
        self, rng: np.random.Generator, global_dim: int
    ) -> dict[str, np.ndarray]:
        """Fresh parameters, each layer's ``[Ws; Wi; Wo]`` stacked as ``W``."""
        params: dict[str, np.ndarray] = {}
        in_dim = OPERATOR_FEATURE_DIM
        for layer in range(self.layers):
            out_dim = self.hidden
            scale = np.sqrt(2.0 / (in_dim + out_dim))
            params[f"W{layer}"] = rng.normal(
                0.0, scale, size=(3 * in_dim, out_dim)
            )
            params[f"b{layer}"] = np.zeros(out_dim)
            in_dim = out_dim
        readout_dim = 2 * self.hidden + global_dim
        scale = np.sqrt(2.0 / (readout_dim + self.head_hidden))
        params["W_head1"] = rng.normal(
            0.0, scale, size=(readout_dim, self.head_hidden)
        )
        params["b_head1"] = np.zeros(self.head_hidden)
        params["w_head2"] = rng.normal(
            0.0, np.sqrt(1.0 / self.head_hidden), size=self.head_hidden
        )
        params["b_head2"] = np.zeros(1)
        return params

    def _split(self, stacked: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """The persisted layout: ``Ws``/``Wi``/``Wo`` as separate arrays."""
        params: dict[str, np.ndarray] = {}
        for key, value in stacked.items():
            if key[1:].isdigit() and key[0] == "W":
                for tag, part in zip("sio", np.split(value, 3)):
                    params[f"W{tag}{key[1:]}"] = part
            else:
                params[key] = value
        return params

    # -------------------------------------------------------------- forward

    def _forward(
        self, batch: _Batch, params: dict[str, np.ndarray]
    ) -> tuple[np.ndarray, tuple]:
        """Log-latency predictions ``[B]`` and what backward needs."""
        operand = batch.operand
        operands, pre = [], []
        for layer in range(self.layers):
            z = operand @ params[f"W{layer}"] + params[f"b{layer}"]
            h = np.maximum(z, 0.0)
            operands.append(operand)
            pre.append(z)
            if layer + 1 < self.layers:
                operand = np.hstack((h, *(batch.adj @ h)))
        sizes = batch.sizes[:, None]
        mean_pool = np.add.reduceat(h, batch.offsets, axis=0) / sizes
        max_pool = np.maximum.reduceat(h, batch.offsets, axis=0)
        readout = np.hstack((mean_pool, max_pool, batch.globals))
        u_pre = readout @ params["W_head1"] + params["b_head1"]
        u = np.maximum(u_pre, 0.0)
        y_hat = u @ params["w_head2"] + params["b_head2"][0]
        return y_hat, (operands, pre, h, max_pool, readout, u_pre, u)

    def _log_latency(self, graphs: _Graphs, params: dict) -> np.ndarray:
        """Predictions for every graph, ``batch_size`` stacked at a time."""
        ids, size = np.arange(len(graphs.sizes)), self.batch_size
        chunks = [ids[lo : lo + size] for lo in range(0, len(ids), size)]
        return np.concatenate(
            [self._forward(graphs.batch(c), params)[0] for c in chunks]
        )

    # ------------------------------------------------------------- backward

    def _backward(
        self,
        batch: _Batch,
        cache: tuple,
        d_yhat: np.ndarray,
        params: dict[str, np.ndarray],
        grads: dict[str, np.ndarray],
    ) -> None:
        """Write the gradient of ``d_yhat · y_hat`` into every ``grads``."""
        operands, pre, h, max_pool, readout, u_pre, u = cache
        np.matmul(d_yhat, u, out=grads["w_head2"])
        grads["b_head2"][0] = d_yhat.sum()
        du = (d_yhat[:, None] * params["w_head2"]) * (u_pre > 0)
        np.matmul(readout.T, du, out=grads["W_head1"])
        du.sum(axis=0, out=grads["b_head1"])
        d_readout = du @ params["W_head1"].T
        hidden, sizes = self.hidden, batch.sizes
        dh = np.repeat(d_readout[:, :hidden] / sizes[:, None], sizes, axis=0)
        # Max-pool routes to each graph's first arg-max row per column.
        is_max = h == np.repeat(max_pool, sizes, axis=0)
        rows = np.where(is_max, np.arange(len(h))[:, None], len(h))
        first = np.minimum.reduceat(rows, batch.offsets, axis=0)
        dh[first, np.arange(hidden)] += d_readout[:, hidden : 2 * hidden]
        adj_t = batch.adj.transpose(0, 2, 1)
        for layer in reversed(range(self.layers)):
            dz = dh * (pre[layer] > 0)
            dz.sum(axis=0, out=grads[f"b{layer}"])
            np.matmul(operands[layer].T, dz, out=grads[f"W{layer}"])
            if layer > 0:
                d_operand = dz @ params[f"W{layer}"].T
                dh = (
                    d_operand[:, :hidden]
                    + adj_t[0] @ d_operand[:, hidden : 2 * hidden]
                    + adj_t[1] @ d_operand[:, 2 * hidden :]
                )

    # --------------------------------------------------------------- public

    def fit(
        self, train: Dataset, val: Dataset, seed: int = 0
    ) -> TrainingResult:
        start = time.perf_counter()
        rng = np.random.default_rng(seed)
        global_dim = train.records[0].globals_vec.shape[0]
        graphs = _Graphs(train.records, global_dim)
        val_graphs = _Graphs(val.records, global_dim)
        params = self._init_params(rng, global_dim)
        optimizer = Adam(params, lr=self.lr)
        stopper = EarlyStopping(patience=self.patience)
        best_params = {k: v.copy() for k, v in params.items()}
        val_losses: list[float] = []
        epochs_run = 0
        for epoch in range(self.max_epochs):
            epochs_run = epoch + 1
            order = rng.permutation(len(train.records))
            for begin in range(0, len(order), self.batch_size):
                index = order[begin : begin + self.batch_size]
                batch = graphs.batch(index)
                y_hat, cache = self._forward(batch, params)
                d_yhat = 2.0 * (y_hat - graphs.y[index]) / len(index)
                self._backward(batch, cache, d_yhat, params, optimizer.grads)
                optimizer.step(optimizer.grads)
            val_pred = self._log_latency(val_graphs, params)
            val_loss = float(np.mean((val_pred - val_graphs.y) ** 2))
            val_losses.append(val_loss)
            stop = stopper.step(val_loss, epoch)
            if stopper.should_snapshot:
                best_params = {k: v.copy() for k, v in params.items()}
            if stop:
                break
        self.params = self._split(best_params)
        return self._result(
            start, epochs_run, train, stopper.best_loss, val_losses
        )

    def predict(self, data: Dataset) -> np.ndarray:
        self._check_fitted("params")
        params = dict(self.params)
        for layer in range(self.layers):
            parts = [params[f"W{tag}{layer}"] for tag in "sio"]
            params[f"W{layer}"] = np.concatenate(parts)
        global_dim = params["W_head1"].shape[0] - 2 * self.hidden
        log_pred = self._log_latency(_Graphs(data.records, global_dim), params)
        return np.exp(np.clip(log_pred, -20.0, 20.0))
