"""The batched GNN path and the flat Adam against per-record oracles.

The per-graph forward/backward below is the maths ``GNNCostModel`` ran one
query at a time before it stacked mini-batches; it stays here as the
reference the stacked kernels are held to.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.common.errors import TrainingError
from repro.ml.dataset import Dataset, QueryRecord
from repro.ml.encoding import OPERATOR_FEATURE_DIM
from repro.ml.models import GNNCostModel
from repro.ml.models.gnn import _Graphs
from repro.ml.persistence import load_model, model_state, save_model
from repro.ml.training import Adam
from repro.storage import DocumentStore
from tests.test_ml import _labelled_dataset

LAYERS, HIDDEN = 3, 48


def _reference_forward(record, params):
    h = record.node_features
    cache = {"H": [h], "Z": []}
    for layer in range(LAYERS):
        z = (
            h @ params[f"Ws{layer}"]
            + record.adj_in @ h @ params[f"Wi{layer}"]
            + record.adj_out @ h @ params[f"Wo{layer}"]
            + params[f"b{layer}"]
        )
        h = np.maximum(z, 0.0)
        cache["Z"].append(z)
        cache["H"].append(h)
    max_idx = h.argmax(axis=0)
    readout = np.concatenate(
        [h.mean(axis=0), h[max_idx, np.arange(HIDDEN)], record.globals_vec]
    )
    u_pre = readout @ params["W_head1"] + params["b_head1"]
    u = np.maximum(u_pre, 0.0)
    y_hat = float(u @ params["w_head2"] + params["b_head2"][0])
    cache.update(readout=readout, u=u, u_pre=u_pre, max_idx=max_idx)
    return y_hat, cache


def _reference_backward(record, cache, d_yhat, params, grads):
    grads["w_head2"] += d_yhat * cache["u"]
    grads["b_head2"] += d_yhat
    du = (d_yhat * params["w_head2"]) * (cache["u_pre"] > 0)
    grads["W_head1"] += np.outer(cache["readout"], du)
    grads["b_head1"] += du
    d_readout = params["W_head1"] @ du
    n = len(record.node_features)
    dh = np.tile(d_readout[:HIDDEN] / n, (n, 1))
    dh[cache["max_idx"], np.arange(HIDDEN)] += d_readout[HIDDEN : 2 * HIDDEN]
    a_in, a_out = record.adj_in, record.adj_out
    for layer in reversed(range(LAYERS)):
        dz = dh * (cache["Z"][layer] > 0)
        h_prev = cache["H"][layer]
        grads[f"b{layer}"] += dz.sum(axis=0)
        grads[f"Ws{layer}"] += h_prev.T @ dz
        grads[f"Wi{layer}"] += (a_in @ h_prev).T @ dz
        grads[f"Wo{layer}"] += (a_out @ h_prev).T @ dz
        dh = (
            dz @ params[f"Ws{layer}"].T
            + a_in.T @ dz @ params[f"Wi{layer}"].T
            + a_out.T @ dz @ params[f"Wo{layer}"].T
        )


def _twin_branch_join():
    """Two bit-identical source branches into a join: max-pool ties."""
    rng = np.random.default_rng(7)
    features = np.abs(rng.normal(size=(5, OPERATOR_FEATURE_DIM)))
    features[1] = features[0]
    adj_in = np.zeros((5, 5))
    adj_in[2, [0, 1]] = 0.5
    adj_in[3, 2] = adj_in[4, 3] = 1.0
    adj_out = np.zeros((5, 5))
    adj_out[0, 2] = adj_out[1, 2] = adj_out[2, 3] = adj_out[3, 4] = 1.0
    return QueryRecord(
        flat=np.zeros(3),
        node_features=features,
        adj_in=adj_in,
        adj_out=adj_out,
        globals_vec=np.abs(rng.normal(size=5)),
        latency_s=0.4,
    )


@pytest.fixture(scope="module")
def mini_batch():
    """One graph per node count, 3..11, and the twin-branch join at [3]."""
    by_size = {}
    for record in _labelled_dataset(27).records:
        by_size.setdefault(len(record.node_features), record)
    assert {3, 11} <= set(by_size), sorted(by_size)
    records = [by_size[n] for n in sorted(by_size)]
    records.insert(3, _twin_branch_join())
    return records


@pytest.fixture(scope="module")
def model_and_params():
    model = GNNCostModel(layers=LAYERS, hidden=HIDDEN)
    return model, model._init_params(np.random.default_rng(3), 5)


def _batched(model, stacked, records):
    """Predictions, loss and split gradients from the stacked path."""
    graphs = _Graphs(records, 5)
    index = np.arange(len(records))
    batch = graphs.batch(index)
    y_hat, cache = model._forward(batch, stacked)
    grads = {k: np.full_like(value, np.nan) for k, value in stacked.items()}
    d_yhat = 2.0 * (y_hat - graphs.y) / len(records)
    model._backward(batch, cache, d_yhat, stacked, grads)
    loss = float(np.mean((y_hat - graphs.y) ** 2))
    return y_hat, loss, grads


def _close(actual, expected, rel=1e-10):
    scale = max(float(np.abs(expected).max()), 1e-300)
    return float(np.abs(actual - expected).max()) <= rel * scale


def test_batched_matches_per_graph_reference(mini_batch, model_and_params):
    model, stacked = model_and_params
    params = model._split(stacked)
    assert len(params) == 16
    sizes = [len(r.node_features) for r in mini_batch]
    assert min(sizes) == 3 and max(sizes) == 11 and len(set(sizes)) > 4

    expected = {key: np.zeros_like(value) for key, value in params.items()}
    y_ref = []
    for record in mini_batch:
        y_hat, cache = _reference_forward(record, params)
        d_yhat = 2.0 * (y_hat - record.log_latency) / len(mini_batch)
        _reference_backward(record, cache, d_yhat, params, expected)
        y_ref.append(y_hat)
        if record is mini_batch[3]:
            # The tie is real: both branches hold the positive maximum
            # of some column and arg-max picks the first.
            h = cache["H"][-1]
            tied = (cache["max_idx"] == 0) & (h[0] == h[1]) & (h[0] > 0)
            assert tied.any()
    y_ref = np.array(y_ref)
    targets = np.array([r.log_latency for r in mini_batch])

    y_hat, loss, grads = _batched(model, stacked, mini_batch)
    assert _close(y_hat, y_ref)
    assert loss == pytest.approx(np.mean((y_ref - targets) ** 2), rel=1e-10)
    actual = model._split(grads)
    assert list(actual) == list(expected)
    for key in expected:
        assert np.abs(expected[key]).max() > 0, key
        assert _close(actual[key], expected[key]), key


def test_batch_order_follows_index(mini_batch, model_and_params):
    model, stacked = model_and_params
    graphs = _Graphs(mini_batch, 5)
    order = np.array([5, 0, 3, len(mini_batch) - 1])
    forward = model._forward(graphs.batch(order), stacked)[0]
    whole = model._forward(
        graphs.batch(np.arange(len(mini_batch))), stacked
    )[0]
    assert np.allclose(forward, whole[order], rtol=1e-12, atol=0)


def test_gradients_match_finite_differences(mini_batch, model_and_params):
    model, stacked = model_and_params
    stacked = {key: value.copy() for key, value in stacked.items()}
    # Biases start at zero, where ReLU kinks sit; move off them.
    rng = np.random.default_rng(11)
    for key, value in stacked.items():
        if key.startswith("b"):
            value += rng.normal(0.0, 0.05, size=value.shape)
    _, _, grads = _batched(model, stacked, mini_batch)
    keys = list(stacked)
    step = 1e-6
    for _ in range(20):
        key = keys[rng.integers(len(keys))]
        at = tuple(rng.integers(n) for n in stacked[key].shape)
        original = stacked[key][at]
        stacked[key][at] = original + step
        up = _batched(model, stacked, mini_batch)[1]
        stacked[key][at] = original - step
        down = _batched(model, stacked, mini_batch)[1]
        stacked[key][at] = original
        numeric = (up - down) / (2 * step)
        assert grads[key][at] == pytest.approx(numeric, rel=1e-5, abs=1e-8)


def _per_key_adam_step(params, m, v, t, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    for key, grad in grads.items():
        m[key] = b1 * m[key] + (1 - b1) * grad
        v[key] = b2 * v[key] + (1 - b2) * (grad * grad)
        m_hat = m[key] / (1 - b1**t)
        v_hat = v[key] / (1 - b2**t)
        params[key] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def test_flat_adam_is_bit_identical_to_per_key_loop():
    rng = np.random.default_rng(5)
    sizes = [20, 64, 64, 1]
    shapes = {}
    for i, (rows, cols) in enumerate(zip(sizes, sizes[1:])):
        shapes[f"W{i}"], shapes[f"b{i}"] = (rows, cols), (cols,)
    params = {k: rng.normal(size=shape) for k, shape in shapes.items()}
    reference = {k: value.copy() for k, value in params.items()}
    m = {k: np.zeros(shape) for k, shape in shapes.items()}
    v = {k: np.zeros(shape) for k, shape in shapes.items()}
    optimizer = Adam(params, lr=3e-3)
    for t in range(1, 51):
        grads = {
            k: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape)
            for k, shape in shapes.items()
        }
        optimizer.step(grads)
        _per_key_adam_step(reference, m, v, t, grads, lr=3e-3)
        for key in shapes:
            assert np.array_equal(params[key], reference[key]), (t, key)


def test_adam_grads_views_step_in_place():
    params = {"w": np.array([1.0, 2.0]), "b": np.array([3.0])}
    optimizer = Adam(params, lr=0.1)
    assert params["w"].base is params["b"].base
    optimizer.grads["w"][:] = [1.0, -1.0]
    optimizer.grads["b"][:] = 0.5
    optimizer.step(optimizer.grads)
    assert np.allclose(params["w"], [0.9, 2.1])
    assert np.allclose(params["b"], [2.9])


@pytest.fixture(scope="module")
def fitted():
    dataset = _labelled_dataset(45)
    train, val, test = dataset.split(np.random.default_rng(0))
    model = GNNCostModel(max_epochs=4, patience=4)
    result = model.fit(train, val, seed=2)
    return model, result, (train, val, test), dataset


def test_predict_subset_matches_full(fitted):
    model, _, _, dataset = fitted
    index = [44, 3, 17, 18, 30, 0, 9]
    whole = model.predict(dataset)
    assert whole.shape == (45,)
    part = model.predict(dataset.subset(index))
    assert np.allclose(whole[index], part, rtol=1e-12, atol=0)


def test_save_load_predict_round_trip(fitted):
    model, _, (_, _, test), _ = fitted
    store = DocumentStore()
    save_model(model, store["models"])
    restored = load_model(store["models"], "GNN")
    assert list(restored.params) == list(model.params)
    assert np.array_equal(restored.predict(test), model.predict(test))


def test_load_ignores_stored_global_dim(fitted):
    model, _, (_, _, test), _ = fitted
    state = model_state(model)
    assert "global_dim" not in state
    store = DocumentStore()
    store["models"].insert_one({**state, "global_dim": 5, "tag": ""})
    restored = load_model(store["models"], "GNN")
    assert np.array_equal(restored.predict(test), model.predict(test))


def test_params_keep_the_persisted_layout(fitted):
    model, result, _, _ = fitted
    keys = [f"W{tag}{layer}" for layer in range(3) for tag in "sio"]
    assert sorted(model.params) == sorted(
        keys + ["b0", "b1", "b2", "W_head1", "b_head1", "w_head2", "b_head2"]
    )
    assert model.params["Ws0"].shape == (OPERATOR_FEATURE_DIM, 48)
    assert model.params["W_head1"].shape == (2 * 48 + 5, 32)
    assert result.num_parameters == 19857


def test_fit_is_deterministic_per_seed(fitted):
    _, result, (train, val, _), _ = fitted
    again = GNNCostModel(max_epochs=4, patience=4).fit(train, val, seed=2)
    assert again.val_losses == result.val_losses
    assert again.best_val_loss == result.best_val_loss


def test_constructor_has_no_global_dim():
    with pytest.raises(TypeError):
        GNNCostModel(global_dim=5)


def test_width_mismatch_names_the_record(fitted):
    model, _, (train, val, test), _ = fitted
    wide_globals = replace(val.records[2], globals_vec=np.zeros(6))
    bad_val = Dataset(val.records[:2] + [wide_globals] + val.records[3:])
    with pytest.raises(TrainingError, match="record 2"):
        GNNCostModel(max_epochs=1).fit(train, bad_val)
    narrow = replace(
        test.records[1], node_features=test.records[1].node_features[:, :-1]
    )
    with pytest.raises(TrainingError, match="record 1"):
        model.predict(Dataset([test.records[0], narrow]))
    empty = replace(
        train.records[4],
        node_features=np.zeros((0, OPERATOR_FEATURE_DIM)),
        adj_in=np.zeros((0, 0)),
        adj_out=np.zeros((0, 0)),
    )
    bad_train = Dataset(train.records[:4] + [empty] + train.records[5:])
    with pytest.raises(TrainingError, match="record 4"):
        GNNCostModel(max_epochs=1).fit(bad_train, val)
