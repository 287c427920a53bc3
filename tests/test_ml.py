"""Tests for the ML subsystem: q-error, encodings, datasets, training."""

import numpy as np
import pytest

from repro.cluster import heterogeneous_cluster, homogeneous_cluster
from repro.common.errors import ConfigurationError, TrainingError
from repro.ml import (
    Dataset,
    EarlyStopping,
    MLManager,
    encode_query,
    q_error,
    summarize_q_errors,
)
from repro.ml.encoding import (
    FLAT_FEATURE_NAMES,
    OPERATOR_FEATURE_DIM,
    flat_features,
    graph_encoding,
    operator_features,
)
from repro.ml.models import (
    GNNCostModel,
    LinearRegressionModel,
    MLPCostModel,
    RandomForestModel,
)
from repro.ml.qerror import q_errors
from repro.ml.training import Adam, Standardizer
from repro.storage import DocumentStore
from repro.workload import QueryStructure, build_structure


class TestQError:
    def test_perfect_prediction(self):
        assert q_error(5.0, 5.0) == 1.0

    def test_symmetric(self):
        assert q_error(2.0, 8.0) == q_error(8.0, 2.0) == 4.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            q_error(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            q_error(1.0, -2.0)

    def test_vectorised(self):
        errors = q_errors(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
        assert errors.tolist() == [2.0, 2.0]

    def test_summary(self):
        summary = summarize_q_errors(
            np.array([1.0, 1.0, 1.0, 1.0]),
            np.array([1.0, 2.0, 1.0, 4.0]),
        )
        assert summary["median"] == pytest.approx(1.5)
        assert summary["max"] == 4.0
        assert summary["count"] == 4

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            q_errors(np.array([1.0]), np.array([1.0, 2.0]))


def _query(structure=QueryStructure.TWO_WAY_JOIN, seed=0, rate=10_000.0):
    return build_structure(
        structure, np.random.default_rng(seed), event_rate=rate
    )


class TestEncodings:
    cluster = homogeneous_cluster(num_nodes=4)

    def test_operator_features_dim(self):
        plan = _query().plan
        for op in plan.operators.values():
            assert operator_features(op).shape == (OPERATOR_FEATURE_DIM,)

    def test_parallelism_feature_responds(self):
        plan = _query().plan
        op = plan.operator("join0")
        before = operator_features(op).copy()
        op.parallelism = 16
        after = operator_features(op)
        assert not np.allclose(before, after)

    def test_flat_features_shape_and_names(self):
        vector = flat_features(_query().plan, self.cluster)
        assert vector.shape == (len(FLAT_FEATURE_NAMES),)
        assert np.isfinite(vector).all()

    def test_flat_distinguishes_clusters(self):
        plan = _query().plan
        homogeneous = flat_features(plan, self.cluster)
        heterogeneous = flat_features(
            plan, heterogeneous_cluster(num_nodes=4)
        )
        assert not np.allclose(homogeneous, heterogeneous)

    def test_graph_encoding_shapes(self):
        plan = _query().plan
        x, a_in, a_out, globals_vec = graph_encoding(plan, self.cluster)
        n = plan.num_operators
        assert x.shape == (n, OPERATOR_FEATURE_DIM)
        assert a_in.shape == a_out.shape == (n, n)
        assert globals_vec.shape == (5,)

    def test_adjacency_row_normalised(self):
        plan = _query(QueryStructure.THREE_WAY_JOIN).plan
        _, a_in, a_out, _ = graph_encoding(plan, self.cluster)
        for matrix in (a_in, a_out):
            sums = matrix.sum(axis=1)
            assert np.all(
                (np.abs(sums - 1.0) < 1e-9) | (np.abs(sums) < 1e-9)
            )

    def test_adjacency_matches_edges(self):
        plan = _query().plan
        order = plan.topological_order()
        index = {op: i for i, op in enumerate(order)}
        _, a_in, _, _ = graph_encoding(plan, self.cluster)
        for edge in plan.edges:
            assert a_in[index[edge.dst], index[edge.src]] > 0


class TestDataset:
    cluster = homogeneous_cluster(num_nodes=2)

    def _records(self, n=20):
        records = []
        for i in range(n):
            query = _query(seed=i)
            records.append(
                encode_query(
                    query.plan,
                    self.cluster,
                    latency_s=0.1 + 0.01 * i,
                    structure=query.structure.value,
                )
            )
        return records

    def test_rejects_nonpositive_latency(self):
        query = _query()
        with pytest.raises(TrainingError):
            encode_query(query.plan, self.cluster, latency_s=0.0)

    def test_split_partitions(self, rng):
        dataset = Dataset(self._records(20))
        train, val, test = dataset.split(rng)
        assert len(train) + len(val) + len(test) == 20
        assert len(train) > len(val) >= 1

    def test_split_without_test_keeps_every_record(self, rng):
        dataset = Dataset(self._records(20))
        train, val, test = dataset.split(rng, test_fraction=0.0)
        assert test is None
        assert len(train) + len(val) == 20
        ids = {id(r) for r in train.records} | {id(r) for r in val.records}
        assert ids == {id(r) for r in dataset.records}

    def test_split_too_small(self, rng):
        with pytest.raises(TrainingError):
            Dataset(self._records(3)).split(rng)

    def test_flat_matrix_log_target(self):
        dataset = Dataset(self._records(5))
        x, y = dataset.flat_matrix()
        assert x.shape[0] == 5
        assert y[0] == pytest.approx(np.log(0.1))

    def test_filter_structure(self):
        dataset = Dataset(self._records(6))
        subset = dataset.filter_structure({"two_way_join"})
        assert len(subset) == 6
        with pytest.raises(TrainingError):
            dataset.filter_structure({"nonexistent"})

    def test_docstore_roundtrip(self):
        store = DocumentStore()
        dataset = Dataset(self._records(4))
        dataset.save(store["corpus"])
        loaded = Dataset.load(store["corpus"])
        assert len(loaded) == 4
        assert np.allclose(
            loaded.records[0].flat, dataset.records[0].flat
        )
        assert loaded.records[0].latency_s == pytest.approx(
            dataset.records[0].latency_s
        )

    def test_load_empty_collection(self):
        store = DocumentStore()
        with pytest.raises(TrainingError):
            Dataset.load(store["empty"])


class TestTrainingUtilities:
    def test_early_stopping_stops_after_patience(self):
        stopper = EarlyStopping(patience=3)
        assert not stopper.step(1.0, 0)
        assert stopper.should_snapshot
        assert not stopper.step(1.1, 1)
        assert not stopper.step(1.2, 2)
        assert stopper.step(1.3, 3)  # third stale epoch
        assert stopper.best_epoch == 0

    def test_early_stopping_resets_on_improvement(self):
        stopper = EarlyStopping(patience=2)
        stopper.step(1.0, 0)
        stopper.step(1.1, 1)
        assert not stopper.step(0.5, 2)  # improvement resets counter
        assert not stopper.step(0.6, 3)
        assert stopper.step(0.7, 4)

    def test_early_stopping_rejects_non_finite_loss(self):
        stopper = EarlyStopping(patience=3)
        stopper.step(1.0, 0)
        for loss in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(TrainingError, match="epoch 4") as error:
                stopper.step(loss, 4)
            assert str(loss) in str(error.value)
        assert stopper.best_loss == 1.0

    def test_adam_reduces_quadratic(self):
        params = {"w": np.array([5.0])}
        optimizer = Adam(params, lr=0.1)
        for _ in range(200):
            optimizer.step({"w": 2.0 * params["w"]})
        assert abs(params["w"][0]) < 0.1

    def test_adam_unknown_param(self):
        optimizer = Adam({"w": np.zeros(1)})
        with pytest.raises(ConfigurationError):
            optimizer.step({"v": np.zeros(1)})

    def test_standardizer(self):
        x = np.array([[1.0, 10.0], [3.0, 10.0]])
        scaler = Standardizer().fit(x)
        z = scaler.transform(x)
        assert np.allclose(z.mean(axis=0), 0.0)
        assert np.allclose(z[:, 1], 0.0)  # constant column stays finite

    def test_standardizer_unfitted(self):
        with pytest.raises(ConfigurationError):
            Standardizer().transform(np.zeros((2, 2)))


def _labelled_dataset(n=60, seed=0):
    """Synthetic corpus with a learnable latency signal."""
    cluster = homogeneous_cluster(num_nodes=4)
    from repro.sps.analytic import AnalyticEstimator

    estimator = AnalyticEstimator(cluster)
    rng = np.random.default_rng(seed)
    records = []
    structures = list(QueryStructure)
    for i in range(n):
        query = _query(structures[i % len(structures)], seed=i)
        latency = estimator.noisy_latency(query.plan, rng, cv=0.05)
        records.append(
            encode_query(
                query.plan, cluster, latency,
                structure=query.structure.value,
            )
        )
    return Dataset(records)


class TestModels:
    @pytest.mark.parametrize(
        "model_cls",
        [
            LinearRegressionModel,
            MLPCostModel,
            RandomForestModel,
            GNNCostModel,
        ],
    )
    def test_fit_predict_beats_trivial(self, model_cls, rng):
        dataset = _labelled_dataset(60)
        train, val, test = dataset.split(rng)
        model = model_cls()
        result = model.fit(train, val, seed=0)
        assert result.train_time_s >= 0
        assert result.epochs >= 1
        assert model.num_parameters() > 0
        predictions = model.predict(test)
        assert predictions.shape == (len(test),)
        assert (predictions > 0).all()
        summary = model.evaluate(test)
        # Trivial "predict the median" gives far worse than this bound
        # on a corpus spanning orders of magnitude.
        assert summary["median"] < 4.0

    def test_predict_before_fit_raises(self):
        dataset = _labelled_dataset(10)
        for model in (
            LinearRegressionModel(),
            MLPCostModel(),
            RandomForestModel(),
            GNNCostModel(),
        ):
            with pytest.raises(TrainingError):
                model.predict(dataset)

    def test_mlp_early_stopping_bounded(self, rng):
        dataset = _labelled_dataset(40)
        train, val, _ = dataset.split(rng)
        model = MLPCostModel(max_epochs=500, patience=5)
        result = model.fit(train, val, seed=0)
        assert result.epochs <= 500
        assert len(result.val_losses) == result.epochs

    @pytest.mark.parametrize(
        "model_cls, knob",
        [
            (RandomForestModel, "max_trees"),
            (RandomForestModel, "max_depth"),
            (RandomForestModel, "min_samples_leaf"),
            (MLPCostModel, "batch_size"),
            (MLPCostModel, "max_epochs"),
            (GNNCostModel, "batch_size"),
            (GNNCostModel, "max_epochs"),
        ],
    )
    @pytest.mark.parametrize("value", [0, -1, 2.5, float("nan")])
    def test_bad_knob_refused_at_construction(self, model_cls, knob, value):
        with pytest.raises(ConfigurationError, match=knob):
            model_cls(**{knob: value})

    def test_forest_tree_count_bounded(self, rng):
        dataset = _labelled_dataset(40)
        train, val, _ = dataset.split(rng)
        model = RandomForestModel(max_trees=20, patience=4)
        model.fit(train, val, seed=0)
        assert 1 <= len(model.trees) <= 20


class TestMLManager:
    def test_fair_comparison_all_models(self):
        dataset = _labelled_dataset(60)
        manager = MLManager(seed=0)
        reports = manager.train_and_evaluate(dataset)
        assert set(reports) == {"LR", "MLP", "RF", "GNN"}
        for report in reports.values():
            assert report.q_error["median"] >= 1.0
            assert report.training.train_samples > 0
            assert report.per_structure

    def test_external_test_set(self):
        train_corpus = _labelled_dataset(50, seed=0)
        test_corpus = _labelled_dataset(20, seed=99)
        manager = MLManager(
            models=[LinearRegressionModel()], seed=0
        )
        reports = manager.train_and_evaluate(
            train_corpus, test=test_corpus
        )
        assert reports["LR"].q_error["count"] == 20
        # Train and validation share the whole corpus: no record is
        # split off into a test set nobody reads.
        n_val = int(50 * 0.15)
        assert reports["LR"].training.train_samples == 50 - n_val

    def test_duplicate_model_names_rejected(self):
        with pytest.raises(TrainingError):
            MLManager(
                models=[LinearRegressionModel(), LinearRegressionModel()]
            )

    def test_model_lookup(self):
        manager = MLManager(seed=0)
        assert manager.model("GNN").name == "GNN"
        with pytest.raises(TrainingError):
            manager.model("SVM")
