"""Tests for the embedded document store (the MongoDB stand-in)."""

import pytest

from repro.common.errors import StorageError
from repro.storage import DocumentStore


@pytest.fixture
def store():
    return DocumentStore()  # in-memory


@pytest.fixture
def people(store):
    collection = store["people"]
    collection.insert_many(
        [
            {"name": "ada", "age": 36, "city": "london"},
            {"name": "grace", "age": 45, "city": "nyc"},
            {"name": "alan", "age": 41, "city": "london"},
        ]
    )
    return collection


class TestInsertAndFind:
    def test_insert_assigns_ids(self, store):
        collection = store["c"]
        ids = collection.insert_many([{"a": 1}, {"a": 2}])
        assert ids == [1, 2]
        assert collection.insert_one({"a": 3}) == 3

    def test_find_equality(self, people):
        results = people.find({"city": "london"})
        assert {doc["name"] for doc in results} == {"ada", "alan"}

    def test_find_operators(self, people):
        assert people.count({"age": {"$gt": 40}}) == 2
        assert people.count({"age": {"$gte": 45}}) == 1
        assert people.count({"age": {"$lt": 40}}) == 1
        assert people.count({"age": {"$ne": 36}}) == 2
        assert people.count({"name": {"$in": ["ada", "alan"]}}) == 2
        assert people.count({"name": {"$nin": ["ada", "alan"]}}) == 1
        assert people.count({"pet": {"$exists": False}}) == 3

    def test_unknown_operator(self, people):
        with pytest.raises(StorageError, match="unknown query operator"):
            people.find({"age": {"$near": 40}})

    def test_find_one(self, people):
        doc = people.find_one({"name": "grace"})
        assert doc["age"] == 45
        assert people.find_one({"name": "nobody"}) is None

    def test_sort_and_limit(self, people):
        youngest = people.find(sort_by="age", limit=1)
        assert youngest[0]["name"] == "ada"
        oldest = people.find(sort_by="age", descending=True, limit=1)
        assert oldest[0]["name"] == "grace"

    def test_dotted_paths(self, store):
        collection = store["nested"]
        collection.insert_one({"metrics": {"latency": {"p50": 0.25}}})
        assert collection.count({"metrics.latency.p50": {"$gt": 0.2}}) == 1
        assert collection.count({"metrics.latency.p99": {"$gt": 0}}) == 0

    def test_find_returns_copies(self, people):
        doc = people.find_one({"name": "ada"})
        doc["age"] = 999
        assert people.find_one({"name": "ada"})["age"] == 36

    def test_distinct(self, people):
        assert people.distinct("city") == ["london", "nyc"]


class TestMutation:
    def test_delete_many(self, people):
        removed = people.delete_many({"city": "london"})
        assert removed == 2
        assert people.count() == 1

    def test_rejects_non_dict(self, store):
        with pytest.raises(StorageError):
            store["c"].insert_one(["not", "a", "dict"])

    def test_rejects_unserialisable(self, store):
        with pytest.raises(StorageError, match="JSON"):
            store["c"].insert_one({"fn": lambda: 1})


class TestPersistence:
    def test_roundtrip_on_disk(self, tmp_path):
        directory = str(tmp_path / "db")
        store = DocumentStore(directory)
        store["runs"].insert_many([{"x": 1}, {"x": 2}])
        reopened = DocumentStore(directory)
        assert reopened["runs"].count() == 2
        assert reopened["runs"].find_one({"x": 2})["x"] == 2

    def test_ids_continue_after_reload(self, tmp_path):
        directory = str(tmp_path / "db")
        DocumentStore(directory)["c"].insert_one({"x": 1})
        reopened = DocumentStore(directory)
        assert reopened["c"].insert_one({"x": 2}) == 2

    def test_delete_rewrites_file(self, tmp_path):
        directory = str(tmp_path / "db")
        store = DocumentStore(directory)
        store["c"].insert_many([{"x": 1}, {"x": 2}])
        store["c"].delete_many({"x": 1})
        reopened = DocumentStore(directory)
        assert reopened["c"].count() == 1

    def test_corrupt_file_raises(self, tmp_path):
        directory = tmp_path / "db"
        directory.mkdir()
        (directory / "bad.jsonl").write_text("{not json}\n")
        store = DocumentStore(str(directory))
        with pytest.raises(StorageError, match="corrupt"):
            store["bad"]

    def test_a_complete_last_line_without_newline_is_terminated(
        self, tmp_path
    ):
        directory = tmp_path / "db"
        directory.mkdir()
        path = directory / "c.jsonl"
        path.write_text('{"_id": 1, "x": 1}\n{"_id": 2, "x": 2}')
        DocumentStore(str(directory))["c"].insert_one({"x": 3})
        assert path.read_text().splitlines()[1:] == [
            '{"_id": 2, "x": 2}',
            '{"_id": 3, "x": 3}',
        ]
        reopened = DocumentStore(str(directory))["c"]
        assert [d["x"] for d in reopened.find(sort_by="_id")] == [1, 2, 3]

    def test_a_torn_last_line_is_dropped_loudly(self, tmp_path):
        directory = tmp_path / "db"
        directory.mkdir()
        path = directory / "c.jsonl"
        torn = '{"_id": 2, "x":'
        path.write_text('{"_id": 1, "x": 1}\n' + torn)
        with pytest.warns(RuntimeWarning, match=f"{len(torn)} bytes"):
            collection = DocumentStore(str(directory))["c"]
        assert collection.count() == 1
        collection.insert_one({"x": 3})
        reopened = DocumentStore(str(directory))["c"]
        assert [d["_id"] for d in reopened.find(sort_by="_id")] == [1, 2]
        assert [d["x"] for d in reopened.find(sort_by="_id")] == [1, 3]

    def test_a_bad_line_that_ends_in_a_newline_still_raises(self, tmp_path):
        directory = tmp_path / "db"
        directory.mkdir()
        (directory / "c.jsonl").write_text('{"_id": 1}\n{"_id": 2,\n')
        with pytest.raises(StorageError, match="corrupt"):
            DocumentStore(str(directory))["c"]

    def test_list_collections_includes_disk(self, tmp_path):
        directory = str(tmp_path / "db")
        DocumentStore(directory)["alpha"].insert_one({"x": 1})
        reopened = DocumentStore(directory)
        assert "alpha" in reopened.list_collections()

    def test_drop(self, tmp_path):
        directory = str(tmp_path / "db")
        store = DocumentStore(directory)
        store["gone"].insert_one({"x": 1})
        store.drop("gone")
        assert DocumentStore(directory)["gone"].count() == 0

    def test_invalid_collection_name(self, store):
        with pytest.raises(StorageError):
            store.collection("")
        with pytest.raises(StorageError):
            store.collection("a/b")
