"""Tests for the TCP wire protocol server, remote client, and the HPC proxy."""

import pytest

from repro.docstore import (
    DatastoreProxy,
    DatastoreServer,
    DocumentStore,
    ObjectId,
    RemoteClient,
)
from repro.errors import DocstoreError
from repro.fireworks import Firework, LaunchPad, Workflow


@pytest.fixture
def server():
    srv = DatastoreServer(DocumentStore())
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    c = RemoteClient("127.0.0.1", server.port)
    yield c
    c.close()


class TestWireProtocol:
    def test_ping(self, client):
        assert client.ping()

    def test_insert_and_find(self, client):
        coll = client["mp"]["tasks"]
        coll.insert_one({"task_id": "t1", "energy": -5.0})
        docs = coll.find({"task_id": "t1"})
        assert docs[0]["energy"] == -5.0

    def test_objectid_roundtrip_over_wire(self, client):
        coll = client["mp"]["tasks"]
        result = coll.insert_one({"x": 1})
        oid = result.inserted_id
        assert isinstance(oid, ObjectId)
        doc = coll.find_one({"_id": oid})
        assert doc["x"] == 1

    def test_find_with_sort_skip_limit(self, client):
        coll = client["mp"]["m"]
        coll.insert_many([{"n": i} for i in range(10)])
        docs = coll.find({}, sort=[("n", -1)], skip=2, limit=3)
        assert [d["n"] for d in docs] == [7, 6, 5]

    def test_update_and_count(self, client):
        coll = client["mp"]["q"]
        coll.insert_many([{"state": "W"} for _ in range(3)])
        r = coll.update_many({"state": "W"}, {"$set": {"state": "R"}})
        assert r.modified_count == 3
        assert coll.count_documents({"state": "R"}) == 3

    def test_find_one_and_update_over_wire(self, client):
        coll = client["mp"]["queue"]
        coll.insert_many([{"job": i, "state": "WAITING"} for i in range(3)])
        claimed = coll.find_one_and_update(
            {"state": "WAITING"},
            {"$set": {"state": "RUNNING"}},
            sort=[("job", -1)],
            return_document="after",
        )
        assert claimed["job"] == 2 and claimed["state"] == "RUNNING"

    def test_aggregate_over_wire(self, client):
        coll = client["mp"]["t"]
        coll.insert_many([{"g": "a", "v": 1}, {"g": "a", "v": 3}, {"g": "b", "v": 5}])
        rows = coll.aggregate(
            [{"$group": {"_id": "$g", "s": {"$sum": "$v"}}}, {"$sort": {"_id": 1}}]
        )
        assert rows == [{"_id": "a", "s": 4}, {"_id": "b", "s": 5}]

    def test_delete_and_distinct(self, client):
        coll = client["mp"]["d"]
        coll.insert_many([{"k": 1}, {"k": 1}, {"k": 2}])
        assert sorted(coll.distinct("k")) == [1, 2]
        assert coll.delete_many({"k": 1}).deleted_count == 2

    def test_remote_error_propagates(self, client):
        coll = client["mp"]["e"]
        with pytest.raises(DocstoreError):
            coll.find({"a": {"$bogus": 1}})

    def test_server_counts_requests(self, server, client):
        before = server.requests_served
        client.ping()
        client.ping()
        assert server.requests_served == before + 2

    def test_create_index_over_wire(self, client):
        coll = client["mp"]["ix"]
        name = coll.create_index("field")
        assert name == "field_1"

    def test_list_collections(self, client):
        client["mp"]["c1"].insert_one({})
        assert "c1" in client["mp"].list_collection_names()

    def test_write_results_match_in_process_types(self, client):
        coll = client["mp"]["results"]
        assert coll.insert_many([{"k": 1}, {"k": 2}]).inserted_ids
        r = coll.update_one({"k": 3}, {"$set": {"v": 1}}, upsert=True)
        assert (r.matched_count, r.modified_count) == (0, 0)
        assert isinstance(r.upserted_id, ObjectId)
        assert coll.update_many({}, {"$set": {"v": 2}}).matched_count == 3
        assert coll.delete_one({"k": 1}).deleted_count == 1

    def test_launchpad_runs_over_remote_client(self, server, client):
        """Claim and complete a two-step workflow entirely over the wire."""
        launchpad = LaunchPad(client["mp"])
        parent = Firework({"task": "relax"}, name="parent")
        child = Firework({"task": "static"}, name="child", parents=[parent])
        wf = Workflow([parent, child])
        assert launchpad.add_workflow(wf)["added"] == 2
        for expected in ("parent", "child"):
            fw_doc = launchpad.checkout_firework(worker="remote")
            assert fw_doc["name"] == expected
            assert fw_doc["state"] == "RUNNING"
            launchpad.apply_actions(
                fw_doc, [{"action": "complete", "task": {"energy": -1.0}}])
        assert launchpad.checkout_firework() is None
        assert launchpad.workflow_complete(wf.workflow_id)
        tasks = server.store["mp"]["tasks"]
        assert tasks.count_documents({"state": "COMPLETED"}) == 2


class TestProxy:
    def test_requests_forwarded_through_proxy(self, server):
        with DatastoreProxy("127.0.0.1", server.port) as proxy:
            with proxy.client() as client:
                coll = client["mp"]["via_proxy"]
                coll.insert_one({"hop": 2})
                assert coll.find_one({"hop": 2}) is not None
            stats = proxy.stats()
            assert stats["requests_forwarded"] >= 2
            assert stats["bytes_up"] > 0

    def test_proxy_latency_slows_requests(self, server):
        import time

        with DatastoreProxy("127.0.0.1", server.port, forward_latency_s=0.02) as proxy:
            with proxy.client() as client:
                t0 = time.perf_counter()
                client.ping()
                elapsed = time.perf_counter() - t0
        assert elapsed >= 0.02

    def test_data_written_via_proxy_visible_directly(self, server):
        with DatastoreProxy("127.0.0.1", server.port) as proxy:
            with proxy.client() as client:
                client["mp"]["shared"].insert_one({"v": 42})
        assert server.store["mp"]["shared"].find_one({"v": 42}) is not None
