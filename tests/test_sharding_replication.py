"""Sharding and replication behaviour of the cluster stack (§IV-D2).

Routing, placement, sort/limit pushdown and shard-key immutability run
against :class:`ClusterCollection`; replication, lag, step-down and election
terms against one :class:`ShardReplicaSet`.
"""

import pytest

from repro.docstore import ShardedCluster, ShardReplicaSet
from repro.docstore.cluster.config import hash_shard_key
from repro.errors import ElectionFailed, ShardingError

NS = "mp.materials"


def make_sharded(n=3, strategy="hashed", key="mps_id"):
    cluster = ShardedCluster(n_replicas=1)
    for i in range(n):
        cluster.add_shard(f"s{i}")
    return cluster.shard_collection(NS, key, strategy=strategy)


def write(rs, fn, coll="m"):
    return rs.write("mp", coll, fn)


def member_docs(member, coll="m"):
    return member.store["mp"][coll].all_documents()


class TestHashedSharding:
    def test_all_docs_reachable(self):
        sc = make_sharded()
        sc.insert_many([{"mps_id": f"mps-{i}", "v": i} for i in range(60)])
        assert sc.count_documents({}) == 60
        assert len(sc.find({})) == 60

    def test_distribution_roughly_balanced(self):
        sc = make_sharded()
        sc.insert_many([{"mps_id": f"mps-{i}"} for i in range(300)])
        assert sc.cluster.balance_factor(NS) < 1.5

    def test_equality_query_routes_to_single_shard(self):
        sc = make_sharded()
        sc.insert_many([{"mps_id": f"mps-{i}", "v": i} for i in range(30)])
        docs = sc.find({"mps_id": "mps-7"})
        assert len(docs) == 1 and docs[0]["v"] == 7
        plan = sc.explain({"mps_id": "mps-7"})
        assert plan["mode"] == "SINGLE_SHARD"
        assert len(plan["shards"]) == 1

    def test_in_query_routes_to_owning_shards(self):
        sc = make_sharded()
        sc.insert_many([{"mps_id": f"mps-{i}"} for i in range(30)])
        query = {"mps_id": {"$in": ["mps-1", "mps-2"]}}
        assert len(sc.find(query)) == 2
        assert 1 <= len(sc.explain(query)["shards"]) <= 2

    def test_non_key_query_scatter_gathers(self):
        sc = make_sharded()
        sc.insert_many([{"mps_id": f"mps-{i}", "v": i % 2} for i in range(30)])
        docs = sc.find({"v": 1})
        assert len(docs) == 15
        plan = sc.explain({"v": 1})
        assert plan["mode"] == "SCATTER_GATHER"
        assert len(plan["shards"]) == 3

    def test_missing_shard_key_rejected(self):
        sc = make_sharded()
        with pytest.raises(ShardingError):
            sc.insert_one({"no_key": True})

    def test_hash_stability(self):
        assert hash_shard_key("mps-1") == hash_shard_key("mps-1")
        assert hash_shard_key("mps-1") != hash_shard_key("mps-2")

    def test_update_and_delete_route(self):
        sc = make_sharded()
        sc.insert_many([{"mps_id": f"m{i}", "state": "old"} for i in range(20)])
        sc.update_many({"mps_id": "m3"}, {"$set": {"state": "new"}})
        assert sc.find_one({"mps_id": "m3"})["state"] == "new"
        sc.delete_many({"mps_id": "m3"})
        assert sc.find_one({"mps_id": "m3"}) is None


class TestRangeSharding:
    def test_range_placement(self):
        sc = make_sharded(3, strategy="range")
        cluster = sc.cluster
        sc.insert_many([{"mps_id": k} for k in ["apple", "grape", "zebra"]])
        # Split [min, max) at the data medians, then give each shard one.
        first = cluster.config.chunks(NS)[0]
        _, right = cluster.split_chunk(NS, first.chunk_id)
        cluster.split_chunk(NS, right.chunk_id)
        for chunk, shard_id in zip(cluster.config.chunks(NS),
                                   ["s0", "s1", "s2"]):
            cluster.move_chunk(NS, chunk.chunk_id, shard_id)
        assert cluster.shard_distribution(NS) == {"s0": 1, "s1": 1, "s2": 1}
        for shard_id, key in [("s0", "apple"), ("s1", "grape"),
                              ("s2", "zebra")]:
            primary = cluster.shard(shard_id).rs.primary
            docs = primary.store["mp"]["materials"].all_documents()
            assert [d["mps_id"] for d in docs] == [key]

    def test_range_query_prunes_shards(self):
        sc = make_sharded(2, strategy="range")
        cluster = sc.cluster
        sc.insert_many([{"mps_id": k} for k in ["a", "b", "h", "i", "q", "r"]])
        _, right = cluster.split_chunk(NS, cluster.config.chunks(NS)[0].chunk_id)
        cluster.move_chunk(NS, right.chunk_id, "s1")
        query = {"mps_id": {"$gte": "a", "$lt": "c"}}
        assert {d["mps_id"] for d in sc.find(query)} == {"a", "b"}
        plan = sc.explain(query)
        assert plan["mode"] == "SINGLE_SHARD"
        assert list(plan["shards"]) == ["s0"]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ShardingError):
            make_sharded(2, strategy="mystery")


class TestReplicaSet:
    def test_writes_replicate_to_secondaries(self):
        rs = ShardReplicaSet("rs0", n_members=3)
        write(rs, lambda c: c.insert_one({"_id": 1, "formula": "Fe2O3"}),
              coll="materials")
        for member in rs.members:
            assert len(member_docs(member, "materials")) == 1

    def test_updates_and_deletes_replicate(self):
        rs = ShardReplicaSet("rs0", n_members=2)
        write(rs, lambda c: c.insert_many([{"_id": i, "v": 0}
                                           for i in range(3)]))
        write(rs, lambda c: c.update_one({"_id": 1}, {"$set": {"v": 9}}))
        write(rs, lambda c: c.delete_one({"_id": 2}))
        secondary = rs.members[1].store["mp"]["m"]
        assert secondary.find_one({"_id": 1})["v"] == 9
        assert secondary.find_one({"_id": 2}) is None

    def test_lag_reporting(self):
        rs = ShardReplicaSet("rs0", n_members=3)
        behind = rs.members[2].name
        rs.kill(behind)
        for i in range(5):
            write(rs, lambda c, i=i: c.insert_one({"_id": i}))
        lags = {m["name"]: m["lag"] for m in rs.status()["members"]}
        assert lags == {rs.members[0].name: 0, rs.members[1].name: 0,
                        behind: 5}
        rs.revive(behind)
        assert all(m["lag"] == 0 for m in rs.status()["members"])

    def test_step_down_promotes_up_to_date_secondary(self):
        rs = ShardReplicaSet("rs0", n_members=3)
        write(rs, lambda c: c.insert_many([{"_id": i} for i in range(4)]))
        old_primary = rs.primary
        new_name = rs.step_down()
        assert new_name != old_primary.name
        assert rs.primary.name == new_name
        # New primary has all the data and accepts writes.
        assert len(member_docs(rs.primary)) == 4
        write(rs, lambda c: c.insert_one({"_id": 99}))
        assert len(member_docs(rs.primary)) == 5

    def test_step_down_without_secondaries_fails(self):
        rs = ShardReplicaSet("rs0", n_members=1)
        with pytest.raises(ElectionFailed):
            rs.step_down()

    def test_status(self):
        rs = ShardReplicaSet("rs0", n_members=3)
        write(rs, lambda c: c.insert_one({"_id": 1}))
        roles = [m["role"] for m in rs.status()["members"]]
        assert roles.count("PRIMARY") == 1
        assert roles.count("SECONDARY") == 2

    def test_replication_is_idempotent(self):
        rs = ShardReplicaSet("rs0", n_members=3)
        lagging = rs.members[1]
        rs.kill(lagging.name)
        write(rs, lambda c: c.insert_one({"_id": "a"}))
        assert rs.revive(lagging.name) == "delta"
        # Reviving a live member replays nothing a second time.
        assert rs.revive(lagging.name) == "delta"
        assert len(member_docs(lagging)) == 1


class TestSortLimitPushdown:
    def test_sorted_limited_find_merges_lazily(self):
        sc = make_sharded(n=4)
        for i in range(120):
            sc.insert_one({"mps_id": f"m{i}", "n": i})
        top = sc.find({}, sort=[("n", -1)], limit=5)
        assert [d["n"] for d in top] == [119, 118, 117, 116, 115]
        bottom = sc.find({}, sort=[("n", 1)], limit=3)
        assert [d["n"] for d in bottom] == [0, 1, 2]

    def test_global_sort_without_limit(self):
        sc = make_sharded(n=3)
        for i in range(50):
            sc.insert_one({"mps_id": f"m{i}", "n": 49 - i})
        out = sc.find({}, sort=[("n", 1)])
        assert [d["n"] for d in out] == list(range(50))

    def test_limit_without_sort_stops_early(self):
        sc = make_sharded(n=3)
        for i in range(60):
            sc.insert_one({"mps_id": f"m{i}"})
        assert len(sc.find({}, limit=7)) == 7

    def test_multi_key_sort_with_descending_component(self):
        sc = make_sharded(n=3)
        for i in range(30):
            sc.insert_one({"mps_id": f"m{i}", "g": i % 3, "n": i})
        out = sc.find({}, sort=[("g", 1), ("n", -1)])
        keys = [(d["g"], -d["n"]) for d in out]
        assert keys == sorted(keys)

    def test_unsorted_find_unchanged(self):
        sc = make_sharded(n=3)
        for i in range(20):
            sc.insert_one({"mps_id": f"m{i}"})
        assert len(sc.find({})) == 20


class TestImmutableShardKey:
    def test_set_on_shard_key_rejected(self):
        sc = make_sharded()
        sc.insert_one({"mps_id": "m1", "state": "old"})
        for bad in ({"$set": {"mps_id": "m2"}},
                    {"$inc": {"mps_id": 1}},
                    {"$set": {"mps_id.sub": 1}},
                    {"$unset": {"mps_id": ""}}):
            with pytest.raises(ShardingError):
                sc.update_many({"state": "old"}, bad)

    def test_replacement_update_rejected(self):
        sc = make_sharded()
        sc.insert_one({"mps_id": "m1"})
        with pytest.raises(ShardingError):
            sc.update_many({"mps_id": "m1"}, {"mps_id": "m2", "x": 1})
        assert sc.find_one({"mps_id": "m1"}) is not None

    def test_prefix_path_rejected_for_nested_key(self):
        sc = make_sharded(2, key="meta.id")
        sc.insert_one({"meta": {"id": "a"}})
        with pytest.raises(ShardingError):
            sc.update_many({}, {"$set": {"meta": {"id": "b"}}})

    def test_non_key_updates_still_apply(self):
        sc = make_sharded()
        sc.insert_one({"mps_id": "m1", "state": "old"})
        assert sc.update_many({"mps_id": "m1"}, {"$set": {"state": "new"}}) == 1
        assert sc.find_one({"mps_id": "m1"})["state"] == "new"


class TestElectionTerms:
    def test_step_down_bumps_term_and_records_ballot(self):
        rs = ShardReplicaSet("rs0", n_members=3)
        write(rs, lambda c: c.insert_many([{"_id": i} for i in range(5)]))
        winner = rs.step_down()
        assert rs.term == 1
        assert rs.elections == 1
        ballot = rs.voted_in[1]
        # Unanimous: the winner is as up to date as every voter.
        assert ballot == {m.name: winner for m in rs.members}
        assert rs.status()["term"] == 1

    def test_successive_elections_accumulate_terms(self):
        rs = ShardReplicaSet("rs0", n_members=3)
        rs.step_down()
        rs.step_down()
        assert rs.term == 2
        assert sorted(rs.voted_in) == [1, 2]
