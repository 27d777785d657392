"""Stateful test: one replica set against a dict-of-docs reference model.

Hypothesis drives a 3-member :class:`ShardReplicaSet` through inserts,
``$set``/``$inc`` updates, deletes, member kills and revivals, elections and
primary step-downs.  After every step each live member must hold exactly the
reference documents, and all live members must report the same applied
optime.  One rule floods the set with more writes than the revival write log
keeps, so the full-resync fallback runs as well as log replay.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.docstore.cluster import ShardReplicaSet, replica

DB, COLL = "mp", "tasks"

#: The write-log cap used while the machine runs: small enough that the
#: flood rule overruns it in a handful of writes.
SMALL_CAP = 8


def _alive(rs):
    return [m for m in rs.members if m.alive]


def _dead(rs):
    return [m for m in rs.members if not m.alive]


def _writable(machine):
    rs = machine.rs
    return rs.primary is not None and len(_alive(rs)) >= rs.majority


class ReplicaSetMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self._saved_cap = replica.WRITE_LOG_CAP
        replica.WRITE_LOG_CAP = SMALL_CAP
        self.rs = ShardReplicaSet("s0", n_members=3)
        self.ref = {}
        self.next_id = 0

    def teardown(self):
        replica.WRITE_LOG_CAP = self._saved_cap

    def _insert(self, n):
        doc = {"_id": self.next_id, "n": n, "tag": "new"}
        self.next_id += 1
        self.rs.write(DB, COLL, lambda c: c.insert_one(doc))
        self.ref[doc["_id"]] = dict(doc)

    # -- writes ---------------------------------------------------------

    @precondition(_writable)
    @rule(n=st.integers(-5, 5))
    def insert(self, n):
        self._insert(n)

    @precondition(_writable)
    @rule(floor=st.integers(-6, 6), tag=st.sampled_from(["a", "b", "c"]))
    def set_tag_where(self, floor, tag):
        query = {"n": {"$gte": floor}}
        update = {"$set": {"tag": tag}}
        self.rs.write(DB, COLL, lambda c: c.update_many(query, update))
        for doc in self.ref.values():
            if doc["n"] >= floor:
                doc["tag"] = tag

    @precondition(lambda self: _writable(self) and self.ref)
    @rule(pick=st.integers(0, 1_000), by=st.integers(-3, 3))
    def inc_one(self, pick, by):
        _id = sorted(self.ref)[pick % len(self.ref)]
        query, update = {"_id": _id}, {"$inc": {"n": by}}
        self.rs.write(DB, COLL, lambda c: c.update_one(query, update))
        self.ref[_id]["n"] += by

    @precondition(_writable)
    @rule(ceiling=st.integers(-6, 6))
    def delete_below(self, ceiling):
        query = {"n": {"$lt": ceiling}}
        self.rs.write(DB, COLL, lambda c: c.delete_many(query))
        self.ref = {k: d for k, d in self.ref.items() if d["n"] >= ceiling}

    # -- membership -----------------------------------------------------

    @precondition(lambda self: len(_alive(self.rs)) >= 2)
    @rule(pick=st.integers(0, 2))
    def kill(self, pick):
        alive = _alive(self.rs)
        self.rs.kill(alive[pick % len(alive)].name)

    @precondition(lambda self: _dead(self.rs))
    @rule(pick=st.integers(0, 2))
    def revive(self, pick):
        dead = _dead(self.rs)
        assert self.rs.revive(dead[pick % len(dead)].name) in ("delta",
                                                               "resync")

    @precondition(lambda self: _writable(self) and _dead(self.rs))
    @rule(pick=st.integers(0, 2))
    def flood_then_revive(self, pick):
        dead = _dead(self.rs)
        name = dead[pick % len(dead)].name
        for i in range(SMALL_CAP + 1):
            self._insert(i % 5)
        assert self.rs.revive(name) == "resync"

    @precondition(lambda self: self.rs.primary is None
                  and len(_alive(self.rs)) >= self.rs.majority)
    @rule()
    def elect(self):
        self.rs.elect()

    @precondition(_writable)
    @rule()
    def step_down(self):
        old = self.rs.primary.name
        assert self.rs.step_down() != old

    # -- invariants -----------------------------------------------------

    @invariant()
    def live_members_match_reference(self):
        for member in _alive(self.rs):
            docs = member.store[DB][COLL].all_documents()
            assert {d["_id"]: d for d in docs} == self.ref, member.name

    @invariant()
    def live_members_agree_on_optime(self):
        optimes = {m.applied_optime for m in _alive(self.rs)}
        assert len(optimes) == 1, optimes


TestReplicaSetMachine = ReplicaSetMachine.TestCase
TestReplicaSetMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
