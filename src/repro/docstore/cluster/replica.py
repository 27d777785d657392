"""Per-shard replica sets: majority-ack writes, elections, catch-up.

Each shard in a :class:`~repro.docstore.cluster.router.ShardedCluster` is a
:class:`ShardReplicaSet` — a small group of member nodes, each owning its own
:class:`~repro.docstore.database.DocumentStore`, with exactly one *primary*
at a time:

* **Writes** are serialized under the set lock, applied to the primary and
  synchronously to every alive secondary, and acknowledged only when a
  majority of the *configured* membership applied them.  Because any two
  majorities intersect, an acknowledged write survives the loss of any
  minority of members — the invariant the chaos failover test asserts.
* **Elections** follow the Raft shape the paper's MongoDB deployment relies
  on: a term counter, one vote per member per term, and the rule that a
  candidate must be at least as up to date (``applied_optime``) as each
  voter.  A majority of votes wins; anything less raises
  :class:`~repro.errors.ElectionFailed`.
* **Catch-up** of a revived member replays one write log.  While any
  member is dead, every acknowledged write is also appended to a capped log
  as ``(optime, db, coll, fn)``; revival re-runs the entries past the
  member's ``applied_optime`` on its store.  Only when the cap has dropped
  an entry the member needs does it fall back to a full resync from the
  current best member.

The :class:`HeartbeatMonitor` is the failure detector: a daemon thread that
notices a dead primary and triggers the election, so clients blocked in
``await_primary`` recover without operator action.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ...errors import ClusterError, ElectionFailed, NotPrimary
from ...obs import get_registry
from ..collection import Collection
from ..database import DocumentStore

__all__ = ["ClusterReplicaNode", "ShardReplicaSet", "HeartbeatMonitor"]

#: Writes the catch-up log keeps while a member is dead; a member that
#: missed more than this many is resynced in full on revival.
WRITE_LOG_CAP = 10_000


class ClusterReplicaNode:
    """One replica-set member: a name, a store, liveness, and an optime."""

    def __init__(self, name: str, store: Optional[DocumentStore] = None):
        self.name = name
        self.store = store if store is not None else DocumentStore()
        self.alive = True
        #: Sequence number of the last write this member applied.
        self.applied_optime = 0

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"ClusterReplicaNode({self.name}, {state}, optime={self.applied_optime})"


class ShardReplicaSet:
    """A shard's replica set: serialized majority-ack writes + elections."""

    def __init__(self, shard_id: str, n_members: int = 3,
                 store_factory: Optional[Callable[[], DocumentStore]] = None,
                 event_sink: Optional[Callable[[dict], None]] = None):
        if n_members < 1:
            raise ClusterError("a replica set needs at least one member")
        self.shard_id = shard_id
        self._lock = threading.RLock()
        self.members: List[ClusterReplicaNode] = [
            ClusterReplicaNode(
                f"{shard_id}-{chr(ord('a') + i)}",
                store_factory() if store_factory is not None else None,
            )
            for i in range(n_members)
        ]
        self.term = 0
        #: ``term -> {voter name: candidate name}`` — one vote per term.
        self.voted_in: Dict[int, Dict[str, str]] = {}
        self.elections = 0
        self.event_sink = event_sink or (lambda event: None)
        self._primary_idx = 0
        self._optime = 0
        #: ``(optime, db, coll, fn)`` of every write made while a member was
        #: dead; emptied once all members are alive again.
        self._log: Deque[Tuple[int, str, str, Callable[[Collection], Any]]] = (
            deque(maxlen=WRITE_LOG_CAP))

    # -- membership ---------------------------------------------------------

    @property
    def majority(self) -> int:
        return len(self.members) // 2 + 1

    def node(self, name: str) -> ClusterReplicaNode:
        for member in self.members:
            if member.name == name:
                return member
        raise ClusterError(f"no member {name!r} in replica set {self.shard_id!r}")

    @property
    def primary(self) -> Optional[ClusterReplicaNode]:
        """The current primary, or ``None`` if it is dead."""
        candidate = self.members[self._primary_idx]
        return candidate if candidate.alive else None

    def primary_name(self) -> Optional[str]:
        primary = self.primary
        return primary.name if primary is not None else None

    def _primary_or_raise(self) -> ClusterReplicaNode:
        primary = self.primary
        if primary is None:
            raise NotPrimary(
                f"shard {self.shard_id!r} has no live primary "
                f"(term {self.term})"
            )
        return primary

    # -- reads / writes -----------------------------------------------------

    def read(self, db_name: str, coll_name: str,
             fn: Callable[[Collection], Any]) -> Any:
        """Run a read against the primary (strong-consistency reads)."""
        primary = self._primary_or_raise()
        return fn(primary.store[db_name][coll_name])

    def write(self, db_name: str, coll_name: str,
              fn: Callable[[Collection], Any]) -> Any:
        """Apply a deterministic write with w:majority semantics.

        ``fn`` runs against the primary's collection first (its return value
        is the client's result), then against every alive secondary.  The
        caller must make ``fn`` deterministic — e.g. pre-assign ``_id``
        before the fan-out — so every member converges on the same state.
        A write the primary rejects leaves the optime where it was; while a
        member is dead, an accepted one is also logged for its revival.

        Raises :class:`NotPrimary` when the primary is dead and
        :class:`ClusterError` when fewer than a majority of configured
        members are alive to acknowledge.
        """
        with self._lock:
            primary = self._primary_or_raise()
            alive = [m for m in self.members if m.alive]
            if len(alive) < self.majority:
                raise ClusterError(
                    f"shard {self.shard_id!r}: only {len(alive)}/"
                    f"{len(self.members)} members alive; cannot satisfy "
                    "majority write concern"
                )
            result = fn(primary.store[db_name][coll_name])
            self._optime += 1
            for member in alive:
                if member is not primary:
                    fn(member.store[db_name][coll_name])
                member.applied_optime = self._optime
            if len(alive) < len(self.members):
                self._log.append((self._optime, db_name, coll_name, fn))
            return result

    def last_optime(self) -> int:
        return self._optime

    # -- failure injection --------------------------------------------------

    def kill(self, name: str) -> None:
        """Mark a member dead (logical kill; in-flight writes finish first)."""
        with self._lock:
            node = self.node(name)
            if not node.alive:
                return
            node.alive = False
            self.event_sink({"type": "member_killed", "shard": self.shard_id,
                             "member": name, "term": self.term})
            get_registry().counter(
                "repro_cluster_member_kills_total",
                "replica-set members marked dead",
            ).inc(1, shard=self.shard_id)

    def revive(self, name: str) -> str:
        """Bring a dead member back, catching it up before it serves.

        Returns ``"delta"`` when replaying the write log sufficed or
        ``"resync"`` when the log had already dropped a write the member
        missed, so a full copy from the best member was required.
        """
        with self._lock:
            node = self.node(name)
            if node.alive:
                return "delta"
            first = self._log[0][0] if self._log else self._optime + 1
            if first <= node.applied_optime + 1:
                mode = "delta"
                for optime, db_name, coll_name, fn in self._log:
                    if optime > node.applied_optime:
                        fn(node.store[db_name][coll_name])
            else:
                mode = "resync"
                source = self._best_alive()
                if source is None:
                    raise ClusterError(
                        f"shard {self.shard_id!r}: no live member to "
                        f"resync {name!r} from"
                    )
                self._full_resync(source, node)
            node.applied_optime = self._optime
            node.alive = True
            if all(m.alive for m in self.members):
                self._log.clear()
            self.event_sink({"type": "member_revived", "shard": self.shard_id,
                             "member": name, "mode": mode, "term": self.term})
            return mode

    def _best_alive(self) -> Optional[ClusterReplicaNode]:
        alive = [m for m in self.members if m.alive]
        if not alive:
            return None
        return max(alive, key=lambda m: m.applied_optime)

    @staticmethod
    def _full_resync(source: ClusterReplicaNode,
                     node: ClusterReplicaNode) -> None:
        for db_name in source.store.list_database_names():
            for coll_name in source.store[db_name].list_collection_names():
                src = source.store[db_name][coll_name]
                dst = node.store[db_name][coll_name]
                for doc in dst.all_documents():
                    dst.delete_one({"_id": doc["_id"]})
                for doc in src.all_documents():
                    dst.insert_one(doc)

    # -- elections ----------------------------------------------------------

    def elect(self, exclude: Optional[str] = None) -> str:
        """Run a primary election; returns the new primary's name.

        The candidate is the most up-to-date alive member (optionally
        excluding a stepping-down primary).  Every alive member casts at
        most one vote per term and only for a candidate whose
        ``applied_optime`` is >= its own; a majority of the *configured*
        membership must vote yes.
        """
        with self._lock:
            voters = [m for m in self.members if m.alive]
            candidates = [m for m in voters if m.name != exclude]
            self.term += 1
            ballot = self.voted_in.setdefault(self.term, {})
            if not candidates:
                raise ElectionFailed(
                    f"shard {self.shard_id!r}: no eligible candidate "
                    f"in term {self.term}"
                )
            candidate = max(candidates, key=lambda m: m.applied_optime)
            votes = 0
            for voter in voters:
                if voter.name in ballot:
                    continue
                if candidate.applied_optime >= voter.applied_optime:
                    ballot[voter.name] = candidate.name
                    votes += 1
            if votes < self.majority:
                raise ElectionFailed(
                    f"shard {self.shard_id!r}: candidate {candidate.name!r} "
                    f"got {votes}/{len(self.members)} votes in term "
                    f"{self.term}; majority is {self.majority}"
                )
            self._primary_idx = self.members.index(candidate)
            self.elections += 1
            self.event_sink({"type": "election", "shard": self.shard_id,
                             "primary": candidate.name, "term": self.term,
                             "votes": votes})
            get_registry().counter(
                "repro_cluster_elections_total",
                "replica-set primary elections won",
            ).inc(1, shard=self.shard_id)
            return candidate.name

    def step_down(self) -> str:
        """Demote the current primary and elect a successor.

        The stepping-down primary stays alive and still votes, mirroring
        ``replSetStepDown``.
        """
        with self._lock:
            old = self._primary_or_raise()
            return self.elect(exclude=old.name)

    def await_primary(self, timeout_s: float = 5.0,
                      poll_interval_s: float = 0.01) -> ClusterReplicaNode:
        """Block until a live primary exists, electing one if possible.

        Covers both deployments: with a :class:`HeartbeatMonitor` running
        the monitor performs the election and this just observes it; without
        one, the first blocked client triggers the election itself.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            primary = self.primary
            if primary is not None:
                return primary
            try:
                self.elect()
            except ElectionFailed:
                pass
            primary = self.primary
            if primary is not None:
                return primary
            if time.monotonic() >= deadline:
                raise NotPrimary(
                    f"shard {self.shard_id!r}: no primary within "
                    f"{timeout_s:.1f}s"
                )
            time.sleep(poll_interval_s)

    # -- introspection ------------------------------------------------------

    def status(self) -> dict:
        with self._lock:
            return {
                "shard": self.shard_id,
                "term": self.term,
                "primary": self.primary_name(),
                "elections": self.elections,
                "optime": self._optime,
                "members": [
                    {"name": m.name, "alive": m.alive,
                     "optime": m.applied_optime,
                     "lag": self._optime - m.applied_optime,
                     "role": ("PRIMARY" if self.primary is m else
                              "SECONDARY" if m.alive else "DOWN")}
                    for m in self.members
                ],
            }


class HeartbeatMonitor:
    """Failure detector: a daemon thread that elects around dead primaries."""

    def __init__(self, replica_sets: List[ShardReplicaSet],
                 interval_s: float = 0.05):
        self.replica_sets = list(replica_sets)
        self.interval_s = interval_s
        self.beats = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def add(self, replica_set: ShardReplicaSet) -> None:
        self.replica_sets.append(replica_set)

    def start(self) -> "HeartbeatMonitor":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(target=self._run,
                                        name="cluster-heartbeat", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def check_once(self) -> int:
        """One heartbeat sweep; returns how many elections it triggered."""
        triggered = 0
        for rs in self.replica_sets:
            if rs.primary is None:
                try:
                    rs.elect()
                    triggered += 1
                except ElectionFailed:
                    pass
        self.beats += 1
        return triggered

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.check_once()
