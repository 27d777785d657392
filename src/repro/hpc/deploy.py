"""Deploy the sharded datastore cluster as batch jobs on the HPC simulator.

PAPERS.md's "Deploying a sharded MongoDB cluster as a queued job on a shared
HPC architecture" describes exactly this operational mode: every database
process — each replica-set member of each shard — runs as an ordinary job in
the machine's batch queue, holding its cores for a *lease* and dying when
the lease ends or the scheduler's walltime limit kills it.  The database
must therefore survive its own members continuously churning through the
queue.

:class:`ClusterDeployment` maps a live
:class:`~repro.docstore.cluster.ShardedCluster` onto a
:class:`~repro.hpc.batch.BatchQueue`:

* one :class:`~repro.hpc.batch.BatchJob` per replica-set member, staggered
  within each shard so leases do not expire together;
* a job *starting* revives its member (write-log catch-up or full
  resync); a lease expiry or walltime kill marks the member dead and — when
  it was the primary — runs the election synchronously in simulated time;
* an advance reservation covers the fleet, reproducing §IV-A1's answer to
  per-user queue limits (a 12-member cluster would otherwise trip the
  default 8-job cap);
* a restart budget resubmits replacement jobs, so the deployment models a
  long-running service stitched out of finite batch allocations.

The :meth:`report` rolls up what operators care about: outages, elections,
restarts, and whether every shard ended with a live primary.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..errors import ElectionFailed, HPCError
from .batch import BatchJob, BatchQueue, Reservation

__all__ = ["ClusterDeployment", "deploy_cluster_scenario"]


class ClusterDeployment:
    """Run every replica-set member of ``cluster`` as a batch job."""

    def __init__(self, cluster: Any, queue: BatchQueue, user: str = "mp-ops",
                 cores_per_member: int = 2, walltime_request_s: float = 600.0,
                 lease_s: float = 480.0, stagger_s: float = 60.0,
                 max_restarts: int = 1, reserve: bool = True):
        if lease_s <= 0 or walltime_request_s <= 0:
            raise HPCError("lease and walltime must be positive")
        self.cluster = cluster
        self.queue = queue
        self.user = user
        self.cores_per_member = cores_per_member
        self.walltime_request_s = float(walltime_request_s)
        self.lease_s = float(lease_s)
        self.stagger_s = float(stagger_s)
        self.max_restarts = int(max_restarts)
        self.reserve = reserve
        self.jobs: Dict[str, List[BatchJob]] = {}
        self._restarts_left: Dict[str, int] = {}
        self.outages = 0
        self.elections = 0
        self.failed_elections = 0
        self.restarts = 0
        self.walltime_kills = 0

    # -- submission ---------------------------------------------------------

    def submit_all(self) -> List[BatchJob]:
        """Submit one job per member of every shard, staggered per shard."""
        if self.reserve:
            members = sum(len(s.rs.members)
                          for s in self.cluster.shards.values())
            horizon = (self.lease_s + self.stagger_s * 3) * (
                self.max_restarts + 2)
            self.queue.add_reservation(Reservation(
                self.user, self.queue.clock.now,
                self.queue.clock.now + horizon,
                members * self.cores_per_member,
            ))
        submitted: List[BatchJob] = []
        for shard in self.cluster.shards.values():
            for i, member in enumerate(shard.rs.members):
                self._restarts_left[member.name] = self.max_restarts
                submitted.append(self._submit_member(
                    shard.rs, member.name,
                    lease_s=self.lease_s + i * self.stagger_s))
        return submitted

    def _submit_member(self, rs: Any, member_name: str,
                       lease_s: Optional[float] = None) -> BatchJob:
        lease = self.lease_s if lease_s is None else lease_s

        def work(job: BatchJob) -> float:
            # The job just started: the member's process is up.
            node = rs.node(member_name)
            if not node.alive:
                rs.revive(member_name)
            # The member goes down when the lease ends — or earlier, when
            # the scheduler enforces the requested walltime.  A member on
            # its *final* lease (restart budget spent) stays up: the
            # simulation horizon ends inside that lease, so the report
            # captures a live fleet rather than the trivial all-dead state.
            if self._restarts_left.get(member_name, 0) > 0:
                up_for = min(lease, job.walltime_request_s)
                self.queue.clock.schedule_in(
                    up_for,
                    lambda: self._member_down(
                        rs, member_name,
                        killed=lease > job.walltime_request_s))
            return lease

        job = BatchJob(
            user=self.user, cores=self.cores_per_member,
            walltime_request_s=self.walltime_request_s, work=work,
            name=f"dbnode-{member_name}",
        )
        self.jobs.setdefault(member_name, []).append(job)
        self.queue.submit(job)
        return job

    # -- lease lifecycle ----------------------------------------------------

    def _member_down(self, rs: Any, member_name: str, killed: bool) -> None:
        was_primary = rs.primary_name() == member_name
        node = rs.node(member_name)
        if node.alive:
            rs.kill(member_name)
            self.outages += 1
            if killed:
                self.walltime_kills += 1
        if was_primary:
            # Surviving members elect in simulated time — the failover the
            # chaos lane exercises with real threads, replayed here
            # deterministically under the batch scheduler's clock.
            try:
                rs.elect()
                self.elections += 1
            except ElectionFailed:
                self.failed_elections += 1
        if self._restarts_left.get(member_name, 0) > 0:
            self._restarts_left[member_name] -= 1
            self.restarts += 1
            self._submit_member(rs, member_name)

    # -- driving ------------------------------------------------------------

    def run_until_idle(self) -> None:
        self.queue.run_until_idle()

    def report(self) -> dict:
        primaries = {sid: shard.rs.primary_name()
                     for sid, shard in sorted(self.cluster.shards.items())}
        job_states: Dict[str, List[str]] = {
            name: [j.state for j in jobs]
            for name, jobs in sorted(self.jobs.items())
        }
        return {
            "members": len(self.jobs),
            "outages": self.outages,
            "elections": self.elections,
            "failed_elections": self.failed_elections,
            "restarts": self.restarts,
            "walltime_kills": self.walltime_kills,
            "primaries": primaries,
            "all_shards_have_primary": all(
                p is not None for p in primaries.values()),
            "jobs": job_states,
            "queue": self.queue.stats(),
        }


def deploy_cluster_scenario(n_shards: int = 2, n_replicas: int = 3,
                            n_compute: int = 4,
                            lease_s: float = 480.0,
                            walltime_request_s: float = 600.0,
                            max_restarts: int = 1) -> dict:
    """End-to-end demo: build a cluster, deploy it to the batch queue, churn.

    Returns the deployment :meth:`~ClusterDeployment.report` augmented with
    the cluster's own status — the document the tour and the HPC tests
    assert on.
    """
    from ..docstore.cluster import ShardedCluster
    from .cluster import Cluster
    from .simclock import SimClock

    clock = SimClock()
    hpc = Cluster.build(n_compute=n_compute)
    queue = BatchQueue(hpc, clock=clock)
    cluster = ShardedCluster(n_replicas=n_replicas)
    for i in range(n_shards):
        cluster.add_shard(f"s{i}")
    coll = cluster.shard_collection("mp.materials", "material_id",
                                   strategy="hashed")
    for i in range(32):
        coll.insert_one({"material_id": f"mp-{i}", "nelements": 1 + i % 4})
    deployment = ClusterDeployment(
        cluster, queue, lease_s=lease_s,
        walltime_request_s=walltime_request_s, max_restarts=max_restarts,
    )
    deployment.submit_all()
    deployment.run_until_idle()
    report = deployment.report()
    report["docs_surviving"] = coll.count_documents({})
    report["cluster"] = cluster.sharding_stats()
    return report
