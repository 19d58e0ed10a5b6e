"""Active replication (§7 comparison point).

The paper rejects active replication for cloud deployments because it
"doubles the number of required VMs"; this module implements it so the
trade-off can be measured instead of asserted.  Every *stateful* worker
operator gets a dedicated replica on its own VM:

* upstream dispatchers tee every tuple to the replica, which processes it
  and maintains state but suppresses all emissions;
* on primary failure, the replica is promoted: routing is re-pointed at
  it and upstream buffers are replayed (its duplicate filter drops almost
  everything — it was current), so recovery is detection-time plus
  epsilon, with no state transfer;
* after a promotion, a fresh replica is stood up from a snapshot of the
  new primary, restoring the 2× footprint.

Results stay exact for timer-emitting (windowed) operators: pre-failover
flushes were emitted by the primary, post-failover flushes come from the
promoted replica's complete state, and the sink collects windows
idempotently.  Stateless operators are not replicated (they recover
trivially); dynamic scale out is not combined with replication here, as
in the paper's framing of the two as alternative architectures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.checkpoint import Checkpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.instance import OperatorInstance
    from repro.runtime.system import StreamProcessingSystem


class ActiveReplicationManager:
    """Creates replicas at deploy time and promotes them on failure."""

    def __init__(self, system: "StreamProcessingSystem") -> None:
        self.system = system
        #: primary slot uid → replica instance.
        self.replicas: dict[int, "OperatorInstance"] = {}
        self.promotions = 0

    # ------------------------------------------------------------ creation

    def replicate_all(self) -> None:
        """Stand up a replica for every stateful worker instance."""
        for instance in list(self.system.worker_instances()):
            if instance.operator.stateful:
                self.create_replica(instance)

    def create_replica(
        self, primary: "OperatorInstance", state_from: Checkpoint | None = None
    ) -> "OperatorInstance":
        """Provision a VM and build a suppressed replica of ``primary``."""
        system = self.system
        vm = system.provider.provision_immediately()
        slot = system.query_manager.new_slot(primary.op_name, primary.slot.index)
        query = system.query_manager.query
        assert query is not None
        from repro.runtime.instance import OperatorInstance

        replica = OperatorInstance(
            system,
            primary.operator,
            slot,
            vm,
            downstream_names=query.downstream_of(primary.op_name),
            buffered_downstreams=set(),
        )
        replica.is_replica = True
        system.deployment.wire_routing(replica)
        replica.start_timers()
        if state_from is not None:
            replica.restore_from(state_from)
        self.replicas[primary.uid] = replica
        system.record_vm_count()
        return replica

    def replica_of(self, primary_uid: int) -> "OperatorInstance | None":
        """The live replica for a primary slot, if any."""
        replica = self.replicas.get(primary_uid)
        if replica is not None and replica.alive and replica.vm.alive:
            return replica
        return None

    # ----------------------------------------------------------- promotion

    def promote(
        self,
        failed: "OperatorInstance",
        failure_time: float,
        on_complete: Callable[[float], None] | None = None,
    ) -> bool:
        """Fail over to the replica of ``failed``; returns success."""
        system = self.system
        qm = system.query_manager
        replica = self.replica_of(failed.uid)
        self.replicas.pop(failed.uid, None)
        if replica is None:
            system.metrics.mark_event(
                system.sim.now, "unrecoverable", f"{failed.slot!r}: replica lost"
            )
            return False
        self.promotions += 1
        system.metrics.mark_event(
            system.sim.now, "recovery_started", f"AR promote {replica.slot!r}"
        )
        qm.replace_slots(failed.op_name, [failed.slot], [replica.slot])
        routing = qm.routing_to(failed.op_name).reassign(failed.uid, replica.uid)
        qm.store_routing(failed.op_name, routing)
        system.instances.pop(failed.uid, None)
        system.instances[replica.uid] = replica
        replica.is_replica = False  # starts emitting from here on

        # The replica is current, so the upstreams need not stop.
        assert system.reconfig is not None
        upstreams = system.reconfig._reroute(failed.op_name, routing, pause=False)
        # Replay anything the replica may have missed (it was teed all
        # traffic, so nearly everything is dropped as already-seen).
        from repro.runtime.instance import REPLAY_DEDUP, REPLAY_DROP

        replica.replay_mode = REPLAY_DEDUP
        replica._replay_dedup_floor = dict(replica.state.positions)
        sent = 0
        floor = dict(replica.state.positions)
        for upstream in upstreams:
            sent += upstream.replay_buffer_to(
                replica.uid, flag_replay=True, after_positions=floor
            )

        def finish() -> None:
            replica.replay_mode = REPLAY_DROP
            duration = system.sim.now - failure_time
            system.metrics.mark_event(
                system.sim.now,
                "recovery_complete",
                f"AR {replica.slot!r} {duration:.3f}s",
            )
            system.metrics.timeseries("recovery_time").record(
                system.sim.now, duration
            )
            if on_complete is not None:
                on_complete(duration)
            # Restore the 2x footprint: a fresh replica from a snapshot of
            # the promoted primary.
            self._rearm(replica)

        replica.expect_replays(sent, finish, flagged_only=True)
        system.record_vm_count()
        return True

    def _rearm(self, primary: "OperatorInstance") -> None:
        system = self.system
        snapshot = Checkpoint(
            op_name=primary.op_name,
            slot_uid=-1,
            state=primary.state.snapshot(),
            buffers={},
            taken_at=system.sim.now,
            seq=0,
        )
        replica = self.create_replica(primary, state_from=None)
        snapshot.slot_uid = replica.slot.uid
        # Ship the snapshot over the network before applying it.
        cfg = system.config.checkpoint
        size = snapshot.size_bytes(cfg.bytes_per_entry, cfg.bytes_per_tuple)
        system.network.send(
            primary.vm,
            replica.vm,
            size,
            replica.restore_from,
            snapshot,
            kind="control",
        )

    # ------------------------------------------------------------- metrics

    def replica_vm_count(self) -> int:
        """Number of live replica VMs currently allocated."""
        return sum(
            1 for replica in self.replicas.values() if replica.vm.alive
        )
