"""The stream processing system facade (Fig. 4 of the paper).

:class:`StreamProcessingSystem` assembles every component: the simulated
cloud (provider, pool, network, failure injection), the query and
deployment managers, the per-VM backup stores, the bottleneck detector +
scale-out coordinator and the failure detector + recovery coordinator.
It is the single object experiments interact with::

    sps = StreamProcessingSystem(SystemConfig())
    sps.deploy(query, generators={"src": generator})
    sps.run(until=120.0)
"""

from __future__ import annotations

from typing import Any

from repro.config import (
    CHECKPOINT_MODE_BARRIER,
    DETECTOR_PHI,
    STRATEGY_ACTIVE_REPLICATION,
    STRATEGY_NONE,
    STRATEGY_RSM,
    SystemConfig,
)
from repro.core.checkpoint import (
    BackupStore,
    Checkpoint,
    Checkpointer,
    EpochCut,
    as_checkpoint,
)
from repro.core.query import QueryGraph
from repro.core.spill import ExternalStateStore
from repro.errors import DeploymentError, RuntimeStateError
from repro.obs.log import config_fingerprint
from repro.obs.telemetry import Telemetry
from repro.runtime.deployment import DeploymentManager
from repro.runtime.instance import OperatorInstance
from repro.runtime.query_manager import QueryManager
from repro.runtime.source import SourceController, WorkloadGenerator
from repro.sim.cloud import CloudProvider, VMPool
from repro.sim.failure import FailureInjector
from repro.sim.metrics import MetricsHub
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.simulator import PRIORITY_CONTROL, Simulator
from repro.sim.vm import VirtualMachine


class StreamProcessingSystem:
    """A complete, simulated deployment of the paper's SPS."""

    def __init__(self, config: SystemConfig | None = None) -> None:
        self.config = config or SystemConfig()
        self.config.validate()
        self.sim = Simulator()
        self.rng = RngRegistry(self.config.seed)
        self.metrics = MetricsHub()
        #: The observability facade: wraps the metrics hub, mirrors
        #: every event into a structured JSONL log stamped with the run's
        #: seed and config fingerprint, and traces causally linked spans
        #: across the hot seams (engine phases, checkpoints, transfers).
        self.telemetry = Telemetry(
            hub=self.metrics,
            clock=lambda: self.sim.now,
            run_meta={
                "seed": self.config.seed,
                "config_hash": config_fingerprint(self.config),
            },
        )
        self.network = Network(
            self.sim,
            latency=self.config.network.latency,
            bandwidth_bytes_per_s=self.config.network.bandwidth_bytes_per_s,
        )
        self.telemetry.observe_network(self.network)
        self.provider = CloudProvider(
            self.sim,
            provisioning_delay=self.config.cloud.provisioning_delay,
            cpu_capacity=self.config.cloud.worker_capacity,
        )
        self.pool = VMPool(
            self.sim,
            self.provider,
            size=self.config.cloud.pool_size,
            handout_delay=self.config.cloud.pool_handout_delay,
        )
        self.injector = FailureInjector(self.sim)
        #: Run-wide external state store (§3.3 persist): written through
        #: by external-backend operators at every checkpoint cut.  Unlike
        #: the per-VM backup stores it survives every VM failure, so it
        #: is the recovery source of last resort.
        backend_cfg = self.config.state_backend
        self.external_store = ExternalStateStore(
            write_seconds_per_entry=backend_cfg.write_seconds_per_entry,
            write_cost=lambda s: self.metrics.increment("external_write_io", s),
            read_seconds_per_entry=backend_cfg.read_seconds_per_entry,
            read_cost=lambda s: self.metrics.increment("external_read_io", s),
        )
        self.query_manager = QueryManager()
        self.deployment = DeploymentManager(self)
        self.instances: dict[int, OperatorInstance] = {}
        self.source_controllers: dict[str, SourceController] = {}
        #: Backup stores by VM id (a store dies with its VM).
        self.backup_stores: dict[int, BackupStore] = {}
        #: Where each slot's most recent backup lives (backup(o)).
        self.backup_locations: dict[int, VirtualMachine] = {}
        #: Slots whose upstream buffers must not be trimmed right now
        #: (a scale-out/recovery is pinned to one of their checkpoints).
        self.trim_locks: set[int] = set()
        #: Fencing epoch per slot uid (absent = 0).  Bumped by
        #: :meth:`fence_slot` whenever a recovery installs a replacement
        #: for an instance believed dead; every data/control emission is
        #: stamped with its sender's epoch, and receivers reject stamps
        #: below the slot's current epoch — a falsely-declared-dead
        #: zombie can therefore never clobber its successor's output.
        self.slot_epochs: dict[int, int] = {}
        #: Committed-prefix floor per fenced (slot, epoch): the restored
        #: checkpoint's output clock at the moment that epoch's timeline
        #: was condemned (see :meth:`fence_floor`).
        self.fence_floors: dict[tuple[int, int], int] = {}
        # Control-plane components, created at deploy time.
        self.detector = None
        #: Message-based phi failure detector (``fault.detector="phi"``).
        self.phi_detector = None
        #: The phase-driven engine every topology change runs through.
        self.reconfig = None
        self.scale_out = None
        self.scale_in = None
        self.recovery = None
        #: Active-replication manager (set when the strategy is active).
        self.replication = None
        #: The single checkpoint-coordination seam: every cut (phase or
        #: barrier epoch) and every recovery's backup selection routes
        #: through it.
        self.checkpointer = Checkpointer(self)
        self._barrier_task = None
        self._deployed = False

    # ------------------------------------------------------------ lifecycle

    def deploy(
        self,
        query: QueryGraph,
        parallelism: dict[str, int] | None = None,
        generators: dict[str, WorkloadGenerator] | None = None,
    ) -> None:
        """Deploy a query and start all control-plane services."""
        if self._deployed:
            raise DeploymentError("system already has a deployed query")
        self.deployment.deploy_query(query, parallelism, generators)
        self._deployed = True

        from repro.fault.recovery import RecoveryCoordinator
        from repro.scaling.coordinator import ScaleOutCoordinator
        from repro.scaling.detector import BottleneckDetector
        from repro.scaling.reconfig import ReconfigurationEngine
        from repro.scaling.scale_in import ScaleInCoordinator

        self.reconfig = ReconfigurationEngine(self)
        self.telemetry.observe_engine(self.reconfig)
        self.scale_out = ScaleOutCoordinator(self)
        self.scale_in = ScaleInCoordinator(self)
        self.recovery = RecoveryCoordinator(self)
        if self.config.fault.strategy == STRATEGY_ACTIVE_REPLICATION:
            from repro.fault.active import ActiveReplicationManager

            self.replication = ActiveReplicationManager(self)
            self.replication.replicate_all()
        if self.config.scaling.enabled:
            self.detector = BottleneckDetector(self)
            self.detector.start()
        if self.config.fault.detector == DETECTOR_PHI:
            from repro.fault.detector import PhiFailureDetector

            self.phi_detector = PhiFailureDetector(self)
            self.phi_detector.start()
        ckpt_cfg = self.config.checkpoint
        if (
            ckpt_cfg.mode == CHECKPOINT_MODE_BARRIER
            and self.config.fault.strategy == STRATEGY_RSM
        ):
            # Barrier mode replaces the per-instance checkpoint daemons
            # with one epoch driver: every ``interval`` seconds the
            # Checkpointer opens an epoch and the sources stamp it into
            # their streams.
            self._barrier_task = self.sim.every(
                ckpt_cfg.interval,
                self.checkpointer.start_epoch,
                start_after=ckpt_cfg.interval,
            )

    def run(self, until: float) -> None:
        """Advance simulated time to ``until``."""
        self.sim.run(until=until)

    # -------------------------------------------------------------- lookups

    def instance(self, uid: int) -> OperatorInstance | None:
        """The instance registered for a slot uid (any status)."""
        return self.instances.get(uid)

    def live_instance(self, uid: int) -> OperatorInstance | None:
        """The instance for a slot uid if alive on a live VM."""
        instance = self.instances.get(uid)
        if instance is not None and instance.alive and instance.vm.alive:
            return instance
        return None

    def live_upstreams(self, op_name: str) -> list[OperatorInstance]:
        """Live instances of every operator feeding ``op_name``, in query
        then partition order."""
        qm = self.query_manager
        return [
            upstream
            for up_name in qm.upstream_of(op_name)
            for slot in qm.slots_of(up_name)
            if (upstream := self.live_instance(slot.uid)) is not None
        ]

    def instances_of(self, op_name: str) -> list[OperatorInstance]:
        """Live instances realising ``op_name``, in partition order."""
        result = []
        for slot in self.query_manager.slots_of(op_name):
            instance = self.instances.get(slot.uid)
            if instance is not None:
                result.append(instance)
        return result

    def vm_of(self, op_name: str, partition: int = 0) -> VirtualMachine:
        """The VM hosting one partition (failure-injection helper)."""
        slots = self.query_manager.slots_of(op_name)
        if partition >= len(slots):
            raise RuntimeStateError(
                f"{op_name} has {len(slots)} partitions, no index {partition}"
            )
        instance = self.instances[slots[partition].uid]
        return instance.vm

    # ------------------------------------------------------------- fencing

    def epoch_of(self, slot_uid: int) -> int:
        """The current fencing epoch of a slot (0 until first fenced)."""
        return self.slot_epochs.get(slot_uid, 0)

    def fence_floor(self, slot_uid: int, epoch: int) -> int:
        """The committed-prefix floor recorded when ``epoch`` was fenced.

        Output timestamps at or below the floor were covered by the
        checkpoint the successor restored from: the successor's clock
        starts *above* them and never re-derives them, so a stale-epoch
        delivery inside the floor is the sole copy of a committed tuple
        (accepted late, deduplicated), while anything above the floor is
        the condemned timeline the successor re-emits (rejected).
        """
        return self.fence_floors.get((slot_uid, epoch), 0)

    def fence_slot(self, slot_uid: int, floor: int = 0) -> int:
        """Bump a slot's epoch ahead of installing a replacement.

        Called by the reconfiguration engine at recovery-install sites
        only — graceful retirements (scale out of a live operator,
        merges, fluid hand-offs) must *not* fence, because their
        suppression semantics assume the old instance's in-flight
        emissions still deliver.  The external store's write floor moves
        with the epoch, so a zombie's write-through flushes are rejected
        even if they are already on the (simulated) wire.

        ``floor`` is the restored checkpoint's output clock: the fenced
        timeline's emissions at or below it are committed (the
        checkpoint acknowledged them and upstream buffers were trimmed,
        so nothing will ever re-derive them) and receivers keep
        accepting them even under the stale epoch; rebuild-based
        recoveries pass 0 because they re-emit everything from a zeroed
        clock under a fresh slot uid.
        """
        old_epoch = self.epoch_of(slot_uid)
        epoch = old_epoch + 1
        self.slot_epochs[slot_uid] = epoch
        self.fence_floors[(slot_uid, old_epoch)] = floor
        old = self.instances.get(slot_uid)
        if old is not None:
            self.external_store.fence(old.op_name, slot_uid, epoch)
        self.telemetry.event(
            "slot_fenced",
            old.op_name if old is not None else "",
            slot=slot_uid,
            epoch=epoch,
        )
        return epoch

    def notify_fenced(
        self, zombie: OperatorInstance, via_vm: VirtualMachine | None = None
    ) -> None:
        """Tell a superseded instance its slot was re-epoched.

        The notice rides the network as a control message from
        ``via_vm`` (the successor's VM, or the detector's monitor VM),
        so a zombie on the far side of a partition learns of its
        replacement only once the partition heals — until then the
        epoch stamps on its output keep it harmless.
        """
        if not zombie.alive or not zombie.vm.alive:
            return
        epoch = self.epoch_of(zombie.uid)
        if zombie.epoch >= epoch:
            return
        src = via_vm if via_vm is not None and via_vm.alive else None
        self.network.send(
            src,
            zombie.vm,
            self.config.fault.heartbeat_bytes,
            zombie.on_fence_notice,
            epoch,
            kind="control",
        )

    def worker_instances(self) -> list[OperatorInstance]:
        """All live non-source/sink instances."""
        return [
            inst
            for inst in self.instances.values()
            if inst.alive and not inst.is_source and not inst.is_sink
        ]

    def worker_vm_count(self) -> int:
        """Number of live worker VMs."""
        return len(self.worker_instances())

    def record_vm_count(self) -> None:
        """Sample the VM-count time series."""
        now = self.sim.now
        self.metrics.timeseries("vms:workers").record(now, self.worker_vm_count())
        self.metrics.timeseries("vms:billed").record(
            now, self.provider.vm_count_allocated()
        )

    # ------------------------------------------------------------- backups

    def backup_checkpoint(self, instance: OperatorInstance, ckpt: Checkpoint) -> None:
        """backup-state(o): ship a checkpoint to the chosen upstream VM."""
        target = self.choose_backup_vm(instance)
        if target is None:
            return
        cfg = self.config.checkpoint
        size = ckpt.size_bytes(cfg.bytes_per_entry, cfg.bytes_per_tuple)
        # The span rides along the simulated message and is closed on
        # arrival in _store_backup — the checkpoint's network hop is the
        # causal link between the owner VM and the backup VM.
        span = self.telemetry.start_span(
            f"checkpoint.backup:{instance.op_name}",
            kind="checkpoint",
            slot=instance.uid,
            op=instance.op_name,
            seq=ckpt.seq,
            bytes=size,
            incremental=ckpt.incremental,
            src_vm=instance.vm.vm_id,
            dst_vm=target.vm_id,
        )
        self.network.send(
            instance.vm,
            target,
            size,
            self._store_backup,
            ckpt,
            target,
            span,
            instance.epoch,
            kind="control",
        )

    def choose_backup_vm(self, instance: OperatorInstance) -> VirtualMachine | None:
        """Pick backup(o) among upstream VMs: hash(id(o)) mod |up(o)|."""
        candidates = self.live_upstreams(instance.op_name)
        if not candidates:
            return None
        candidates.sort(key=lambda inst: inst.uid)
        return candidates[instance.uid % len(candidates)].vm

    def store_backup_sync(
        self, ckpt: "Checkpoint | EpochCut", target: VirtualMachine
    ) -> None:
        """Store a backup without a network hop (control-plane commit).

        Fluid chunk commits use this: the instant routing points a key
        range at a target partition, that partition must be recoverable
        (Algorithm 2, line 8 — the scale out itself is fault tolerant);
        a backup still on the wire would leave a window where committed
        chunks die with the target VM.  Accepts the raw payload or an
        :class:`EpochCut` descriptor.
        """
        self._store_backup(as_checkpoint(ckpt), target)

    def _store_backup(
        self,
        ckpt: Checkpoint,
        target: VirtualMachine,
        span=None,
        epoch: int | None = None,
    ) -> None:
        if span is not None:
            self.telemetry.end_span(span)
            # Registered under the slot uid: a later recovery restoring
            # from this backup can name the shipment as a causal parent.
            self.telemetry.tracer.link(("backup", ckpt.slot_uid), span)
        if epoch is not None and epoch < self.epoch_of(ckpt.slot_uid):
            # A zombie's checkpoint caught mid-flight by a fence: its seq
            # may exceed the successor's (both continued from one base),
            # so the epoch check must come before the staleness check —
            # accepting it would overwrite the successor's backup with
            # state from a condemned timeline.
            self.metrics.increment("checkpoints_fenced_dropped")
            return
        current = self.backup_of(ckpt.slot_uid)
        if current is not None and current.seq >= ckpt.seq:
            # A newer backup already landed — e.g. a fluid chunk commit
            # stored synchronously while this shipment was on the wire.
            # Storing the stale one would fail, and moving the location
            # to it would orphan the newer state.
            self.metrics.increment("checkpoints_stale_dropped")
            return
        store = self.backup_stores.setdefault(target.vm_id, BackupStore())
        if ckpt.incremental:
            ckpt = self._materialize_delta(ckpt, store)
            if ckpt is None:
                return
        store.store(ckpt)
        previous = self.backup_locations.get(ckpt.slot_uid)
        if previous is not None and previous.vm_id != target.vm_id:
            old_store = self.backup_stores.get(previous.vm_id)
            if old_store is not None:
                old_store.delete(ckpt.slot_uid)
        self.backup_locations[ckpt.slot_uid] = target
        self.metrics.increment("checkpoints_stored")
        # Output buffers upstream of the checkpointed operator can now be
        # trimmed up to the τ vector (Algorithm 1, line 4) — unless a
        # scale-out/recovery holds a trim lock because it is pinned to an
        # earlier checkpoint of this slot.
        if ckpt.slot_uid in self.trim_locks:
            return
        for up_uid, ts in ckpt.positions.items():
            upstream = self.live_instance(up_uid)
            if upstream is not None:
                upstream.trim_buffer_to(ckpt.slot_uid, ts)

    def _materialize_delta(
        self, delta: Checkpoint, store: BackupStore
    ) -> Checkpoint | None:
        """Apply an incremental checkpoint onto its stored base.

        When the base is missing (first delta after the backup moved to a
        different VM, or the base VM died) the owner is told to take a
        full checkpoint next time and the delta is discarded.
        """
        from repro.core.checkpoint import materialize_increment

        base = store.retrieve(delta.slot_uid) if store.has(delta.slot_uid) else None
        if base is not None and not base.incremental and base.seq == delta.base_seq:
            return materialize_increment(base, delta)
        self.metrics.increment("incremental_base_missing")
        owner = self.live_instance(delta.slot_uid)
        if owner is not None:
            owner.force_full_checkpoint()
        return None

    def backup_of(self, slot_uid: int) -> Checkpoint | None:
        """The most recent surviving backup for a slot, if any."""
        vm = self.backup_locations.get(slot_uid)
        if vm is None or not vm.alive:
            return None
        store = self.backup_stores.get(vm.vm_id)
        if store is None or not store.has(slot_uid):
            return None
        return store.retrieve(slot_uid)

    def drop_backup(self, slot_uid: int) -> None:
        """delete-backup for a slot that no longer exists."""
        vm = self.backup_locations.pop(slot_uid, None)
        if vm is None:
            return
        store = self.backup_stores.get(vm.vm_id)
        if store is not None:
            store.delete(slot_uid)

    # -------------------------------------------------------------- failure

    def notify_instance_failed(self, instance: OperatorInstance) -> None:
        """Called by an instance when its VM crashes."""
        now = self.sim.now
        self.telemetry.record_failure(
            instance.uid, instance.op_name, instance.vm.vm_id
        )
        self.metrics.mark_event(
            now, "failure", repr(instance.slot), slot=instance.uid
        )
        self.record_vm_count()
        # The dead VM's edges will never carry another message (recovery
        # lands on a fresh VM); drop their in-order release clocks.
        self.network.prune_edges(instance.vm.vm_id)
        if self.config.flow.enabled:
            # Credits held by the dead receiver can never be granted
            # back: every live sender forgets that edge's account so it
            # cannot wedge against a grant that will never arrive.
            for other in self.instances.values():
                if other is not instance and other.alive:
                    other.release_credits_for(instance.uid)
        self._handle_lost_backups(instance.vm)
        # Barrier mode: the dead slot can never report its cut, so every
        # in-flight epoch aborts and parked tuples release (no-op in
        # phase mode, which keeps no epochs in flight).
        self.checkpointer.on_instance_failed(instance)
        if self.recovery is None or self.config.fault.strategy == STRATEGY_NONE:
            return
        if self.phi_detector is not None:
            # Message-based detection: the crash is observed only through
            # missing heartbeats — no omniscient constant-delay oracle.
            return
        self.sim.schedule(
            self.config.fault.detection_delay,
            self.recovery.on_failure_detected,
            instance,
            priority=PRIORITY_CONTROL,
        )

    def _handle_lost_backups(self, vm: VirtualMachine) -> None:
        """Backups stored on a crashed VM are gone; owners re-checkpoint."""
        store = self.backup_stores.pop(vm.vm_id, None)
        if store is None:
            return
        for owner_uid in store.owners():
            located = self.backup_locations.get(owner_uid)
            if located is not None and located.vm_id == vm.vm_id:
                del self.backup_locations[owner_uid]
            owner = self.live_instance(owner_uid)
            if owner is not None:
                # Re-establish a backup as soon as possible.
                self.sim.schedule(
                    0.05, owner.take_checkpoint, priority=PRIORITY_CONTROL
                )

    def retire_backup_store(self, vm: VirtualMachine) -> None:
        """A VM is leaving service gracefully (its operator was replaced).

        Backups it held must move: live owners re-checkpoint immediately,
        and in-flight scale-outs that were partitioning state on this VM
        abort (and retry through the normal policy/recovery paths).
        Unlike a crash, the retiring VM's bytes are still intact — so a
        backup whose owner is *dead* is relocated to a surviving VM
        instead of discarded.  That backup is the slot's sole recovery
        source (a dead owner cannot re-checkpoint), and the retirement
        may well be the side effect of a concurrent false-positive
        recovery fencing a healthy zombie: dropping it would leave the
        genuinely failed slot permanently unrecoverable.
        """
        if self.reconfig is not None:
            self.reconfig.abort_operations_on_backup_vm(vm)
        store = self.backup_stores.pop(vm.vm_id, None)
        if store is None:
            return
        for owner_uid in store.owners():
            located = self.backup_locations.get(owner_uid)
            if located is not None and located.vm_id == vm.vm_id:
                del self.backup_locations[owner_uid]
            owner = self.live_instance(owner_uid)
            if owner is not None:
                # Re-establish a backup as soon as possible.
                self.sim.schedule(
                    0.05, owner.take_checkpoint, priority=PRIORITY_CONTROL
                )
            else:
                self._relocate_backup(vm, store.retrieve(owner_uid))

    def _relocate_backup(self, source: VirtualMachine, ckpt: Checkpoint) -> None:
        """Ship a dead owner's backup off a retiring VM before it goes.

        The target follows the normal backup placement for the owner's
        slot when possible, else any surviving worker VM.  The shipment
        is a real network transfer stamped with the slot's current
        epoch, so a fence racing the relocation drops it like any other
        stale checkpoint.
        """
        owner = self.instances.get(ckpt.slot_uid)
        target = self.choose_backup_vm(owner) if owner is not None else None
        if target is None or not target.alive or target.vm_id == source.vm_id:
            hosts = {
                inst.vm.vm_id: inst.vm
                for inst in self.instances.values()
                if inst.alive
                and inst.vm.alive
                and inst.vm.vm_id != source.vm_id
            }
            target = hosts[min(hosts)] if hosts else None
        if target is None:
            self.metrics.increment("backups_stranded_on_retirement")
            return
        cfg = self.config.checkpoint
        size = ckpt.size_bytes(cfg.bytes_per_entry, cfg.bytes_per_tuple)
        self.metrics.increment("backups_relocated")
        self.telemetry.event(
            "backup_relocated",
            f"slot {ckpt.slot_uid} seq {ckpt.seq}: "
            f"vm {source.vm_id} -> vm {target.vm_id}",
            slot=ckpt.slot_uid,
            src_vm=source.vm_id,
            dst_vm=target.vm_id,
        )
        self.network.send(
            source,
            target,
            size,
            self._store_backup,
            ckpt,
            target,
            None,
            self.epoch_of(ckpt.slot_uid),
            kind="control",
        )

    # -------------------------------------------------------------- results

    def counter(self, name: str) -> float:
        """Read one metrics counter."""
        return self.metrics.counter(name)

    def summary(self) -> dict[str, Any]:
        """A quick run summary used by examples and smoke tests."""
        parallelism = {
            name: self.query_manager.parallelism_of(name)
            for name in (self.query_manager.query.operators if self.query_manager.query else {})
        }
        return {
            "time": self.sim.now,
            "worker_vms": self.worker_vm_count(),
            "billed_vms": self.provider.vm_count_allocated(),
            "parallelism": parallelism,
            "checkpoints_stored": self.counter("checkpoints_stored"),
            "scale_outs": len(self.metrics.events_of_kind("scale_out")),
            "failures": len(self.metrics.events_of_kind("failure")),
            "recoveries": len(self.metrics.events_of_kind("recovery_complete")),
        }
