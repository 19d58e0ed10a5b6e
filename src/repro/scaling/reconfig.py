"""The phase-driven reconfiguration engine.

The paper's central claim is that scale out and failure recovery are *the
same mechanism* built on the shared state-management primitives
(Algorithms 1-3): recovery is "scale out of a failed operator".  This
module is that mechanism.  Every topology change — scale out of a
bottleneck, scale in of an under-utilised pair, serial and parallel
checkpoint recovery, the rebuild-based baseline recoveries, and aborts
triggered by backup-VM failures — executes as one
:class:`Reconfiguration` driven by the :class:`ReconfigurationEngine`
through an explicit phase state machine::

    PLAN -> ACQUIRE_VMS -> CHECKPOINT_PARTITION -> TRANSFER -> RESTORE
         -> COMMIT -> REPLAY_DRAIN -> DONE (or ABORTED from any phase
                                            before COMMIT)

What each phase means depends on the plan's *state source*:

* ``backup`` (R+SM, Algorithm 3) — the replacement state comes from the
  partition's backed-up checkpoint: CHECKPOINT_PARTITION splits it on
  the backup VM's CPU (or passes it through whole for slot-preserving
  serial recovery), TRANSFER ships the parts over the network, RESTORE
  deploys the new partitions, COMMIT swaps routing and replays buffers,
  REPLAY_DRAIN waits until the new partitions have re-processed every
  replayed tuple.
* ``merge`` (scale in, §3.3) — PLAN quiesces the two partitions behind
  paused upstreams, CHECKPOINT_PARTITION merges their live snapshots,
  RESTORE deploys the union onto one pooled VM.
* ``fresh`` (upstream backup, §6.2) — no state moves: RESTORE deploys a
  zero-state replacement under a fresh slot uid and REPLAY_DRAIN counts
  the upstream buffer replays that rebuild it.
* ``source_replay`` (§6.2) — like ``fresh`` but the sources replay their
  buffers through the whole pipeline; REPLAY_DRAIN polls for pipeline
  quiescence instead of counting.

Whatever the source, the hand-over itself is built from one copy of each
of the paper's steps, and every commit path calls the same ones:

* :meth:`ReconfigurationEngine._reroute` — stop-operator, routing update
  and partition-buffer-state over the operator's *current* live
  upstreams (Alg. 3 lines 9-11);
* :meth:`ReconfigurationEngine._replay_into` — replay-buffer-state into
  the replacement partitions (lines 12-13), counting what each must
  drain per origin and watching every feeder, so a feeder crash
  mid-drain releases its share instead of wedging the operation;
* :meth:`ReconfigurationEngine._await_drains` — REPLAY_DRAIN: each
  replacement reports once it re-processed its replays;
* :meth:`ReconfigurationEngine._launch` and
  :meth:`ReconfigurationEngine._close` — the PLAN tail (active list,
  deadlines, watchdog) and the DONE/ABORTED tail (timers, timeline,
  listeners) every operation shares.

Plans come from the policies that decide *when* to reconfigure:
:class:`~repro.scaling.coordinator.ScaleOutCoordinator` (scale out,
carve-outs, parallel recovery), :class:`~repro.scaling.scale_in.ScaleInCoordinator`
(merges) and :class:`~repro.fault.recovery.RecoveryCoordinator` (serial
R+SM, upstream-backup and source-replay recoveries).  Every
reconfiguration records a :class:`~repro.sim.metrics.PhaseTimeline`
in the metrics hub, and each phase can carry a deadline after which the
operation aborts (per-plan ``phase_timeouts`` or the engine-wide
``default_phase_timeouts``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.config import MigrationConfig
from repro.core.checkpoint import BackupStore, Checkpoint, EpochCut
from repro.core.execution import Slot
from repro.core.migration import MigrationChunk, StateMover
from repro.core.partition import partition_checkpoint, split_interval_groups
from repro.core.state import KeyInterval, RoutingState
from repro.core.tuples import stable_hash
from repro.runtime.instance import REPLAY_ACCEPT, REPLAY_DEDUP, REPLAY_DROP
from repro.sim.metrics import PhaseTimeline
from repro.sim.vm import VirtualMachine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.instance import OperatorInstance
    from repro.runtime.system import StreamProcessingSystem

# --------------------------------------------------------------- phases

PHASE_PLAN = "PLAN"
PHASE_ACQUIRE_VMS = "ACQUIRE_VMS"
PHASE_CHECKPOINT_PARTITION = "CHECKPOINT_PARTITION"
PHASE_TRANSFER = "TRANSFER"
PHASE_RESTORE = "RESTORE"
PHASE_COMMIT = "COMMIT"
PHASE_REPLAY_DRAIN = "REPLAY_DRAIN"
PHASE_DONE = "DONE"
PHASE_ABORTED = "ABORTED"

#: Non-terminal phases, in execution order.
PHASE_ORDER = (
    PHASE_PLAN,
    PHASE_ACQUIRE_VMS,
    PHASE_CHECKPOINT_PARTITION,
    PHASE_TRANSFER,
    PHASE_RESTORE,
    PHASE_COMMIT,
    PHASE_REPLAY_DRAIN,
)

# --------------------------------------------------------- state sources

#: Restore from the partition's backed-up checkpoint (R+SM).
SOURCE_BACKUP = "backup"
#: Merge the live snapshots of two quiesced partitions (scale in).
SOURCE_MERGE = "merge"
#: Fresh state, rebuilt from upstream buffer replays (upstream backup).
SOURCE_FRESH = "fresh"
#: Fresh state, rebuilt by replaying the sources through the pipeline.
SOURCE_SOURCE_REPLAY = "source_replay"

# ----------------------------------------------------------------- kinds

KIND_SCALE_OUT = "scale_out"
KIND_SCALE_IN = "scale_in"
KIND_RECOVERY = "recovery"

#: Abort an in-flight reconfiguration that has not committed after this
#: long (overall watchdog; per-phase deadlines can be tighter).
_WATCHDOG_SECONDS = 600.0

#: Quiescence poll period while draining two partitions for a merge.
_MERGE_DRAIN_POLL = 0.1
#: Consecutive idle polls required before merging.
_MERGE_DRAIN_QUIET = 2

#: Poll period for source-replay pipeline-quiescence detection.
_SR_POLL = 0.25
#: Consecutive quiet polls before declaring source-replay recovery done.
_SR_QUIET_POLLS = 2


@dataclass
class ReconfigPlan:
    """What a policy asks the engine to do.

    A plan names the slots being replaced, the target parallelism, and
    where the replacement state comes from; the engine supplies the
    *how* (the shared phase machinery).
    """

    kind: str
    op_name: str
    #: Slots being replaced: one for scale out / recovery, two (an
    #: adjacent pair) for scale in.
    old_slots: list[Slot]
    #: Number of replacement partitions.
    parallelism: int = 1
    state_source: str = SOURCE_BACKUP
    #: Keep the replaced slot's uid (serial recovery: downstream
    #: duplicate filters keep working exactly, §3.2).
    preserve_slots: bool = False
    reason: str = ""
    #: When recovering: the failure instant, so the recorded duration
    #: spans crash -> fully drained.
    failure_time: float | None = None
    on_complete: Callable[[float], None] | None = None
    #: Event-detail prefix for the baseline strategies ("UB" / "SR").
    label: str = ""
    #: Per-phase deadlines in seconds; overrides the engine defaults.
    phase_timeouts: dict[str, float] = field(default_factory=dict)
    #: Chunking policy for this operation's state movement; ``None``
    #: falls back to ``SystemConfig.migration``.  With ``max_chunks > 1``
    #: an eligible scale out runs as a *fluid* migration (per-chunk
    #: routing swaps while the source keeps serving) and every other
    #: transfer is chunked on the wire; the default single chunk is the
    #: classic all-at-once behaviour.
    migration: MigrationConfig | None = None
    #: Carve-out mode: move exactly these sub-intervals of the old
    #: slot's range into one dedicated new slot, leaving the source
    #: alive with the remainder (hot-key carve-out).  Runs as a
    #: *partial* fluid migration — per-chunk routing swaps with
    #: exactly-once replay, but the source is never retired and keeps
    #: its buffers.  Requires a live source and ``parallelism == 1``.
    move_intervals: list[KeyInterval] | None = None

    @property
    def is_recovery(self) -> bool:
        return self.kind == KIND_RECOVERY


class FluidMigration:
    """Per-operation context of a fluid (chunked live) migration.

    The migrating key range is cut into ``chunks`` — ``(target index,
    interval group)`` pairs, grouped per target and committed strictly
    in order.  ``committed_intervals`` accumulates the ranges whose
    routing swap took effect; on abort those stay with their targets
    (abort-to-consistent-routing) while everything else returns to the
    source.
    """

    def __init__(
        self,
        old: "OperatorInstance",
        chunks: list[tuple[int, list[KeyInterval]]],
        cfg: MigrationConfig,
        partial: bool = False,
    ) -> None:
        self.old = old
        self.chunks = chunks
        self.cfg = cfg
        #: Partial (carve-out) migration: only ``chunks`` leave; the
        #: source keeps the rest of its range and stays alive.
        self.partial = partial
        self.total = len(chunks)
        #: Index of the chunk currently being migrated (parked, extracted,
        #: shipped, committed or drained); advances after each drain.
        self.next_index = 0
        #: The extracted-but-uncommitted chunk, if one is on the wire.
        self.in_flight: MigrationChunk | None = None
        #: Deployed target instances, keyed by target index.
        self.targets: dict[int, "OperatorInstance"] = {}
        #: Key ranges whose per-chunk routing swap committed.
        self.committed_intervals: list[KeyInterval] = []
        self.committed_chunks = 0
        #: Longest single stop-the-world pause charged to the source.
        self.max_pause = 0.0
        #: Deadline event of the in-flight chunk, if armed.
        self.deadline = None
        #: Source τ vector frozen when the current chunk's parking began —
        #: the exact floor its extracted state reflects for the moving keys.
        self.chunk_floor: dict[int, int] = {}


class Reconfiguration:
    """Mutable context for one in-flight reconfiguration."""

    def __init__(
        self, plan: ReconfigPlan, timeline: PhaseTimeline, started_at: float
    ) -> None:
        self.plan = plan
        self.timeline = timeline
        self.started_at = started_at
        self.phase = PHASE_PLAN
        # Backup-sourced state.
        self.ckpt: Checkpoint | None = None
        self.backup_vm: VirtualMachine | None = None
        #: The checkpoint was synthesised from the external state tier
        #: (recovery of last resort: source and backup VMs both died).
        self.external_restore = False
        self.groups: list | None = None
        self.parts: list[Checkpoint] = []
        self.suppress: dict[int, int] | None = None
        # Merge-sourced state.
        self.old_instances: list["OperatorInstance"] = []
        self.upstreams: list["OperatorInstance"] = []
        self.quiet_polls = 0
        self.merged_ckpt: Checkpoint | None = None
        # Source-replay state.
        self.marked: list["OperatorInstance"] = []
        # Shared.
        self.vms: list[VirtualMachine] = []
        self.new_slots: list[Slot] = []
        self.instances: list["OperatorInstance"] = []
        #: Replacement slot uids whose replay drain has not completed.
        self.pending_drain_uids: set[int] = set()
        #: Fluid-migration context (chunked live hand-over), if any.
        self.fluid: FluidMigration | None = None
        #: Outstanding timer events (phase deadlines, the watchdog, chunk
        #: deadlines).  All cancelled when the operation reaches DONE or
        #: ABORTED, so a late timer can never fire into a dead operation.
        self.timers: list = []
        self.committed = False
        self.aborted = False
        self.finished = False

    @property
    def old_slot(self) -> Slot:
        return self.plan.old_slots[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Reconfiguration({self.plan.kind} {self.plan.op_name} "
            f"@ {self.phase})"
        )


class ReconfigurationEngine:
    """Drives every topology change through the shared phase machine."""

    def __init__(self, system: "StreamProcessingSystem") -> None:
        self.system = system
        #: Single state-movement layer: every transfer (scale-out split,
        #: scale-in merge, recovery) ships through it.
        self.mover = StateMover(system)
        #: Slot-replacing operations in flight, keyed by the replaced
        #: slot's uid (scale out and every recovery flavour).
        self._busy_slots: dict[int, str] = {}
        #: Operators with a merge (scale in) in flight.
        self._busy_merges: set[str] = set()
        self._active: list[Reconfiguration] = []
        # Slot-replacement counters (scale out + recoveries).
        self.operations_started = 0
        self.operations_completed = 0
        self.operations_aborted = 0
        # Merge counters.
        self.merges_completed = 0
        self.merges_aborted = 0
        self.watchdog_seconds = _WATCHDOG_SECONDS
        #: Engine-wide per-phase deadlines, overridable per plan.
        self.default_phase_timeouts: dict[str, float] = {}
        #: Observers notified at every phase entry (chaos schedules,
        #: instrumentation).  Called as ``listener(op, phase)`` *after*
        #: the engine's own bookkeeping for that phase entry.
        self._phase_listeners: list[
            Callable[[Reconfiguration, str], None]
        ] = []
        #: Observers notified after each fluid chunk commits, called as
        #: ``listener(op, chunk_index, chunk_total)``.  A separate channel
        #: from phase listeners: chunk commits happen *inside* a phase
        #: (TRANSFER), and pushing pseudo-phases through ``_notify`` would
        #: corrupt phase-span telemetry.
        self._chunk_listeners: list[
            Callable[[Reconfiguration, int, int], None]
        ] = []

    def on_phase_change(
        self, listener: Callable[[Reconfiguration, str], None]
    ) -> None:
        """Register an observer for phase transitions (incl. PLAN, DONE
        and ABORTED).  Listeners must not call back into the engine
        synchronously; schedule follow-up work through the simulator."""
        self._phase_listeners.append(listener)

    def _notify(self, op: Reconfiguration, phase: str) -> None:
        for listener in list(self._phase_listeners):
            listener(op, phase)

    def on_chunk_commit(
        self, listener: Callable[[Reconfiguration, int, int], None]
    ) -> None:
        """Register an observer for fluid chunk commits (chaos schedules
        use this to land faults mid-migration).  Same contract as phase
        listeners: schedule follow-up work through the simulator."""
        self._chunk_listeners.append(listener)

    def _notify_chunk(self, op: Reconfiguration, index: int, total: int) -> None:
        for listener in list(self._chunk_listeners):
            listener(op, index, total)

    # ------------------------------------------------------------- queries

    def is_replacing(self, op_name: str) -> bool:
        """Whether any slot of ``op_name`` is being replaced."""
        return op_name in self._busy_slots.values()

    def is_merging(self, op_name: str) -> bool:
        """Whether a merge of ``op_name`` is in flight."""
        return op_name in self._busy_merges

    def is_busy_slot(self, slot_uid: int) -> bool:
        """Whether this specific slot is being replaced."""
        return slot_uid in self._busy_slots

    def active_operations(self) -> list[Reconfiguration]:
        """In-flight reconfigurations (testing/inspection hook)."""
        return list(self._active)

    # -------------------------------------------------------------- submit

    def submit(self, plan: ReconfigPlan) -> bool:
        """Validate a plan and start driving it; returns whether it began.

        This is the PLAN phase: admission checks, busy-marking, trim
        locks and the start-of-operation event all happen here,
        synchronously.
        """
        if plan.state_source == SOURCE_MERGE:
            return self._submit_merge(plan)
        return self._submit_slot_replacement(plan)

    def _submit_slot_replacement(self, plan: ReconfigPlan) -> bool:
        system = self.system
        slot_uid = plan.old_slots[0].uid
        old = system.instance(slot_uid)
        if old is None:
            return False
        if slot_uid in self._busy_slots:
            return False
        if (
            plan.state_source == SOURCE_BACKUP
            and not plan.preserve_slots
            and self.is_merging(plan.op_name)
        ):
            return False  # the operator is being merged right now
        ckpt: Checkpoint | None = None
        external_restore = False
        if plan.state_source == SOURCE_BACKUP:
            # The Checkpointer owns backup selection: live backup store
            # first, then — recoveries only — the external tier of last
            # resort (the backup died with its VM, but an external-backend
            # operator's last flushed cut survives in the external store).
            restore = system.checkpointer.restore_plan(
                slot_uid, allow_external=plan.preserve_slots
            )
            ckpt = restore.checkpoint
            external_restore = restore.external
            if external_restore:
                system.metrics.mark_event(
                    system.sim.now,
                    "recovery_external",
                    f"{old.slot!r}: restoring from external tier",
                )
            if ckpt is None:
                kind = "unrecoverable" if plan.preserve_slots else "scale_out_aborted"
                system.metrics.mark_event(
                    system.sim.now, kind, f"{old.slot!r}: no backup"
                )
                return False
            if not plan.is_recovery:
                # Plain scale outs respect a global concurrency cap:
                # freezing and replaying many partitions at once
                # collapses throughput.
                cap = system.config.scaling.max_concurrent_operations
                if cap is not None and len(self._busy_slots) >= cap:
                    return False
        op = self._open(plan)
        op.ckpt = ckpt
        op.external_restore = external_restore
        self._busy_slots[slot_uid] = plan.op_name
        if plan.state_source == SOURCE_BACKUP:
            # Freeze upstream-buffer trimming for this slot: the
            # checkpoint we will partition must stay covered by the
            # buffered tuples even if the (still running) old instance
            # keeps checkpointing meanwhile.
            system.trim_locks.add(slot_uid)
            if plan.preserve_slots and not external_restore:
                op.backup_vm = system.backup_locations.get(slot_uid)
                if op.backup_vm is not None:
                    op.backup_vm.on_failure(
                        lambda _vm: self._abort(op, "backup VM failed")
                    )
        self.operations_started += 1
        self._mark_started(op, old)
        self._launch(op)
        self._enter_acquire_vms(op)
        return True

    def _mark_started(self, op: Reconfiguration, old: "OperatorInstance") -> None:
        system = self.system
        plan = op.plan
        if plan.state_source != SOURCE_BACKUP:
            system.metrics.mark_event(
                system.sim.now,
                "recovery_started",
                f"{plan.label} {old.slot!r}".strip(),
            )
        elif plan.preserve_slots:
            system.metrics.mark_event(
                system.sim.now, "recovery_started", repr(old.slot)
            )
        else:
            system.metrics.mark_event(
                system.sim.now,
                "scale_out_started",
                f"{old.slot!r} -> pi={plan.parallelism} ({plan.reason})",
            )

    def _submit_merge(self, plan: ReconfigPlan) -> bool:
        system = self.system
        if plan.op_name in self._busy_merges:
            return False
        if self.is_replacing(plan.op_name):
            return False
        instances = [system.live_instance(slot.uid) for slot in plan.old_slots]
        if any(inst is None for inst in instances):
            return False
        op = self._open(plan)
        op.old_instances = instances  # type: ignore[assignment]
        op.upstreams = system.live_upstreams(plan.op_name)
        self._busy_merges.add(plan.op_name)
        left, right = op.old_instances
        system.metrics.mark_event(
            system.sim.now, "scale_in_started", f"{left.slot!r} + {right.slot!r}"
        )
        # Stop the upstreams: new tuples buffer there while the two
        # partitions drain what is already queued or in flight (the
        # quiesce half of quiesce-and-merge, Alg. 3 style).
        for upstream in op.upstreams:
            upstream.pause()
        self._launch(op)
        system.sim.schedule(_MERGE_DRAIN_POLL, self._poll_merge_drain, op)
        return True

    def _open(self, plan: ReconfigPlan) -> Reconfiguration:
        """A new operation for ``plan``, its timeline already in PLAN."""
        now = self.system.sim.now
        timeline = self.system.metrics.start_phase_timeline(
            plan.kind, plan.op_name, [slot.uid for slot in plan.old_slots], now
        )
        op = Reconfiguration(plan, timeline, now)
        timeline.enter(PHASE_PLAN, now)
        return op

    def _launch(self, op: Reconfiguration) -> None:
        """The PLAN tail every submit shares: the operation goes live
        (active list, PLAN deadline, watchdog) and listeners see PLAN."""
        self._active.append(op)
        self._arm_deadline(op, PHASE_PLAN)
        op.timers.append(
            self.system.sim.schedule(self.watchdog_seconds, self._watchdog, op)
        )
        self._notify(op, PHASE_PLAN)

    def _close(self, op: Reconfiguration, phase: str) -> None:
        """The DONE/ABORTED tail every operation shares: disarm its
        timers, leave the active list, close the timeline and tell the
        listeners.

        Cancelling matters even though every timer handler guards
        against dead operations: an uncancelled watchdog pins the
        operation (and everything it references) in the event queue for
        up to ten minutes of simulated time.
        """
        for event in op.timers:
            if event.pending:
                event.cancel()
        op.timers.clear()
        if op in self._active:
            self._active.remove(op)
        now = self.system.sim.now
        op.timeline.enter(phase, now)
        op.timeline.close(now, "done" if phase == PHASE_DONE else "aborted")
        op.phase = phase
        self._notify(op, phase)

    # -------------------------------------------------- phase transitions

    def _enter(self, op: Reconfiguration, phase: str) -> None:
        op.phase = phase
        op.timeline.enter(phase, self.system.sim.now)
        self._arm_deadline(op, phase)
        self._notify(op, phase)

    def _arm_deadline(self, op: Reconfiguration, phase: str) -> None:
        timeout = op.plan.phase_timeouts.get(
            phase, self.default_phase_timeouts.get(phase)
        )
        if timeout is not None:
            op.timers.append(
                self.system.sim.schedule(
                    timeout, self._phase_deadline, op, phase
                )
            )

    def _phase_deadline(self, op: Reconfiguration, phase: str) -> None:
        """A phase outlived its deadline: abort unless already past it."""
        if op.phase != phase or op.committed or op.aborted or op.finished:
            return
        self._abort(op, f"{phase} deadline exceeded")

    def _watchdog(self, op: Reconfiguration) -> None:
        self._abort(op, "watchdog timeout")

    # --------------------------------------------------------- ACQUIRE_VMS

    def _enter_acquire_vms(self, op: Reconfiguration) -> None:
        self._enter(op, PHASE_ACQUIRE_VMS)
        for _ in range(op.plan.parallelism):
            self.system.pool.acquire(lambda vm, op=op: self._vm_ready(op, vm))

    def _vm_ready(self, op: Reconfiguration, vm: VirtualMachine) -> None:
        if op.aborted:
            self.system.pool.give_back(vm)
            return
        op.vms.append(vm)
        # Watch the acquired VM: losing a replacement target mid-flight
        # must abort (pre-commit) or release its drain (post-commit)
        # instead of hanging until the watchdog.
        vm.on_failure(
            lambda _vm, op=op, vm=vm: self._target_vm_failed(op, vm)
        )
        if len(op.vms) == op.plan.parallelism:
            self._enter_checkpoint_partition(op)

    def _target_vm_failed(self, op: Reconfiguration, vm: VirtualMachine) -> None:
        """A VM acquired for this operation crashed."""
        if op.aborted or op.finished:
            return
        if op.fluid is not None:
            # Committed chunks on the dead target recover through the
            # normal failure-detection path (each commit stored a backup
            # synchronously); the rest of the migration unwinds.
            self._abort_fluid(op, f"target VM {vm.vm_id} failed")
            return
        if not op.committed:
            self._abort(op, f"target VM {vm.vm_id} failed")
            return
        # Post-commit: a replacement instance died while draining its
        # replays.  Those replays will never complete; release its share
        # of the drain so the operation can finish.  The instance itself
        # is recovered through the normal failure-detection path.
        for instance in op.instances:
            if instance.vm is vm:
                self._drain_done(op, instance.uid)

    # ------------------------------------------------ CHECKPOINT_PARTITION

    def _enter_checkpoint_partition(self, op: Reconfiguration) -> None:
        self._enter(op, PHASE_CHECKPOINT_PARTITION)
        source = op.plan.state_source
        if source == SOURCE_BACKUP:
            if op.plan.preserve_slots:
                self._prepare_whole_checkpoint(op)
            elif op.plan.move_intervals is not None:
                # A carve-out only makes sense live: the source keeps
                # serving the rest of its range, so there is no
                # checkpoint-partitioning fallback.
                if self._fluid_eligible(op):
                    self._prepare_fluid(op)
                else:
                    self._abort(op, "carve-out source not live")
            elif self._fluid_eligible(op):
                self._prepare_fluid(op)
            else:
                self._prepare_partitioning(op)
        elif source == SOURCE_MERGE:
            self._merge_snapshots(op)
        else:
            # Fresh-state rebuilds have no checkpoint to prepare.
            self._enter_transfer(op)

    def _prepare_whole_checkpoint(self, op: Reconfiguration) -> None:
        """Serial recovery: the backed-up checkpoint passes through whole,
        and the replacement keeps the failed slot's uid."""
        if not op.external_restore and (
            op.backup_vm is None or not op.backup_vm.alive
        ):
            self._abort(op, "backup VM lost before restore")
            return
        assert op.ckpt is not None
        op.new_slots = [op.old_slot]
        op.parts = [op.ckpt]
        self._enter_transfer(op)

    def _prepare_partitioning(self, op: Reconfiguration) -> None:
        """All VMs are ready: partition the *most recent* checkpoint.

        Deferred until now so that the old instance kept checkpointing
        (and upstream buffers kept being trimmed) while the operation
        waited on VM provisioning — the replay window stays at most one
        checkpoint interval regardless of how long acquisition took.
        """
        system = self.system
        if op.aborted:
            return
        old = system.instances.get(op.old_slot.uid)
        if old is not None and old.alive:
            old.stop_checkpointing()
        fresh = system.backup_of(op.old_slot.uid)
        if fresh is not None:
            op.ckpt = fresh
        backup_vm = system.backup_locations.get(op.old_slot.uid)
        if backup_vm is None or not backup_vm.alive:
            self._abort(op, "backup VM unavailable")
            return
        op.backup_vm = backup_vm
        backup_vm.on_failure(lambda _vm: self._abort(op, "backup VM failed"))
        # Partitioning the checkpoint costs CPU *on the backup VM*, not on
        # the overloaded operator (§4.3 benefit ii).
        cfg = system.config.checkpoint
        assert op.ckpt is not None
        cost = cfg.serialize_base_seconds + len(op.ckpt.state) * (
            cfg.serialize_seconds_per_entry
        )
        # Same metric as the fluid path's per-chunk pause: the
        # stop-the-world cost of capturing the moving state in one go is
        # O(total state) here, O(chunk) there — the comparison the
        # migration benchmark reports.
        system.metrics.timeseries(
            f"migration_pause:{op.plan.op_name}"
        ).record(system.sim.now, cost)
        backup_vm.submit(cost, self._partitioned, op, backup_vm)

    def _partitioned(self, op: Reconfiguration, backup_vm: VirtualMachine) -> None:
        if op.aborted:
            return
        system = self.system
        plan = op.plan
        assert op.ckpt is not None
        routing = system.query_manager.routing_to(plan.op_name)
        owned = routing.intervals_of(op.old_slot.uid)
        guide = None
        if len(op.ckpt.state) >= 4 * plan.parallelism:
            guide = [stable_hash(key) for key in op.ckpt.state.keys()]
        op.groups = split_interval_groups(owned, plan.parallelism, guide)
        op.new_slots = [
            system.query_manager.new_slot(plan.op_name, i)
            for i in range(plan.parallelism)
        ]
        op.timeline.add_slots([slot.uid for slot in op.new_slots])
        op.parts = partition_checkpoint(
            op.ckpt, op.groups, [slot.uid for slot in op.new_slots]
        )
        # Store each partition as the new partition's initial backup
        # (Algorithm 2, line 8): the scale out itself is fault tolerant.
        store = system.backup_stores.setdefault(backup_vm.vm_id, BackupStore())
        for part in op.parts:
            store.store(part)
            system.backup_locations[part.slot_uid] = backup_vm
        self._enter_transfer(op)

    def _merge_snapshots(self, op: Reconfiguration) -> None:
        """Merge the quiesced pair's live state (scale in, §3.3)."""
        system = self.system
        left, right = op.old_instances
        if not (left.vm.alive and right.vm.alive):
            self._abort(op, "partition failed before restore")
            return
        operator = system.query_manager.query.operator(op.plan.op_name)  # type: ignore[union-attr]
        merge_value = (
            operator.merge_values if operator.stateful else (lambda a, b: a)
        )
        merged_state = left.state.snapshot().merge(
            right.state.snapshot(), merge_value
        )
        buffers = {name: buf.snapshot() for name, buf in left.buffers.items()}
        for name, buf in right.buffers.items():
            if name in buffers:
                for dest in buf.destinations():
                    for tup in buf.tuples_for(dest):
                        buffers[name].append(dest, tup)
            else:
                buffers[name] = buf.snapshot()
        new_slot = system.query_manager.new_slot(
            op.plan.op_name, left.slot.index
        )
        op.new_slots = [new_slot]
        op.timeline.add_slots([new_slot.uid])
        op.merged_ckpt = Checkpoint(
            op_name=op.plan.op_name,
            slot_uid=new_slot.uid,
            state=merged_state,
            buffers=buffers,
            taken_at=system.sim.now,
            seq=max(left._ckpt_seq, right._ckpt_seq) + 1,
        )
        self._enter_transfer(op)

    def _poll_merge_drain(self, op: Reconfiguration) -> None:
        system = self.system
        if op.aborted:
            return
        left, right = op.old_instances
        if not (left.alive and left.vm.alive and right.alive and right.vm.alive):
            self._abort(op, "partition failed while draining")
            return
        if self._unpaused_upstream(op):
            self._abort(op, "upstream replaced while quiescing")
            return
        idle = left.is_quiescent() and right.is_quiescent()
        op.quiet_polls = op.quiet_polls + 1 if idle else 0
        if op.quiet_polls < _MERGE_DRAIN_QUIET:
            system.sim.schedule(_MERGE_DRAIN_POLL, self._poll_merge_drain, op)
            return
        self._enter_acquire_vms(op)

    def _unpaused_upstream(self, op: Reconfiguration) -> bool:
        """Whether a live upstream of the merging operator was not paused
        at PLAN — typically a failed upstream's successor, deployed
        mid-merge under the old routing.  It keeps feeding the two
        partitions, so they never truly quiesce, and the commit would
        not reroute it: everything it sent afterwards would go to the
        retired slots.  The merge must abort instead."""
        return any(
            upstream not in op.upstreams
            for upstream in self.system.live_upstreams(op.plan.op_name)
        )

    # ------------------------------------------------------------ TRANSFER

    def _enter_transfer(self, op: Reconfiguration) -> None:
        self._enter(op, PHASE_TRANSFER)
        source = op.plan.state_source
        cfg = op.plan.migration or self.system.config.migration
        if source == SOURCE_MERGE:
            # The merged snapshot moves from the left partition's VM to
            # the pooled target through the mover like any other state
            # movement (chunked on the wire when configured).
            assert op.merged_ckpt is not None
            left = op.old_instances[0]
            left.vm.on_failure(
                lambda _vm, op=op: self._abort(
                    op, "partition failed during transfer"
                )
            )
            self.mover.transfer(
                op,
                left.vm,
                op.vms[0],
                op.merged_ckpt,
                self._merged_arrived,
                op,
                cfg=cfg,
            )
            return
        if source != SOURCE_BACKUP:
            # Fresh-state rebuilds have nothing to move.  Pass through.
            self._enter_restore(op)
            return
        # External-tier restores have no live source endpoint: the store
        # is reliable storage, so the mover ships with src_vm=None (the
        # transfer still pays network latency/bandwidth to the target).
        assert op.backup_vm is not None or op.external_restore
        for part, slot, vm in zip(op.parts, op.new_slots, op.vms):
            self.mover.transfer(
                op,
                op.backup_vm,
                vm,
                part,
                self._part_arrived,
                op,
                slot,
                vm,
                cfg=cfg,
            )

    def _merged_arrived(self, _ckpt: Checkpoint, op: Reconfiguration) -> None:
        if op.aborted or op.finished:
            return
        self._enter_restore(op)

    def _part_arrived(
        self,
        part: Checkpoint,
        op: Reconfiguration,
        slot: Slot,
        vm: VirtualMachine,
    ) -> None:
        """One state partition landed on its target VM."""
        self._restore_one(op, part, slot, vm)

    # ----------------------------------------------------- fluid migration

    def _fluid_eligible(self, op: Reconfiguration) -> bool:
        """Whether this operation can run as a fluid live migration.

        Fluid hand-over extracts chunks from the *live* source, so
        recoveries (dead source) and slot-preserving restores keep the
        backup-sourced path; everything else opts in through a chunking
        config with ``max_chunks > 1``.
        """
        plan = op.plan
        if plan.is_recovery or plan.preserve_slots:
            return False
        cfg = plan.migration or self.system.config.migration
        # Carve-outs are inherently fluid (the source must keep serving
        # the rest of its range) and may legitimately be a single chunk.
        if cfg.max_chunks <= 1 and plan.move_intervals is None:
            return False
        return self.system.live_instance(op.old_slot.uid) is not None

    def _prepare_fluid(self, op: Reconfiguration) -> None:
        """Plan a fluid migration: the key range leaves in chunks.

        Instead of freezing on a backed-up checkpoint, each chunk is
        extracted from the live source state, shipped, absorbed by its
        target and committed with a *partial* routing swap — upstreams
        route the moved range to the target while the source keeps
        processing everything that has not moved yet.  The source's
        backup stays frozen at its pre-migration checkpoint (the trim
        lock was taken at submit): together with the buffered upstream
        tuples it covers every uncommitted chunk if the migration aborts.
        """
        system = self.system
        if op.aborted:
            return
        plan = op.plan
        qm = system.query_manager
        old = system.live_instance(op.old_slot.uid)
        if old is None:
            self._abort(op, "source instance lost before migration")
            return
        old.stop_checkpointing()
        backup_vm = system.backup_locations.get(op.old_slot.uid)
        if backup_vm is None or not backup_vm.alive:
            self._abort(op, "backup VM unavailable")
            return
        op.backup_vm = backup_vm
        backup_vm.on_failure(
            lambda _vm, op=op: self._abort(op, "backup VM failed")
        )
        old.vm.on_failure(
            lambda _vm, op=op: self._abort(op, "source VM failed")
        )
        routing = qm.routing_to(plan.op_name)
        owned = routing.intervals_of(op.old_slot.uid)
        if plan.move_intervals is not None:
            # Carve-out: the moved range is dictated by the plan, not
            # derived by splitting.  Every moved interval must still be
            # owned by the source — routing may have shifted between the
            # detector's decision and now.
            moved = sorted(plan.move_intervals, key=lambda iv: iv.lo)
            contained = all(
                any(iv.lo >= o.lo and iv.hi <= o.hi for o in owned)
                for iv in moved
            )
            moved_width = sum(iv.width for iv in moved)
            owned_width = sum(o.width for o in owned)
            if not contained or moved_width >= owned_width:
                self._abort(op, "carve-out intervals no longer owned")
                return
            op.groups = [moved]
        else:
            guide = None
            if len(old.state) >= 4 * plan.parallelism:
                guide = [stable_hash(key) for key in old.state.keys()]
            op.groups = split_interval_groups(owned, plan.parallelism, guide)
        op.new_slots = [
            qm.new_slot(plan.op_name, i) for i in range(plan.parallelism)
        ]
        op.timeline.add_slots([slot.uid for slot in op.new_slots])
        # Pre-register the new slots so the per-chunk routing swaps
        # validate; they own no keys until their first chunk commits.
        qm.replace_slots(plan.op_name, [], op.new_slots)
        cfg = plan.migration or system.config.migration
        chunks: list[tuple[int, list[KeyInterval]]] = []
        for index, group in enumerate(op.groups):
            for piece in self.mover.plan_fluid_chunks(group, old.state, cfg):
                chunks.append((index, piece))
        op.fluid = FluidMigration(
            old, chunks, cfg, partial=plan.move_intervals is not None
        )
        self.mover.chunked_transfers += 1
        self._enter(op, PHASE_TRANSFER)
        self._next_chunk(op)

    def _next_chunk(self, op: Reconfiguration) -> None:
        if op.aborted or op.finished:
            return
        system = self.system
        fluid = op.fluid
        assert fluid is not None
        old = fluid.old
        if not (old.alive and old.vm.alive):
            self._abort_fluid(op, "source instance failed mid-migration")
            return
        index = fluid.next_index
        _target_index, intervals = fluid.chunks[index]
        # The chunk's τ floor freezes *now*, before parking begins: the
        # source stops processing the moving keys the instant they park,
        # so the chunk's state reflects them exactly up to this vector.
        # τ at extraction time would overstate it — keys the source keeps
        # advance τ past parked tuples, whose post-commit replay would
        # then be wrongly deduped at the target.
        fluid.chunk_floor = dict(old.state.positions)
        # Fresh tuples for the moving range park at the source from this
        # instant; the post-commit buffer replay re-delivers them to the
        # target, so parking never loses a tuple.
        old.begin_parking(intervals)
        if fluid.cfg.chunk_timeout is not None:
            event = system.sim.schedule(
                fluid.cfg.chunk_timeout, self._chunk_deadline, op, index
            )
            fluid.deadline = event
            op.timers.append(event)
        # Extracting and serialising the chunk is the migration's only
        # stop-the-world pause on the source: O(chunk), not O(state).
        ckpt_cfg = system.config.checkpoint
        entries = sum(
            1
            for key in old.state.keys()
            if any(stable_hash(key) in iv for iv in intervals)
        )
        pause = ckpt_cfg.serialize_base_seconds + entries * (
            ckpt_cfg.serialize_seconds_per_entry
        )
        fluid.max_pause = max(fluid.max_pause, pause)
        system.metrics.timeseries(
            f"migration_pause:{op.plan.op_name}"
        ).record(system.sim.now, pause)
        old.vm.submit(pause, self._chunk_extracted, op, index, front=True)

    def _chunk_extracted(self, op: Reconfiguration, index: int) -> None:
        if op.aborted or op.finished:
            return
        system = self.system
        fluid = op.fluid
        assert fluid is not None
        old = fluid.old
        if not (old.alive and old.vm.alive):
            self._abort_fluid(op, "source instance failed mid-extraction")
            return
        target_index, intervals = fluid.chunks[index]
        state = old.state.extract(intervals)
        # Stamp the parking-time τ floor (see _next_chunk), not the
        # extraction-time vector the extract copied.
        state.positions.clear()
        state.positions.update(fluid.chunk_floor)
        final = index == fluid.total - 1
        buffers: dict = {}
        if final and not fluid.partial:
            # The last chunk carries the source's output buffers: after
            # this commit the source retires, and a later downstream
            # recovery must still find its unacknowledged emissions.  A
            # partial (carve-out) migration never retires the source, so
            # its buffers stay where they are.
            buffers = {
                name: buf.snapshot() for name, buf in old.buffers.items()
            }
        target_slot = op.new_slots[target_index]
        ckpt = Checkpoint(
            op_name=op.plan.op_name,
            slot_uid=target_slot.uid,
            state=state,
            buffers=buffers,
            taken_at=system.sim.now,
            seq=1,
        )
        chunk = MigrationChunk(
            index=index,
            total=fluid.total,
            intervals=list(intervals),
            checkpoint=ckpt,
            shipped_at=system.sim.now,
        )
        fluid.in_flight = chunk
        self.mover.ship(
            op,
            old.vm,
            op.vms[target_index],
            ckpt,
            self._chunk_arrived,
            op,
            chunk,
            target_index,
            chunk_index=index,
            chunk_total=fluid.total,
        )

    def _chunk_arrived(
        self, op: Reconfiguration, chunk: MigrationChunk, target_index: int
    ) -> None:
        if op.aborted or op.finished:
            # A chunk that lands after the abort never took effect
            # anywhere; its state was already re-absorbed by the source
            # (or is covered by the source's frozen backup).
            return
        system = self.system
        fluid = op.fluid
        assert fluid is not None
        slot = op.new_slots[target_index]
        vm = op.vms[target_index]
        target = fluid.targets.get(target_index)
        if target is None:
            # First chunk for this target: deploy and restore, exactly
            # like a partitioned restore but with a fraction of the keys.
            target = system.deployment.deploy_replacement(slot, vm)
            target.restore_from(chunk.checkpoint)
            system.deployment.configure_services(target)
            target.replay_mode = REPLAY_DEDUP
            op.instances.append(target)
            fluid.targets[target_index] = target
        else:
            target.absorb_chunk(chunk.checkpoint)
        if chunk.final:
            self._enter(op, PHASE_RESTORE)
        self._commit_chunk(op, chunk, target)

    def _commit_chunk(
        self,
        op: Reconfiguration,
        chunk: MigrationChunk,
        target: "OperatorInstance",
    ) -> None:
        """Commit one chunk: partial routing swap, replay, sync backup.

        Ordering matters: routing swaps and upstream buffers repartition
        first (new tuples for the range now reach the target), then the
        source discards its parked tuples for the range (the post-swap
        buffer replay re-delivers every one of them), then the target's
        snapshot is stored as its backup *synchronously* — the moment
        routing points at the target it must be recoverable (Algorithm 2
        line 8: the scale out itself is fault tolerant).  The replay
        drain is armed last because a zero-replay drain completes
        synchronously and starts the next chunk.
        """
        system = self.system
        qm = system.query_manager
        plan = op.plan
        fluid = op.fluid
        assert fluid is not None
        old = fluid.old
        index = chunk.index

        if fluid.deadline is not None and fluid.deadline.pending:
            fluid.deadline.cancel()
        fluid.deadline = None
        fluid.in_flight = None

        routing = qm.routing_to(plan.op_name)
        new_routing = routing.split_off(
            op.old_slot.uid, chunk.intervals, target.uid
        )
        qm.store_routing(plan.op_name, new_routing)
        upstreams = self._reroute(plan.op_name, new_routing)
        discarded = old.commit_parked()
        if discarded:
            system.metrics.increment("migration_parked_discarded", discarded)
        if chunk.final and not fluid.partial:
            self._retire_source(op)
            target.replay_all_buffers()
        replay_ids: set[tuple[int, int]] = set()
        sent, by_slot = self._replay_into(
            op, upstreams, [target.uid], ids=replay_ids
        )
        for upstream in upstreams:
            upstream.resume()
        op.committed = True
        fluid.committed_chunks += 1
        fluid.committed_intervals.extend(chunk.intervals)

        frozen = system.backup_of(op.old_slot.uid)
        if frozen is not None and op.backup_vm is not None and op.backup_vm.alive:
            # The committed ranges must be recoverable the moment routing
            # points at the target — but a snapshot of the *live* target
            # is not a sound backup mid-migration.  Its τ mixes two
            # delivery edges: the target's own processed frontier and the
            # absorbed chunk floors (source edge), max-merged.  Under
            # network delays the edges skew, so that merged vector
            # over-claims one edge or the other — a recovery would trim
            # and dedup away tuples only the in-flight commit replay ever
            # carried.  The frozen pre-migration checkpoint restricted to
            # the committed ranges is consistent by construction: its τ
            # is the source's single-edge prefix, everything since the
            # freeze is still buffered upstream (these positions make the
            # commit-time trim a no-op), and a restore replays all of it
            # exactly once.
            rollback = frozen.state.snapshot()
            rollback = rollback.extract(fluid.committed_intervals)
            backup = EpochCut(
                Checkpoint(
                    op_name=plan.op_name,
                    slot_uid=target.uid,
                    state=rollback,
                    buffers={
                        name: buf.snapshot()
                        for name, buf in target.buffers.items()
                    },
                    taken_at=system.sim.now,
                    seq=target.next_checkpoint_seq(),
                ),
                fence_epoch=target.epoch,
            )
            system.store_backup_sync(backup, op.backup_vm)

        if chunk.final:
            if fluid.partial:
                # The rollback backup above captured the moved keys'
                # pre-migration state; only now may the source's frozen
                # backup shed them and resume checkpointing.
                self._release_carve_source(op)
            self._enter(op, PHASE_COMMIT)
            self._enter(op, PHASE_REPLAY_DRAIN)
            system.record_vm_count()
            if fluid.partial:
                system.metrics.mark_event(
                    system.sim.now,
                    "hot_key_carveout",
                    f"{plan.op_name} {chunk.intervals} -> slot {target.uid}",
                )
            else:
                system.metrics.mark_event(
                    system.sim.now,
                    "scale_out",
                    f"{plan.op_name} pi={plan.parallelism} fluid "
                    f"chunks={fluid.total}",
                )
        system.metrics.mark_event(
            system.sim.now,
            "chunk_committed",
            f"{plan.op_name} chunk {index + 1}/{fluid.total} -> "
            f"slot {target.uid}",
        )
        self._notify_chunk(op, index, fluid.total)
        op.pending_drain_uids = {target.uid}
        # Between drains the target sits in REPLAY_DROP (a stray network
        # duplicate of an earlier wave must not be admitted); each commit
        # re-arms dedup mode for its own wave.
        target.replay_mode = REPLAY_DEDUP
        target.expect_replays(
            sent[target.uid],
            lambda op=op, chunk=chunk, target=target: self._chunk_drained(
                op, chunk, target
            ),
            flagged_only=True,
            by_slot=by_slot[target.uid],
            drain_intervals=chunk.intervals,
            expected_ids=replay_ids,
        )

    def _retire_source(self, op: Reconfiguration) -> None:
        """Final chunk committed: the emptied source partition retires."""
        system = self.system
        qm = system.query_manager
        assert op.fluid is not None
        old = op.fluid.old
        system.trim_locks.discard(op.old_slot.uid)
        qm.replace_slots(op.plan.op_name, [op.old_slot], [])
        system.instances.pop(op.old_slot.uid, None)
        if old.alive:
            system.retire_backup_store(old.vm)
            old.stop(release_vm=True)
        system.drop_backup(op.old_slot.uid)
        if system.detector is not None:
            system.detector.forget_slot(op.old_slot.uid)

    def _release_carve_source(self, op: Reconfiguration) -> None:
        """Final carve-out chunk committed: the source stays, slimmer.

        The inverse of :meth:`_retire_source` for partial migrations —
        the source keeps its slot, buffers and VM.  Its frozen backup
        sheds the moved ranges (their authoritative copy is now the
        carved slot's synchronous backup; a later source restore must
        not resurrect them, or a state-iterating operator would double
        count), the trim lock lifts and checkpointing resumes so the
        replay window starts shrinking again.
        """
        system = self.system
        assert op.fluid is not None
        old = op.fluid.old
        system.trim_locks.discard(op.old_slot.uid)
        stale = system.backup_of(op.old_slot.uid)
        if stale is not None:
            stale.state.extract(op.fluid.committed_intervals)
        if old.alive and old.vm.alive:
            old.start_checkpointing()
        system.telemetry.increment("scaling.hot_key_carveouts")

    def _chunk_drained(
        self,
        op: Reconfiguration,
        chunk: MigrationChunk,
        target: "OperatorInstance",
    ) -> None:
        """The target re-processed every replay of one committed chunk."""
        if op.finished:
            return
        op.pending_drain_uids.discard(target.uid)
        fluid = op.fluid
        assert fluid is not None
        if op.aborted:
            # The migration died while this (already committed) chunk
            # drained; the kept target returns to the healthy default.
            target.replay_mode = REPLAY_DROP
            return
        if chunk.final:
            self._finish(op)
            return
        # Drop any late stragglers of this wave until the next commit
        # re-arms dedup mode for its own replay set.
        target.replay_mode = REPLAY_DROP
        fluid.next_index = chunk.index + 1
        self._next_chunk(op)

    def _chunk_deadline(self, op: Reconfiguration, index: int) -> None:
        """A chunk outlived ``chunk_timeout`` before committing."""
        if op.aborted or op.finished:
            return
        fluid = op.fluid
        if fluid is None or fluid.committed_chunks > index:
            return
        self._abort_fluid(op, f"chunk {index} deadline exceeded")

    def _abort_fluid(self, op: Reconfiguration, why: str) -> None:
        """Abort a fluid migration to a *consistent* routing state.

        Chunks whose routing swap committed stay committed — their
        targets are live partitions already serving traffic, each with a
        backup from its commit.  Everything else unwinds: the in-flight
        chunk's state returns to the live source (or stays covered by
        the source's frozen backup if the source died), parked tuples
        re-enter the source's queue, and chunk-less targets are torn
        down with their slots unregistered.
        """
        if op.aborted or op.finished:
            return
        system = self.system
        qm = system.query_manager
        plan = op.plan
        fluid = op.fluid
        assert fluid is not None
        op.aborted = True
        self.operations_aborted += 1
        self._busy_slots.pop(op.old_slot.uid, None)
        old = fluid.old
        chunk = fluid.in_flight
        if old.alive and old.vm.alive:
            if chunk is not None:
                # The uncommitted chunk never took effect anywhere (the
                # arrival callback checks ``op.aborted``): its extracted
                # state goes straight back into the live source.
                old.reabsorb_state(chunk.checkpoint.state)
            for tup in old.abort_parking():
                old.reinject(tup)
            old.start_checkpointing()
        else:
            old.abort_parking()
        # The source's frozen backup still holds every migrated key;
        # strip the committed ranges so a later restore of the source
        # cannot resurrect state that now lives on the kept targets.
        stale = system.backup_of(op.old_slot.uid)
        if stale is not None and fluid.committed_intervals:
            stale.state.extract(fluid.committed_intervals)
        system.trim_locks.discard(op.old_slot.uid)
        keep_vms: set[int] = set()
        for target_index, slot in enumerate(op.new_slots):
            target = fluid.targets.get(target_index)
            if target is not None:
                # At least one chunk committed (deploy and first commit
                # are atomic): this is a live partition now.  It keeps
                # its VM and backup; a drain in flight completes on its
                # own (see the aborted branch of ``_chunk_drained``).
                keep_vms.add(op.vms[target_index].vm_id)
                if target.uid not in op.pending_drain_uids:
                    target.replay_mode = REPLAY_DROP
            else:
                qm.replace_slots(plan.op_name, [slot], [])
                system.drop_backup(slot.uid)
        for vm in op.vms:
            if vm.vm_id not in keep_vms:
                system.pool.give_back(vm)
        op.vms = [vm for vm in op.vms if vm.vm_id in keep_vms]
        system.metrics.mark_event(
            system.sim.now,
            "scale_out_aborted",
            f"{plan.op_name}: {why} "
            f"(kept {fluid.committed_chunks}/{fluid.total} chunks)",
        )
        self._close(op, PHASE_ABORTED)

    # ------------------------------------------------------------- RESTORE

    def _enter_restore(self, op: Reconfiguration) -> None:
        self._enter(op, PHASE_RESTORE)
        source = op.plan.state_source
        if source == SOURCE_MERGE:
            self._restore_merged(op)
        elif source in (SOURCE_FRESH, SOURCE_SOURCE_REPLAY):
            self._restore_fresh(op)
        # SOURCE_BACKUP restores arrive per-part via _restore_one.

    def _restore_one(
        self, op: Reconfiguration, part: Checkpoint, slot: Slot, vm: VirtualMachine
    ) -> None:
        """One state partition arrived at its VM: deploy and restore."""
        if op.aborted:
            # The abort already returned every VM it knew about; only
            # give this one back if it somehow escaped that sweep.
            if vm in op.vms:
                op.vms.remove(vm)
                self.system.pool.give_back(vm)
            return
        system = self.system
        if op.phase == PHASE_TRANSFER:
            self._enter(op, PHASE_RESTORE)
        zombie = None
        if op.plan.preserve_slots:
            # A checkpoint that was in flight at crash time may have
            # landed after recovery started; restore the freshest one.
            fresh = system.backup_of(op.old_slot.uid)
            if fresh is not None:
                part = fresh
            system.trim_locks.discard(op.old_slot.uid)
            if op.plan.is_recovery:
                # Epoch-fence the slot *before* building the replacement:
                # the successor is born under the bumped epoch, and the
                # predecessor — which may be a falsely-declared-dead
                # zombie, still running — keeps the old one.  Everything
                # the zombie emits from here on is rejected by epoch
                # checks at receivers, the backup path and the external
                # store, so two instances sharing one slot uid can never
                # fork its timeline.
                zombie = system.instances.get(op.old_slot.uid)
                # The restored checkpoint's output clock is the fence
                # floor: emissions at or below it are committed (the
                # checkpoint acknowledged them, upstream buffers were
                # trimmed) and the successor — whose clock resumes from
                # it — never re-derives them, so receivers keep
                # accepting them even under the superseded epoch.
                system.fence_slot(op.old_slot.uid, floor=part.out_clock)
        instance = system.deployment.deploy_replacement(slot, vm)
        instance.restore_from(part)
        system.deployment.configure_services(instance)
        op.instances.append(instance)
        if zombie is not None and zombie.alive and zombie.vm.alive:
            # Tell the live predecessor it was superseded.  The notice is
            # a control message from the successor's VM, so a zombie cut
            # off by a partition keeps running — harmlessly — until the
            # partition heals and the notice gets through.
            system.notify_fenced(zombie, via_vm=vm)
        if len(op.instances) == op.plan.parallelism:
            self._enter_commit(op)

    def _restore_merged(self, op: Reconfiguration) -> None:
        system = self.system
        left, right = op.old_instances
        if not (left.vm.alive and right.vm.alive):
            self._abort(op, "partition failed before restore")
            return
        if self._unpaused_upstream(op):
            self._abort(op, "upstream replaced while quiescing")
            return
        assert op.merged_ckpt is not None
        vm = op.vms[0]
        instance = system.deployment.build_instance(op.new_slots[0], vm)
        system.deployment.wire_routing(instance)
        instance.restore_from(op.merged_ckpt)
        system.deployment.configure_services(instance)
        op.instances = [instance]
        self._enter_commit(op)

    def _restore_fresh(self, op: Reconfiguration) -> None:
        """Create a fresh-state replacement under a *new* slot uid.

        Rebuild-based strategies re-emit results from a zeroed output
        clock; a new slot identity keeps downstream duplicate filters
        from wrongly discarding those emissions.
        """
        system = self.system
        qm = system.query_manager
        plan = op.plan
        failed = system.instances.get(op.old_slot.uid)
        if failed is None:
            self._abort(op, "failed instance vanished before restore")
            return
        vm = op.vms[0]
        new_slot = qm.new_slot(plan.op_name, failed.slot.index)
        op.new_slots = [new_slot]
        op.timeline.add_slots([new_slot.uid])
        qm.replace_slots(plan.op_name, [failed.slot], [new_slot])
        new_routing = qm.routing_to(plan.op_name).reassign(
            failed.uid, new_slot.uid
        )
        qm.store_routing(plan.op_name, new_routing)
        zombie = failed if failed.alive and failed.vm.alive else None
        if plan.is_recovery:
            # The replacement takes a fresh uid, but the *old* uid's
            # epoch is still fenced: downstream duplicate filters keep
            # per-origin watermarks for it, and a falsely-declared-dead
            # zombie emitting under the old uid would advance them past
            # tuples the rebuild is about to re-derive.
            system.fence_slot(failed.uid)
        system.instances.pop(failed.uid, None)
        instance = system.deployment.deploy_replacement(new_slot, vm)
        system.deployment.configure_services(instance)
        if zombie is not None:
            system.notify_fenced(zombie, via_vm=vm)
        # Plain upstream backup never stops the upstreams (see
        # _commit_fresh): they only learn the new route.
        self._reroute(plan.op_name, new_routing, pause=False)
        if system.detector is not None:
            system.detector.forget_slot(failed.uid)
        op.instances = [instance]
        if plan.state_source == SOURCE_SOURCE_REPLAY:
            self._mark_replay_path(op, instance)
        self._enter_commit(op)

    def _mark_replay_path(
        self, op: Reconfiguration, instance: "OperatorInstance"
    ) -> None:
        """Put the rebuilt operator and its ancestors into replay-accept
        mode; healthy partitions elsewhere keep dropping flagged tuples."""
        system = self.system
        query = system.query_manager.query
        assert query is not None
        ancestors: set[str] = set()
        frontier = [instance.op_name]
        while frontier:
            name = frontier.pop()
            for up in query.upstream_of(name):
                if up not in ancestors:
                    ancestors.add(up)
                    frontier.append(up)
        op.marked = [instance]
        instance.replay_mode = REPLAY_ACCEPT
        for name in ancestors:
            if query.is_source(name):
                continue
            for inst in system.instances_of(name):
                if inst.alive:
                    inst.replay_mode = REPLAY_ACCEPT
                    op.marked.append(inst)

    # -------------------------------------------------------------- COMMIT

    def _enter_commit(self, op: Reconfiguration) -> None:
        self._enter(op, PHASE_COMMIT)
        source = op.plan.state_source
        if source == SOURCE_BACKUP:
            if op.plan.preserve_slots:
                self._commit_preserved(op)
            else:
                self._commit_partitioned(op)
        elif source == SOURCE_MERGE:
            self._commit_merged(op)
        elif source == SOURCE_FRESH:
            self._commit_fresh(op)
        else:
            self._commit_source_replay(op)

    def _commit_partitioned(self, op: Reconfiguration) -> None:
        """Swap routing to the new partitions and replay (Alg. 3 l. 7-14)."""
        system = self.system
        qm = system.query_manager
        plan = op.plan
        op.committed = True
        assert op.groups is not None

        # Freeze the old instance now: everything it processed up to this
        # instant was already emitted downstream, so the new partitions
        # suppress re-emission for inputs at or below these positions
        # (exactly-once hand-over) while still rebuilding state from them.
        system.trim_locks.discard(op.old_slot.uid)
        frozen = system.instances.get(op.old_slot.uid)
        if frozen is not None and frozen.alive and frozen.vm.alive:
            op.suppress = frozen.freeze_positions()
        for instance in op.instances:
            instance.set_suppression(op.suppress)

        # Execution graph and authoritative routing state.
        qm.replace_slots(plan.op_name, [op.old_slot], op.new_slots)
        replacements = [
            (interval, slot.uid)
            for group, slot in zip(op.groups, op.new_slots)
            for interval in group
        ]
        old_routing = qm.routing_to(plan.op_name)
        new_routing = old_routing.replace_target(op.old_slot.uid, replacements)
        qm.store_routing(plan.op_name, new_routing)

        # Retire the old instance and its backup (Algorithm 3, line 8;
        # the VM is only released now that restore-state has completed).
        old = system.instances.pop(op.old_slot.uid, None)
        if old is not None and old.alive:
            # A live predecessor is retired gracefully — this covers both
            # plain scale out and parallel recovery of a falsely-suspected
            # primary.  No fence: its frozen positions became the
            # suppression bound, which assumes its in-flight emissions
            # still deliver.
            system.retire_backup_store(old.vm)
            old.stop(release_vm=True)
        elif plan.is_recovery:
            # The predecessor was believed dead.  Fence its (retired) uid
            # so anything still stamped with it — a zombie that revives
            # behind a partition, or its in-flight checkpoint shipments —
            # is rejected rather than replayed into the new partitions'
            # timelines.  The partitioned checkpoint's output clock is
            # the committed-prefix floor — the partitions replay inputs
            # from its positions and re-derive only what lies above it.
            system.fence_slot(
                op.old_slot.uid,
                floor=op.ckpt.out_clock if op.ckpt is not None else 0,
            )
        system.drop_backup(op.old_slot.uid)
        if system.detector is not None:
            system.detector.forget_slot(op.old_slot.uid)

        # Replay the restored output buffers to downstream operators
        # (Algorithm 3, line 7); receivers drop what they already saw.
        for instance in op.instances:
            instance.replay_all_buffers()

        # Update every upstream operator: stop, repartition routing and
        # buffers, replay unprocessed tuples, restart (lines 9-14).
        upstreams = self._reroute(plan.op_name, new_routing)
        sent, by_slot = self._replay_into(
            op, upstreams, [slot.uid for slot in op.new_slots]
        )
        self._await_drains(op, sent, by_slot, REPLAY_DEDUP)
        for upstream in upstreams:
            upstream.resume()

        system.record_vm_count()
        kind = "recovery_restored" if plan.is_recovery else "scale_out"
        system.metrics.mark_event(
            system.sim.now, kind, f"{plan.op_name} pi={plan.parallelism}"
        )

    def _commit_preserved(self, op: Reconfiguration) -> None:
        """Serial recovery hand-over: same slot, restored τ, replays."""
        system = self.system
        op.committed = True
        instance = op.instances[0]
        instance.replay_all_buffers()
        # Routing is unchanged (same slot uid): the upstreams only stop
        # while their buffers replay.
        upstreams = system.live_upstreams(op.plan.op_name)
        for upstream in upstreams:
            upstream.pause()
        sent, by_slot = self._replay_into(op, upstreams, [instance.uid])
        self._await_drains(op, sent, by_slot, REPLAY_DEDUP)
        for upstream in upstreams:
            upstream.resume()
        system.record_vm_count()
        system.metrics.mark_event(
            system.sim.now, "recovery_restored", repr(op.old_slot)
        )

    def _commit_merged(self, op: Reconfiguration) -> None:
        system = self.system
        qm = system.query_manager
        plan = op.plan
        op.committed = True
        left, right = op.old_instances
        instance = op.instances[0]
        new_uid = instance.uid

        qm.replace_slots(
            plan.op_name, [left.slot, right.slot], [op.new_slots[0]]
        )
        routing = qm.routing_to(plan.op_name)
        routing = routing.reassign(left.uid, new_uid)
        routing = routing.merge_targets(new_uid, right.uid)
        qm.store_routing(plan.op_name, routing)

        # Initial backup for the merged partition (merge is fault tolerant
        # from the instant it commits).
        backup_vm = system.choose_backup_vm(instance)
        if backup_vm is not None:
            store = system.backup_stores.setdefault(
                backup_vm.vm_id, BackupStore()
            )
            store.store(op.merged_ckpt)
            system.backup_locations[new_uid] = backup_vm

        for old in (left, right):
            system.instances.pop(old.uid, None)
            system.retire_backup_store(old.vm)
            old.stop(release_vm=True)
            system.drop_backup(old.uid)
            if system.detector is not None:
                system.detector.forget_slot(old.uid)

        # The upstreams are still stopped from PLAN and flushed: rerouting
        # them all before restarting any sends nothing in between.
        for upstream in self._reroute(plan.op_name, routing, pause=False):
            upstream.resume()
        system.record_vm_count()
        # Merges quiesced before committing: nothing left to drain.
        self._enter(op, PHASE_REPLAY_DRAIN)
        self._finish(op)

    def _commit_fresh(self, op: Reconfiguration) -> None:
        """Upstream backup: replay upstream buffers into the fresh state.

        Unlike R+SM's coordinated scale-out path, plain upstream backup
        does not stop upstream operators: replayed tuples compete with
        fresh input at the rebuilt operator, which is what makes UB
        slower than SR at high rates (§6.2).
        """
        system = self.system
        op.committed = True
        upstreams = system.live_upstreams(op.plan.op_name)
        sent, by_slot = self._replay_into(op, upstreams, [op.instances[0].uid])
        self._await_drains(op, sent, by_slot, REPLAY_ACCEPT)
        system.record_vm_count()

    def _commit_source_replay(self, op: Reconfiguration) -> None:
        """Source replay: stop the sources and push their buffers through
        the whole pipeline; completion is pipeline quiescence."""
        system = self.system
        op.committed = True
        for controller in system.source_controllers.values():
            controller.pause()
        query = system.query_manager.query
        assert query is not None
        replayed = 0
        for src_name in query.sources:
            for source in system.instances_of(src_name):
                if source.alive:
                    replayed += source.replay_all_buffers(flag_replay=True)
        self._enter(op, PHASE_REPLAY_DRAIN)
        if replayed == 0:
            self._finish(op)
            system.record_vm_count()
            return
        state = {"delivered": system.network.messages_delivered, "quiet": 0}
        system.sim.schedule(_SR_POLL, self._poll_sr_quiescence, op, state)
        system.record_vm_count()

    # -------------------------------------------------------- REPLAY_DRAIN

    def _reroute(
        self,
        op_name: str,
        routing: RoutingState,
        pause: bool = True,
    ) -> list["OperatorInstance"]:
        """stop-operator + partition-buffer-state (Alg. 3 lines 9-11).

        Installs ``routing`` on every *current* live upstream of
        ``op_name`` and re-buckets their buffers under it, stopping each
        first unless ``pause`` is false.  Returns those upstreams; the
        caller replays from and restarts them.
        """
        upstreams = self.system.live_upstreams(op_name)
        for upstream in upstreams:
            if pause:
                upstream.pause()
            upstream.set_routing(op_name, routing)
            upstream.repartition_buffer(op_name)
        return upstreams

    def _replay_into(
        self,
        op: Reconfiguration,
        upstreams: list["OperatorInstance"],
        target_uids: list[int],
        ids: set[tuple[int, int]] | None = None,
    ) -> tuple[dict[int, int], dict[int, dict[int, int]]]:
        """replay-buffer-state (Alg. 3 lines 12-13) into the targets.

        Every upstream resends its buffered tuples for each target,
        flagged as replays.  Returns, per target uid, the number of
        replays sent and their breakdown by origin slot stamp (what the
        target's drain must count); ``ids`` collects the replayed
        ``(slot, ts)`` pairs when the drain needs them exactly.

        Each upstream that replayed anything is watched: a feeder VM
        crash silently drops its unsent replays, which would wedge the
        drain (and the busy slot) forever.  The feeder's own recovery
        re-delivers the gap from its restored buffer, so on its death
        the draining targets release its share and rewind their arrival
        watermarks (see ``release_replays_from``).
        """
        sent = {uid: 0 for uid in target_uids}
        by_slot: dict[int, dict[int, int]] = {uid: {} for uid in target_uids}
        for upstream in upstreams:
            stamps: set[int] = set()
            for uid in target_uids:
                counts: dict[int, int] = {}
                sent[uid] += upstream.replay_buffer_to(
                    uid, flag_replay=True, counts=counts, ids=ids
                )
                per = by_slot[uid]
                for stamp, n in counts.items():
                    per[stamp] = per.get(stamp, 0) + n
                stamps |= counts.keys()
            if stamps:
                upstream.vm.on_failure(
                    lambda _vm, op=op, stamps=frozenset(stamps): (
                        self._drain_feeder_failed(op, stamps)
                    )
                )
        return sent, by_slot

    def _await_drains(
        self,
        op: Reconfiguration,
        sent: dict[int, int],
        by_slot: dict[int, dict[int, int]],
        mode: str,
    ) -> None:
        """Enter REPLAY_DRAIN: every replacement admits its replays under
        ``mode`` and reports once it re-processed all of them."""
        op.pending_drain_uids = {instance.uid for instance in op.instances}
        self._enter(op, PHASE_REPLAY_DRAIN)
        for instance in op.instances:
            instance.replay_mode = mode
            instance.expect_replays(
                sent[instance.uid],
                lambda op=op, uid=instance.uid: self._drain_done(op, uid),
                flagged_only=True,
                by_slot=by_slot[instance.uid],
            )

    def _drain_feeder_failed(
        self, op: Reconfiguration, stamps: frozenset[int]
    ) -> None:
        if op.finished:
            return
        for uid in list(op.pending_drain_uids):
            dest = self.system.instances.get(uid)
            if dest is None or not dest.alive:
                continue
            for stamp in stamps:
                dest.release_replays_from(stamp)

    def _drain_done(self, op: Reconfiguration, uid: int) -> None:
        """One replacement's replay drain completed (or was released
        because the replacement died).  Idempotent per slot uid."""
        if op.finished:
            return
        op.pending_drain_uids.discard(uid)
        if op.pending_drain_uids:
            return
        self._finish(op)

    def _poll_sr_quiescence(self, op: Reconfiguration, state: dict) -> None:
        system = self.system
        delivered = system.network.messages_delivered
        busy = any(
            inst.vm.alive and not inst.is_quiescent()
            for inst in system.instances.values()
            if inst.alive
        )
        if not busy and delivered == state["delivered"]:
            state["quiet"] += 1
        else:
            state["quiet"] = 0
        state["delivered"] = delivered
        if state["quiet"] >= _SR_QUIET_POLLS:
            self._finish(op)
            return
        system.sim.schedule(_SR_POLL, self._poll_sr_quiescence, op, state)

    # ----------------------------------------------------------------- DONE

    def _finish(self, op: Reconfiguration) -> None:
        if op.finished:
            return
        system = self.system
        plan = op.plan
        op.finished = True
        origin = (
            plan.failure_time if plan.failure_time is not None else op.started_at
        )
        duration = system.sim.now - origin
        if plan.state_source == SOURCE_MERGE:
            self.merges_completed += 1
            self._busy_merges.discard(plan.op_name)
            system.metrics.mark_event(
                system.sim.now,
                "scale_in_complete",
                f"{plan.op_name} -> {op.instances[0].slot!r} {duration:.3f}s",
            )
        else:
            if plan.state_source == SOURCE_SOURCE_REPLAY:
                for inst in op.marked:
                    inst.replay_mode = REPLAY_DROP
                for controller in system.source_controllers.values():
                    controller.resume()
            else:
                for instance in op.instances:
                    instance.replay_mode = REPLAY_DROP
            self._busy_slots.pop(op.old_slot.uid, None)
            self.operations_completed += 1
            if plan.is_recovery:
                detail = (
                    f"{plan.label} {op.instances[0].slot!r}".strip()
                    if plan.label
                    else plan.op_name
                )
                system.metrics.mark_event(
                    system.sim.now,
                    "recovery_complete",
                    f"{detail} {duration:.3f}s",
                )
                system.metrics.timeseries("recovery_time").record(
                    system.sim.now, duration
                )
            else:
                system.metrics.mark_event(
                    system.sim.now,
                    "scale_out_complete",
                    f"{plan.op_name} {duration:.3f}s",
                )
                system.metrics.timeseries("scale_out_duration").record(
                    system.sim.now, duration
                )
        self._close(op, PHASE_DONE)
        if plan.on_complete is not None:
            plan.on_complete(duration)

    # ---------------------------------------------------------------- abort

    def abort_operations_on_backup_vm(self, vm: VirtualMachine) -> None:
        """Abort in-flight operations whose state lives on a retiring VM."""
        for op in list(self._active):
            if (
                op.backup_vm is not None
                and op.backup_vm.vm_id == vm.vm_id
                and not op.committed
            ):
                self._abort(op, "backup VM retired")

    def _abort(self, op: Reconfiguration, why: str) -> None:
        if op.aborted or op.finished:
            return
        if op.fluid is not None and op.fluid.committed_chunks < op.fluid.total:
            # Fluid migrations commit chunk by chunk; their abort keeps
            # the committed chunks instead of unwinding everything.  Once
            # the last chunk committed only its drain remains, as for any
            # operation past COMMIT, and nothing is left to abort.
            self._abort_fluid(op, why)
            return
        if op.committed:
            return
        system = self.system
        plan = op.plan
        op.aborted = True
        if plan.state_source == SOURCE_MERGE:
            self.merges_aborted += 1
            self._busy_merges.discard(plan.op_name)
            for upstream in op.upstreams:
                if upstream.alive:
                    upstream.resume()
            for vm in op.vms:
                system.pool.give_back(vm)
            op.vms.clear()
            system.metrics.mark_event(
                system.sim.now, "scale_in_aborted", f"{plan.op_name}: {why}"
            )
        else:
            self.operations_aborted += 1
            self._busy_slots.pop(op.old_slot.uid, None)
            system.trim_locks.discard(op.old_slot.uid)
            # Re-arm checkpointing if the (still live) old instance had
            # its daemon stopped during preparation.
            survivor = system.instances.get(op.old_slot.uid)
            if survivor is not None and survivor.alive:
                survivor.start_checkpointing()
            # The frozen bottleneck continues unaffected (§4.3 benefit iii).
            old = system.instance(op.old_slot.uid)
            if old is not None and old.alive:
                old.resume()
            # Tear down replacement instances deployed before the abort:
            # they were never committed into the execution graph, and
            # leaving them registered would leak zombie instances (and
            # pool VMs that still appear occupied).
            for instance in op.instances:
                if (
                    not op.plan.preserve_slots
                    and system.instances.get(instance.uid) is instance
                ):
                    system.instances.pop(instance.uid, None)
                instance.stop(release_vm=False)
            op.instances.clear()
            if (
                plan.state_source == SOURCE_BACKUP
                and not op.plan.preserve_slots
            ):
                # Drop the partitions' initial backups stored during
                # CHECKPOINT_PARTITION (Algorithm 2, line 8).
                for slot in op.new_slots:
                    if slot.uid != op.old_slot.uid:
                        system.drop_backup(slot.uid)
            for vm in op.vms:
                system.pool.give_back(vm)
            op.vms.clear()
            kind = (
                "scale_out_aborted"
                if plan.state_source == SOURCE_BACKUP
                else "recovery_aborted"
            )
            system.metrics.mark_event(
                system.sim.now, kind, f"{plan.op_name}: {why}"
            )
            if plan.is_recovery and system.recovery is not None:
                # The operator is still dead; retry under the recovery
                # coordinator's capped exponential backoff (repeatedly
                # aborted recoveries — e.g. a backup VM dying every
                # attempt — wait longer each round instead of hammering
                # a fixed 1 s schedule).
                failed = system.instances.get(op.old_slot.uid)
                if failed is not None and not failed.alive:
                    assert plan.failure_time is not None
                    system.recovery.schedule_retry(failed, plan.failure_time)
        self._close(op, PHASE_ABORTED)
