"""Checkpoints of operator state (§3.2, Algorithm 1).

A :class:`Checkpoint` is the value produced by ``checkpoint-state(o)``:
a consistent snapshot of the processing state θ, the timestamp vector τ
of the most recent input tuples reflected in it, the buffer state β, and
the operator's output clock.  Checkpoints are shipped to an upstream VM's
backup store and later partitioned (scale out) or restored (recovery).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.config import CHECKPOINT_MODE_BARRIER
from repro.core.state import KeyInterval, OutputBuffer, ProcessingState, stable_hash
from repro.errors import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.spill import ExternalStateStore


@dataclass
class Checkpoint:
    """A consistent snapshot of one operator slot's externalised state.

    A checkpoint is normally *full*.  With incremental checkpointing
    (§3.2, [17]) it may instead be a *delta*: ``state`` then carries only
    the entries touched since the base checkpoint ``base_seq`` (plus the
    full τ vector, clock and buffers, which are cheap), and
    ``deleted_keys`` the entries removed.  Backup stores materialise
    deltas on arrival, so everything downstream of the store — restore,
    partitioning, recovery — only ever sees full checkpoints.
    """

    op_name: str
    slot_uid: int
    state: ProcessingState
    buffers: dict[str, OutputBuffer] = field(default_factory=dict)
    taken_at: float = 0.0
    seq: int = 0
    incremental: bool = False
    base_seq: int = 0
    deleted_keys: frozenset = frozenset()

    @property
    def positions(self) -> dict[int, int]:
        """The τ vector: last reflected input timestamp per connection."""
        return self.state.positions

    @property
    def out_clock(self) -> int:
        return self.state.out_clock

    def entry_count(self) -> int:
        """Number of processing-state entries in the snapshot."""
        return len(self.state)

    def size_bytes(self, bytes_per_entry: float, bytes_per_tuple: float) -> float:
        """Approximate serialised size for network transfer cost.

        Byte-per-entry/-tuple constants come from
        ``SystemConfig.bytes_per_entry`` / ``bytes_per_tuple`` so the
        transfer-cost model and chunk sizing share one source of truth.
        """
        buffered = sum(b.tuple_count() for b in self.buffers.values())
        return self.state.estimated_bytes(bytes_per_entry) + buffered * bytes_per_tuple


class EpochCut:
    """One operator slot's state cut for one snapshot epoch.

    The descriptor every checkpoint producer hands to the
    :class:`Checkpointer` and every consumer (``StateBackend.on_checkpoint``,
    backup shipment, recovery) receives.  It wraps the raw
    :class:`Checkpoint` payload and carries the coordination context the
    payload itself does not know:

    ``epoch``
        The barrier-snapshot epoch this cut belongs to (0 for phase-mode
        and out-of-band cuts, which are not epoch-aligned).
    ``fence_epoch``
        The cutting slot's PR 7 fencing epoch, stamped on the shipment so
        a fenced (condemned) zombie's cuts are rejected at the store.
    ``positions`` (τ) / ``out_clock`` / ``fence_floor``
        Delegated from the payload; ``fence_floor`` is the committed-prefix
        floor a recovery installing this cut must pass to ``fence_slot``.
    """

    __slots__ = ("checkpoint", "epoch", "fence_epoch")

    def __init__(
        self, checkpoint: Checkpoint, *, epoch: int = 0, fence_epoch: int = 0
    ) -> None:
        self.checkpoint = checkpoint
        self.epoch = epoch
        self.fence_epoch = fence_epoch

    # -- delegated payload attributes ----------------------------------
    @property
    def op_name(self) -> str:
        return self.checkpoint.op_name

    @property
    def slot_uid(self) -> int:
        return self.checkpoint.slot_uid

    @property
    def state(self) -> ProcessingState:
        return self.checkpoint.state

    @property
    def buffers(self) -> dict[str, OutputBuffer]:
        return self.checkpoint.buffers

    @property
    def taken_at(self) -> float:
        return self.checkpoint.taken_at

    @property
    def seq(self) -> int:
        return self.checkpoint.seq

    @property
    def incremental(self) -> bool:
        return self.checkpoint.incremental

    @property
    def base_seq(self) -> int:
        return self.checkpoint.base_seq

    @property
    def deleted_keys(self) -> frozenset:
        return self.checkpoint.deleted_keys

    @property
    def positions(self) -> dict[int, int]:
        """The τ vector: last reflected input timestamp per connection."""
        return self.checkpoint.positions

    @property
    def out_clock(self) -> int:
        return self.checkpoint.out_clock

    @property
    def fence_floor(self) -> int:
        """Committed-prefix floor for ``fence_slot`` when restoring this cut."""
        return self.checkpoint.out_clock

    def entry_count(self) -> int:
        return self.checkpoint.entry_count()

    def size_bytes(self, bytes_per_entry: float, bytes_per_tuple: float) -> float:
        return self.checkpoint.size_bytes(bytes_per_entry, bytes_per_tuple)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EpochCut(epoch={self.epoch}, op={self.op_name!r}, "
            f"slot={self.slot_uid}, seq={self.seq}, "
            f"incremental={self.incremental})"
        )


def as_checkpoint(cut: "Checkpoint | EpochCut") -> Checkpoint:
    """Unwrap an :class:`EpochCut` to its payload (identity on Checkpoint)."""
    return cut.checkpoint if isinstance(cut, EpochCut) else cut


@dataclass
class RestorePlan:
    """Where a slot's recovery state comes from (``Checkpointer.restore_plan``).

    ``checkpoint`` is the restorable cut — a materialised full checkpoint
    from a backup store, or one synthesised from the external state tier
    (``external=True``) when the backup died with its VM.  ``None`` means
    the slot is unrecoverable from state management.
    """

    slot_uid: int
    checkpoint: Checkpoint | None
    external: bool = False

    @property
    def fence_floor(self) -> int:
        """Committed-prefix floor for ``fence_slot`` (0 when nothing restores)."""
        return self.checkpoint.out_clock if self.checkpoint is not None else 0


class _EpochState:
    """Checkpointer-side bookkeeping for one in-flight snapshot epoch."""

    __slots__ = ("expected", "started_at")

    def __init__(self, expected: set[int], started_at: float) -> None:
        self.expected = expected
        self.started_at = started_at


class Checkpointer:
    """The single coordination seam for checkpoint producers and consumers.

    Owned by the :class:`~repro.runtime.system.StreamProcessingSystem`.
    Every cut — phase-mode periodic, barrier-mode epoch-aligned, or
    out-of-band (lost-backup re-checkpoint) — flows through :meth:`cut`,
    and every recovery's backup selection flows through
    :meth:`restore_plan`.

    Barrier mode (``checkpoint_mode=barrier``) adds the epoch lifecycle:
    :meth:`start_epoch` injects numbered barriers at the sources,
    :meth:`begin_epoch` records which worker slots owe a cut, and a
    snapshot :meth:`complete`\\ s once all of them have reported.  Cuts
    are shipped to the backup VM through the :class:`StateMover` (they
    are state movement, accounted as migration traffic), and a failure
    mid-epoch aborts every in-flight epoch so recovery falls back to the
    last *complete* epoch.

    Batched and columnar delivery need no special handling here: an
    instance force-flushes its pending output batches whenever its epoch
    stamp advances, so a batch — and therefore a columnar
    :class:`~repro.core.tuples.TupleBlock`, which is just a flushed
    batch in columnar form — never spans an epoch boundary on the wire.
    Receivers fence whole messages on the stamped epoch, and an active
    barrier alignment decomposes arriving blocks to rows (per-row
    parking is what alignment means), so the epoch protocol only ever
    sees per-epoch-homogeneous traffic.
    """

    def __init__(self, system: Any) -> None:
        # Imported lazily: migration imports this module for Checkpoint.
        from repro.core.migration import StateMover

        self.system = system
        self.mover = StateMover(system)
        self.epoch_counter = 0
        self.last_complete_epoch = 0
        self.epochs_aborted = 0
        self._inflight: dict[int, _EpochState] = {}

    # -- epoch lifecycle -----------------------------------------------
    @property
    def barrier_mode(self) -> bool:
        return self.system.config.checkpoint.mode == CHECKPOINT_MODE_BARRIER

    def epoch_inflight(self, epoch: int) -> bool:
        """Whether ``epoch`` is still being aligned/cut somewhere."""
        return epoch in self._inflight

    def start_epoch(self) -> int:
        """Open the next snapshot epoch and inject its source barriers."""
        # An epoch wedged for several intervals (e.g. a worker paused
        # through reconfiguration when its barrier arrived) will never
        # complete; reap it so instances stop parking on its account.
        epoch = self.epoch_counter + 1
        for stale in [e for e in self._inflight if e <= epoch - 4]:
            self._abort_epoch(stale, reason="stale")
        self.epoch_counter = epoch
        self.begin_epoch(epoch)
        for instance in list(self.system.instances.values()):
            if instance.is_source and instance.alive and instance.vm.alive:
                instance.inject_barrier(epoch)
        return epoch

    def begin_epoch(self, epoch: int) -> None:
        """Record the worker slots that owe a cut for ``epoch``."""
        expected = {
            inst.uid for inst in self.system.worker_instances() if inst.vm.alive
        }
        self._inflight[epoch] = _EpochState(expected, self.system.sim.now)

    def cut(self, instance: Any, cut: EpochCut) -> None:
        """One operator reported its cut: account, track, and ship it.

        Phase-mode cuts (``epoch == 0``) ship exactly like today —
        directly via ``system.backup_checkpoint`` — keeping the default
        mode bit-identical.  Barrier-mode cuts ship through the
        StateMover and count towards epoch completion.
        """
        checkpoint = cut.checkpoint
        cfg = self.system.config.checkpoint
        size = checkpoint.size_bytes(cfg.bytes_per_entry, cfg.bytes_per_tuple)
        self.system.telemetry.epoch_cut(
            instance.op_name, instance.uid, cut.epoch, size, checkpoint.incremental
        )
        state = self._inflight.get(cut.epoch) if cut.epoch else None
        if state is not None and instance.uid in state.expected:
            state.expected.discard(instance.uid)
            if not state.expected:
                self.complete(cut.epoch)
        if self.barrier_mode:
            target = self.system.choose_backup_vm(instance)
            if target is None:
                return
            self.mover.ship(
                self,
                instance.vm,
                target,
                checkpoint,
                self.system._store_backup,
                checkpoint,
                target,
                None,
                cut.fence_epoch,
            )
        else:
            self.system.backup_checkpoint(instance, checkpoint)

    def complete(self, epoch: int) -> None:
        """All expected slots cut ``epoch``: the snapshot is consistent."""
        state = self._inflight.pop(epoch, None)
        if epoch > self.last_complete_epoch:
            self.last_complete_epoch = epoch
        telemetry = self.system.telemetry
        telemetry.increment("epochs_completed")
        if state is not None:
            telemetry.event(
                "epoch_complete",
                f"epoch {epoch} complete",
                epoch=epoch,
                duration=self.system.sim.now - state.started_at,
            )

    def on_instance_failed(self, instance: Any) -> None:
        """A slot died: abort every in-flight epoch (barrier mode only).

        The dead slot can never report its cut, so those epochs cannot
        complete; aborting releases parked tuples everywhere and leaves
        each backup at its last complete epoch — exactly what recovery
        falls back to.
        """
        if not self._inflight:
            return
        for epoch in sorted(self._inflight):
            self._abort_epoch(epoch, reason=f"slot {instance.uid} failed")

    def _abort_epoch(self, epoch: int, reason: str) -> None:
        self._inflight.pop(epoch, None)
        self.epochs_aborted += 1
        telemetry = self.system.telemetry
        telemetry.increment("epochs_aborted")
        telemetry.event("epoch_aborted", f"epoch {epoch}: {reason}", epoch=epoch)
        for inst in list(self.system.instances.values()):
            if inst.alive and inst.vm.alive:
                inst.abort_barrier_alignment(epoch)

    # -- recovery ------------------------------------------------------
    def restore_plan(self, slot_uid: int, allow_external: bool = True) -> RestorePlan:
        """Select the recovery source for ``slot_uid``.

        Precedence: live backup store first (already materialised to the
        last complete cut), then — with ``allow_external`` — a checkpoint
        synthesised from the external state tier.
        """
        checkpoint = self.system.backup_of(slot_uid)
        if checkpoint is not None:
            return RestorePlan(slot_uid, checkpoint, external=False)
        if allow_external:
            checkpoint = self._external_checkpoint(slot_uid)
            if checkpoint is not None:
                return RestorePlan(slot_uid, checkpoint, external=True)
        return RestorePlan(slot_uid, None, external=False)

    def _external_checkpoint(self, slot_uid: int) -> Checkpoint | None:
        system = self.system
        store = system.external_store
        if len(store) == 0:
            return None
        instance = system.instances.get(slot_uid)
        if instance is None:
            return None
        routing = system.query_manager.routing_to(instance.op_name)
        intervals = routing.intervals_of(slot_uid) if routing is not None else None
        return from_external_store(
            store,
            instance.op_name,
            slot_uid,
            intervals,
            taken_at=system.sim.now,
        )


def materialize_increment(base: Checkpoint, delta: Checkpoint) -> Checkpoint:
    """Apply a delta checkpoint to its base, yielding a full checkpoint.

    Raises :class:`CheckpointError` when the delta does not chain onto the
    base (the owner must then fall back to a full checkpoint).
    """
    if not delta.incremental:
        raise CheckpointError("materialize_increment called with a full checkpoint")
    if base.slot_uid != delta.slot_uid or base.op_name != delta.op_name:
        raise CheckpointError(
            f"delta for {delta.op_name}/{delta.slot_uid} does not match base "
            f"{base.op_name}/{base.slot_uid}"
        )
    if base.incremental:
        raise CheckpointError("base checkpoint is itself a delta")
    if base.seq != delta.base_seq:
        raise CheckpointError(
            f"delta chains onto seq {delta.base_seq}, store holds {base.seq}"
        )
    entries = dict(base.state.entries)
    entries.update(delta.state.entries)
    for key in delta.deleted_keys:
        entries.pop(key, None)
    merged = ProcessingState(
        entries, positions=delta.positions, out_clock=delta.out_clock
    )
    return Checkpoint(
        op_name=delta.op_name,
        slot_uid=delta.slot_uid,
        state=merged,
        buffers=delta.buffers,
        taken_at=delta.taken_at,
        seq=delta.seq,
    )


def from_external_store(
    store: "ExternalStateStore",
    op_name: str,
    slot_uid: int,
    intervals: list[KeyInterval] | None = None,
    taken_at: float = 0.0,
) -> Checkpoint | None:
    """Synthesise a restorable checkpoint from the external state tier.

    The recovery source of last resort: when the failed slot's backup VM
    died too, its last flushed cut still lives in the external store.
    The cut's τ vector, output clock and seq come from the flush
    metadata, so the synthesised checkpoint replays and dedups exactly
    like one retrieved from a backup store.  ``intervals`` restricts the
    restored entries to the slot's own key range (other partitions of
    the operator persist into the same namespace).  Output buffers are
    not persisted externally — the restored instance starts with empty
    β, which is safe under the paper's single-failure-at-a-time scope.

    Returns ``None`` when the slot never flushed a cut.
    """
    meta = store.load_meta(op_name, slot_uid)
    if meta is None:
        return None
    positions, out_clock, seq = meta
    entries = store.restore_all(op_name)
    if intervals is not None:
        entries = {
            key: value
            for key, value in entries.items()
            if any(stable_hash(key) in interval for interval in intervals)
        }
    state = ProcessingState(entries, positions=positions, out_clock=out_clock)
    return Checkpoint(
        op_name=op_name,
        slot_uid=slot_uid,
        state=state,
        taken_at=taken_at,
        seq=seq,
    )


class BackupStore:
    """Backed-up checkpoints held on one VM (the ``backup(o)`` role).

    In the paper the backup of operator *o* lives with one of *o*'s
    upstream operators, selected by ``hash(id(o)) mod |up(o)|``; this class
    is the container on that upstream VM.  It dies with the VM.
    """

    def __init__(self) -> None:
        self._checkpoints: dict[int, Checkpoint] = {}

    def store(self, checkpoint: Checkpoint) -> None:
        """store-backup: keep the most recent checkpoint per owner slot."""
        existing = self._checkpoints.get(checkpoint.slot_uid)
        if existing is not None and existing.seq > checkpoint.seq:
            raise CheckpointError(
                f"stale checkpoint seq {checkpoint.seq} for slot "
                f"{checkpoint.slot_uid} (have {existing.seq})"
            )
        self._checkpoints[checkpoint.slot_uid] = checkpoint

    def retrieve(self, slot_uid: int) -> Checkpoint:
        """retrieve-backup: fetch the checkpoint for ``slot_uid``."""
        checkpoint = self._checkpoints.get(slot_uid)
        if checkpoint is None:
            raise CheckpointError(f"no backup for slot {slot_uid}")
        return checkpoint

    def has(self, slot_uid: int) -> bool:
        """Whether a backup exists for ``slot_uid``."""
        return slot_uid in self._checkpoints

    def delete(self, slot_uid: int) -> None:
        """delete-backup: release a superseded backup (Algorithm 1 line 6)."""
        self._checkpoints.pop(slot_uid, None)

    def owners(self) -> list[int]:
        """Slot uids with a backup in this store."""
        return list(self._checkpoints)

    def __len__(self) -> int:
        return len(self._checkpoints)
