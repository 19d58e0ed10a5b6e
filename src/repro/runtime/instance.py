"""Operator instances: the physical realisation of one execution-graph slot.

An :class:`OperatorInstance` runs one partition of one logical operator on
one VM.  It owns the three kinds of externalised state from §3.1:

* processing state θ (with the τ vector and the logical output clock),
* buffer state β (output buffers per downstream logical operator),
* a local mirror of the routing state ρ toward each downstream operator.

It implements the data plane (receive → queue on the VM CPU → process →
emit/dispatch) and the per-instance halves of the state management
primitives: taking checkpoints, trimming buffers, replaying buffers, and
being restored from a checkpoint.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable

from repro.config import CHECKPOINT_MODE_BARRIER
from repro.core.backend import backend_for
from repro.core.checkpoint import Checkpoint, EpochCut
from repro.core.operator import Operator, OperatorContext
from repro.core.state import (
    OutputBuffer,
    ProcessingState,
    RoutingState,
    _copy_value as _copy_state_value,
)
from repro.core.tuples import Tuple, TupleBlock, stable_hash
from repro.errors import RuntimeStateError
from repro.sim.network import KIND_CREDIT
from repro.sim.simulator import PeriodicTask
from repro.sim.vm import VirtualMachine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.execution import Slot
    from repro.runtime.system import StreamProcessingSystem


class InstanceStatus(enum.Enum):
    RUNNING = "running"
    PAUSED = "paused"
    STOPPED = "stopped"
    FAILED = "failed"


#: Replay-flagged tuples are foreign re-derivations: drop them (default).
REPLAY_DROP = "drop"
#: Deduplicate replays against the duplicate-filter watermarks — the mode
#: of an R+SM-restored instance, whose watermarks come from the restored
#: τ vector.
REPLAY_DEDUP = "dedup"
#: Re-process replays unconditionally — the rebuild mode of the baseline
#: strategies (fresh state) and of intermediate operators re-deriving a
#: failed operator's input during source replay.
REPLAY_ACCEPT = "accept"


class _BarrierAlignment:
    """Per-epoch barrier-alignment state at one operator instance.

    Created when the first input barrier of an epoch arrives.  ``awaited``
    holds the upstream slot uids whose barrier is still outstanding;
    ``blocked`` the ones whose barrier already arrived — data from a
    blocked input is *parked* (kept raw, pre-admission) so it cannot leak
    into this epoch's cut ahead of the slower inputs, and is re-delivered
    in arrival order once the cut is taken (or the epoch aborts).
    """

    __slots__ = ("awaited", "blocked", "parked", "started_at")

    def __init__(self, awaited: set[int], started_at: float) -> None:
        self.awaited = awaited
        self.blocked: set[int] = set()
        #: ("t", tuple) and ("b", batch) items in arrival order.
        self.parked: list[tuple[str, Any]] = []
        self.started_at = started_at


class OperatorInstance:
    """One partition of a logical operator deployed on a VM."""

    def __init__(
        self,
        system: "StreamProcessingSystem",
        operator: Operator,
        slot: "Slot",
        vm: VirtualMachine,
        downstream_names: list[str],
        is_source: bool = False,
        is_sink: bool = False,
        buffered_downstreams: set[str] | None = None,
    ) -> None:
        self.system = system
        self.operator = operator
        self.slot = slot
        self.vm = vm
        self.is_source = is_source
        self.is_sink = is_sink
        #: Active-replication replicas process and keep state but emit
        #: nothing until promoted.
        self.is_replica = False
        #: Fencing epoch this instance emits under, frozen at build time.
        #: A recovery install bumps the slot's epoch *before* building
        #: the replacement, so a zombie predecessor keeps the old value
        #: and every receiver can tell its traffic apart (0 for every
        #: instance of a never-fenced slot — the default-path no-op).
        self.epoch = system.epoch_of(slot.uid)
        self.status = InstanceStatus.RUNNING
        #: Where this instance's state entries live (memory / spill /
        #: external tiers) — see :mod:`repro.core.backend`.  The default
        #: memory backend is a pass-through around ``initial_state()``.
        self.backend = backend_for(
            system.config.state_backend,
            op_name=operator.name,
            slot_uid=slot.uid,
            is_source=is_source,
            is_sink=is_sink,
            io_cost=self._charge_state_io,
            external_store=system.external_store,
            epoch=self.epoch,
        )
        self.state: ProcessingState = self.backend.initial_state(operator)
        self.buffers: dict[str, OutputBuffer] = {
            name: OutputBuffer() for name in downstream_names
        }
        #: Downstream operators for which output tuples are retained.
        #: Sinks cannot fail, so buffering toward them is pointless; the
        #: source-replay baseline only buffers at sources.
        self._buffered_downs: set[str] = (
            set(downstream_names)
            if buffered_downstreams is None
            else set(buffered_downstreams)
        )
        self.routing: dict[str, RoutingState] = {}
        #: Highest timestamp accepted per origin slot uid (duplicate filter).
        self._arrival_wm: dict[int, int] = {}
        #: Emission suppression bound per input slot uid — outputs whose
        #: triggering input is at or below this were already emitted by the
        #: pre-scale-out instance and must not be emitted again.
        self._suppress_until: dict[int, int] = {}
        #: How replay-flagged tuples are handled (see module constants):
        #: dropped as foreign re-derivations (default), deduplicated
        #: against the restored τ vector (R+SM recovery target), or
        #: re-processed unconditionally (UB/SR rebuild path).
        self.replay_mode = REPLAY_DROP
        #: τ vector frozen at restore time; the duplicate floor for
        #: replay-flagged tuples in dedup mode.
        self._replay_dedup_floor: dict[int, int] = {}
        self._backlog_weight = 0.0
        self._ckpt_seq = 0
        #: Whether the next checkpoint may be a delta (a full one has been
        #: stored and dirty tracking has run since).
        self._can_increment = False
        self._ckpt_task: PeriodicTask | None = None
        self._timer_task: PeriodicTask | None = None
        self._age_trim_task: PeriodicTask | None = None
        self._current_input: Tuple | None = None
        self._replay_expected = 0
        self._replay_done: Callable[[], None] | None = None
        self._replay_flagged_only = False
        #: (slot, ts) pairs already counted toward the expected replays —
        #: a network-duplicated copy must not double-count (it would end
        #: the drain early and flip replay_mode while genuine replays are
        #: still in flight).
        self._replay_seen: set[tuple[int, int]] | None = None
        #: Exact (slot, ts) membership of the current drain's replay wave
        #: (fluid chunk drains pass it): flagged arrivals outside the set
        #: — stray duplicates of *earlier* waves — must not advance the
        #: drain's completion count.
        self._replay_ids: set[tuple[int, int]] | None = None
        #: (slot, ts) pairs of wave replays a dead feeder never delivered.
        #: The feeder's recovery re-derives them as *fresh* sends at or
        #: below the arrival watermark; exactly these may pass the
        #: duplicate filter — a scalar rewind would also re-admit fresh
        #: tuples processed since the wave was cut.  The accompanying
        #: snapshot of the drain's dedup context still applies: an
        #: undelivered pair may predate the chunk floor (its effect rode
        #: the chunk's state), so a gap fill faces the same reflection
        #: test the flagged replay would have.
        self._replay_gap_ids: set[tuple[int, int]] = set()
        self._gap_intervals: list = []
        self._gap_floor: dict[int, int] = {}
        self._gap_wm_start: dict[int, int] = {}
        #: Remaining expected replays per origin slot uid, so the engine
        #: can release one feeder's share if that feeder dies mid-drain.
        self._replay_by_slot: dict[int, int] | None = None
        #: Fresh (non-replay) tuples parked while a dedup-mode replay
        #: drain is in progress.  Processing fresh input *before* pending
        #: replays would re-derive outputs under different out_clock
        #: values, breaking the downstream duplicate filter's assumption
        #: that (slot, ts) identifies one payload.
        self._held_while_draining: list[Tuple] = []
        #: Fluid migration, source side: the key intervals of the chunk
        #: currently in flight (fresh tuples for them are parked in
        #: ``_parked`` until the chunk commits or the migration aborts)
        #: and the intervals already committed away (tuples for them are
        #: dropped — the routing swap makes the upstream's post-commit
        #: replay deliver them to the new owner instead).
        self._parking_intervals: list = []
        self._migrated_intervals: list = []
        self._parked: list[Tuple] = []
        #: Fluid migration, target side: while draining one chunk's
        #: replays, keys inside these intervals dedup against the chunk's
        #: restored τ floor alone; keys outside (already owned and served
        #: live) also dedup against the watermark snapshot taken at the
        #: drain's start.
        self._drain_intervals: list = []
        self._drain_wm_start: dict[int, int] = {}
        #: Highest replay ts accepted per origin during an interval drain:
        #: replays stream ts-ordered per origin, so a network-duplicated
        #: copy lands at or below this and is dropped — the chunk floor
        #: cannot serve as this guard because keys outside the drain
        #: intervals are deliberately not judged against it.
        self._drain_replay_wm: dict[int, int] = {}
        #: Output batching (data-plane fast path): pending output tuples
        #: per destination slot uid, flushed by size, by linger timer, and
        #: at every control-plane barrier.  ``None`` when disabled.
        batching = system.config.batching
        self._batching = batching if batching.enabled else None
        self._batch_pending: dict[int, list[Tuple]] = {}
        self._linger_event = None
        self._latency_counter = 0
        #: Credit-based flow control (requires batching).  ``None`` keeps
        #: every hot-path check a single identity comparison.
        flow = system.config.flow
        self._flow = flow if (flow.enabled and batching.enabled) else None
        #: Sender side: remaining credit per downstream slot uid, lazily
        #: seeded with ``initial_credits`` on first flush toward a dest.
        self._credits: dict[int, float] = {}
        #: Destinations whose pending batch is held for lack of credit.
        self._blocked_dests: set[int] = set()
        #: Open backpressure tracer span per blocked destination.
        self._bp_spans: dict[int, Any] = {}
        #: Receiver side: processed/disposed weight per origin slot uid
        #: not yet granted back as credit.
        self._fc_ungranted: dict[int, float] = {}
        #: Whether the grant policy is currently deferring (gauge edge).
        self._fc_deferring = False
        #: Optional heavy-hitter sketch the hot-key detector attaches;
        #: fed from the admission path in ``_process_one``.  None (the
        #: default) keeps the data plane byte-identical to a system
        #: without hot-key detection.
        self.key_sketch = None
        # Counters (weighted tuples).
        self.processed_weight = 0.0
        self.emitted_weight = 0.0
        self.dropped_duplicates = 0.0
        self.dropped_overflow = 0.0
        self.suppressed_weight = 0.0
        #: Stale-epoch deliveries rejected at this instance's doorstep.
        self.fenced_drops = 0.0
        #: Committed-prefix tuples accepted late under a stale epoch
        #: (held behind a partition while their sender was fenced).
        self.fenced_accepts = 0.0
        #: Highest sender epoch seen per origin slot (normal path).
        self._epoch_seen: dict[int, int] = {}
        #: Arrival watermark frozen per (origin slot, fenced epoch) at
        #: the first delivery after that epoch's timeline was cut: the
        #: boundary between what the condemned timeline already
        #: delivered here and its committed-but-undelivered prefix.
        self._fence_cuts: dict[tuple[int, int], int] = {}
        #: Dedup watermark for late committed-prefix deliveries (held
        #: messages release in per-edge FIFO order, so ts-ordered).
        self._fenced_wm: dict[int, int] = {}
        #: Barrier-mode (``checkpoint_mode=barrier``) epoch alignment,
        #: keyed by snapshot epoch; empty whenever no epoch is in flight
        #: here, which keeps the hot path a single falsy check.
        self._barrier_state: dict[int, _BarrierAlignment] = {}
        vm.occupant = self
        vm.on_failure(self._on_vm_failed)

    # ------------------------------------------------------------ identity

    @property
    def uid(self) -> int:
        return self.slot.uid

    @property
    def op_name(self) -> str:
        return self.operator.name

    @property
    def alive(self) -> bool:
        return self.status in (InstanceStatus.RUNNING, InstanceStatus.PAUSED)

    def is_quiescent(self) -> bool:
        """Whether this instance's VM has nothing queued or executing.

        Quiescence of every involved instance between consecutive polls
        is how the reconfiguration engine detects that a drain (merge
        quiesce, source-replay re-processing) has completed.
        """
        return not self.vm.busy and self.vm.queue_length == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Instance({self.slot!r} on VM {self.vm.vm_id}, {self.status.value})"

    # ----------------------------------------------------------- data plane

    def receive(self, tup: Tuple) -> None:
        """Entry point for tuples delivered by the network."""
        if not self.alive or not self.vm.alive:
            return
        if self._barrier_state and self._barrier_park(tup):
            return
        if self._admit(tup):
            work = tup.weight * self.operator.cost_per_tuple
            self.vm.submit(work, self._process, tup)
        self._note_replay_progress(tup)
        if self._flow is not None:
            self._fc_maybe_grant()

    def receive_stamped(self, tup: Tuple, epoch: int) -> None:
        """Receive one tuple stamped with its *sender's* fencing epoch.

        ``tup.slot`` names the sending slot, so the stamp is compared
        against that slot's current epoch.  A zombie predecessor
        (falsely declared dead, replaced, epoch bumped) emits under a
        superseded epoch; its *uncommitted* suffix — everything above
        the fence floor, which the successor re-derives under the same
        (slot, ts) stamps — is rejected here.  Its committed prefix (at
        or below the floor, i.e. covered by the checkpoint the successor
        restored from) is the sole copy of those tuples: it is accepted
        even under the stale epoch, deduplicated against what the
        condemned timeline already delivered before it was cut off.
        """
        if epoch < self.system.epoch_of(tup.slot):
            self._receive_fenced(tup, epoch)
            return
        self._note_epoch(tup.slot, epoch)
        self.receive(tup)

    def receive_batch_stamped(self, batch: list[Tuple], epoch: int) -> None:
        """Batched variant of :meth:`receive_stamped` (one sender, so one
        stamp covers the whole batch)."""
        if batch and epoch < self.system.epoch_of(batch[0].slot):
            for tup in batch:
                self._receive_fenced(tup, epoch)
            return
        if batch:
            self._note_epoch(batch[0].slot, epoch)
        self.receive_batch(batch)

    def receive_block_stamped(self, block: TupleBlock, epoch: int) -> None:
        """Columnar variant of :meth:`receive_batch_stamped`.

        A stale-epoch block decomposes to rows for the fencing judgement
        (committed-prefix acceptance is inherently per tuple).
        """
        if len(block) and epoch < self.system.epoch_of(block.slot):
            for tup in block.to_tuples():
                self._receive_fenced(tup, epoch)
            return
        if len(block):
            self._note_epoch(block.slot, epoch)
        self.receive_block(block)

    def _note_epoch(self, slot: int, epoch: int) -> None:
        """Record the first delivery from a newer timeline of ``slot``.

        The arrival watermark at that instant bounds everything the
        superseded timelines delivered here, so it is frozen as their
        fence cut: a later stale-epoch delivery at or below the cut is a
        duplicate of something already processed, one above it (and
        within the fence floor) is a committed tuple this instance has
        not seen.
        """
        seen = self._epoch_seen.get(slot, 0)
        if epoch > seen:
            wm = self._arrival_wm.get(slot, -1)
            for old in range(seen, epoch):
                self._fence_cuts.setdefault((slot, old), wm)
            self._epoch_seen[slot] = epoch
            if self.is_sink and wm >= 0:
                # Timer-driven upstreams re-derive the condemned
                # uncommitted suffix on their own flush schedule, so the
                # successor may map the same out-clock range to a
                # *different* ts→content assignment than what the zombie
                # already delivered (e.g. two windows interleaved per key
                # in one late tick).  Ts-based dedup is therefore unsound
                # across the timeline switch at a sink: roll the arrival
                # watermark back to the committed floor so the successor's
                # re-derivation is re-admitted, and rely on the collector
                # being content-idempotent (last-write-wins per result
                # key) to absorb the overlap.  Stateful mid-pipeline
                # receivers must NOT roll back — their state already
                # reflects the delivered suffix, and their own emissions
                # stay ts-deterministic, so re-admission would double
                # count.  The frozen fence cut above still bounds the
                # *stale*-epoch dedup path, which is unaffected.
                floor = min(
                    self.system.fence_floor(slot, old)
                    for old in range(seen, epoch)
                )
                if floor < wm:
                    self._arrival_wm[slot] = floor

    def _receive_fenced(self, tup: Tuple, epoch: int) -> None:
        """Judge one stale-epoch delivery: committed prefix or condemned.

        Replayed tuples never qualify — a fenced feeder's replay duty
        passes to its successor, whose re-derivations fill any gap.
        """
        slot = tup.slot
        cut = self._fence_cuts.get((slot, epoch))
        if cut is None:
            # No newer-epoch delivery has advanced the watermark yet, so
            # the current value still bounds the condemned timeline's
            # deliveries here; freeze it now.
            cut = self._arrival_wm.get(slot, -1)
            self._fence_cuts[(slot, epoch)] = cut
        floor = self.system.fence_floor(slot, epoch)
        if tup.replay or tup.ts > floor:
            self._reject_fenced(tup.weight)
            return
        if tup.ts <= cut or tup.ts <= self._fenced_wm.get(slot, -1):
            # Already delivered by the condemned timeline before it was
            # cut off, or a network-duplicated copy of an accepted late
            # delivery (held messages release in FIFO order per edge).
            self.dropped_duplicates += tup.weight
            self.system.metrics.increment(
                f"duplicates:{self.op_name}", tup.weight
            )
            return
        if not self.alive or not self.vm.alive:
            return
        self._fenced_wm[slot] = tup.ts
        self.fenced_accepts += tup.weight
        self.system.metrics.increment(f"fenced_accepts:{self.op_name}", tup.weight)
        work = tup.weight * self.operator.cost_per_tuple
        self.vm.submit(work, self._process, tup)

    def _reject_fenced(self, weight: float) -> None:
        self.fenced_drops += weight
        self.system.metrics.increment(f"fenced_drops:{self.op_name}", weight)

    def receive_batch(self, batch: list[Tuple]) -> None:
        """Entry point for a coalesced batch from one upstream instance.

        Admission (duplicate filter, replay dedup, capacity) runs per
        tuple exactly as on the unbatched path, but all accepted tuples
        are processed under a single CPU work item — the kernel sees one
        completion event per batch instead of one per tuple.
        """
        if not self.alive or not self.vm.alive:
            return
        if self._barrier_state and batch and not batch[0].replay:
            for state in self._barrier_state.values():
                if batch[0].slot in state.blocked:
                    state.parked.append(("b", batch))
                    return
        admit = self._admit
        accepted = [tup for tup in batch if admit(tup)]
        if accepted:
            work = sum(t.weight for t in accepted) * self.operator.cost_per_tuple
            self.vm.submit(work, self._process_batch, accepted)
        if self._replay_done is not None:
            for tup in batch:
                self._note_replay_progress(tup)
        if self._flow is not None:
            self._fc_maybe_grant()

    def receive_block(self, block: TupleBlock) -> None:
        """Columnar entry point: admit a whole block in one pass.

        The fast path exploits the block invariants (one origin slot,
        rows in strictly ascending ``ts``): the duplicate filter becomes
        a prefix scan, migration carve-outs become key-interval slices
        over the precomputed ``key_pos`` column, and the watermark
        advances once.  Anything with per-tuple semantics — barrier
        alignment, replay drains, gap fills, a bounded queue — decomposes
        the block and takes the row path, which is bit-identical.
        """
        if not self.alive or not self.vm.alive:
            return
        if (
            self._barrier_state
            or block.replay
            or self.replay_mode != REPLAY_DROP
            or self._replay_done is not None
            or self._replay_gap_ids
            or self.system.config.queue_capacity is not None
        ):
            self.receive_batch(block.to_tuples())
            return
        slot = block.slot
        n = len(block)
        # Duplicate filter first (mirroring :meth:`_admit` order): rows
        # at or below the arrival watermark form a contiguous prefix.
        wm = self._arrival_wm.get(slot, -1)
        ts_col = block.ts
        if n and ts_col[n - 1] <= wm:
            start = n
        else:
            start = 0
            while start < n and ts_col[start] <= wm:
                start += 1
        if start:
            dropped = sum(block.weight[i] for i in range(start))
            self.dropped_duplicates += dropped
            self.system.metrics.increment(f"duplicates:{self.op_name}", dropped)
            self._fc_note(slot, dropped)
            block = block.suffix(start)
            n = len(block)
        if not n:
            if self._flow is not None:
                self._fc_maybe_grant()
            return
        last_ts = -1
        if self._parking_intervals or self._migrated_intervals:
            if self._migrated_intervals:
                migrated, block = block.split_by_intervals(
                    self._migrated_intervals
                )
                if len(migrated):
                    # Straggler rows for committed-away keys: dropped, and
                    # the watermark must NOT advance past them alone.
                    weight = migrated.total_weight()
                    self.system.metrics.increment(
                        f"migrated_drop:{self.op_name}", weight
                    )
                    self._fc_note(slot, weight)
            if self._parking_intervals and len(block):
                parked, block = block.split_by_intervals(
                    self._parking_intervals
                )
                if len(parked):
                    # Parked rows are *accepted* (watermark advances) but
                    # wait out the in-flight chunk in `_parked`.
                    last_ts = parked.ts[-1]
                    self._parked.extend(parked.to_tuples())
        n = len(block)
        if n and block.ts[-1] > last_ts:
            last_ts = block.ts[-1]
        if last_ts > wm:
            self._arrival_wm[slot] = last_ts
        if n:
            weight = block.total_weight()
            self._backlog_weight += weight
            self.vm.submit(
                weight * self.operator.cost_per_tuple, self._process_block, block
            )
        if self._flow is not None:
            self._fc_maybe_grant()

    def _admit(self, tup: Tuple) -> bool:
        """The admission pipeline shared by single and batched delivery.

        Returns ``True`` when the tuple should be queued for processing;
        all filters (replay dedup, duplicate watermarks, queue capacity)
        and their side effects (counters, watermark advances, backlog
        accounting, parking during drains) happen here.
        """
        slot = tup.slot
        ts = tup.ts
        arrival_wm = self._arrival_wm
        if tup.replay:
            duplicate = self.replay_mode == REPLAY_DROP
            if not duplicate and self.replay_mode == REPLAY_DEDUP:
                if self._drain_intervals:
                    # Interval-aware chunk drain (fluid migration): a key
                    # inside the draining chunk dedups against the chunk's
                    # τ floor, frozen when its parking began — everything
                    # at or below it rode the chunk's state.  A key this
                    # instance already owned dedups against the watermark
                    # snapshot from drain start *alone*: the commit-time
                    # trim removed everything its absorbed state reflects,
                    # and τ may sit above a delayed straggler whose replay
                    # is its only path here (the origin's τ advances with
                    # other keys the source still serves).
                    duplicate = ts <= self._drain_replay_wm.get(slot, -1)
                    if not duplicate:
                        position = stable_hash(tup.key)
                        if any(position in iv for iv in self._drain_intervals):
                            duplicate = ts <= self._replay_dedup_floor.get(
                                slot, -1
                            )
                        else:
                            duplicate = ts <= self._drain_wm_start.get(
                                slot, -1
                            )
                else:
                    # Compare against the τ vector frozen at restore time,
                    # not the live watermark: paced replays interleave with
                    # fresh traffic whose higher timestamps must not mask
                    # them.
                    duplicate = ts <= self._replay_dedup_floor.get(slot, -1)
            if duplicate:
                # Either a re-derivation from a recovery elsewhere in the
                # graph (drop mode) or a replayed tuple already reflected
                # in this instance's restored state (dedup mode).
                if self._replay_gap_ids:
                    self._replay_gap_ids.discard((slot, ts))
                self.dropped_duplicates += tup.weight
                self.system.metrics.increment(
                    f"duplicates:{self.op_name}", tup.weight
                )
                return False
        elif (
            self._replay_done is not None
            and self._replay_flagged_only
            and self.replay_mode == REPLAY_DEDUP
        ):
            # A restored instance is draining its replays: park fresh
            # tuples until the drain completes so re-derivations keep
            # their original out_clock values (exactly-once depends on
            # the (slot, ts) <-> payload mapping being stable).
            self._held_while_draining.append(tup)
            return False
        elif ts <= arrival_wm.get(slot, -1):
            gap_fill = False
            if self._replay_gap_ids and (slot, ts) in self._replay_gap_ids:
                # A wave replay its dead feeder never delivered, now
                # re-derived by the feeder's recovery.  Judge it exactly
                # as the replay would have been: a pair at or below the
                # chunk floor rode the chunk's state here already.
                self._replay_gap_ids.discard((slot, ts))
                if self._gap_intervals:
                    position = stable_hash(tup.key)
                    if any(position in iv for iv in self._gap_intervals):
                        gap_fill = ts > self._gap_floor.get(slot, -1)
                    else:
                        gap_fill = ts > self._gap_wm_start.get(slot, -1)
                else:
                    gap_fill = True
            if not gap_fill:
                # Duplicate of an already-accepted tuple (replayed after
                # a checkpoint covered it, or re-emitted by a recovered
                # upstream).
                self.dropped_duplicates += tup.weight
                self.system.metrics.increment(
                    f"duplicates:{self.op_name}", tup.weight
                )
                self._fc_note(slot, tup.weight)
                return False
        capacity = self.system.config.queue_capacity
        if capacity is not None and self._backlog_weight >= capacity:
            self.dropped_overflow += tup.weight
            self.system.metrics.increment(f"overflow:{self.op_name}", tup.weight)
            if not tup.replay:
                self._fc_note(slot, tup.weight)
            return False
        if not tup.replay and (self._parking_intervals or self._migrated_intervals):
            position = stable_hash(tup.key)
            if any(position in iv for iv in self._migrated_intervals):
                # Key already committed to its new owner: the routing swap
                # made the upstream replay this tuple at the target, so
                # the straggler copy here must not touch state.
                self.system.metrics.increment(
                    f"migrated_drop:{self.op_name}", tup.weight
                )
                self._fc_note(slot, tup.weight)
                return False
            if any(position in iv for iv in self._parking_intervals):
                # Key belongs to the chunk in flight: park until the chunk
                # commits (the upstream's post-swap replay covers it at
                # the target) or the migration aborts (re-injected here).
                # The watermark advances now — the tuple is *accepted*, so
                # a later network duplicate must not be parked twice.
                if ts > arrival_wm.get(slot, -1):
                    arrival_wm[slot] = ts
                self._parked.append(tup)
                return False
        if ts > arrival_wm.get(slot, -1):
            arrival_wm[slot] = ts
        if tup.replay and self.replay_mode == REPLAY_DEDUP:
            # Replays stream in ts order per origin slot, so advancing the
            # floor as they are accepted makes a network-duplicated copy
            # land at or below it and be dropped — without masking later
            # replays behind fresh traffic's higher watermarks.  Advance
            # only: during an interval drain the floor starts at the
            # chunk's τ, which may sit above replays for keys this
            # instance already owned — assignment would regress it below
            # state the absorbed chunk already reflects.
            if ts > self._replay_dedup_floor.get(slot, -1):
                self._replay_dedup_floor[slot] = ts
            if self._drain_intervals and ts > self._drain_replay_wm.get(slot, -1):
                self._drain_replay_wm[slot] = ts
        # An accepted delivery is (about to be) reflected: a released
        # wave pair delivered late must not be re-admitted again when its
        # feeder's recovery re-derives it.
        if self._replay_gap_ids:
            self._replay_gap_ids.discard((slot, ts))
        self._backlog_weight += tup.weight
        return True

    def _process(self, tup: Tuple) -> None:
        self._backlog_weight -= tup.weight
        if not self.alive:
            return
        self._process_one(tup)
        if self._flow is not None:
            self._fc_maybe_grant()

    def _process_batch(self, batch: list[Tuple]) -> None:
        for tup in batch:
            self._backlog_weight -= tup.weight
        if not self.alive:
            return
        for tup in batch:
            self._process_one(tup)
        if self._flow is not None:
            self._fc_maybe_grant()

    def _process_block(self, block: TupleBlock) -> None:
        """Run one admitted block through the operator.

        Operators with a vectorized kernel consume the whole block in one
        :meth:`~repro.core.operator.Operator.process_block` call; the
        rest (and any block arriving while emission suppression is
        active, which needs a per-row trigger) fall back to row-at-a-time
        ``on_tuple`` over the same rows.  τ advances once, to the last
        row — identical to per-row max-advance.
        """
        self._backlog_weight -= block.total_weight()
        if not self.alive:
            return
        slot = block.slot
        if self._parking_intervals or self._migrated_intervals:
            # Queued before a chunk was extracted: re-slice, exactly as
            # :meth:`_process_one` re-checks per row.
            if self._migrated_intervals:
                migrated, block = block.split_by_intervals(
                    self._migrated_intervals
                )
                if len(migrated):
                    weight = migrated.total_weight()
                    self.system.metrics.increment(
                        f"migrated_drop:{self.op_name}", weight
                    )
                    self._fc_note(slot, weight)
            if self._parking_intervals and len(block):
                parked, block = block.split_by_intervals(
                    self._parking_intervals
                )
                if len(parked):
                    self._parked.extend(parked.to_tuples())
            if not len(block):
                if self._flow is not None:
                    self._fc_maybe_grant()
                return
        sim = self.system.sim
        operator = self.operator
        fallback = True
        if not self._suppress_until:
            # Kernels have no per-row trigger, so the emit path can skip
            # the trigger/suppression/replay bookkeeping entirely — and
            # for the common single-downstream shape, fuse straight into
            # the output batcher with the routing lookups hoisted.
            emit_cb = self._block_emit() or self._emit_from_ctx
            ctx = OperatorContext(self.state, emit_cb, now=sim.now)
            fallback = not operator.process_block(block, ctx)
        if fallback:
            ctx = OperatorContext(self.state, self._emit_from_ctx, now=sim.now)
            try:
                for tup in block.to_tuples():
                    self._current_input = tup
                    operator.on_tuple(tup, ctx)
            finally:
                self._current_input = None
        self.state.advance(slot, block.ts[-1])
        weight = block.total_weight()
        self.processed_weight += weight
        if self.key_sketch is not None:
            offer = self.key_sketch.offer
            for key, w in zip(block.keys, block.weight):
                offer(key, w)
        metrics = self.system.metrics
        metrics.rate(
            f"processed:{self.op_name}", self.system.config.rate_bin
        ).record(sim.now, weight)
        if operator.measure_latency:
            every = self.system.config.latency_sample_every
            n = len(block)
            now = sim.now
            lat = metrics.latency(f"latency:{self.op_name}")
            created = block.created_at
            weights = block.weight
            if every == 1:
                for i in range(n):
                    lat.record(now, now - created[i], weights[i])
            else:
                # Same decimation stride the per-row counter would take.
                first = (every - self._latency_counter % every) - 1
                for i in range(first, n, every):
                    lat.record(now, now - created[i], weights[i] * every)
            self._latency_counter += n
        if self._flow is not None:
            self._fc_note(slot, weight)
            self._fc_maybe_grant()

    def _process_one(self, tup: Tuple) -> None:
        if (self._parking_intervals or self._migrated_intervals) and not tup.replay:
            # Queued before its chunk was extracted: the entries it would
            # update have left this instance, so it must not process here.
            # τ does not advance (the tuple is unprocessed); the watermark
            # already advanced at admission, matching parked arrivals.
            position = stable_hash(tup.key)
            if any(position in iv for iv in self._migrated_intervals):
                self.system.metrics.increment(
                    f"migrated_drop:{self.op_name}", tup.weight
                )
                self._fc_note(tup.slot, tup.weight)
                return
            if any(position in iv for iv in self._parking_intervals):
                self._parked.append(tup)
                return
        sim = self.system.sim
        self._current_input = tup
        ctx = OperatorContext(self.state, self._emit_from_ctx, now=sim.now)
        try:
            self.operator.on_tuple(tup, ctx)
        finally:
            self._current_input = None
        self.state.advance(tup.slot, tup.ts)
        self.processed_weight += tup.weight
        if self.key_sketch is not None:
            self.key_sketch.offer(tup.key, tup.weight)
        metrics = self.system.metrics
        metrics.rate(
            f"processed:{self.op_name}", self.system.config.rate_bin
        ).record(sim.now, tup.weight)
        if self.operator.measure_latency:
            every = self.system.config.latency_sample_every
            self._latency_counter += 1
            if self._latency_counter % every == 0:
                metrics.latency(f"latency:{self.op_name}").record(
                    sim.now, sim.now - tup.created_at, tup.weight * every
                )
        if self._flow is not None and not tup.replay:
            self._fc_note(tup.slot, tup.weight)

    # --------------------------------------------------------------- source

    def inject(self, key: Any, payload: Any, weight: int = 1) -> None:
        """Feed externally generated data into a source instance.

        The injection time is the tuple's creation time, so queueing at a
        saturated source shows up in end-to-end latency — this is the
        serialisation bottleneck that caps the paper's L-rating.
        """
        if not self.is_source:
            raise RuntimeStateError(f"inject called on non-source {self.slot!r}")
        sim = self.system.sim
        self.system.metrics.rate(
            "input", self.system.config.rate_bin
        ).record(sim.now, weight)
        if not self.alive or not self.vm.alive:
            self.system.metrics.increment("lost:source_down", weight)
            return
        flow = self._flow
        if flow is not None and flow.shed_at_source and self._blocked_dests:
            # Open-loop backpressure endpoint: the source's output is
            # blocked on downstream credit, so new input is shed here
            # instead of growing an unbounded pending batch.
            self.system.metrics.increment(
                f"backpressure_shed:{self.op_name}", weight
            )
            return
        capacity = self.system.config.queue_capacity
        if capacity is not None and self._backlog_weight >= capacity:
            self.dropped_overflow += weight
            self.system.metrics.increment(f"overflow:{self.op_name}", weight)
            return
        self._backlog_weight += weight
        work = weight * self.operator.cost_per_tuple
        self.vm.submit(work, self._process_injection, key, payload, weight, sim.now)

    def _process_injection(
        self, key: Any, payload: Any, weight: int, created_at: float
    ) -> None:
        self._backlog_weight -= weight
        if not self.alive:
            return
        self.processed_weight += weight
        self.system.metrics.rate(
            f"processed:{self.op_name}", self.system.config.rate_bin
        ).record(self.system.sim.now, weight)
        self._emit(key, payload, weight, created_at, to=None)

    # ------------------------------------------------------------- emission

    def _emit_from_ctx(
        self,
        key: Any,
        payload: Any,
        weight: int,
        created_at: float | None,
        to: str | None,
    ) -> None:
        trigger = self._current_input
        if created_at is None:
            created_at = (
                trigger.created_at if trigger is not None else self.system.sim.now
            )
        # The replay flag only propagates along the source-replay rebuild
        # path (accept mode), where downstream re-derivations stand in for
        # outputs the rest of the graph already consumed.
        replay = (
            trigger is not None
            and trigger.replay
            and self.replay_mode == REPLAY_ACCEPT
        )
        if (
            trigger is not None
            and self._suppress_until
            and trigger.ts <= self._suppress_until.get(trigger.slot, -1)
        ):
            # The pre-scale-out instance already emitted the outputs for
            # this input; re-processing only rebuilds state (§4.3).
            self.suppressed_weight += weight
            return
        self._emit(key, payload, weight, created_at, to, replay)

    def _block_emit(self) -> Callable[..., None] | None:
        """A fused emit callback for one kernel invocation, or ``None``.

        Valid only while a vectorized kernel runs: there is no current
        input, so no suppression window, no replay propagation, and no
        per-row trigger lineage — ``created_at`` comes from the kernel.
        For the dominant one-downstream, batching-on shape this collapses
        the ``_emit_from_ctx → _emit → _dispatch → _batch_add`` chain
        into one closure with the routing table, β buffer and pending
        batches pre-bound.  Emitted tuples, timestamps, buffering and
        flush triggers are identical to the generic path.
        """
        if (
            self.is_sink
            or self.is_replica
            or len(self.buffers) != 1
            or self._batching is None
        ):
            return None
        (down_name,) = self.buffers
        routing = self.routing.get(down_name)
        if routing is None:
            return None
        state = self.state
        route = routing.route_position
        buffer_append = (
            self.buffers[down_name].append
            if down_name in self._buffered_downs
            else None
        )
        pending = self._batch_pending
        batching = self._batching
        max_tuples = batching.max_tuples
        slot_uid = self.slot.uid
        sim = self.system.sim
        now = sim.now

        def emit(
            key: Any,
            payload: Any,
            weight: int,
            created_at: float | None,
            to: str | None,
        ) -> None:
            if to is not None and to != down_name:
                raise RuntimeStateError(
                    f"{self.op_name} emitted to unknown downstream {to!r}"
                )
            state.out_clock += 1
            tup = Tuple(
                state.out_clock,
                key,
                payload,
                weight,
                now if created_at is None else created_at,
                slot_uid,
            )
            self.emitted_weight += weight
            dest_uid = route(stable_hash(key))
            if buffer_append is not None:
                buffer_append(dest_uid, tup)
            batch = pending.get(dest_uid)
            if batch is None:
                batch = pending[dest_uid] = []
            batch.append(tup)
            if len(batch) >= max_tuples:
                self._flush_batch(dest_uid, force=False)
            elif self._linger_event is None:
                self._linger_event = sim.schedule(
                    batching.linger, self._linger_flush
                )

        return emit

    def _emit(
        self,
        key: Any,
        payload: Any,
        weight: int,
        created_at: float,
        to: str | None,
        replay: bool = False,
    ) -> None:
        if self.is_sink or self.is_replica or not self.buffers:
            return
        if to is not None:
            if to not in self.buffers:
                raise RuntimeStateError(
                    f"{self.op_name} emitted to unknown downstream {to!r}"
                )
            targets = [to]
        else:
            targets = list(self.buffers)
        self.state.out_clock += 1
        ts = self.state.out_clock
        self.emitted_weight += weight
        for down_name in targets:
            tup = Tuple(ts, key, payload, weight, created_at, self.slot.uid, replay)
            self._dispatch(down_name, tup)

    def _dispatch(self, down_name: str, tup: Tuple) -> None:
        routing = self.routing.get(down_name)
        if routing is None:
            raise RuntimeStateError(
                f"{self.slot!r} has no routing state toward {down_name}"
            )
        dest_uid = routing.route_position(stable_hash(tup.key))
        if down_name in self._buffered_downs:
            self.buffers[down_name].append(dest_uid, tup)
        if self._batching is not None and not tup.replay:
            # Replays bypass batching: their pacing and the receiver's
            # drain accounting are per-message.
            self._batch_add(dest_uid, tup)
        else:
            self._send(dest_uid, tup)

    def _send(self, dest_uid: int, tup: Tuple) -> None:
        system = self.system
        if system.replication is not None:
            # Active replication: tee every tuple to the destination's
            # replica as well.
            replica = system.replication.replica_of(dest_uid)
            if replica is not None:
                system.network.send(
                    self.vm,
                    replica.vm,
                    system.config.network.tuple_bytes,
                    replica.receive_stamped,
                    tup,
                    self.epoch,
                )
        dest = system.live_instance(dest_uid)
        if dest is None:
            # Destination currently dead; the tuple stays buffered and is
            # replayed once the destination is recovered.
            return
        system.network.send(
            self.vm,
            dest.vm,
            system.config.network.tuple_bytes,
            dest.receive_stamped,
            tup,
            self.epoch,
            fifo=self._flow is not None,
        )

    # ------------------------------------------------------------ batching

    def _batch_add(self, dest_uid: int, tup: Tuple) -> None:
        pending = self._batch_pending.setdefault(dest_uid, [])
        pending.append(tup)
        if len(pending) >= self._batching.max_tuples:
            self._flush_batch(dest_uid, force=False)
        elif self._linger_event is None:
            # One linger timer per instance, armed by the first pending
            # tuple; flushing every destination when it fires bounds the
            # added latency of all batches to one linger interval.
            self._linger_event = self.system.sim.schedule(
                self._batching.linger, self._linger_flush
            )

    def _linger_flush(self) -> None:
        self._linger_event = None
        if not self.alive or not self.vm.alive:
            self._batch_pending.clear()
            return
        self.flush_batches(force=False)

    def flush_batches(self, force: bool = True) -> None:
        """Flush every pending batch.

        Forced flushes are the control plane's barrier: checkpoint cuts,
        pause/stop and routing updates must see the wire drained, so they
        pierce backpressure (debiting the credit account below zero if
        need be) rather than stall reconfiguration behind a slow
        receiver.  The linger timer flushes unforced, leaving
        credit-starved batches pending until grants return.
        """
        if self._linger_event is not None:
            self._linger_event.cancel()
            self._linger_event = None
        for dest_uid in list(self._batch_pending):
            self._flush_batch(dest_uid, force)

    def _flush_batch(self, dest_uid: int, force: bool = True) -> None:
        batch = self._batch_pending.get(dest_uid)
        if not batch:
            self._batch_pending.pop(dest_uid, None)
            return
        flow = self._flow
        if flow is not None:
            credits = self._credits.get(dest_uid)
            if credits is None:
                credits = self._credits[dest_uid] = flow.initial_credits
            if self.system.live_instance(dest_uid) is not None:
                weight = sum(t.weight for t in batch)
                if not force and credits < weight:
                    # Credit covers only part of the batch: ship the
                    # longest prefix it does cover (FIFO order is
                    # load-bearing — rows must stay ts-ordered per
                    # origin) and hold the rest.  A held batch keeps
                    # growing, so flushing whole-batch-or-nothing would
                    # let it outgrow every future grant and wedge.
                    cut = 0
                    prefix = 0.0
                    for tup in batch:
                        if prefix + tup.weight > credits:
                            break
                        prefix += tup.weight
                        cut += 1
                    self._note_blocked(dest_uid)
                    if not cut:
                        return
                    self._batch_pending[dest_uid] = batch[cut:]
                    self._credits[dest_uid] = credits - prefix
                    self._ship(dest_uid, batch[:cut])
                    return
                self._credits[dest_uid] = credits - weight
            # A dead destination is never debited: the batch is dropped
            # on the wire (tuples stay in β for replay), and debiting
            # would leak credit the successor's grants can never repay.
            self._clear_blocked(dest_uid)
        del self._batch_pending[dest_uid]
        self._ship(dest_uid, batch)

    def _ship(self, dest_uid: int, batch: list[Tuple]) -> None:
        if len(batch) == 1:
            self._send(dest_uid, batch[0])
        elif self._batching.columnar:
            self._send_block(dest_uid, TupleBlock.from_tuples(batch))
        else:
            self._send_batch(dest_uid, batch)

    def _discard_batches(self) -> None:
        """Drop pending batches unsent (VM failure).  The tuples are still
        in β, so recovery replays them exactly like any other in-flight
        loss."""
        self._batch_pending.clear()
        if self._linger_event is not None:
            self._linger_event.cancel()
            self._linger_event = None
        for dest_uid in list(self._blocked_dests):
            self._clear_blocked(dest_uid)

    def _send_batch(self, dest_uid: int, batch: list[Tuple]) -> None:
        system = self.system
        size = system.config.network.tuple_bytes * len(batch)
        if system.replication is not None:
            replica = system.replication.replica_of(dest_uid)
            if replica is not None:
                system.network.send(
                    self.vm,
                    replica.vm,
                    size,
                    replica.receive_batch_stamped,
                    list(batch),
                    self.epoch,
                )
        dest = system.live_instance(dest_uid)
        if dest is None:
            # Destination currently dead; the batch stays buffered in β
            # and is replayed once the destination is recovered.
            return
        system.network.send(
            self.vm,
            dest.vm,
            size,
            dest.receive_batch_stamped,
            batch,
            self.epoch,
            fifo=self._flow is not None,
        )

    def _send_block(self, dest_uid: int, block: TupleBlock) -> None:
        """Ship one columnar block as a single network message.

        The block object is shared read-only with an active-replication
        replica (receivers slice into *new* blocks, never mutate), so the
        tee costs no copy.
        """
        system = self.system
        size = system.config.network.tuple_bytes * len(block)
        if system.replication is not None:
            replica = system.replication.replica_of(dest_uid)
            if replica is not None:
                system.network.send(
                    self.vm,
                    replica.vm,
                    size,
                    replica.receive_block_stamped,
                    block,
                    self.epoch,
                )
        dest = system.live_instance(dest_uid)
        if dest is None:
            # Destination currently dead; the rows stay buffered in β
            # and are replayed once the destination is recovered.
            return
        system.network.send(
            self.vm,
            dest.vm,
            size,
            dest.receive_block_stamped,
            block,
            self.epoch,
            fifo=self._flow is not None,
        )

    # ------------------------------------------------------- flow control

    @property
    def queue_depth(self) -> float:
        """Weighted input backlog plus output blocked on credit.

        The quantity the grant policy throttles on; exposed for benches
        and tests so they need not reach into private accounting.
        """
        return self._fc_queue_depth()

    def _fc_note(self, origin_uid: int, weight: float) -> None:
        """Receiver side: ``weight`` from ``origin_uid`` was processed or
        finally disposed of (duplicate, overflow, migrated, discarded
        park) and is grantable again.  Every admitted non-replay tuple
        must eventually be noted exactly once, or the sender's account
        drifts down and wedges."""
        if self._flow is None or weight <= 0:
            return
        self._fc_ungranted[origin_uid] = (
            self._fc_ungranted.get(origin_uid, 0.0) + weight
        )

    def _fc_queue_depth(self) -> float:
        """Weighted depth the grant policy throttles on: the input
        backlog plus any pending output blocked on downstream credit —
        counting the blocked output is what propagates backpressure
        upstream hop by hop."""
        depth = self._backlog_weight
        if self._blocked_dests:
            pending = self._batch_pending
            for dest_uid in self._blocked_dests:
                batch = pending.get(dest_uid)
                if batch:
                    depth += sum(t.weight for t in batch)
        return depth

    def _fc_maybe_grant(self) -> None:
        """Grant accumulated credit back to upstream senders.

        Grants are deferred entirely while the local queue depth sits at
        or above ``queue_ceiling`` — that deferral *is* the backpressure
        signal.  Below the ceiling, balances of at least
        ``grant_quantum`` are granted; once the backlog fully drains,
        every positive balance flushes so sub-quantum remainders cannot
        wedge an idle pipeline.
        """
        flow = self._flow
        if flow is None or not self._fc_ungranted:
            return
        if self._fc_queue_depth() >= flow.queue_ceiling:
            if not self._fc_deferring:
                self._fc_deferring = True
                self.system.telemetry.timeseries(
                    f"queue_depth:{self.op_name}"
                ).record(self.system.sim.now, self._fc_queue_depth())
                self.system.metrics.increment("backpressure.deferrals")
            return
        self._fc_deferring = False
        drain = self._backlog_weight <= 0
        system = self.system
        quantum = flow.grant_quantum
        size = flow.credit_bytes
        for origin_uid in list(self._fc_ungranted):
            amount = self._fc_ungranted[origin_uid]
            if amount < quantum and not drain:
                continue
            del self._fc_ungranted[origin_uid]
            sender = system.live_instance(origin_uid)
            if sender is None:
                continue
            system.network.send(
                self.vm,
                sender.vm,
                size,
                sender.receive_credits,
                self.uid,
                amount,
                kind=KIND_CREDIT,
            )

    def receive_credits(self, dest_uid: int, amount: float) -> None:
        """Sender side: a downstream instance granted credit back."""
        if self._flow is None or not self.alive or not self.vm.alive:
            return
        self._credits[dest_uid] = (
            self._credits.get(dest_uid, self._flow.initial_credits) + amount
        )
        if dest_uid in self._blocked_dests:
            self._flush_batch(dest_uid, force=False)

    def release_credits_for(self, failed_uid: int) -> None:
        """A downstream instance died: forget its credit account.

        Credits held by the dead receiver can never be granted back, so
        the account resets (the successor's edge lazily re-seeds at
        ``initial_credits``), the ungranted balance owed *to* it is
        dropped (its successor never debited us), and any batch held for
        it is force-flushed — the flush sees a dead destination, skips
        the debit, and leaves the tuples in β for replay.
        """
        if self._flow is None:
            return
        self._credits.pop(failed_uid, None)
        self._fc_ungranted.pop(failed_uid, None)
        if failed_uid in self._blocked_dests:
            self._flush_batch(failed_uid, force=True)

    def _note_blocked(self, dest_uid: int) -> None:
        if dest_uid in self._blocked_dests:
            return
        self._blocked_dests.add(dest_uid)
        telemetry = self.system.telemetry
        self._bp_spans[dest_uid] = telemetry.start_span(
            f"backpressure:{self.op_name}",
            kind="backpressure",
            src=self.uid,
            dest=dest_uid,
        )
        telemetry.increment("backpressure.blocks")
        telemetry.timeseries(f"credits:{self.op_name}").record(
            self.system.sim.now, self._credits.get(dest_uid, 0.0)
        )

    def _clear_blocked(self, dest_uid: int) -> None:
        if dest_uid not in self._blocked_dests:
            return
        self._blocked_dests.discard(dest_uid)
        span = self._bp_spans.pop(dest_uid, None)
        if span is not None:
            self.system.telemetry.end_span(
                span, credits=self._credits.get(dest_uid, 0.0)
            )

    # ------------------------------------------------------------- timers

    def start_timers(self) -> None:
        """Start the operator's periodic timer, aligned to absolute
        multiples of the interval so that a restored instance flushes its
        windows at the same instants the failed one would have."""
        interval = self.operator.timer_interval
        if interval is not None and self._timer_task is None:
            now = self.system.sim.now
            periods_elapsed = int(now / interval)
            next_boundary = (periods_elapsed + 1) * interval
            self._timer_task = self.system.sim.every(
                interval, self._queue_timer, start_after=next_boundary - now
            )

    def _queue_timer(self) -> None:
        if self.status is not InstanceStatus.RUNNING or not self.vm.alive:
            return
        self.vm.submit(self.operator.cost_per_tuple, self._run_timer)

    def _run_timer(self) -> None:
        if not self.alive:
            return
        ctx = OperatorContext(self.state, self._emit_from_ctx, now=self.system.sim.now)
        self.operator.on_timer(ctx)

    # -------------------------------------------------------- checkpointing

    def start_checkpointing(self) -> None:
        """Begin periodic ``checkpoint-state`` / ``backup-state`` cycles."""
        if self.is_source or self.is_sink:
            return  # sources and sinks are assumed reliable (§2.2)
        cfg = self.system.config.checkpoint
        if cfg.mode == CHECKPOINT_MODE_BARRIER:
            # Barrier mode has no per-instance daemon: cuts are driven by
            # the source-injected epoch barriers (system.deploy arms the
            # Checkpointer's injection timer).
            return
        if self._ckpt_task is not None:
            return
        start_after = cfg.interval
        if cfg.stagger:
            start_after *= 0.5 + ((self.uid * 7919) % 1000) / 2000.0
        self._ckpt_task = self.system.sim.every(
            cfg.interval, self.take_checkpoint, start_after=start_after
        )

    def stop_checkpointing(self) -> None:
        """Stop the periodic checkpoint daemon (pre-retirement)."""
        if self._ckpt_task is not None and not self._ckpt_task.stopped:
            self._ckpt_task.stop()
        self._ckpt_task = None

    def take_checkpoint(self) -> None:
        """checkpoint-state(o): serialise θ and β under the state lock.

        The serialisation occupies the CPU (front of queue — it locks the
        operator's data structures ahead of queued tuples), which is the
        latency overhead measured in §6.3.  With incremental
        checkpointing only the entries touched since the last checkpoint
        are serialised.
        """
        if self.status is not InstanceStatus.RUNNING or not self.vm.alive:
            return
        # Checkpoint barrier: pending batches carry tuples whose out_clock
        # the snapshot will cover, so they must be on the wire first.
        self.flush_batches()
        cfg = self.system.config.checkpoint
        incremental = cfg.incremental and self._can_increment
        if incremental and self.state.dirty is not None:
            entry_count = len(self.state.dirty)
        else:
            entry_count = len(self.state)
        work = cfg.serialize_base_seconds + entry_count * (
            cfg.serialize_seconds_per_entry
        )
        self.vm.submit(work, self._finish_checkpoint, incremental, front=True)

    def _finish_checkpoint(self, incremental: bool = False) -> None:
        if self.status is not InstanceStatus.RUNNING or not self.vm.alive:
            return
        checkpoint = self._build_checkpoint(incremental)
        cut = EpochCut(checkpoint, epoch=0, fence_epoch=self.epoch)
        # Tiered backends piggyback on the cut: the external tier
        # flushes it (a consistent, replayable cut) to durable storage.
        self.backend.on_checkpoint(cut)
        self.record_tier_metrics()
        self.system.checkpointer.cut(self, cut)

    def _build_checkpoint(self, incremental: bool) -> Checkpoint:
        """Materialise the cut itself — full CoW snapshot or dirty-key
        delta — shared by the phase daemon and barrier-epoch cuts."""
        self._ckpt_seq += 1
        buffers = {name: buf.snapshot() for name, buf in self.buffers.items()}
        if incremental and self._can_increment:
            touched = self.state.consume_dirty()
            delta_entries = {}
            deleted = set()
            missing = object()
            for key in touched:
                value = self.state.raw_get(key, missing)
                if value is missing:
                    deleted.add(key)
                else:
                    delta_entries[key] = _copy_state_value(value)
            return Checkpoint(
                op_name=self.op_name,
                slot_uid=self.uid,
                state=ProcessingState(
                    delta_entries,
                    positions=self.state.positions,
                    out_clock=self.state.out_clock,
                ),
                buffers=buffers,
                taken_at=self.system.sim.now,
                seq=self._ckpt_seq,
                incremental=True,
                base_seq=self._ckpt_seq - 1,
                deleted_keys=frozenset(deleted),
            )
        checkpoint = Checkpoint(
            op_name=self.op_name,
            slot_uid=self.uid,
            state=self.state.snapshot(),
            buffers=buffers,
            taken_at=self.system.sim.now,
            seq=self._ckpt_seq,
        )
        cfg = self.system.config.checkpoint
        if cfg.incremental or cfg.mode == CHECKPOINT_MODE_BARRIER:
            self.state.enable_dirty_tracking()
            self.state.consume_dirty()
            self._can_increment = True
        return checkpoint

    def force_full_checkpoint(self) -> None:
        """The next checkpoint must be full (delta base unavailable)."""
        self._can_increment = False

    def next_checkpoint_seq(self) -> int:
        """Claim the next checkpoint sequence number.

        Engine-driven snapshots (per-chunk commit backups of a fluid
        migration) share the counter with the periodic daemon, so the
        backup store's seq monotonicity holds across both producers.
        """
        self._ckpt_seq += 1
        return self._ckpt_seq

    # ------------------------------------------------- barrier snapshots

    def inject_barrier(self, epoch: int) -> None:
        """Source side: stamp epoch ``epoch`` into the output stream.

        Everything this source emitted before the call belongs to epoch
        ``epoch``; the barrier is forwarded to every live downstream
        instance as a control message that rides the same wires as data.
        """
        if not self.is_source or not self.alive or not self.vm.alive:
            return
        self.flush_batches()
        self._forward_barrier(epoch)

    def receive_barrier(self, epoch: int, origin_slot: int) -> None:
        """One upstream slot's epoch barrier arrived (barrier mode).

        Sinks absorb barriers (they hold no checkpointable state); a
        worker blocks the originating input — its post-barrier tuples
        park raw, pre-admission — until every live upstream slot has
        delivered its barrier, then cuts its state for the epoch with
        zero stop-the-world (the CoW snapshot runs as a front-of-queue
        work item, and queued pre-barrier tuples are above the cut's τ,
        covered by upstream replay + dedup exactly like today's cuts).
        """
        if not self.alive or not self.vm.alive or self.is_source or self.is_sink:
            return
        checkpointer = self.system.checkpointer
        if not checkpointer.epoch_inflight(epoch):
            return  # aborted/completed epoch; a late barrier must not park
        state = self._barrier_state.get(epoch)
        if state is None:
            state = _BarrierAlignment(
                self._upstream_slot_uids(), self.system.sim.now
            )
            self._barrier_state[epoch] = state
        if origin_slot in state.blocked:
            return  # duplicated barrier delivery
        state.blocked.add(origin_slot)
        state.awaited.discard(origin_slot)
        if state.awaited:
            return
        if len(state.blocked) > 1:
            self.system.telemetry.alignment_stall(
                self.op_name,
                self.uid,
                epoch,
                self.system.sim.now - state.started_at,
            )
        self._cut_epoch(epoch)

    def _upstream_slot_uids(self) -> set[int]:
        """Live upstream slots whose barriers this instance must align."""
        return {up.uid for up in self.system.live_upstreams(self.op_name)}

    def _barrier_park(self, tup: Tuple) -> bool:
        """Park a fresh tuple whose sender is blocked under any epoch.

        Parking continues until the epoch's cut is finished (not merely
        aligned): releasing early would let fresh tuples overtake parked
        ones from the same edge, and the overtaker's watermark advance
        would make the parked tuples look like duplicates.  Replays are
        recovery traffic, not epoch-ordered — they never park.
        """
        if tup.replay:
            return False
        for state in self._barrier_state.values():
            if tup.slot in state.blocked:
                state.parked.append(("t", tup))
                return True
        return False

    def _cut_epoch(self, epoch: int) -> None:
        """All input barriers aligned: serialise this epoch's cut."""
        if self.status is not InstanceStatus.RUNNING or not self.vm.alive:
            self._release_epoch(epoch)
            return
        self.flush_batches()
        cfg = self.system.config.checkpoint
        incremental = self._can_increment
        if incremental and self.state.dirty is not None:
            entry_count = len(self.state.dirty)
        else:
            entry_count = len(self.state)
        work = cfg.serialize_base_seconds + entry_count * (
            cfg.serialize_seconds_per_entry
        )
        self.vm.submit(work, self._finish_epoch_cut, epoch, incremental, front=True)

    def _finish_epoch_cut(self, epoch: int, incremental: bool) -> None:
        if self.status is not InstanceStatus.RUNNING or not self.vm.alive:
            self._release_epoch(epoch)
            return
        if epoch not in self._barrier_state:
            return  # epoch aborted while the serialisation was queued
        checkpoint = self._build_checkpoint(incremental)
        cut = EpochCut(checkpoint, epoch=epoch, fence_epoch=self.epoch)
        self.backend.on_checkpoint(cut)
        self.record_tier_metrics()
        self.system.checkpointer.cut(self, cut)
        self._forward_barrier(epoch)
        self._release_epoch(epoch)

    def _forward_barrier(self, epoch: int) -> None:
        """Send the epoch barrier to every live downstream instance."""
        system = self.system
        qm = system.query_manager
        size = system.config.network.tuple_bytes
        for down_name in qm.downstream_of(self.op_name):
            for slot in qm.slots_of(down_name):
                dest = system.live_instance(slot.uid)
                if dest is None:
                    continue
                system.network.send(
                    self.vm,
                    dest.vm,
                    size,
                    dest.receive_barrier,
                    epoch,
                    self.uid,
                    kind="control",
                )

    def _release_epoch(self, epoch: int) -> None:
        """Drop one epoch's alignment state and re-deliver its parked
        input in arrival order (re-entry re-checks parking, so a tuple
        re-parks under a later in-flight epoch if its sender is blocked
        there too)."""
        state = self._barrier_state.pop(epoch, None)
        if state is None:
            return
        for kind, item in state.parked:
            if kind == "b":
                self.receive_batch(item)
            else:
                self.receive(item)

    def abort_barrier_alignment(self, epoch: int | None = None) -> None:
        """The Checkpointer aborted in-flight epochs (a slot died or an
        epoch went stale): unwind alignment and release parked tuples."""
        epochs = [epoch] if epoch is not None else sorted(self._barrier_state)
        for e in epochs:
            self._release_epoch(e)

    def start_age_trimming(self, horizon: float, period: float = 5.0) -> None:
        """Retain only ``horizon`` seconds of buffered tuples.

        Used by the upstream-backup and source-replay baselines, which
        have no checkpoints to trim against (§6.2).
        """
        if self._age_trim_task is not None:
            return
        self._age_trim_task = self.system.sim.every(
            period, self._trim_by_age, horizon
        )

    def _trim_by_age(self, horizon: float) -> None:
        if not self.alive:
            return
        cutoff = self.system.sim.now - horizon
        for buf in self.buffers.values():
            buf.trim_by_age(cutoff)

    def trim_buffer_to(self, dest_uid: int, ts: int) -> int:
        """trim(o, τ): drop buffered tuples for ``dest_uid`` up to ``ts``."""
        dropped = 0
        for buf in self.buffers.values():
            dropped += buf.trim(dest_uid, ts)
        return dropped

    # ------------------------------------------------------------- replays

    def replay_buffer_to(
        self,
        dest_uid: int,
        flag_replay: bool = False,
        after_positions: dict[int, int] | None = None,
        counts: dict[int, int] | None = None,
        ids: set | None = None,
    ) -> int:
        """replay-buffer-state(u, o): resend buffered tuples to ``dest_uid``.

        Returns the number of tuple messages sent.  Tuples keep their
        original (slot, ts) stamps, so receivers drop the ones already
        reflected in their restored state.  Flagged replays are *paced*:
        consecutive messages are ``replay_message_gap`` seconds apart (the
        replay channel's streaming capacity), so replays stretch over time
        and contend with live traffic at the receiver — the effect behind
        the §6.2 recovery-time comparisons.

        ``counts``, if given, accumulates sent tuples per origin slot
        stamp — the receiver tracks its drain per origin, so the engine
        can release one feeder's share if that feeder dies mid-drain.
        """
        sent = 0
        gap = self.system.config.fault.replay_message_gap
        # One replay channel per destination: replays toward different
        # partitions stream in parallel, which is where parallel recovery
        # gets its speedup (§4.2).
        delay = 0.0
        for buf in self.buffers.values():
            for tup in buf.tuples_for(dest_uid):
                if (
                    after_positions is not None
                    and tup.ts <= after_positions.get(tup.slot, -1)
                ):
                    # The receiver negotiated a replay offset: it already
                    # reflects this tuple (active-replication promotion).
                    continue
                if flag_replay:
                    if not tup.replay:
                        tup = tup.copy()
                        tup.replay = True
                    self.system.sim.schedule(delay, self._send, dest_uid, tup)
                    delay += gap
                else:
                    self._send(dest_uid, tup)
                if counts is not None:
                    counts[tup.slot] = counts.get(tup.slot, 0) + 1
                if ids is not None:
                    ids.add((tup.slot, tup.ts))
                sent += 1
        return sent

    def replay_all_buffers(self, flag_replay: bool = False) -> int:
        """Resend every buffered tuple (restored operator → downstreams).

        Each tuple is re-routed by the *current* routing state, not the
        bucket it was checkpointed under: a routing swap committed after
        the checkpoint was taken (a fluid chunk commit or a hot-key
        carve-out) moved keys to a new owner.  The stale edge's instance
        would drop the tuple as migrated — while the new owner, if it
        released a dead feeder's mid-drain replays, is waiting for
        exactly these (slot, ts) pairs as gap fills.
        """
        sent = 0
        gap = self.system.config.fault.replay_message_gap
        # One replay channel per destination (see replay_buffer_to).
        delays: dict[int, float] = {}
        for down_name, buf in self.buffers.items():
            routing = self.routing.get(down_name)
            for dest_uid in buf.destinations():
                for tup in buf.tuples_for(dest_uid):
                    target = dest_uid
                    if routing is not None:
                        owner = routing.route_key(tup.key)
                        if owner is not None:
                            target = owner
                    if flag_replay:
                        if not tup.replay:
                            tup = tup.copy()
                            tup.replay = True
                        delay = delays.get(target, 0.0)
                        self.system.sim.schedule(delay, self._send, target, tup)
                        delays[target] = delay + gap
                    else:
                        self._send(target, tup)
                    sent += 1
        return sent

    def expect_replays(
        self,
        count: int,
        on_complete: Callable[[], None],
        flagged_only: bool = False,
        by_slot: dict[int, int] | None = None,
        drain_intervals: list | None = None,
        expected_ids: set | None = None,
    ) -> None:
        """Arrange ``on_complete`` to fire once ``count`` replayed tuples
        have been received *and processed* (the recovery-time endpoint).

        With ``flagged_only`` only tuples carrying the replay flag count —
        used by strategies that replay while new tuples keep flowing.
        ``by_slot`` breaks ``count`` down per origin slot stamp, enabling
        :meth:`release_replays_from` when a feeder dies mid-drain.
        ``drain_intervals`` marks a fluid-migration chunk drain: replays
        for keys inside those intervals dedup against the chunk's τ floor
        alone, while keys outside also dedup against a watermark snapshot
        taken now (see :meth:`_admit`).
        """
        if self._replay_done is not None:
            raise RuntimeStateError(f"{self.slot!r} already awaiting replays")
        if count <= 0:
            on_complete()
            return
        self._replay_expected = count
        self._replay_done = on_complete
        self._replay_flagged_only = flagged_only
        self._replay_seen = set()
        self._replay_by_slot = dict(by_slot) if by_slot else None
        self._replay_ids = set(expected_ids) if expected_ids is not None else None
        if drain_intervals:
            self._drain_intervals = list(drain_intervals)
            self._drain_wm_start = dict(self._arrival_wm)
            self._drain_replay_wm = {}

    def _note_replay_progress(self, tup: Tuple | None = None) -> None:
        if self._replay_done is None:
            return
        if (
            self._replay_flagged_only
            and (tup is None or not tup.replay)
        ):
            return
        if tup is not None and self._replay_ids is not None:
            key = (tup.slot, tup.ts)
            if key not in self._replay_ids:
                return  # stray duplicate from an earlier replay wave
            self._replay_ids.discard(key)
        elif tup is not None and self._replay_seen is not None:
            key = (tup.slot, tup.ts)
            if key in self._replay_seen:
                return  # duplicated delivery of an already-counted replay
            self._replay_seen.add(key)
        if (
            tup is not None
            and self._replay_by_slot is not None
            and tup.slot in self._replay_by_slot
        ):
            self._replay_by_slot[tup.slot] -= 1
            if self._replay_by_slot[tup.slot] <= 0:
                del self._replay_by_slot[tup.slot]
        self._replay_expected -= 1
        if self._replay_expected <= 0:
            self._complete_drain()

    def release_replays_from(self, slot_uid: int) -> int:
        """Give up on outstanding replays stamped with ``slot_uid``.

        Called by the engine when the feeder that sent them died
        mid-drain: its undelivered replays will never arrive, so waiting
        for them would wedge the operation forever.  The arrival
        watermark for that origin is rewound to the last *processed*
        replay so that when the feeder itself recovers, its restored
        buffer re-sends fill the gap instead of being dropped as
        duplicates; parked fresh tuples from that origin are discarded
        for the same reason (the feeder's recovery re-derives them).

        Returns the number of expected replays released.
        """
        if self._replay_done is None or self._replay_by_slot is None:
            return 0
        remaining = self._replay_by_slot.pop(slot_uid, 0)
        if remaining <= 0:
            return 0
        if self._replay_ids is not None:
            # Exact membership known: remember precisely the undelivered
            # pairs, so the feeder's re-derivations fill the gap while
            # every other at-or-below-watermark arrival stays a duplicate.
            released = {k for k in self._replay_ids if k[0] == slot_uid}
            self._replay_gap_ids |= released
            self._replay_ids -= released
            # The undelivered suffix of a paced wave spans both sides of
            # the chunk floor; keep the drain's dedup context so each
            # gap fill can be judged exactly as its replay would have.
            self._gap_intervals = list(self._drain_intervals)
            self._gap_floor = dict(self._replay_dedup_floor)
            self._gap_wm_start = dict(self._drain_wm_start)
        elif self.replay_mode == REPLAY_DEDUP:
            floor = self._replay_dedup_floor.get(slot_uid, -1)
            if self._arrival_wm.get(slot_uid, -1) > floor:
                self._arrival_wm[slot_uid] = floor
        self._held_while_draining = [
            t for t in self._held_while_draining if t.slot != slot_uid
        ]
        self._replay_expected -= remaining
        if self._replay_expected <= 0:
            self._complete_drain()
        return remaining

    def _complete_drain(self) -> None:
        done = self._replay_done
        self._replay_done = None
        self._replay_seen = None
        self._replay_by_slot = None
        self._replay_ids = None
        self._drain_intervals = []
        self._drain_wm_start = {}
        self._drain_replay_wm = {}
        held, self._held_while_draining = self._held_while_draining, []
        # All replays are at least queued; a zero-cost marker item fires
        # after the last queued replay has been processed.
        if done is not None:
            if self.vm.alive:
                self.vm.submit(0.0, done)
            else:
                done()
        # Tuples parked during the drain re-enter in arrival order; their
        # work items queue behind the already-queued replays.
        for tup in held:
            self.receive(tup)

    # --------------------------------------------------- fluid migration

    def begin_parking(self, intervals: list) -> None:
        """Source side: a chunk covering ``intervals`` is about to be
        extracted; fresh tuples for those keys park until its commit."""
        self._parking_intervals = list(intervals)

    def commit_parked(self) -> float:
        """Source side: the in-flight chunk committed.

        Its intervals join the migrated set (straggler tuples for them
        are dropped from now on) and the parked tuples are discarded:
        every one of them sits in an upstream output buffer, and the
        post-swap replay delivers it to the chunk's new owner.  Returns
        the parked weight discarded.
        """
        discarded = sum(tup.weight for tup in self._parked)
        if self._flow is not None and self._parked:
            # Parked rows were admitted (and debited upstream); their
            # discard is their final disposal here.
            for tup in self._parked:
                self._fc_note(tup.slot, tup.weight)
            self._fc_maybe_grant()
        self._migrated_intervals.extend(self._parking_intervals)
        self._parking_intervals = []
        self._parked = []
        return discarded

    def abort_parking(self) -> list[Tuple]:
        """Source side: the migration aborted with a chunk in flight.

        Parking stops — committed intervals stay migrated, because their
        routing swaps are kept — and the parked tuples are returned in
        per-origin timestamp order for re-injection via :meth:`reinject`.
        """
        parked = sorted(self._parked, key=lambda tup: (tup.slot, tup.ts))
        self._parked = []
        self._parking_intervals = []
        return parked

    def reinject(self, tup: Tuple) -> None:
        """Queue a previously parked tuple, bypassing admission.

        The tuple was admitted (watermark-advanced) when it parked, so
        running it through :meth:`_admit` again would drop it as a
        duplicate of itself.
        """
        if not self.alive or not self.vm.alive:
            return
        self._backlog_weight += tup.weight
        self.vm.submit(tup.weight * self.operator.cost_per_tuple, self._process, tup)

    def reabsorb_state(self, state: ProcessingState) -> None:
        """Source side, abort path: put an extracted-but-uncommitted
        chunk's entries back.  The value objects may still be aliased by
        the frozen pre-migration checkpoint, so they are adopted shared
        (copy-on-write on the next mutation), not claimed."""
        for key, value in state.share_all().items():
            self.state.adopt(key, value)

    def absorb_chunk(self, checkpoint: Checkpoint) -> None:
        """Target side: merge one chunk of a fluid migration into live
        state.

        τ max-merges — this instance's positions for shared origins may
        already be ahead of the source's.  The replay dedup floor resets
        to the *chunk's* τ: the commit drain that follows dedups
        in-flight-chunk keys against it, while keys from earlier chunks
        are guarded by the drain's watermark snapshot (:meth:`_admit`).
        The output clock is left alone; this instance emits under its own
        slot uid, so its clock never collides with the source's.  Output
        buffers riding the chunk (the final chunk carries the retiring
        source's β) are adopted: the source's unacknowledged emissions
        must stay replayable after it is gone.
        """
        # Adopt — don't claim — the chunk's value objects: they are still
        # aliased by the frozen pre-migration checkpoint the chunk was
        # extracted from (snapshot -> extract -> ship moves the objects
        # without copying).  A plain write would mark them privately
        # owned and the next in-place mutation here would corrupt the
        # rollback backups cut from that frozen checkpoint.
        for key, value in checkpoint.state.share_all().items():
            self.state.adopt(key, value)
        for slot_uid, pos in checkpoint.positions.items():
            if pos > self.state.positions.get(slot_uid, -1):
                self.state.positions[slot_uid] = pos
        self._replay_dedup_floor = dict(checkpoint.positions)
        for name, buf in checkpoint.buffers.items():
            mine = self.buffers.get(name)
            if mine is None:
                continue
            for dest in buf.destinations():
                for tup in buf.tuples_for(dest):
                    mine.append(dest, tup)

    # ------------------------------------------------------ control plane

    def pause(self) -> None:
        """stop-operator: stop processing; inputs keep queueing."""
        if self.status is InstanceStatus.RUNNING:
            self.flush_batches()
            self.status = InstanceStatus.PAUSED
            self.vm.pause()

    def resume(self) -> None:
        """start-operator: resume processing."""
        if self.status is InstanceStatus.PAUSED:
            self.status = InstanceStatus.RUNNING
            self.vm.resume()

    def freeze_positions(self) -> dict[int, int]:
        """Pause and report current processed positions (τ_stop).

        Called on a bottleneck operator when scale out begins: the new
        partitions suppress re-emission of outputs for inputs at or below
        these positions, because this instance already emitted them.
        """
        self.pause()
        return dict(self.state.positions)

    def stop(self, release_vm: bool = True) -> None:
        """Graceful removal after scale out replaced this instance."""
        if self.status in (InstanceStatus.STOPPED, InstanceStatus.FAILED):
            return
        if self.vm.alive:
            self.flush_batches()
        else:
            self._discard_batches()
        # Parked barrier-mode tuples sit in upstream buffers too; the
        # successor (if any) receives them via replay, not from here.
        self._barrier_state.clear()
        self.status = InstanceStatus.STOPPED
        self._stop_tasks()
        if release_vm and self.vm.alive:
            self.vm.release()
        if not self.vm.alive:
            # A retired VM's edges carry no further traffic; drop their
            # in-order release clocks so long runs don't leak them.
            self.system.network.prune_edges(self.vm.vm_id)

    def on_fence_notice(self, current_epoch: int) -> None:
        """A fence notice arrived: this instance's slot was re-epoched.

        A falsely-declared-dead primary keeps running — its VM never
        failed — until this notice reaches it (from the successor's VM
        at install time, or from the detector answering one of its
        stale-epoch heartbeats).  Everything it emitted since the fence
        was rejected by epoch checks, so it can simply terminate: its
        successor owns the slot's timeline.  Releasing the VM keeps the
        cluster accounting honest (no leaked zombie VMs).
        """
        if current_epoch <= self.epoch or not self.alive:
            return
        self.system.telemetry.event(
            "zombie_fenced",
            repr(self.slot),
            slot=self.uid,
            epoch=self.epoch,
            current_epoch=current_epoch,
        )
        self.system.metrics.increment("zombies_fenced")
        # This VM may hold *other* slots' backups (it is upstream of
        # them); re-home those before the VM goes away, exactly as a
        # graceful retirement would.
        self.system.retire_backup_store(self.vm)
        self.stop(release_vm=True)

    def _on_vm_failed(self, _vm: VirtualMachine) -> None:
        if self.status in (InstanceStatus.STOPPED, InstanceStatus.FAILED):
            return
        self.status = InstanceStatus.FAILED
        self._discard_batches()
        self._barrier_state.clear()
        self._stop_tasks()
        self.system.notify_instance_failed(self)

    def _stop_tasks(self) -> None:
        for task in (self._ckpt_task, self._timer_task, self._age_trim_task):
            if task is not None and not task.stopped:
                task.stop()
        self._ckpt_task = None
        self._timer_task = None
        self._age_trim_task = None

    # -------------------------------------------------------------- restore

    def restore_from(
        self,
        checkpoint: Checkpoint,
        suppress_until: dict[int, int] | None = None,
        fresh_dedup: bool = False,
    ) -> None:
        """restore-state(o, θ, τ, β, ρ): initialise from a checkpoint.

        ``suppress_until`` carries τ_stop from a frozen predecessor (see
        :meth:`freeze_positions`).  ``fresh_dedup`` clears the duplicate
        filter for baseline strategies that rebuild state by re-processing
        (upstream backup / source replay).
        """
        self.system.telemetry.log.emit(
            "restore",
            time=self.system.sim.now,
            slot=self.uid,
            op=self.op_name,
            seq=checkpoint.seq,
            entries=len(checkpoint.state),
            vm=self.vm.vm_id,
            fresh_dedup=fresh_dedup,
        )
        self.state = self.backend.restore(checkpoint.state)
        self._replay_dedup_floor = dict(checkpoint.positions)
        self._ckpt_seq = checkpoint.seq
        for name, buf in checkpoint.buffers.items():
            if name in self.buffers:
                self.buffers[name] = buf.snapshot()
        self._arrival_wm = {} if fresh_dedup else dict(checkpoint.positions)
        self._replay_gap_ids = set()
        self._suppress_until = dict(suppress_until) if suppress_until else {}

    def set_suppression(self, suppress_until: dict[int, int] | None) -> None:
        """Install the τ_stop bound from a predecessor frozen at commit
        time (see the scale-out coordinator)."""
        self._suppress_until = dict(suppress_until) if suppress_until else {}

    # -------------------------------------------------------------- routing

    def set_routing(self, down_name: str, routing: RoutingState) -> None:
        """Install the routing mirror toward one downstream operator."""
        if self._batch_pending:
            # Pending batches were routed under the old state; send them
            # before the new routing takes effect.
            self.flush_batches()
        self.routing[down_name] = routing

    def repartition_buffer(self, down_name: str) -> None:
        """partition-buffer-state(u): re-bucket buffered tuples for
        ``down_name`` according to the current routing state."""
        routing = self.routing.get(down_name)
        buf = self.buffers.get(down_name)
        if routing is None or buf is None:
            return
        buf.repartition(lambda tup: routing.route_key(tup.key))

    # -------------------------------------------------------------- metrics

    def _charge_state_io(self, seconds: float) -> None:
        """Charge tiered-state disk/external I/O as CPU-busy VM time.

        Spills, fault-ins, cold checkpoint reads and external flushes all
        route through here; the time lands on the hosting VM's work queue
        (occupying the CPU like any serialisation work) and is summed in
        the per-operator ``state_io`` time series.  A dead or released VM
        absorbs nothing — the state object may be charged while being
        drained post-failure, and those reads are free by then.
        """
        if seconds <= 0:
            return
        self.system.metrics.increment(f"state_io:{self.op_name}", seconds)
        self.system.telemetry.latency(f"state_io_latency:{self.op_name}").record(
            self.system.sim.now, seconds
        )
        if self.vm.alive:
            self.vm.submit(seconds, lambda: None)

    def record_tier_metrics(self) -> None:
        """Publish per-tier entry counts and I/O counters (telemetry)."""
        self.system.telemetry.state_tiers(
            self.op_name, self.uid, self.backend.tier_stats(self.state)
        )

    def backlog(self) -> float:
        """Weighted tuples received but not yet processed."""
        return self._backlog_weight
