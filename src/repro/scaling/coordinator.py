"""Scale-out policy (§4.3, Algorithm 3).

``scale-out-operator(o, π)`` replaces one operator partition with π new
partitions built from the partition's *backed-up checkpoint* — never from
the live (overloaded or dead) instance.  The same machinery therefore
serves both of this coordinator's uses:

* **scale out** of a bottleneck partition (π ≥ 2, old instance alive);
* **parallel recovery** (π ≥ 2 with the old instance dead), which splits
  the replay work across several new partitions (§4.2).

Serial recovery (π = 1, slot-preserving) is the same mechanism too; the
:class:`~repro.fault.recovery.RecoveryCoordinator` plans it.  This
coordinator validates the request and builds a backup-sourced
:class:`~repro.scaling.reconfig.ReconfigPlan`; the shared phase machine
in :class:`~repro.scaling.reconfig.ReconfigurationEngine` does the rest
(VM acquisition, partitioning on the backup VM's CPU, network transfer,
restore, routing swap, replay drain, aborts).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import ScaleOutError
from repro.scaling.reconfig import (
    KIND_RECOVERY,
    KIND_SCALE_OUT,
    SOURCE_BACKUP,
    ReconfigPlan,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scaling.reconfig import ReconfigurationEngine
    from repro.runtime.system import StreamProcessingSystem


class ScaleOutCoordinator:
    """Builds backup-sourced :class:`ReconfigPlan`\\ s for the engine."""

    def __init__(self, system: "StreamProcessingSystem") -> None:
        self.system = system

    @property
    def _engine(self) -> "ReconfigurationEngine":
        assert self.system.reconfig is not None
        return self.system.reconfig

    # ------------------------------------------------------------ scale out

    def scale_out_slot(
        self,
        slot_uid: int,
        parallelism: int = 2,
        reason: str = "bottleneck",
        failure_time: float | None = None,
        on_complete: Callable[[float], None] | None = None,
    ) -> bool:
        """Replace slot ``slot_uid`` with ``parallelism`` new partitions.

        Returns whether the operation was started.  Works for live slots
        (scale out, with output suppression from the frozen instance) and
        dead slots (parallel recovery).
        """
        system = self.system
        if parallelism < 1:
            raise ScaleOutError(f"parallelism must be >= 1: {parallelism}")
        old = system.instance(slot_uid)
        if old is None:
            return False
        if parallelism > 1:
            # A slot cannot split into more parts than it owns key-space
            # width — a carved-out singleton slot (width 1) recovers or
            # "splits" serially instead of crashing the partitioner.
            routing = system.query_manager.routing_to(old.op_name)
            owned_width = sum(
                iv.width for iv in routing.intervals_of(slot_uid)
            )
            if 0 < owned_width < parallelism:
                parallelism = owned_width
        is_recovery = failure_time is not None or not (old.alive and old.vm.alive)
        plan = ReconfigPlan(
            kind=KIND_RECOVERY if is_recovery else KIND_SCALE_OUT,
            op_name=old.op_name,
            old_slots=[old.slot],
            parallelism=parallelism,
            state_source=SOURCE_BACKUP,
            reason=reason,
            failure_time=failure_time,
            on_complete=on_complete,
        )
        return self._engine.submit(plan)

    def carve_out_slot(
        self,
        slot_uid: int,
        intervals: list,
        reason: str = "hot-key",
        on_complete: Callable[[float], None] | None = None,
    ) -> bool:
        """Carve ``intervals`` out of a live slot into a dedicated slot.

        Fine-grained elasticity for skew that interval splitting cannot
        relieve: instead of replacing the slot with π halves, exactly
        the given sub-intervals (typically one hot key's singleton
        ``[pos, pos+1)``) migrate to one new partition while the source
        keeps serving the rest of its range.  Runs as a partial fluid
        migration with the same exactly-once guarantees as a scale out;
        the carved slot re-absorbs into a neighbour later via a normal
        scale-in merge.  Returns whether the operation was started.
        """
        system = self.system
        if not intervals:
            raise ScaleOutError("carve-out needs at least one interval")
        old = system.instance(slot_uid)
        if old is None:
            return False
        if not (old.alive and old.vm.alive):
            return False
        plan = ReconfigPlan(
            kind=KIND_SCALE_OUT,
            op_name=old.op_name,
            old_slots=[old.slot],
            parallelism=1,
            state_source=SOURCE_BACKUP,
            reason=reason,
            move_intervals=list(intervals),
            on_complete=on_complete,
        )
        return self._engine.submit(plan)
