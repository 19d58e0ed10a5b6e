"""Scale in: merging operator partitions (§3.3, §8).

The paper lists merging two operators' state as the natural extension of
the primitive set ("to scale in operators when resources are
under-utilised, the state of two operators can be merged") and names
elastic scale in as future work.

The implementation uses *quiesce-and-merge*, which is exact:

1. pick two live partitions whose key intervals are adjacent;
2. stop their upstream operators (tuples buffer upstream, Alg. 3 style);
3. let both partitions drain their input queues — afterwards, for every
   input connection, every tuple at or below the per-connection maximum
   has been processed by exactly the partition owning its key, so the
   element-wise max of the two τ vectors is a consistent merged τ;
4. merge the live state snapshots with the operator's ``merge_values``,
   restore onto a pooled VM, swap routing, re-bucket upstream buffers,
   restart the upstreams, and release both old VMs.

This module only selects the pair and validates the request; the
quiesce, merge, restore and commit steps run as a *merge-sourced*
:class:`~repro.scaling.reconfig.ReconfigPlan` in the shared
:class:`~repro.scaling.reconfig.ReconfigurationEngine`.  Scale in is
triggered manually or by :class:`ScaleInPolicy`, which watches for
sustained low utilisation — the inverse of the §5.1 policy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import ScaleOutError
from repro.scaling.reconfig import KIND_SCALE_IN, SOURCE_MERGE, ReconfigPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.instance import OperatorInstance
    from repro.scaling.reconfig import ReconfigurationEngine
    from repro.runtime.system import StreamProcessingSystem


class ScaleInCoordinator:
    """Merges two adjacent partitions of an operator into one."""

    def __init__(self, system: "StreamProcessingSystem") -> None:
        self.system = system

    @property
    def _engine(self) -> "ReconfigurationEngine":
        assert self.system.reconfig is not None
        return self.system.reconfig

    # ------------------------------------------------------------ selection

    def mergeable_pair(
        self, op_name: str
    ) -> tuple["OperatorInstance", "OperatorInstance"] | None:
        """Find two live partitions owning adjacent key intervals."""
        return next(self._adjacent_pairs(op_name), None)

    def neighbor_of(
        self, slot_uid: int
    ) -> tuple["OperatorInstance", "OperatorInstance"] | None:
        """Find a live partition adjacent to ``slot_uid``'s intervals.

        Returns the pair ordered by key range (left, right), where one
        side is ``slot_uid``.  Used by hot-key cool-down to re-absorb a
        carved-out slot into whichever neighbour borders it.
        """
        instance = self.system.live_instance(slot_uid)
        if instance is None:
            return None
        pairs = self._adjacent_pairs(instance.op_name)
        return next((pair for pair in pairs if instance in pair), None)

    def _adjacent_pairs(
        self, op_name: str
    ) -> Iterator[tuple["OperatorInstance", "OperatorInstance"]]:
        """Live partition pairs owning adjacent key intervals, in key
        order."""
        system = self.system
        entries = list(system.query_manager.routing_to(op_name))
        for (left_iv, left_uid), (right_iv, right_uid) in zip(entries, entries[1:]):
            if left_uid == right_uid or left_iv.hi != right_iv.lo:
                continue
            left = system.live_instance(left_uid)
            right = system.live_instance(right_uid)
            if left is not None and right is not None:
                yield left, right

    # -------------------------------------------------------------- merging

    def scale_in(
        self,
        op_name: str,
        on_complete: Callable[[float], None] | None = None,
    ) -> bool:
        """Merge one adjacent pair of ``op_name`` partitions.

        Returns whether a merge was started.
        """
        return self._merge(
            op_name, lambda: self.mergeable_pair(op_name), "under-utilised",
            on_complete,
        )

    def merge_slot(
        self,
        slot_uid: int,
        on_complete: Callable[[float], None] | None = None,
    ) -> bool:
        """Merge ``slot_uid`` with an adjacent live partition.

        The targeted form of :meth:`scale_in`, used to re-absorb a
        cooled-down hot-key carve-out into its neighbour.  Returns
        whether a merge was started.
        """
        instance = self.system.live_instance(slot_uid)
        if instance is None:
            return False
        return self._merge(
            instance.op_name, lambda: self.neighbor_of(slot_uid),
            "hot-key cooled", on_complete,
        )

    def _merge(
        self,
        op_name: str,
        find_pair: Callable[[], tuple["OperatorInstance", "OperatorInstance"] | None],
        reason: str,
        on_complete: Callable[[float], None] | None,
    ) -> bool:
        """Submit a merge of the pair ``find_pair`` picks, if ``op_name``
        is idle, partitioned and mergeable.  The pair is looked up only
        after those checks: operators without input routing (sources)
        have no pairs to look up."""
        system = self.system
        if self._engine.is_merging(op_name):
            return False
        if self._engine.is_replacing(op_name):
            return False
        if system.query_manager.parallelism_of(op_name) < 2:
            return False
        from repro.core.operator import Operator

        operator = system.query_manager.query.operator(op_name)  # type: ignore[union-attr]
        if operator.stateful and type(operator).merge_values is Operator.merge_values:
            raise ScaleOutError(
                f"operator {op_name} does not define merge_values; "
                "scale in needs it to combine overlapping entries"
            )
        pair = find_pair()
        if pair is None:
            return False
        left, right = pair
        plan = ReconfigPlan(
            kind=KIND_SCALE_IN,
            op_name=op_name,
            old_slots=[left.slot, right.slot],
            parallelism=1,
            state_source=SOURCE_MERGE,
            reason=reason,
            on_complete=on_complete,
        )
        return self._engine.submit(plan)


class ScaleInPolicy:
    """Triggers scale in after sustained low utilisation (the §8 vision).

    When every partition of an operator stays below ``low_threshold`` for
    ``consecutive_reports`` rounds, one adjacent pair is merged.
    """

    def __init__(
        self,
        system: "StreamProcessingSystem",
        coordinator: ScaleInCoordinator,
        low_threshold: float = 0.25,
        consecutive_reports: int = 3,
    ) -> None:
        self.system = system
        self.coordinator = coordinator
        self.low_threshold = low_threshold
        self.consecutive_reports = consecutive_reports
        self._consecutive: dict[str, int] = {}

    def observe(self, reports) -> list[str]:
        """Feed one round of utilisation reports; returns merged ops."""
        by_op: dict[str, list[float]] = {}
        for report in reports:
            by_op.setdefault(report.op_name, []).append(report.utilization)
        merged = []
        for op_name, utilizations in by_op.items():
            if len(utilizations) < 2:
                continue
            if max(utilizations) < self.low_threshold:
                count = self._consecutive.get(op_name, 0) + 1
                self._consecutive[op_name] = count
                if count >= self.consecutive_reports:
                    if self.coordinator.scale_in(op_name):
                        merged.append(op_name)
                        self._consecutive[op_name] = 0
            else:
                self._consecutive[op_name] = 0
        return merged
