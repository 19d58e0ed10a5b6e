"""Tests for the phase-driven reconfiguration engine.

The paper's claim — recovery is "scale out of a failed operator" — is
checked literally here: both operations on the same slot must walk the
identical phase sequence through the single engine, and every kind of
topology change must leave a queryable phase timeline behind.
"""

from repro.runtime.instance import OperatorInstance
from repro.scaling.reconfig import (
    PHASE_ABORTED,
    PHASE_DONE,
    PHASE_ORDER,
    PHASE_PLAN,
    PHASE_REPLAY_DRAIN,
    PHASE_TRANSFER,
)
from repro.sim.simulator import PRIORITY_FAILURE
from tests.conftest import small_system


FULL_SEQUENCE = list(PHASE_ORDER) + [PHASE_DONE]


def feed_many(gen, keys, weight=1):
    for key in keys:
        gen.feed(key, weight=weight)


def warmed_system(**kwargs):
    system, gen, col = small_system(checkpoint_interval=1.0, **kwargs)
    feed_many(gen, [f"k{i}" for i in range(30)])
    system.run(until=3.0)  # at least one checkpoint stored
    return system, gen, col


class TestPhaseSequences:
    def test_scale_out_walks_every_phase(self):
        system, _gen, _col = warmed_system()
        uid = system.query_manager.slots_of("counter")[0].uid
        assert system.scale_out.scale_out_slot(uid, 2)
        system.run(until=20.0)
        [timeline] = system.metrics.timelines(kind="scale_out")
        assert timeline.phases == FULL_SEQUENCE
        assert timeline.outcome == "done"

    def test_recovery_and_scale_out_share_the_phase_sequence(self):
        """Recovery of a slot IS scale out of that slot: same phases."""
        system_a, _gen_a, _col_a = warmed_system()
        uid_a = system_a.query_manager.slots_of("counter")[0].uid
        assert system_a.scale_out.scale_out_slot(uid_a, 2)
        system_a.run(until=20.0)

        system_b, _gen_b, _col_b = warmed_system()
        system_b.vm_of("counter").fail()
        system_b.run(until=20.0)

        [scale_out] = system_a.metrics.timelines(kind="scale_out")
        [recovery] = system_b.metrics.timelines(kind="recovery")
        assert recovery.phases == scale_out.phases == FULL_SEQUENCE

    def test_parallel_recovery_same_sequence(self):
        system, _gen, _col = warmed_system()
        system.config.fault.recovery_parallelism = 2
        system.vm_of("counter").fail()
        system.run(until=20.0)
        [timeline] = system.metrics.timelines(kind="recovery")
        assert timeline.phases == FULL_SEQUENCE
        assert system.query_manager.parallelism_of("counter") == 2

    def test_scale_in_walks_every_phase(self):
        system, gen, _col = warmed_system()
        uid = system.query_manager.slots_of("counter")[0].uid
        assert system.scale_out.scale_out_slot(uid, 2)
        system.run(until=20.0)
        assert system.scale_in.scale_in("counter")
        system.run(until=40.0)
        [timeline] = system.metrics.timelines(kind="scale_in")
        assert timeline.phases == FULL_SEQUENCE
        assert timeline.outcome == "done"

    def test_upstream_backup_recovery_same_sequence(self):
        system, gen, _col = small_system(
            strategy="upstream_backup", with_middle=True
        )
        feed_many(gen, [f"k{i}" for i in range(20)])
        system.run(until=3.0)
        system.vm_of("counter").fail()
        system.run(until=20.0)
        [timeline] = system.metrics.timelines(kind="recovery")
        assert timeline.phases == FULL_SEQUENCE

    def test_source_replay_recovery_same_sequence(self):
        system, gen, _col = small_system(
            strategy="source_replay", with_middle=True
        )
        feed_many(gen, [f"k{i}" for i in range(20)])
        system.run(until=3.0)
        system.vm_of("counter").fail()
        system.run(until=20.0)
        [timeline] = system.metrics.timelines(kind="recovery")
        assert timeline.phases == FULL_SEQUENCE


class TestTimelineContents:
    def test_spans_are_contiguous_and_monotonic(self):
        system, _gen, _col = warmed_system()
        uid = system.query_manager.slots_of("counter")[0].uid
        assert system.scale_out.scale_out_slot(uid, 2)
        system.run(until=20.0)
        [timeline] = system.metrics.timelines(kind="scale_out")
        rows = timeline.as_rows()
        assert len(rows) == len(FULL_SEQUENCE)
        for (_, start, end), (_, next_start, _) in zip(rows, rows[1:]):
            assert end == next_start  # each phase ends where the next begins
            assert end >= start

    def test_slot_uids_cover_old_and_new_partitions(self):
        system, _gen, _col = warmed_system()
        old_uid = system.query_manager.slots_of("counter")[0].uid
        assert system.scale_out.scale_out_slot(old_uid, 2)
        system.run(until=20.0)
        new_uids = {s.uid for s in system.query_manager.slots_of("counter")}
        [timeline] = system.metrics.timelines(kind="scale_out")
        assert old_uid in timeline.slot_uids
        assert new_uids <= set(timeline.slot_uids)
        # Queryable by any involved slot.
        assert system.metrics.timelines(slot_uid=old_uid) == [timeline]

    def test_recovery_attributes_time_to_phases(self):
        """The phase breakdown must account for the whole operation."""
        system, _gen, _col = warmed_system()
        system.vm_of("counter").fail()
        system.run(until=20.0)
        [timeline] = system.metrics.timelines(kind="recovery")
        total = timeline.total_duration()
        assert total is not None and total > 0
        parts = sum(
            timeline.phase_duration(phase) for phase in FULL_SEQUENCE
        )
        assert abs(parts - total) < 1e-9
        # State transfer over the network dominates serial recovery; the
        # replay drain may be instantaneous when buffers were just trimmed.
        assert timeline.phase_duration(PHASE_TRANSFER) > 0
        assert timeline.phase_duration(PHASE_REPLAY_DRAIN) >= 0

    def test_scale_in_timeline_records_both_old_slots(self):
        system, _gen, _col = warmed_system()
        uid = system.query_manager.slots_of("counter")[0].uid
        assert system.scale_out.scale_out_slot(uid, 2)
        system.run(until=20.0)
        olds = {s.uid for s in system.query_manager.slots_of("counter")}
        assert system.scale_in.scale_in("counter")
        system.run(until=40.0)
        [timeline] = system.metrics.timelines(kind="scale_in")
        assert olds <= set(timeline.slot_uids)


class TestPhaseDeadlines:
    def test_transfer_deadline_aborts_the_operation(self):
        system, _gen, _col = warmed_system()
        system.reconfig.default_phase_timeouts[PHASE_TRANSFER] = 1e-6
        uid = system.query_manager.slots_of("counter")[0].uid
        assert system.scale_out.scale_out_slot(uid, 2)
        system.run(until=20.0)
        assert system.reconfig.operations_aborted == 1
        assert system.metrics.events_of_kind("scale_out_aborted")
        [timeline] = system.metrics.timelines(kind="scale_out")
        assert timeline.outcome == "aborted"
        assert timeline.phases[-1] == PHASE_ABORTED
        # The frozen operator resumed; the system still works.
        assert not system.reconfig.is_replacing("counter")
        current = system.instances_of("counter")[0]
        assert current.alive and not current.vm.paused

    def test_plan_timeouts_override_engine_defaults(self):
        system, _gen, _col = warmed_system()
        # A generous engine-wide default must not abort anything when the
        # plan itself does not override it with something tighter.
        system.reconfig.default_phase_timeouts[PHASE_TRANSFER] = 300.0
        uid = system.query_manager.slots_of("counter")[0].uid
        assert system.scale_out.scale_out_slot(uid, 2)
        system.run(until=20.0)
        assert system.reconfig.operations_aborted == 0
        assert system.reconfig.operations_completed == 1

    def test_timers_disarmed_on_abort_and_late_fire_is_a_noop(self):
        """ABORTED cancels every outstanding deadline/watchdog timer, and
        even a timer that somehow fires late must not touch the dead
        operation (no double abort, no phase change)."""
        system, _gen, _col = warmed_system()
        system.reconfig.default_phase_timeouts[PHASE_TRANSFER] = 1e-6
        captured = []
        system.reconfig.on_phase_change(
            lambda op, phase: captured.append(op) if not captured else None
        )
        uid = system.query_manager.slots_of("counter")[0].uid
        assert system.scale_out.scale_out_slot(uid, 2)
        system.run(until=20.0)
        [op] = captured[:1]
        assert op.aborted
        # Every timer was cancelled and dropped when the op aborted.
        assert op.timers == []
        # A late deadline or watchdog event against the dead operation is
        # a no-op: no second abort, no phase transition, no exception.
        aborted_before = system.reconfig.operations_aborted
        system.reconfig._phase_deadline(op, PHASE_TRANSFER)
        system.reconfig._watchdog(op)
        system.run(until=25.0)
        assert system.reconfig.operations_aborted == aborted_before
        assert op.phase == PHASE_ABORTED

    def test_timers_disarmed_on_done(self):
        """DONE also cancels the watchdog and any armed phase deadlines —
        a completed operation must not linger in the event queue."""
        system, _gen, _col = warmed_system()
        captured = []
        system.reconfig.on_phase_change(
            lambda op, phase: captured.append(op) if not captured else None
        )
        uid = system.query_manager.slots_of("counter")[0].uid
        assert system.scale_out.scale_out_slot(uid, 2)
        system.run(until=20.0)
        [op] = captured[:1]
        assert op.finished and not op.aborted
        assert op.timers == []
        completed_before = system.reconfig.operations_completed
        aborted_before = system.reconfig.operations_aborted
        system.reconfig._watchdog(op)
        assert system.reconfig.operations_completed == completed_before
        assert system.reconfig.operations_aborted == aborted_before
        assert op.phase == PHASE_DONE

    def test_deadline_on_a_passed_phase_is_harmless(self):
        system, _gen, _col = warmed_system()
        # PLAN completes synchronously, so its deadline always finds the
        # operation already past it.
        system.reconfig.default_phase_timeouts[PHASE_PLAN] = 0.5
        uid = system.query_manager.slots_of("counter")[0].uid
        assert system.scale_out.scale_out_slot(uid, 2)
        system.run(until=20.0)
        assert system.reconfig.operations_completed == 1
        assert system.reconfig.operations_aborted == 0


class TestEngineBookkeeping:
    def test_counters_live_in_the_engine(self):
        system, _gen, _col = warmed_system()
        uid = system.query_manager.slots_of("counter")[0].uid
        assert system.scale_out.scale_out_slot(uid, 2)
        system.run(until=20.0)
        assert system.reconfig.operations_completed == 1
        assert system.scale_in.scale_in("counter")
        system.run(until=40.0)
        assert system.reconfig.merges_completed == 1

    def test_active_operations_drain_to_empty(self):
        system, _gen, _col = warmed_system()
        uid = system.query_manager.slots_of("counter")[0].uid
        assert system.scale_out.scale_out_slot(uid, 2)
        assert len(system.reconfig.active_operations()) == 1
        system.run(until=20.0)
        assert system.reconfig.active_operations() == []

    def test_merge_blocks_scale_out_and_vice_versa(self):
        system, _gen, _col = warmed_system()
        uid = system.query_manager.slots_of("counter")[0].uid
        assert system.scale_out.scale_out_slot(uid, 2)
        assert not system.scale_in.scale_in("counter")
        system.run(until=20.0)
        assert system.scale_in.scale_in("counter")
        busy_uid = system.query_manager.slots_of("counter")[0].uid
        assert not system.scale_out.scale_out_slot(busy_uid, 2)


class TestFeederDeathMidDrain:
    """mid — counter's only feeder, and the VM holding its backups —
    crashes the instant a counter operation enters REPLAY_DRAIN.  The
    replays it had not sent yet never arrive; the feeder-death watch the
    replay step arms must release them so the drain completes, and
    mid's own recovery must re-deliver the gap exactly once."""

    TUPLES = 3000

    def run(self, monkeypatch, start, **config):
        system, gen, _col = small_system(checkpoint_interval=1.0)
        for name, value in config.items():
            setattr(system.config.migration, name, value)
        for i in range(self.TUPLES):
            gen.feed_at(1.0 + i * 0.002, f"k{i % 50}")
        released = []
        release = OperatorInstance.release_replays_from

        def recording_release(instance, slot_uid):
            released.append(release(instance, slot_uid))
            return released[-1]

        monkeypatch.setattr(
            OperatorInstance, "release_replays_from", recording_release
        )
        ops = []

        def kill_feeder(op, phase):
            if phase == PHASE_REPLAY_DRAIN and op.plan.op_name == "counter":
                if not ops:
                    ops.append(op)
                    system.sim.schedule(
                        0.0,
                        system.injector.fail_now,
                        system.vm_of("mid"),
                        priority=PRIORITY_FAILURE,
                    )

        system.reconfig.on_phase_change(kill_feeder)
        start(system)
        system.run(until=60.0)
        [op] = ops
        assert op.phase == PHASE_DONE
        assert sum(released) > 0
        counters = [c for c in system.instances_of("counter") if c.alive]
        total = sum(c.state[key] for c in counters for key in c.state.keys())
        assert total == self.TUPLES

    @staticmethod
    def scale_out_at_3s(system):
        system.run(until=3.0)
        uid = system.query_manager.slots_of("counter")[0].uid
        assert system.scale_out.scale_out_slot(uid, 2)

    def test_scale_out(self, monkeypatch):
        self.run(monkeypatch, self.scale_out_at_3s)

    def test_serial_recovery(self, monkeypatch):
        self.run(
            monkeypatch,
            lambda system: system.injector.fail_target_at(
                lambda: system.vm_of("counter"), 3.0
            ),
        )

    def test_fluid_chunk_commit(self, monkeypatch):
        self.run(monkeypatch, self.scale_out_at_3s, max_chunks=4)
