"""Tests for the fault-tolerant scale-out coordinator (Algorithm 3)."""

import pytest

from repro.core.tuples import stable_hash
from tests.conftest import small_system


def feed_many(gen, keys, weight=1):
    for key in keys:
        gen.feed(key, weight=weight)


def scale_counter(system, parallelism=2, at=None, done=None):
    uid = system.query_manager.slots_of("counter")[0].uid

    def trigger():
        ok = system.scale_out.scale_out_slot(
            uid, parallelism=parallelism, on_complete=done
        )
        assert ok

    if at is None:
        trigger()
    else:
        system.sim.schedule_at(at, trigger)
    return uid


class TestScaleOut:
    def setup_scaled(self, parallelism=2, keys=40):
        system, gen, col = small_system(checkpoint_interval=1.0)
        feed_many(gen, [f"k{i}" for i in range(keys)])
        system.run(until=3.0)  # at least one checkpoint stored
        old_uid = scale_counter(system, parallelism)
        system.run(until=20.0)
        return system, gen, old_uid

    def test_creates_new_partitions(self):
        system, _gen, old_uid = self.setup_scaled(parallelism=3)
        assert system.query_manager.parallelism_of("counter") == 3
        assert old_uid not in system.instances
        assert len(system.metrics.events_of_kind("scale_out_complete")) == 1

    def test_state_partitioned_disjointly(self):
        system, _gen, _old = self.setup_scaled(parallelism=2)
        parts = system.instances_of("counter")
        keys = [set(p.state.keys()) for p in parts]
        assert not (keys[0] & keys[1])
        assert len(keys[0] | keys[1]) == 40

    def test_state_respects_routing(self):
        system, _gen, _old = self.setup_scaled(parallelism=2)
        routing = system.query_manager.routing_to("counter")
        for part in system.instances_of("counter"):
            for key in part.state.keys():
                assert routing.route_position(stable_hash(key)) == part.uid

    def test_no_counts_lost_or_duplicated(self):
        system, gen, _old = self.setup_scaled(parallelism=2)
        # Feed more tuples after scale out: they must land exactly once.
        feed_many(gen, [f"k{i}" for i in range(40)])
        system.run(until=25.0)
        total = sum(
            sum(v for v in p.state.entries.values() if isinstance(v, int))
            for p in system.instances_of("counter")
        )
        assert total == 80

    def test_old_vm_released(self):
        system, _gen, old_uid = self.setup_scaled()
        released = [
            vm
            for vm in system.provider.vms
            if vm.released_at is not None
        ]
        assert released

    def test_upstream_routing_updated(self):
        system, _gen, _old = self.setup_scaled(parallelism=2)
        mid = system.instances_of("mid")[0]
        uids = {p.uid for p in system.instances_of("counter")}
        assert set(mid.routing["counter"].targets) == uids

    def test_new_partitions_have_backups(self):
        system, _gen, _old = self.setup_scaled(parallelism=2)
        for part in system.instances_of("counter"):
            assert system.backup_of(part.uid) is not None

    def test_old_backup_dropped(self):
        system, _gen, old_uid = self.setup_scaled()
        assert system.backup_of(old_uid) is None

    def test_completion_callback_runs(self):
        system, gen, _col = small_system(checkpoint_interval=1.0)
        feed_many(gen, [f"k{i}" for i in range(10)])
        system.run(until=3.0)
        durations = []
        scale_counter(system, 2, done=durations.append)
        system.run(until=20.0)
        assert len(durations) == 1
        assert durations[0] > 0

    def test_busy_operator_rejects_second_scale_out(self):
        system, gen, _col = small_system(checkpoint_interval=1.0)
        feed_many(gen, ["a", "b"])
        system.run(until=3.0)
        uid = system.query_manager.slots_of("counter")[0].uid
        assert system.scale_out.scale_out_slot(uid, 2)
        assert not system.scale_out.scale_out_slot(uid, 2)
        assert system.reconfig.is_replacing("counter")
        system.run(until=20.0)
        assert not system.reconfig.is_replacing("counter")

    def test_no_backup_aborts(self):
        system, gen, _col = small_system(checkpoint_interval=100.0)
        feed_many(gen, ["a"])
        system.run(until=1.0)  # no checkpoint yet
        uid = system.query_manager.slots_of("counter")[0].uid
        assert not system.scale_out.scale_out_slot(uid, 2)
        assert system.metrics.events_of_kind("scale_out_aborted")


class TestScaleOutExactness:
    def test_suppression_prevents_duplicate_outputs(self):
        """Scale out the stateless mid operator: its outputs for inputs the
        frozen instance already processed must not be re-emitted."""
        system, gen, _col = small_system(checkpoint_interval=1.0)
        feed_many(gen, [f"k{i}" for i in range(30)])
        system.run(until=4.0)
        counter_before = {
            k: v for k, v in system.instances_of("counter")[0].state.items()
        }
        mid_uid = system.query_manager.slots_of("mid")[0].uid
        assert system.scale_out.scale_out_slot(mid_uid, 2)
        system.run(until=20.0)
        counter_after = dict(system.instances_of("counter")[0].state.items())
        assert counter_after == counter_before  # no double counting

    def test_mid_scale_out_preserves_future_flow(self):
        system, gen, _col = small_system(checkpoint_interval=1.0)
        feed_many(gen, ["a", "b"])
        system.run(until=4.0)
        mid_uid = system.query_manager.slots_of("mid")[0].uid
        system.scale_out.scale_out_slot(mid_uid, 2)
        system.run(until=20.0)
        feed_many(gen, ["c", "d"])
        system.run(until=25.0)
        counter = system.instances_of("counter")[0]
        assert counter.state["c"] == 1 and counter.state["d"] == 1


class TestAbortPaths:
    def test_backup_vm_failure_aborts_and_unfreezes(self):
        system, gen, _col = small_system(checkpoint_interval=1.0, strategy="none")
        counter = system.instances_of("counter")[0]
        counter.start_checkpointing()
        feed_many(gen, ["a", "b"])
        system.run(until=3.0)
        assert system.scale_out.scale_out_slot(counter.uid, 2)
        # The backup lives on mid's VM; kill it before partitioning runs.
        system.instances_of("mid")[0].vm.fail()
        system.run(until=30.0)
        assert system.metrics.events_of_kind("scale_out_aborted")
        # The frozen counter resumed and keeps processing.
        current = system.instances_of("counter")[0]
        assert current.alive
        assert not current.vm.paused

    def test_invalid_parallelism_rejected(self):
        system, _gen, _col = small_system()
        from repro.errors import ScaleOutError

        with pytest.raises(ScaleOutError):
            system.scale_out.scale_out_slot(0, parallelism=0)

    def test_unknown_slot_returns_false(self):
        system, _gen, _col = small_system()
        assert not system.scale_out.scale_out_slot(98765, 2)
