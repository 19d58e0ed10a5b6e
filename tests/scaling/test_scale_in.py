"""Tests for scale in (merging partitions, §3.3/§8 extension)."""

import pytest

from repro.errors import ScaleOutError
from repro.scaling.scale_in import ScaleInPolicy
from repro.scaling.reports import UtilizationReport
from tests.conftest import small_system


def feed_many(gen, keys):
    for key in keys:
        gen.feed(key)


def split_counter(system, parallelism=2):
    uid = system.query_manager.slots_of("counter")[0].uid
    assert system.scale_out.scale_out_slot(uid, parallelism)


class TestScaleIn:
    def scaled_then_merged(self, keys=40, merge_at=30.0, until=60.0):
        system, gen, col = small_system(checkpoint_interval=1.0)
        feed_many(gen, [f"k{i}" for i in range(keys)])
        system.run(until=3.0)
        split_counter(system)
        system.run(until=20.0)
        assert system.query_manager.parallelism_of("counter") == 2
        merged = []
        system.sim.schedule_at(
            merge_at,
            lambda: merged.append(system.scale_in.scale_in("counter")),
        )
        system.run(until=until)
        assert merged == [True]
        return system, gen

    def test_merges_back_to_one_partition(self):
        system, _gen = self.scaled_then_merged()
        assert system.query_manager.parallelism_of("counter") == 1
        assert system.reconfig.merges_completed == 1
        assert system.metrics.events_of_kind("scale_in_complete")

    def test_merged_state_is_union(self):
        system, _gen = self.scaled_then_merged(keys=40)
        counter = system.instances_of("counter")[0]
        for i in range(40):
            assert counter.state[f"k{i}"] == 1

    def test_processing_continues_after_merge(self):
        system, gen = self.scaled_then_merged()
        feed_many(gen, ["late1", "late2"])
        system.run(until=70.0)
        counter = system.instances_of("counter")[0]
        assert counter.state["late1"] == 1
        assert counter.state["late2"] == 1

    def test_merge_is_exact_no_duplicates(self):
        system, gen = self.scaled_then_merged(keys=30)
        counter = system.instances_of("counter")[0]
        total = sum(v for v in counter.state.entries.values() if isinstance(v, int))
        assert total == 30

    def test_old_vms_released(self):
        system, _gen = self.scaled_then_merged()
        released = [vm for vm in system.provider.vms if vm.released_at is not None]
        assert len(released) >= 2

    def test_merged_partition_has_backup(self):
        system, _gen = self.scaled_then_merged()
        counter = system.instances_of("counter")[0]
        assert system.backup_of(counter.uid) is not None

    def test_merged_partition_recoverable(self):
        system, gen = self.scaled_then_merged()
        feed_many(gen, ["x"])
        system.injector.fail_target_at(lambda: system.vm_of("counter"), 65.0)
        system.run(until=100.0)
        assert len(system.metrics.events_of_kind("recovery_complete")) == 1
        counter = system.instances_of("counter")[0]
        assert counter.state["x"] == 1

    def test_upstream_routing_updated(self):
        system, _gen = self.scaled_then_merged()
        mid = system.instances_of("mid")[0]
        counter = system.instances_of("counter")[0]
        assert set(mid.routing["counter"].targets) == {counter.uid}

    def test_upstream_recovered_mid_merge_aborts_instead_of_losing_tuples(self):
        """mid's VM dies just before the merge starts; its successor is
        deployed (under the pre-merge routing, never paused) while the
        merge waits for a VM.  Committing would leave the successor
        routing to the two retired slots and silently drop everything it
        sends afterwards; the merge must abort instead."""
        system, gen, _col = small_system(checkpoint_interval=1.0)
        system.run(until=3.0)
        split_counter(system)
        system.injector.fail_target_at(lambda: system.vm_of("mid"), 28.5)
        merged = []
        system.sim.schedule_at(
            30.0, lambda: merged.append(system.scale_in.scale_in("counter"))
        )
        keys = [f"new{i}" for i in range(40)]
        for i, key in enumerate(keys):
            gen.feed_at(100.0 + 0.1 * i, key)
        system.run(until=130.0)
        assert merged == [True]
        assert system.metrics.events_of_kind("recovery_complete")
        assert system.metrics.events_of_kind("scale_in_aborted")
        assert not system.metrics.events_of_kind("scale_in_complete")
        counters = [c for c in system.instances_of("counter") if c.alive]
        for key in keys:
            assert sum(c.state.get(key, 0) for c in counters) == 1

    def test_single_partition_not_merged(self):
        system, gen, _col = small_system()
        assert not system.scale_in.scale_in("counter")

    def test_stateless_operator_mergeable(self):
        system, gen, col = small_system(checkpoint_interval=1.0)
        feed_many(gen, ["a", "b"])
        system.run(until=3.0)
        uid = system.query_manager.slots_of("mid")[0].uid
        assert system.scale_out.scale_out_slot(uid, 2)
        system.run(until=20.0)
        assert system.scale_in.scale_in("mid")
        system.run(until=40.0)
        assert system.query_manager.parallelism_of("mid") == 1
        feed_many(gen, ["c"])
        system.run(until=45.0)
        assert system.instances_of("counter")[0].state["c"] == 1

    def test_operator_without_merge_values_rejected(self):
        from repro.core.operator import Operator
        from repro.core.query import QueryGraph
        from repro.runtime.sink import SinkOperator
        from repro.runtime.source import SourceOperator
        from repro.config import SystemConfig
        from repro.runtime.system import StreamProcessingSystem
        from tests.conftest import ManualGenerator

        class NoMerge(Operator):
            def __init__(self):
                super().__init__("nomerge", stateful=True)

            def on_tuple(self, tup, ctx):
                ctx.state[tup.key] = 1

        graph = QueryGraph()
        graph.add_operator(SourceOperator("source"), source=True)
        graph.add_operator(NoMerge())
        graph.add_operator(SinkOperator("sink"), sink=True)
        graph.chain("source", "nomerge", "sink")
        config = SystemConfig()
        config.scaling.enabled = False
        system = StreamProcessingSystem(config)
        system.deploy(
            graph,
            parallelism={"nomerge": 2},
            generators={"source": ManualGenerator()},
        )
        with pytest.raises(ScaleOutError):
            system.scale_in.scale_in("nomerge")


class TestScaleInPolicy:
    def report(self, op, uid, util):
        return UtilizationReport(0.0, op, uid, uid, 5.0, util)

    def test_merges_after_sustained_low_utilization(self):
        system, gen, _col = small_system(checkpoint_interval=1.0)
        feed_many(gen, [f"k{i}" for i in range(10)])
        system.run(until=3.0)
        split_counter(system)
        system.run(until=20.0)
        from repro.scaling.scale_in import ScaleInPolicy

        policy = ScaleInPolicy(
            system, system.scale_in, low_threshold=0.3, consecutive_reports=2
        )
        uids = [s.uid for s in system.query_manager.slots_of("counter")]
        reports = [self.report("counter", uid, 0.05) for uid in uids]
        assert policy.observe(reports) == []
        assert policy.observe(reports) == ["counter"]
        system.run(until=40.0)
        assert system.query_manager.parallelism_of("counter") == 1

    def test_hot_operator_not_merged(self):
        system, gen, _col = small_system(checkpoint_interval=1.0)
        feed_many(gen, ["a"])
        system.run(until=3.0)
        split_counter(system)
        system.run(until=20.0)
        policy = ScaleInPolicy(system, system.scale_in, consecutive_reports=1)
        uids = [s.uid for s in system.query_manager.slots_of("counter")]
        reports = [self.report("counter", uids[0], 0.05), self.report("counter", uids[1], 0.8)]
        assert policy.observe(reports) == []

    def test_single_partition_ignored(self):
        system, gen, _col = small_system()
        policy = ScaleInPolicy(system, system.scale_in, consecutive_reports=1)
        uid = system.query_manager.slots_of("counter")[0].uid
        assert policy.observe([self.report("counter", uid, 0.01)]) == []
