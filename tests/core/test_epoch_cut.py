"""The EpochCut descriptor and the unified Checkpointer seam."""

import inspect
import random
import warnings

import pytest

from repro.core.backend import (
    ExternalBackend,
    MemoryBackend,
    SpillBackend,
    StateBackend,
)
from repro.core.checkpoint import (
    Checkpoint,
    EpochCut,
    RestorePlan,
    as_checkpoint,
    materialize_increment,
)
from repro.core.state import ProcessingState


def make_checkpoint(entries=None, seq=4):
    return Checkpoint(
        "op", 7, ProcessingState(entries or {"a": 1}, {0: 3}, 2), seq=seq
    )


class TestEpochCutDescriptor:
    def test_wraps_and_delegates(self):
        ckpt = make_checkpoint()
        cut = EpochCut(ckpt, epoch=9, fence_epoch=2)
        assert cut.checkpoint is ckpt
        assert cut.epoch == 9
        assert cut.fence_epoch == 2
        assert cut.op_name == "op"
        assert cut.slot_uid == 7
        assert cut.state.entries == {"a": 1}
        assert cut.positions == {0: 3}
        assert cut.out_clock == 2
        assert cut.seq == 4
        assert not cut.incremental
        assert cut.fence_floor == cut.out_clock

    def test_size_delegates_to_checkpoint(self):
        ckpt = make_checkpoint(entries={"a": 1, "b": 2})
        cut = EpochCut(ckpt)
        assert cut.entry_count() == ckpt.entry_count()
        assert cut.size_bytes(64.0, 64.0) == ckpt.size_bytes(64.0, 64.0)

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError):
            EpochCut(op_name="op", slot_uid=7, state=ProcessingState(), bogus=1)

    def test_checkpoint_plus_legacy_fields_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            with pytest.raises(TypeError):
                EpochCut(make_checkpoint(), op_name="op")

    def test_empty_construction_rejected(self):
        with pytest.raises(TypeError):
            EpochCut()

    def test_as_checkpoint_unwraps(self):
        ckpt = make_checkpoint()
        assert as_checkpoint(EpochCut(ckpt)) is ckpt
        assert as_checkpoint(ckpt) is ckpt

    def test_restore_plan_fence_floor(self):
        plan = RestorePlan(slot_uid=7, checkpoint=make_checkpoint())
        assert plan.fence_floor == 2
        assert not plan.external
        empty = RestorePlan(slot_uid=7, checkpoint=None)
        assert empty.fence_floor == 0


class TestBackendOnCheckpointConformance:
    """Every backend consumes the same EpochCut-shaped hook."""

    def test_signature_unified_across_backends(self):
        expected = list(
            inspect.signature(StateBackend.on_checkpoint).parameters
        )
        for cls in (MemoryBackend, SpillBackend, ExternalBackend):
            assert (
                list(inspect.signature(cls.on_checkpoint).parameters)
                == expected
            ), cls.__name__

    def test_memory_backend_hook_is_a_noop(self):
        MemoryBackend().on_checkpoint(EpochCut(make_checkpoint(), epoch=3))

    def test_external_backend_consumes_epoch_cut(self):
        from repro.config import StateBackendConfig
        from repro.core.spill import ExternalStateStore

        store = ExternalStateStore()
        backend = ExternalBackend(
            StateBackendConfig(), store, "op", 7, io_cost=None
        )
        backend.on_checkpoint(EpochCut(make_checkpoint(), epoch=5))
        meta = store.load_meta("op", 7)
        assert meta is not None


class TestDeltaComposition:
    """base + deltas == full, over random write/delete sequences."""

    def _delta_from(self, state, seq):
        touched = state.consume_dirty()
        entries, deleted = {}, set()
        for key in touched:
            if key in state.entries:
                entries[key] = state.entries[key]
            else:
                deleted.add(key)
        return Checkpoint(
            "op",
            7,
            ProcessingState(entries, {0: seq}, seq),
            seq=seq,
            incremental=True,
            base_seq=seq - 1,
            deleted_keys=frozenset(deleted),
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_base_plus_deltas_equal_full(self, seed):
        rng = random.Random(seed)
        keys = [f"k{i}" for i in range(15)]
        state = ProcessingState()
        state.enable_dirty_tracking()
        for _ in range(rng.randint(1, 25)):
            state[rng.choice(keys)] = rng.randint(0, 99)
        state.consume_dirty()
        materialized = Checkpoint(
            "op", 7, ProcessingState(dict(state.entries), {0: 1}, 1), seq=1
        )
        seq = 1
        for _ in range(rng.randint(1, 5)):
            for _ in range(rng.randint(0, 12)):
                if state.entries and rng.random() < 0.3:
                    state.pop(rng.choice(sorted(state.entries)))
                else:
                    state[rng.choice(keys)] = rng.randint(0, 99)
            seq += 1
            materialized = materialize_increment(
                materialized, self._delta_from(state, seq)
            )
        assert materialized.state.entries == dict(state.entries)
        assert not materialized.incremental
