"""Query state: processing, buffer and routing state (§3.1 of the paper).

The paper divides externalised operator state into three parts:

* **processing state** ``θ`` — a set of key/value pairs summarising the
  history of processed tuples, plus the timestamp vector ``τ`` of the most
  recent input tuples reflected in it;
* **buffer state** ``β`` — output tuples kept for downstream replay, per
  partitioned downstream operator;
* **routing state** ``ρ`` — the key-interval → partition mapping used to
  dispatch tuples to a partitioned downstream operator.

This module implements those three structures together with the key-space
machinery (intervals over a 32-bit hash space) they are defined on.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.core.tuples import KEY_SPACE, Tuple, stable_hash
from repro.errors import KeySpaceError, PartitionError, StateError


class KeyInterval:
    """A half-open interval ``[lo, hi)`` in the partitioning key space."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        if not 0 <= lo < hi <= KEY_SPACE:
            raise KeySpaceError(f"invalid key interval [{lo}, {hi})")
        self.lo = lo
        self.hi = hi

    @classmethod
    def full(cls) -> "KeyInterval":
        """The interval covering the whole key space."""
        return cls(0, KEY_SPACE)

    def __contains__(self, position: int) -> bool:
        return self.lo <= position < self.hi

    def contains_key(self, key: Any) -> bool:
        """Whether a semantic key hashes into this interval."""
        return stable_hash(key) in self

    @property
    def width(self) -> int:
        return self.hi - self.lo

    def split(self, parts: int) -> list["KeyInterval"]:
        """Split evenly into ``parts`` sub-intervals (hash partitioning)."""
        if parts < 1:
            raise PartitionError(f"cannot split into {parts} parts")
        if parts > self.width:
            raise PartitionError(
                f"interval of width {self.width} cannot produce {parts} parts"
            )
        bounds = [self.lo + (self.width * i) // parts for i in range(parts)]
        bounds.append(self.hi)
        return [KeyInterval(bounds[i], bounds[i + 1]) for i in range(parts)]

    def split_by_positions(
        self, parts: int, positions: Iterable[int]
    ) -> list["KeyInterval"]:
        """Split into ``parts`` intervals balancing the observed key load.

        ``positions`` are key-space positions of recently processed keys;
        the paper notes "the key distribution can be used to guide the
        split".  Falls back to an even split when there is no usable
        distribution.
        """
        inside = sorted(p for p in positions if p in self)
        if parts < 1:
            raise PartitionError(f"cannot split into {parts} parts")
        if len(inside) < parts:
            return self.split(parts)
        bounds = [self.lo]
        for i in range(1, parts):
            cut = inside[(len(inside) * i) // parts]
            # Guard against duplicate cut points collapsing an interval.
            cut = max(cut, bounds[-1] + 1)
            if cut >= self.hi:
                return self.split(parts)
            bounds.append(cut)
        bounds.append(self.hi)
        return [KeyInterval(bounds[i], bounds[i + 1]) for i in range(parts)]

    def adjacent_to(self, other: "KeyInterval") -> bool:
        """Whether the two intervals share a boundary."""
        return self.hi == other.lo or other.hi == self.lo

    def merge(self, other: "KeyInterval") -> "KeyInterval":
        """Merge with an adjacent interval (scale in, §3.3)."""
        if not self.adjacent_to(other):
            raise KeySpaceError(f"cannot merge non-adjacent {self} and {other}")
        return KeyInterval(min(self.lo, other.lo), max(self.hi, other.hi))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KeyInterval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi})"


class RoutingState:
    """Key-interval routing for one partitioned downstream operator (ρ).

    Maps disjoint intervals that jointly cover the key space to the slot
    uids of the downstream partitions.  The structure is owned by the
    query manager and mirrored into upstream dispatchers; it changes only
    on scale out / scale in / recovery, never during normal processing.
    """

    def __init__(self, entries: Iterable[tuple[KeyInterval, int]]) -> None:
        self._entries = sorted(entries, key=lambda e: e[0].lo)
        self._validate()

    @classmethod
    def single(cls, target: int) -> "RoutingState":
        """Routing for an unpartitioned operator: everything to one slot."""
        return cls([(KeyInterval.full(), target)])

    def _validate(self) -> None:
        if not self._entries:
            raise KeySpaceError("routing state must have at least one entry")
        expected_lo = 0
        for interval, _target in self._entries:
            if interval.lo != expected_lo:
                raise KeySpaceError(
                    f"routing intervals must tile the key space; gap/overlap "
                    f"at {expected_lo} (found {interval})"
                )
            expected_lo = interval.hi
        if expected_lo != KEY_SPACE:
            raise KeySpaceError(
                f"routing intervals must cover the key space; end at {expected_lo}"
            )

    def __iter__(self) -> Iterator[tuple[KeyInterval, int]]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def targets(self) -> list[int]:
        """Slot uids in key-interval order (may contain repeats)."""
        return [target for _interval, target in self._entries]

    def route_position(self, position: int) -> int:
        """Slot uid responsible for a key-space ``position``."""
        lo, hi = 0, len(self._entries) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if position < self._entries[mid][0].hi:
                hi = mid
            else:
                lo = mid + 1
        interval, target = self._entries[lo]
        if position not in interval:
            raise KeySpaceError(f"position {position} not covered by {interval}")
        return target

    def route_key(self, key: Any) -> int:
        """Slot uid responsible for a semantic key."""
        return self.route_position(stable_hash(key))

    def intervals_of(self, target: int) -> list[KeyInterval]:
        """All intervals currently owned by ``target``."""
        return [interval for interval, t in self._entries if t == target]

    def replace_target(
        self, old_target: int, replacements: list[tuple[KeyInterval, int]]
    ) -> "RoutingState":
        """Return a new routing state with ``old_target``'s intervals
        replaced by ``replacements`` (Algorithm 2, partition-routing-state).

        The replacements must exactly tile the intervals previously owned
        by ``old_target``.
        """
        owned = self.intervals_of(old_target)
        if not owned:
            raise KeySpaceError(f"target {old_target} not present in routing state")
        owned_width = sum(i.width for i in owned)
        repl_width = sum(i.width for i, _t in replacements)
        if owned_width != repl_width:
            raise KeySpaceError(
                f"replacements cover width {repl_width}, expected {owned_width}"
            )
        kept = [(i, t) for i, t in self._entries if t != old_target]
        return RoutingState(kept + list(replacements))

    def split_off(
        self,
        old_target: int,
        intervals: list[KeyInterval],
        new_target: int,
    ) -> "RoutingState":
        """Move ``intervals`` (a subset of ``old_target``'s range) to
        ``new_target``, leaving the rest with ``old_target``.

        This is the per-chunk routing swap of fluid migration: after each
        chunk commits, upstreams route the migrated sub-intervals to the
        new slot while the old slot keeps the un-migrated remainder.
        Every moved interval must lie entirely inside intervals currently
        owned by ``old_target``; adjacent same-target intervals coalesce.
        """
        owned = self.intervals_of(old_target)
        if not owned:
            raise KeySpaceError(f"target {old_target} not present in routing state")
        moved = sorted(intervals, key=lambda i: i.lo)
        for lhs, rhs in zip(moved, moved[1:]):
            if rhs.lo < lhs.hi:
                raise KeySpaceError(f"split_off intervals overlap: {lhs} / {rhs}")
        entries: list[tuple[KeyInterval, int]] = [
            (i, t) for i, t in self._entries if t != old_target
        ]
        remaining = moved
        for interval in owned:
            cuts: list[KeyInterval] = []
            rest: list[KeyInterval] = []
            for piece in remaining:
                if piece.lo >= interval.lo and piece.hi <= interval.hi:
                    cuts.append(piece)
                elif piece.hi <= interval.lo or piece.lo >= interval.hi:
                    rest.append(piece)
                else:
                    raise KeySpaceError(
                        f"interval {piece} straddles the boundary of {interval} "
                        f"owned by target {old_target}"
                    )
            remaining = rest
            # Keep the uncovered remainder of this owned interval with the
            # old target, in order, interleaved with the moved pieces.
            cursor = interval.lo
            for piece in cuts:
                if piece.lo > cursor:
                    entries.append((KeyInterval(cursor, piece.lo), old_target))
                entries.append((piece, new_target))
                cursor = piece.hi
            if cursor < interval.hi:
                entries.append((KeyInterval(cursor, interval.hi), old_target))
        if remaining:
            raise KeySpaceError(
                f"intervals {remaining} not owned by target {old_target}"
            )
        return RoutingState(_coalesce(entries))

    def reassign(self, old_target: int, new_target: int) -> "RoutingState":
        """Point ``old_target``'s intervals at ``new_target`` (recovery)."""
        return RoutingState(
            [(i, new_target if t == old_target else t) for i, t in self._entries]
        )

    def merge_targets(self, survivor: int, removed: int) -> "RoutingState":
        """Give ``removed``'s intervals to ``survivor`` (scale in, §3.3)."""
        if not self.intervals_of(removed):
            raise KeySpaceError(f"target {removed} not present in routing state")
        merged = [(i, survivor if t == removed else t) for i, t in self._entries]
        return RoutingState(_coalesce(merged))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{i}→{t}" for i, t in self._entries)
        return f"RoutingState({inner})"


def _coalesce(
    entries: list[tuple[KeyInterval, int]]
) -> list[tuple[KeyInterval, int]]:
    entries = sorted(entries, key=lambda e: e[0].lo)
    out: list[tuple[KeyInterval, int]] = []
    for interval, target in entries:
        if out and out[-1][1] == target and out[-1][0].hi == interval.lo:
            out[-1] = (out[-1][0].merge(interval), target)
        else:
            out.append((interval, target))
    return out


class ProcessingState:
    """An operator's processing state θ with its timestamp vector τ.

    ``positions`` maps each input connection (origin slot uid) to the
    timestamp of the most recent tuple from that connection reflected in
    the state — the τ vector returned by ``get-processing-state`` in the
    paper.  ``out_clock`` snapshots the operator's logical output clock so
    a restored operator resumes emitting from the right timestamp (§3.2).

    Snapshots are **copy-on-write**: :meth:`snapshot` shares the value
    objects between the live state and the snapshot, and the first
    mutation-capable access to a shared container (on either side) copies
    that one entry before handing it out.  ``_private`` tracks the keys
    whose values are known not to be shared with any snapshot; rebinding a
    key (plain assignment) never needs a copy because it leaves the old
    object untouched for whoever still references it.
    """

    def __init__(
        self,
        entries: dict[Any, Any] | None = None,
        positions: dict[int, int] | None = None,
        out_clock: int = 0,
    ) -> None:
        self.entries: dict[Any, Any] = dict(entries) if entries else {}
        self.positions: dict[int, int] = dict(positions) if positions else {}
        self.out_clock = out_clock
        #: Keys touched since the last consume — ``None`` when dirty
        #: tracking is off.  Reads of mutable values count as touches
        #: (operators mutate nested containers in place), which makes the
        #: set a conservative superset of actual changes — exactly what
        #: incremental checkpointing needs.
        self.dirty: set[Any] | None = None
        #: Keys whose values this state owns exclusively.  Everything else
        #: is treated as potentially shared with a snapshot (or with the
        #: caller's dict) and is copied before the first mutable access.
        self._private: set[Any] = set()

    # Mapping-style access used by operator implementations -----------------

    def __contains__(self, key: Any) -> bool:
        return key in self.entries

    def _own(self, key: Any, value: Any) -> Any:
        """Return a privately owned copy of ``value`` for ``key``.

        Copy-on-write seam: called before any access through which the
        caller could mutate a container in place.
        """
        if key not in self._private:
            value = self.entries[key] = _copy_value(value)
            self._private.add(key)
        return value

    def __getitem__(self, key: Any) -> Any:
        value = self.entries[key]
        if isinstance(value, (dict, list, set)):
            if self.dirty is not None:
                self.dirty.add(key)
            value = self._own(key, value)
        return value

    def __setitem__(self, key: Any, value: Any) -> None:
        if self.dirty is not None:
            self.dirty.add(key)
        self.entries[key] = value
        self._private.add(key)

    def adopt(self, key: Any, value: Any) -> None:
        """Insert a value object another holder may still reference.

        Unlike ``__setitem__`` this does *not* claim private ownership:
        an absorbed chunk's values are shared with the shipped
        checkpoint — and, transitively, with the frozen pre-migration
        snapshot the chunk was extracted from — so the first in-place
        mutation here must copy first (:meth:`_own`), exactly as after
        taking a snapshot.
        """
        if self.dirty is not None:
            self.dirty.add(key)
        self.entries[key] = value
        self._private.discard(key)

    def get(self, key: Any, default: Any = None) -> Any:
        """dict.get over the state entries (marks dirty on mutable reads)."""
        if key in self.entries:
            return self[key]
        return default

    def setdefault(self, key: Any, default: Any) -> Any:
        """dict.setdefault over the state entries (marks dirty)."""
        if key in self.entries:
            return self[key]
        self[key] = default
        return default

    def bulk_apply(
        self, grouped: dict[Any, Any], apply: Callable[[Any, Any], Any]
    ) -> None:
        """Grouped bulk-apply for vectorized kernels.

        ``apply(current, addition)`` is called once per key with the
        privately-owned current value (``None`` when the key is absent)
        and must return the new value — returning ``addition`` itself to
        install a fresh value is fine, but the state owns it afterwards.
        Semantically identical to a ``setdefault``/merge per key; the
        dirty-marking and copy-on-write bookkeeping that dominate the
        per-key accessors are hoisted to one set operation per block.
        """
        entries = self.entries
        private = self._private
        if self.dirty is not None:
            self.dirty.update(grouped)
        copy = _copy_value
        for key, addition in grouped.items():
            value = entries.get(key)
            if value is None and key not in entries:
                entries[key] = apply(None, addition)
            else:
                if key not in private:
                    value = entries[key] = copy(value)
                new = apply(value, addition)
                if new is not value:
                    entries[key] = new
        private.update(grouped)

    def bulk_merge_buckets(self, grouped: dict[Any, dict[Any, int]]) -> None:
        """:meth:`bulk_apply` specialised to bucket-dict values.

        ``grouped`` maps key -> ``{bucket: weight}`` additions; each
        key's buckets merge by addition into the stored bucket dict (an
        absent key installs its additions dict outright, which the state
        then owns).  Equivalent to ``bulk_apply`` with a merge callback,
        with the per-key callback dispatch inlined away — this is the
        innermost loop of the windowed-counter kernel.
        """
        entries = self.entries
        private = self._private
        if self.dirty is not None:
            self.dirty.update(grouped)
        eget = entries.get
        for key, additions in grouped.items():
            buckets = eget(key)
            if buckets is None:
                # Bucket values are always dicts, so None means absent.
                entries[key] = additions
                continue
            if key not in private:
                buckets = entries[key] = dict(buckets)
            bget = buckets.get
            for index, weight in additions.items():
                buckets[index] = bget(index, 0) + weight
        private.update(grouped)

    def bulk_bucket_add(
        self, index: Any, keys: list[Any], weights: Any
    ) -> None:
        """Add ``weights[i]`` to bucket ``index`` of ``keys[i]``'s dict.

        The windowed-counter kernel's fast path: when every row of a
        block falls in one tumbling window, grouping per key buys
        nothing (block rows are mostly distinct keys), so this fuses
        grouping and application into a single pass — one ``entries``
        probe per row, with dirty-marking and ownership hoisted to set
        operations over the raw key column.  Copy-on-write still holds:
        a shared bucket dict is copied on its first touch (and marked
        private immediately, so a repeated key copies once).
        """
        entries = self.entries
        private = self._private
        if self.dirty is not None:
            self.dirty.update(keys)
        eget = entries.get
        for key, weight in zip(keys, weights):
            buckets = eget(key)
            if buckets is None:
                entries[key] = {index: weight}
            else:
                if key not in private:
                    buckets = entries[key] = dict(buckets)
                    private.add(key)
                buckets[index] = buckets.get(index, 0) + weight
        private.update(keys)

    def pop(self, key: Any, default: Any = None) -> Any:
        """dict.pop over the state entries (marks dirty)."""
        if key not in self.entries:
            return default
        if self.dirty is not None:
            self.dirty.add(key)
        value = self.entries.pop(key)
        if key in self._private:
            self._private.discard(key)
        elif isinstance(value, (dict, list, set)):
            # Still shared with a snapshot: the caller may mutate what we
            # hand back, so give it a copy.
            value = _copy_value(value)
        return value

    def raw_get(self, key: Any, default: Any = None) -> Any:
        """Read without dirty-marking, copy-on-write or tier movement
        (checkpoint path — callers must not mutate the value)."""
        return self.entries.get(key, default)

    # Dirty tracking for incremental checkpoints ----------------------------

    def enable_dirty_tracking(self) -> None:
        """Start tracking touched keys (incremental checkpointing)."""
        if self.dirty is None:
            self.dirty = set()

    def consume_dirty(self) -> set[Any]:
        """Return and reset the set of keys touched since the last call."""
        if self.dirty is None:
            return set()
        touched = self.dirty
        self.dirty = set()
        return touched

    def keys(self):
        """Keys of the processing-state entries."""
        return self.entries.keys()

    def items(self):
        """(key, value) pairs of the processing-state entries.

        Yields through the same copy-on-write seam as ``__getitem__``:
        operators mutate container values while iterating (window
        flushes, join pruning), so each mutable value is privatised — and
        dirty-marked — as it is handed out.
        """
        for key in list(self.entries):
            if key in self.entries:  # tolerate pops between yields
                yield key, self[key]

    def share_all(self) -> dict[Any, Any]:
        """Give up exclusive ownership of every entry; return raw entries.

        Checkpoint partitioning and merging distribute the value objects
        into new states without copying; clearing ``_private`` first means
        any later mutation of *this* state copies before writing, keeping
        every holder isolated.
        """
        self._private.clear()
        return self.entries

    def __len__(self) -> int:
        return len(self.entries)

    # State-management operations -------------------------------------------

    def snapshot(self) -> "ProcessingState":
        """A consistent copy, as taken under the operator's state lock.

        Copy-on-write: the snapshot shares the value objects with the
        live state instead of copying each one eagerly, so the cost is a
        single dict copy regardless of value sizes.  Both sides lose
        exclusive ownership; whichever side next reaches a shared
        container through a mutating accessor copies that one entry
        first.  ``take_checkpoint`` therefore costs host time
        proportional to the post-checkpoint write set, not to the total
        state size.
        """
        snap = ProcessingState(positions=self.positions, out_clock=self.out_clock)
        snap.entries = dict(self.entries)
        self._private.clear()
        return snap

    def advance(self, slot_uid: int, ts: int) -> None:
        """Record that the tuple ``ts`` from ``slot_uid`` is now reflected."""
        current = self.positions.get(slot_uid, -1)
        if ts > current:
            self.positions[slot_uid] = ts

    def partition(self, intervals: list[KeyInterval]) -> list["ProcessingState"]:
        """Split by key interval (Algorithm 2, partition-processing-state).

        Every entry must fall into exactly one interval; τ and the output
        clock are copied to every part, as in the paper (line 6).
        """
        parts = [
            ProcessingState(positions=self.positions, out_clock=self.out_clock)
            for _ in intervals
        ]
        for key, value in self.share_all().items():
            position = stable_hash(key)
            for interval, part in zip(intervals, parts):
                if position in interval:
                    part.entries[key] = value
                    break
            else:
                raise PartitionError(
                    f"key {key!r} (pos {position}) not covered by split intervals"
                )
        return parts

    def extract(self, intervals: list[KeyInterval]) -> "ProcessingState":
        """Remove and return the entries whose key hashes fall in
        ``intervals`` (fluid migration: sub-interval extraction without a
        full partition).

        The extracted state carries a copy of the current τ vector and
        output clock — at extraction time every reflected tuple for those
        keys is covered by τ, exactly as in a partitioned checkpoint.
        Value objects move without copying: neither side keeps exclusive
        ownership, so whichever side mutates a value next copies it first
        (the same copy-on-write discipline as :meth:`partition`).
        Extracted keys are dirty-marked so a later incremental checkpoint
        of *this* state reports them as deleted.
        """
        taken = ProcessingState(positions=self.positions, out_clock=self.out_clock)
        for key in list(self.entries):
            position = stable_hash(key)
            if any(position in interval for interval in intervals):
                taken.entries[key] = self.entries.pop(key)
                self._private.discard(key)
                if self.dirty is not None:
                    self.dirty.add(key)
        return taken

    def merge(
        self,
        other: "ProcessingState",
        merge_value: Callable[[Any, Any], Any] | None = None,
    ) -> "ProcessingState":
        """Merge two partitions' state (scale in, §3.3).

        Keys are disjoint after a correct partitioning; overlapping keys
        require ``merge_value`` to combine the two values.
        """
        merged = ProcessingState(
            entries=self.share_all(),
            positions=self.positions,
            out_clock=max(self.out_clock, other.out_clock),
        )
        for key, value in other.share_all().items():
            if key in merged.entries:
                if merge_value is None:
                    raise StateError(
                        f"key {key!r} present in both partitions and no "
                        "merge function given"
                    )
                merged.entries[key] = merge_value(merged.entries[key], value)
            else:
                merged.entries[key] = value
        for slot_uid, ts in other.positions.items():
            if merged.positions.get(slot_uid, -1) < ts:
                merged.positions[slot_uid] = ts
        return merged

    def estimated_bytes(self, bytes_per_entry: float) -> float:
        """Approximate serialised size, used for checkpoint transfer cost."""
        return len(self.entries) * bytes_per_entry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessingState({len(self.entries)} entries, τ={self.positions}, "
            f"clock={self.out_clock})"
        )


def _copy_value(value: Any) -> Any:
    """Copy one state value. Containers are copied one level deep; operator
    values are conventionally flat (counters, small dicts/lists)."""
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, list):
        return list(value)
    if isinstance(value, set):
        return set(value)
    return value


class OutputBuffer:
    """Buffer state β toward one (possibly partitioned) downstream operator.

    Tuples are appended in emission order, so timestamps are monotone per
    destination slot and trimming removes a prefix.
    """

    def __init__(self) -> None:
        self._by_dest: dict[int, list[Tuple]] = {}

    def append(self, dest_slot: int, tup: Tuple) -> None:
        """Buffer one emitted tuple for ``dest_slot``."""
        self._by_dest.setdefault(dest_slot, []).append(tup)

    def destinations(self) -> list[int]:
        """Destination slot uids with buffered tuples."""
        return list(self._by_dest)

    def tuples_for(self, dest_slot: int) -> list[Tuple]:
        """Buffered tuples for one destination, oldest first."""
        return list(self._by_dest.get(dest_slot, ()))

    def tuples_after(self, dest_slot: int, ts: int) -> list[Tuple]:
        """Buffered tuples for ``dest_slot`` with timestamps beyond ``ts``."""
        return [t for t in self._by_dest.get(dest_slot, ()) if t.ts > ts]

    def trim(self, dest_slot: int, ts: int) -> int:
        """Drop tuples with timestamps ≤ ``ts``; returns how many."""
        tuples = self._by_dest.get(dest_slot)
        if not tuples:
            return 0
        kept = [t for t in tuples if t.ts > ts]
        dropped = len(tuples) - len(kept)
        if kept:
            self._by_dest[dest_slot] = kept
        else:
            del self._by_dest[dest_slot]
        return dropped

    def trim_by_age(self, cutoff: float) -> int:
        """Drop tuples created before ``cutoff`` (upstream-backup retention).

        Used by the baseline fault-tolerance strategies, which have no
        checkpoints to trim against and instead retain a window's worth of
        tuples by age.
        """
        dropped = 0
        for dest in list(self._by_dest):
            tuples = self._by_dest[dest]
            kept = [t for t in tuples if t.created_at >= cutoff]
            dropped += len(tuples) - len(kept)
            if kept:
                self._by_dest[dest] = kept
            else:
                del self._by_dest[dest]
        return dropped

    def repartition(self, route: Callable[[Tuple], int]) -> None:
        """Reassign every buffered tuple to the destination chosen by
        ``route`` (Algorithm 2, partition-buffer-state)."""
        tuples = [t for bucket in self._by_dest.values() for t in bucket]
        tuples.sort(key=lambda t: (t.slot, t.ts))
        self._by_dest = {}
        for tup in tuples:
            self.append(route(tup), tup)

    def tuple_count(self) -> int:
        """Total buffered tuple objects."""
        return sum(len(bucket) for bucket in self._by_dest.values())

    def weight_total(self) -> int:
        """Total buffered logical tuples (sum of weights)."""
        return sum(t.weight for bucket in self._by_dest.values() for t in bucket)

    def snapshot(self) -> "OutputBuffer":
        """A shallow-copied, isolated copy of the buffer."""
        copy = OutputBuffer()
        copy._by_dest = {dest: list(bucket) for dest, bucket in self._by_dest.items()}
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = {dest: len(bucket) for dest, bucket in self._by_dest.items()}
        return f"OutputBuffer({sizes})"
