"""Page-cache tests: unit tests of the run-level API, hypothesis
property tests on the LRU bookkeeping invariants, and a rule-based
differential test against the per-segment reference model."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.storage.base import MiB
from repro.storage.cache import CacheSpec, PageCache
from segment_cache import SegmentPageCache

SEG = 64 * 1024


def make_cache(nsegs=8, **kw):
    return PageCache(CacheSpec(capacity_bytes=nsegs * SEG, segment_bytes=SEG, **kw))


class TestBasics:
    def test_miss_then_hit(self):
        c = make_cache()
        assert c.lookup(1, 0, 1) == (0, 1)  # miss
        c.insert(1, 0, 1)
        assert c.lookup(1, 0, 1) == (1, 0)  # hit
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_segments_of(self):
        c = make_cache()
        assert list(c.segments_of(0, SEG)) == [0]
        assert list(c.segments_of(0, SEG + 1)) == [0, 1]
        assert list(c.segments_of(SEG - 1, 2)) == [0, 1]
        assert list(c.segments_of(0, 0)) == []

    def test_lru_eviction_order(self):
        c = make_cache(nsegs=2)
        c.insert(1, 0, 1)
        c.insert(1, 1, 1)
        c.touch(1, 0, 1)  # refresh 0; victim should be 1
        c.insert(1, 2, 1)
        assert c.is_resident(1, 0)
        assert not c.is_resident(1, 1)

    def test_dirty_victims_returned(self):
        c = make_cache(nsegs=1)
        c.insert(1, 0, 1, dirty=100)
        assert c.insert(1, 1, 1) == (0, None)  # a batch stops before it
        done, victim = c.insert(1, 1, 1, force=True)
        assert (done, victim) == (1, (1, 0, 1, 100))
        assert c.stats.dirty_evictions == 1

    def test_clean_victims_silent(self):
        c = make_cache(nsegs=1)
        c.insert(1, 0, 1)
        assert c.insert(1, 1, 1) == (1, None)

    def test_dirty_accumulates_capped_at_segment(self):
        c = make_cache()
        c.insert(1, 0, 1, dirty=SEG - 10)
        c.insert(1, 0, 1, dirty=100)
        assert c.dirty_amount(1, 0) == SEG
        assert c.dirty_bytes == SEG

    def test_mark_clean(self):
        c = make_cache()
        c.insert(1, 0, 1, dirty=50)
        c.clean(1, 0, 1)
        assert c.dirty_bytes == 0
        assert c.is_resident(1, 0)

    def test_drop_file(self):
        c = make_cache()
        c.insert(1, 0, 1, dirty=10)
        c.insert(2, 0, 1, dirty=20)
        dropped = c.drop_file(1)
        assert dropped == 1
        assert not c.is_resident(1, 0)
        assert c.is_resident(2, 0)
        assert c.dirty_bytes == 20

    def test_file_fully_resident(self):
        c = make_cache()
        c.insert(7, 0, 3)
        assert c.file_fully_resident(7, 3 * SEG)
        assert c.file_fully_resident(7, 3 * SEG - 1)
        assert not c.file_fully_resident(7, 3 * SEG + 1)

    def test_thresholds(self):
        c = make_cache(nsegs=10, dirty_ratio=0.4, background_ratio=0.1)
        assert not c.need_background_flush
        c.insert(1, 0, 1, dirty=SEG)
        c.insert(1, 1, 1, dirty=SEG)
        assert c.need_background_flush  # 2/10 > 0.1
        assert not c.need_throttle
        c.insert(1, 2, 4, dirty=SEG)
        assert c.need_throttle  # 6/10 > 0.4

    def test_dirty_segments_oldest_first(self):
        c = make_cache()
        c.insert(1, 5, 1, dirty=10)
        c.insert(1, 2, 1, dirty=10)
        c.insert(1, 9, 1, dirty=10)
        assert [s for _f, s, d in c.lru_keys() if d] == [5, 2, 9]
        # the two oldest, issued in segment order
        assert c.dirty_runs(limit=2) == [(1, 2, 1, 10), (1, 5, 1, 10)]

    def test_dirty_segments_filter_by_file(self):
        c = make_cache()
        c.insert(1, 0, 1, dirty=10)
        c.insert(2, 0, 1, dirty=10)
        assert c.dirty_runs(fileid=2) == [(2, 0, 1, 10)]


class TestCoalesce:
    """Write-back runs: ``dirty_runs`` merges dirty segments into runs."""

    @staticmethod
    def runs_of(entries):
        c = make_cache(nsegs=32)
        for f, s, d in entries:
            c.insert(f, s, 1, dirty=d)
        return c.dirty_runs()

    def test_adjacent_merge(self):
        assert self.runs_of([(1, 0, 5), (1, 1, 5), (1, 2, 5)]) == [(1, 0, 3, 15)]

    def test_gap_splits(self):
        assert self.runs_of([(1, 0, 5), (1, 2, 5)]) == [(1, 0, 1, 5), (1, 2, 1, 5)]

    def test_files_never_merge(self):
        assert len(self.runs_of([(1, 0, 5), (2, 1, 5)])) == 2

    def test_unsorted_input_handled(self):
        assert self.runs_of([(1, 2, 1), (1, 0, 1), (1, 1, 1)]) == [(1, 0, 3, 3)]

    def test_empty(self):
        assert make_cache().dirty_runs() == []


class TestRuns:
    def test_dense_run_geometry(self):
        c = make_cache()
        assert c.dense_run(100, SEG) == (0, 2, SEG, SEG - 100, 100)
        assert c.dense_run(SEG, 3 * SEG) == (1, 3, SEG, SEG, SEG)
        assert c.dense_run(10, 20) == (0, 1, SEG, 20, 20)

    def test_head_body_tail_amounts(self):
        c = make_cache()
        c.insert(1, 0, 3, 7, head=1, tail=2)
        assert [c.dirty_amount(1, s) for s in range(3)] == [1, 7, 2]

    def test_run_longer_than_cache_evicts_its_own_head(self):
        c = make_cache(nsegs=4)
        assert c.insert(1, 0, 10) == (10, None)
        assert c.lru_keys() == [(1, s, 0) for s in range(6, 10)]
        assert c.stats.evictions == 6

    def test_throttle_stops_batch(self):
        c = make_cache(nsegs=10, dirty_ratio=0.4, background_ratio=0.1)
        done, victim = c.insert(1, 0, 8, SEG, throttle=True)
        # the fifth segment is checked with 4/10 dirty (not over the
        # limit); the sixth with 5/10
        assert (done, victim) == (5, None)
        assert c.need_throttle

    def test_lookup_stops_after_hit_ending_miss_run(self):
        c = make_cache()
        c.insert(1, 2, 1)
        c.insert(1, 4, 1)
        assert c.lookup(1, 0, 6) == (0, 2)
        assert c.stats.hits == 1 and c.stats.misses == 2
        assert c.lookup(1, 3, 3) == (3, 1)
        assert c.lookup(1, 5, 1) == (5, 1)

    def test_clean_keeps_lru_position(self):
        c = make_cache()
        c.insert(1, 0, 4, SEG)
        c.insert(2, 0, 1)
        c.clean(1, 1, 2)
        assert c.lru_keys() == [(1, 0, SEG), (1, 1, 0), (1, 2, 0), (1, 3, SEG), (2, 0, 0)]
        assert c.dirty_bytes == 2 * SEG


def test_drop_file_forgets_unlinked_files():
    """create/write/unlink cycles leave no per-file state behind."""
    c = make_cache(nsegs=4)
    c.insert(99, 0, 1)
    for f in range(1, 50):
        c.insert(f, 0, 2, SEG)
        assert c.drop_file(f) == 2
    assert c.resident_files() == [99]
    assert c.drop_file(99) == 1
    assert c.drop_file(99) == 0
    assert c.resident_files() == []
    assert c.resident_bytes == 0 and c.dirty_bytes == 0


class TestSpecValidation:
    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            CacheSpec(capacity_bytes=0)

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            CacheSpec(capacity_bytes=MiB, dirty_ratio=0.1, background_ratio=0.5)


# ----------------------------------------------------------------------
# property-based invariants
# ----------------------------------------------------------------------
op = st.tuples(
    st.sampled_from(["insert_clean", "insert_dirty", "touch", "clean", "drop"]),
    st.integers(min_value=1, max_value=3),  # fileid
    st.integers(min_value=0, max_value=20),  # segment
)


@settings(max_examples=200, deadline=None)
@given(st.lists(op, max_size=60), st.integers(min_value=1, max_value=8))
def test_cache_invariants(ops, nsegs):
    """Residency never exceeds capacity; dirty total equals the per-segment sum;
    per-file resident counters match reality."""
    c = make_cache(nsegs=nsegs)
    for kind, f, s in ops:
        if kind == "insert_clean":
            c.insert(f, s, 1, force=True)
        elif kind == "insert_dirty":
            c.insert(f, s, 1, dirty=SEG // 2, force=True)
        elif kind == "touch":
            c.touch(f, s, 1)
        elif kind == "clean":
            c.clean(f, s, 1)
        elif kind == "drop":
            c.drop_file(f)
        # invariants after every step
        keys = c.lru_keys()
        assert len(keys) <= nsegs
        assert c.dirty_bytes == sum(d for _f, _s, d in keys)
        assert c.dirty_bytes >= 0
        for fid in (1, 2, 3):
            actual = sum(1 for k in keys if k[0] == fid)
            assert c.file_resident_segments(fid) == actual


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 5)), min_size=1, max_size=40))
def test_coalesce_partition_property(entries):
    """Write-back runs exactly partition the dirty segments, conserve
    total dirty bytes and are maximal."""
    uniq = {}
    for seg, dirty in entries:
        uniq[(1, seg)] = dirty
    c = make_cache(nsegs=32)
    for (f, s), d in uniq.items():
        c.insert(f, s, 1, dirty=d)
    runs = c.dirty_runs()
    covered = []
    total_dirty = 0
    for f, first, n, dirty in runs:
        covered.extend((f, s) for s in range(first, first + n))
        total_dirty += dirty
    assert sorted(covered) == sorted(k for k, d in uniq.items() if d)
    assert total_dirty == sum(uniq.values())
    for (f1, a1, n1, _), (f2, a2, _, _) in zip(runs, runs[1:]):
        assert (f1, a1 + n1) < (f2, a2)


# ----------------------------------------------------------------------
# differential test against the per-segment reference model
# ----------------------------------------------------------------------
def plan_amount(seg, first, nsegs, dirty, head, tail):
    """Dirty bytes ``PageCache.insert`` gives one segment of a run."""
    if seg == first + nsegs - 1 and tail is not None:
        return tail
    if seg == first and head is not None:
        return head
    return dirty


def oracle_insert(o, f, first, nsegs, dirty, head, tail, throttle, force):
    """``PageCache.insert`` spelt with the per-segment model's calls, the
    way the filesystems drove it: a forced ``insert`` of the segment
    where the last batch stopped, then ``insert_dirty_run`` (writers) or
    ``insert_clean_run`` (fills)."""
    amounts = [plan_amount(s, first, nsegs, dirty, head, tail)
               for s in range(first, first + nsegs)]
    done = 0
    if force and nsegs:
        victims = o.insert(f, first, amounts[0])
        done = 1
        if victims:
            assert len(victims) == 1
            (vf, vs, vd), = victims
            return done, (vf, vs, 1, vd)
    if throttle:
        entries = [(first + i, amounts[i]) for i in range(nsegs)]
        done += o.insert_dirty_run(f, entries, done)
    else:
        done += o.insert_clean_run(f, first + done, nsegs - done)
    return done, None


def oracle_lookup(o, f, first, nsegs):
    """The cached-read walk of the per-segment model."""
    miss = []
    for s in range(first, first + nsegs):
        if o.touch(f, s):
            if miss:
                break
        else:
            miss.append(s)
    return (miss[0], len(miss)) if miss else (first + nsegs, 0)


FILES = st.integers(1, 3)
# mostly short runs near the start of a file, so operations overlap;
# some longer than the largest cache
FIRST = st.integers(0, 6) | st.integers(0, 24)
NSEGS = st.integers(0, 4) | st.integers(0, 20)
PARTIAL = st.sampled_from([1, 4096, SEG // 3, SEG // 2, SEG - 1])
AMOUNT = st.one_of(st.just(SEG), PARTIAL, st.just(SEG + 100))


class CacheDifferential(RuleBasedStateMachine):
    """Drives ``PageCache`` and ``SegmentPageCache`` with the same
    operations and requires identical answers and state after every
    step: victims and batch stop points, statistics, the dirty-byte
    trajectory, LRU order, write-back order and residency."""

    @initialize(
        nsegs=st.integers(1, 16),
        dirty_ratio=st.sampled_from([0.1, 0.25, 0.4, 0.7, 1.0]),
    )
    def setup(self, nsegs, dirty_ratio):
        spec = CacheSpec(
            capacity_bytes=nsegs * SEG,
            segment_bytes=SEG,
            dirty_ratio=dirty_ratio,
            background_ratio=dirty_ratio / 2,
        )
        self.c = PageCache(spec)
        self.o = SegmentPageCache(spec)
        self.nsegs = nsegs

    @rule(f=FILES, first=FIRST, nsegs=NSEGS, dirty=AMOUNT,
          head=st.none() | PARTIAL, tail=st.none() | PARTIAL, force=st.booleans())
    def write(self, f, first, nsegs, dirty, head, tail, force):
        got = self.c.insert(f, first, nsegs, dirty, head, tail, throttle=True, force=force)
        want = oracle_insert(self.o, f, first, nsegs, dirty, head, tail, True, force)
        assert got == want

    @rule(f=FILES, first=FIRST, nsegs=NSEGS, force=st.booleans())
    def fill(self, f, first, nsegs, force):
        got = self.c.insert(f, first, nsegs, force=force)
        want = oracle_insert(self.o, f, first, nsegs, 0, None, None, False, force)
        assert got == want

    @rule(f=FILES, first=FIRST, nsegs=NSEGS)
    def writer_loop(self, f, first, nsegs):
        """A writer's whole loop: batch, then force the stopped segment."""
        seg, end, force = first, first + nsegs, False
        while seg < end:
            got = self.c.insert(f, seg, end - seg, SEG, throttle=True, force=force)
            want = oracle_insert(self.o, f, seg, end - seg, SEG, None, None, True, force)
            assert got == want
            seg += got[0]
            force = got[1] is None

    @rule(f=FILES, first=FIRST, nsegs=NSEGS)
    def lookup(self, f, first, nsegs):
        assert self.c.lookup(f, first, nsegs) == oracle_lookup(self.o, f, first, nsegs)

    @rule(f=FILES, first=FIRST, nsegs=NSEGS, fill=st.booleans())
    def touch(self, f, first, nsegs, fill):
        self.c.touch(f, first, nsegs, fill=fill)
        segs = range(first, first + nsegs)
        if fill:
            self.o.touch_or_insert_clean(f, segs)
        else:
            self.o.touch_run(f, segs)

    @rule(f=FILES, first=FIRST, nsegs=NSEGS)
    def clean(self, f, first, nsegs):
        self.c.clean(f, first, nsegs)
        for s in range(first, first + nsegs):
            self.o.mark_clean(f, s)

    @precondition(lambda self: self.c.resident_bytes)
    @rule(data=st.data(), op=st.sampled_from(["clean", "lookup", "touch", "write"]))
    def split_resident(self, data, op):
        """An operation starting on a resident segment: splits extents."""
        f, first, _d = data.draw(st.sampled_from(self.o_keys()))
        nsegs = data.draw(st.integers(1, 4))
        if op == "clean":
            self.clean(f, first, nsegs)
        elif op == "lookup":
            self.lookup(f, first, nsegs)
        elif op == "touch":
            self.touch(f, first, nsegs, False)
        else:
            self.write(f, first, nsegs, data.draw(AMOUNT), data.draw(PARTIAL), None, False)

    def o_keys(self):
        return [(f, s, d) for (f, s), d in self.o._segs.items()]

    @precondition(lambda self: self.c.dirty_bytes)
    @rule(limit=st.none() | st.integers(1, 20), f=st.none() | FILES)
    def flush_oldest(self, limit, f):
        """A flusher batch: take the oldest dirty runs, write them back."""
        runs = self.c.dirty_runs(limit=limit, fileid=f)
        want = list(SegmentPageCache.coalesce(self.o.dirty_segments(limit=limit, fileid=f)))
        assert runs == want
        for rf, first, n, _d in runs:
            self.c.clean(rf, first, n)
            for s in range(first, first + n):
                self.o.mark_clean(rf, s)

    @rule(f=FILES)
    def drop_file(self, f):
        assert self.c.drop_file(f) == self.o.drop_file(f)

    @rule()
    def reset(self):
        self.c.reset()
        self.o.reset()

    @invariant()
    def same_state(self):
        c, o = self.c, self.o
        assert c.lru_keys() == self.o_keys()
        assert dataclasses.asdict(c.stats) == dataclasses.asdict(o.stats)
        assert c.dirty_bytes == o.dirty_bytes
        assert c.resident_bytes == o.resident_bytes
        assert (c.need_throttle, c.need_background_flush) == (
            o.need_throttle, o.need_background_flush)
        assert c.resident_files() == sorted({f for f, _s in o._segs})
        for f in (1, 2, 3):
            assert c.file_resident_segments(f) == o.file_resident_segments(f)
            assert [(c.is_resident(f, s), c.dirty_amount(f, s)) for s in range(46)] == [
                (o.is_resident(f, s), o.dirty_amount(f, s)) for s in range(46)
            ]
        # write-back order: every prefix of the oldest-first dirty list
        ndirty = len(o._dirty)
        for limit in range(1, ndirty + 1):
            want = list(SegmentPageCache.coalesce(o.dirty_segments(limit=limit)))
            assert c.dirty_runs(limit=limit) == want


TestCacheDifferential = CacheDifferential.TestCase
TestCacheDifferential.settings = settings(
    max_examples=500, stateful_step_count=25, deadline=None
)


@pytest.mark.parametrize("seed", range(20))
def test_cache_differential_random_walk(seed):
    """Long seeded walks through the same rules: hypothesis favours short
    programs, and splitting or merging bugs need a deep, crowded cache."""
    rng = random.Random(seed)
    m = CacheDifferential()
    m.setup(nsegs=rng.randint(1, 16), dirty_ratio=rng.choice([0.1, 0.25, 0.4, 0.7, 1.0]))
    partial = [1, 4096, SEG // 3, SEG // 2, SEG - 1]
    for _ in range(200):
        f, first, n = rng.randint(1, 3), rng.randint(0, 8), rng.randint(0, 6)
        keys = m.o_keys()
        if keys and rng.random() < 0.5:
            f, first, _d = rng.choice(keys)
        op = rng.randrange(9)
        if op == 0:
            m.write(f, first, n, rng.choice([SEG] + partial), rng.choice([None] + partial),
                    rng.choice([None] + partial), rng.random() < 0.3)
        elif op == 1:
            m.fill(f, first, n, rng.random() < 0.3)
        elif op == 2:
            m.writer_loop(f, first, n)
        elif op == 3:
            m.lookup(f, first, n)
        elif op == 4:
            m.touch(f, first, n, rng.random() < 0.5)
        elif op == 5:
            m.clean(f, first, n)
        elif op == 6 and m.c.dirty_bytes:
            m.flush_oldest(rng.choice([None, 1, 2, 5]), rng.choice([None, f]))
        elif op == 7:
            m.drop_file(f)
        m.same_state()
