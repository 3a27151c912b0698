"""Per-segment page cache: the reference model for ``PageCache``.

This is the page cache as it was before its bookkeeping became
run-length: one LRU dict entry per resident segment, one method per
access kind.  It is kept only as the oracle of the differential test in
``test_cache.py``, which drives it and ``repro.storage.cache.PageCache``
with the same operations and requires identical evictions, batch stop
points, statistics, dirty-byte totals and residency after every step.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.storage.cache import CacheSpec, CacheStats

__all__ = ["SegmentPageCache"]


class SegmentPageCache:
    """LRU segment cache over (file-id, segment-number) keys, one dict
    entry per resident segment."""

    def __init__(self, spec: CacheSpec, name: str = "pagecache"):
        self.spec = spec
        self.name = name
        # key -> dirty byte count (0 == clean); order == recency (last = MRU)
        self._segs: dict[tuple[int, int], int] = {}
        # dirty keys only, in the same relative order they hold in _segs,
        # so the flusher's oldest-first walk never scans clean entries
        self._dirty: dict[tuple[int, int], int] = {}
        self._dirty_total = 0
        self._file_resident: dict[int, int] = {}  # fileid -> resident seg count
        self._sb = spec.segment_bytes
        self._nsegments = spec.nsegments
        self.stats = CacheStats()

    # -- geometry helpers -------------------------------------------------
    def segments_of(self, offset: int, nbytes: int) -> range:
        """Segment numbers covering the byte range."""
        sb = self.spec.segment_bytes
        if nbytes <= 0:
            return range(0)
        return range(offset // sb, (offset + nbytes - 1) // sb + 1)

    # -- state queries -----------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        return len(self._segs) * self.spec.segment_bytes

    @property
    def dirty_bytes(self) -> int:
        return self._dirty_total

    @property
    def need_throttle(self) -> bool:
        return self._dirty_total > self.spec.dirty_limit_bytes

    @property
    def need_background_flush(self) -> bool:
        return self._dirty_total > self.spec.background_limit_bytes

    def is_resident(self, fileid: int, seg: int) -> bool:
        return (fileid, seg) in self._segs

    def dirty_amount(self, fileid: int, seg: int) -> int:
        return self._segs.get((fileid, seg), 0)

    def file_resident_segments(self, fileid: int) -> int:
        return self._file_resident.get(fileid, 0)

    def file_fully_resident(self, fileid: int, file_bytes: int) -> bool:
        """True when every segment of the file is cached."""
        sb = self.spec.segment_bytes
        nsegs = (file_bytes + sb - 1) // sb
        return nsegs > 0 and self.file_resident_segments(fileid) >= nsegs

    # -- mutation -----------------------------------------------------------
    def touch(self, fileid: int, seg: int) -> bool:
        """Record an access; returns True on hit (and refreshes LRU)."""
        key = (fileid, seg)
        segs = self._segs
        if key in segs:
            val = segs.pop(key)
            segs[key] = val
            if val:
                dirty = self._dirty
                dirty[key] = dirty.pop(key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def insert(
        self, fileid: int, seg: int, dirty_bytes: int = 0
    ) -> list[tuple[int, int, int]]:
        """Make a segment resident with ``dirty_bytes`` newly dirty.

        Returns evicted dirty victims as ``(fileid, seg, dirty_bytes)``
        tuples; the caller must write those back to the backing store
        (and charge the time for it).  Clean victims vanish silently.
        """
        sb = self._sb
        if dirty_bytes > sb:
            dirty_bytes = sb
        key = (fileid, seg)
        segs = self._segs
        victims: list[tuple[int, int, int]] = []
        if key in segs:
            old = segs.pop(key)
            new = old + dirty_bytes
            if new > sb:
                new = sb
            segs[key] = new
            self._dirty_total += new - old
            if new:
                dirty = self._dirty
                dirty.pop(key, None)
                dirty[key] = new
            return victims
        while len(segs) >= self._nsegments:
            vkey = next(iter(segs))
            vdirty = segs.pop(vkey)
            self._file_resident[vkey[0]] -= 1
            self.stats.evictions += 1
            if vdirty:
                self._dirty_total -= vdirty
                self.stats.dirty_evictions += 1
                del self._dirty[vkey]
                victims.append((vkey[0], vkey[1], vdirty))
        segs[key] = dirty_bytes
        if dirty_bytes:
            self._dirty[key] = dirty_bytes
            self._dirty_total += dirty_bytes
        self._file_resident[fileid] = self._file_resident.get(fileid, 0) + 1
        return victims

    def touch_run(self, fileid: int, seg_range: Iterable[int]) -> None:
        """Record a run of accesses; equivalent to :meth:`touch` per
        segment (LRU refresh, statistics) without a method call each."""
        segs = self._segs
        dirty = self._dirty
        stats = self.stats
        for s in seg_range:
            key = (fileid, s)
            old = segs.pop(key, None)
            if old is None:
                stats.misses += 1
                continue
            segs[key] = old
            if old:
                dirty[key] = dirty.pop(key)
            stats.hits += 1

    def insert_clean_run(self, fileid: int, first: int, nsegs: int) -> int:
        """Batch-insert a clean run, stopping before the first segment
        whose insertion would evict a *dirty* victim.

        Equivalent to ``insert(fileid, s, 0)`` for each absorbed
        segment — same LRU order, same (clean) eviction order, same
        statistics.  Returns how many leading segments were absorbed;
        the caller handles the next one with per-segment :meth:`insert`
        so its dirty victims flush at the right simulated time.
        """
        segs = self._segs
        dirty = self._dirty
        nmax = self._nsegments
        file_resident = self._file_resident
        stats = self.stats
        done = 0
        for s in range(first, first + nsegs):
            key = (fileid, s)
            old = segs.pop(key, None)
            if old is not None:
                segs[key] = old
                if old:
                    dirty[key] = dirty.pop(key)
                done += 1
                continue
            while len(segs) >= nmax:
                vkey = next(iter(segs))
                if segs[vkey]:
                    return done  # dirty victim: leave it to insert()
                del segs[vkey]
                file_resident[vkey[0]] -= 1
                stats.evictions += 1
            segs[key] = 0
            file_resident[fileid] = file_resident.get(fileid, 0) + 1
            done += 1
        return done

    def insert_dirty_run(
        self, fileid: int, entries, start: int = 0
    ) -> int:
        """Absorb consecutive ``(seg, dirty_bytes)`` write-plan entries,
        stopping before the first that needs the writer throttled or
        would evict a dirty victim.

        Equivalent to the per-entry ``need_throttle`` check plus
        :meth:`insert` for each absorbed entry; returns how many were
        absorbed from ``entries[start:]``.  The caller resumes its
        per-segment throttle/insert/flush machinery at the entry where
        the batch stopped.
        """
        segs = self._segs
        dirty = self._dirty
        sb = self._sb
        nmax = self._nsegments
        limit = self.spec.dirty_limit_bytes
        file_resident = self._file_resident
        stats = self.stats
        done = 0
        for i in range(start, len(entries)):
            if self._dirty_total > limit:
                break
            seg, dbytes = entries[i]
            if dbytes > sb:
                dbytes = sb
            key = (fileid, seg)
            old = segs.pop(key, None)
            if old is not None:
                new = old + dbytes
                if new > sb:
                    new = sb
                segs[key] = new
                self._dirty_total += new - old
                if new:
                    dirty.pop(key, None)
                    dirty[key] = new
                done += 1
                continue
            blocked = False
            while len(segs) >= nmax:
                vkey = next(iter(segs))
                if segs[vkey]:
                    blocked = True  # dirty victim: leave it to insert()
                    break
                del segs[vkey]
                file_resident[vkey[0]] -= 1
                stats.evictions += 1
            if blocked:
                break
            segs[key] = dbytes
            if dbytes:
                dirty[key] = dbytes
                self._dirty_total += dbytes
            file_resident[fileid] = file_resident.get(fileid, 0) + 1
            done += 1
        return done

    def touch_or_insert_clean(self, fileid: int, seg_range: Iterable[int]) -> None:
        """Serve-path access walk: touch each segment, making misses
        resident clean and silently dropping any dirty victims (the
        caller accounts their write-back analytically).

        Equivalent to ``touch(fileid, s) or insert(fileid, s, 0)`` per
        segment — including LRU order, eviction order and statistics —
        without two method calls and a victims list per segment.
        """
        segs = self._segs
        dirty = self._dirty
        stats = self.stats
        nmax = self._nsegments
        file_resident = self._file_resident
        for s in seg_range:
            key = (fileid, s)
            old = segs.pop(key, None)
            if old is not None:
                segs[key] = old
                if old:
                    dirty[key] = dirty.pop(key)
                stats.hits += 1
                continue
            stats.misses += 1
            while len(segs) >= nmax:
                vkey = next(iter(segs))
                vdirty = segs.pop(vkey)
                file_resident[vkey[0]] -= 1
                stats.evictions += 1
                if vdirty:
                    self._dirty_total -= vdirty
                    stats.dirty_evictions += 1
                    del dirty[vkey]
            segs[key] = 0
            file_resident[fileid] = file_resident.get(fileid, 0) + 1

    def mark_clean(self, fileid: int, seg: int) -> None:
        key = (fileid, seg)
        amount = self._segs.get(key, 0)
        if amount:
            self._segs[key] = 0
            self._dirty_total -= amount
            del self._dirty[key]

    def dirty_segments(
        self, limit: int | None = None, fileid: int | None = None
    ) -> list[tuple[int, int, int]]:
        """Oldest-first dirty entries ``(fileid, seg, dirty_bytes)``."""
        out = []
        for (f, s), dirty in self._dirty.items():
            if fileid is None or f == fileid:
                out.append((f, s, dirty))
                if limit is not None and len(out) >= limit:
                    break
        return out

    def reset(self) -> None:
        """Empty the cache and zero the statistics (warm reuse)."""
        self._segs.clear()
        self._dirty.clear()
        self._dirty_total = 0
        self._file_resident.clear()
        self.stats = CacheStats()

    def drop_file(self, fileid: int) -> int:
        """Invalidate every segment of a file (unlink); returns count dropped."""
        keys = [k for k in self._segs if k[0] == fileid]
        for k in keys:
            self._dirty_total -= self._segs.pop(k)
            self._dirty.pop(k, None)
        if fileid in self._file_resident:
            self._file_resident[fileid] = 0
        return len(keys)

    @staticmethod
    def coalesce(
        entries: Iterable[tuple[int, int, int]]
    ) -> Iterator[tuple[int, int, int, int]]:
        """Group ``(fileid, seg, dirty)`` into runs.

        Yields ``(fileid, first_seg, nsegs, dirty_bytes_in_run)``;
        adjacent segments of the same file merge so write-back can issue
        large contiguous device writes when the run is densely dirty.
        """
        run_file = run_start = run_len = run_dirty = None
        for fileid, seg, dirty in sorted(entries):
            if run_file == fileid and seg == run_start + run_len:
                run_len += 1
                run_dirty += dirty
            else:
                if run_file is not None:
                    yield (run_file, run_start, run_len, run_dirty)
                run_file, run_start, run_len, run_dirty = fileid, seg, 1, dirty
        if run_file is not None:
            yield (run_file, run_start, run_len, run_dirty)
