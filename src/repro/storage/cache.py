"""OS page-cache model.

Tracks residency and dirtiness of file data at *segment* granularity
(default 1 MiB) with LRU replacement.  Each resident segment carries a
count of **dirty bytes**, so the flush cost of a sparsely-dirtied
segment (a few 4 KiB pages scattered in it) differs from a fully
dirty one — sparse write streams therefore throttle at the device's
random-write rate while dense streams throttle at its sequential
rate, with no workload-specific special cases.

The cache itself is pure bookkeeping — it advances no simulated time;
the owning filesystem charges memcpy costs and performs the
write-back I/O for the dirty victims that eviction hands back.

"State and placement of buffer/cache" is one of the paper's
configurable factors: the same class serves as the local filesystem's
page cache, the NFS client cache and the NFS server cache, sized by
each node's RAM.

Bookkeeping is run-length.  The LRU order is a list of *extents*: runs
of consecutive segments of one file that sit next to each other in LRU
order (lowest segment oldest) with equal dirty bytes each.  Every
operation takes a segment range and costs O(extents touched + log E)
for E resident extents of the file, so a streaming access moves, fills
or evicts a whole run in a few steps; a strided or random stream
degrades to single-segment extents at O(log E) per segment.  The
observable behaviour — eviction order, where a batch stops, statistics,
dirty-byte totals, residency — is exactly that of one LRU entry per
segment accessed one segment at a time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .base import MiB

__all__ = ["CacheSpec", "PageCache", "CacheStats"]


@dataclass(frozen=True)
class CacheSpec:
    """Sizing and write-back policy of a page cache."""

    capacity_bytes: int
    segment_bytes: int = 1 * MiB
    #: writers are throttled while dirty bytes exceed this fraction
    dirty_ratio: float = 0.40
    #: background write-back starts above this fraction
    background_ratio: float = 0.10
    write_back: bool = True

    def __post_init__(self):
        if self.capacity_bytes <= 0 or self.segment_bytes <= 0:
            raise ValueError("capacity and segment size must be positive")
        if not 0.0 < self.background_ratio <= self.dirty_ratio <= 1.0:
            raise ValueError("need 0 < background_ratio <= dirty_ratio <= 1")

    @property
    def nsegments(self) -> int:
        return max(1, self.capacity_bytes // self.segment_bytes)

    @property
    def dirty_limit_bytes(self) -> int:
        return int(self.capacity_bytes * self.dirty_ratio)

    @property
    def background_limit_bytes(self) -> int:
        return int(self.capacity_bytes * self.background_ratio)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: a write-back run ``(fileid, first_seg, nsegs, dirty_bytes_in_run)``
Run = tuple[int, int, int, int]


class _Extent:
    """Segments ``first .. first + nsegs - 1`` of one file, adjacent in
    LRU order, each holding ``dirty`` dirty bytes.

    Extents are linked into the circular LRU list (``prev``/``next``)
    and, while dirty, into a second circular list of the dirty extents
    in the same relative order (``dprev``/``dnext``), so write-back
    walks oldest-first without passing clean data.
    """

    __slots__ = ("fileid", "first", "nsegs", "dirty", "prev", "next", "dprev", "dnext")

    def __init__(self, fileid, first: int = 0, nsegs: int = 0, dirty: int = 0):
        self.fileid = fileid
        self.first = first
        self.nsegs = nsegs
        self.dirty = dirty
        self.prev = self.next = self.dprev = self.dnext = self


class _FileIndex:
    """One file's resident extents, sorted by first segment."""

    __slots__ = ("starts", "exts", "count")

    def __init__(self):
        self.starts: list[int] = []
        self.exts: list[_Extent] = []
        self.count = 0  # resident segments


class PageCache:
    """LRU segment cache over (file-id, segment-number) keys."""

    def __init__(self, spec: CacheSpec, name: str = "pagecache"):
        self.spec = spec
        self.name = name
        self._sb = spec.segment_bytes
        self._nsegments = spec.nsegments
        self._dirty_limit = spec.dirty_limit_bytes
        self._background_limit = spec.background_limit_bytes
        self.reset()

    def reset(self) -> None:
        """Empty the cache and zero the statistics (warm reuse)."""
        # sentinels: LRU head = _lru.next, MRU tail = _lru.prev; the
        # ``None`` file id keeps them out of every merge test
        self._lru = _Extent(None)
        self._dl = _Extent(None)
        self._files: dict[int, _FileIndex] = {}
        self._used = 0
        self._dirty_total = 0
        self.stats = CacheStats()

    # -- geometry helpers -------------------------------------------------
    def segments_of(self, offset: int, nbytes: int) -> range:
        """Segment numbers covering the byte range."""
        sb = self.spec.segment_bytes
        if nbytes <= 0:
            return range(0)
        return range(offset // sb, (offset + nbytes - 1) // sb + 1)

    def dense_run(self, offset: int, nbytes: int) -> tuple[int, int, int, int, int]:
        """A contiguous byte range as ``(first, nsegs, body, head, tail)``:
        the bytes it covers in its first segment (``head``), in its last
        (``tail``) and in each segment between (``body``, a full segment).
        A one-segment range has ``head == tail``; arguments line up with
        :meth:`insert`."""
        sb = self._sb
        if nbytes <= 0:
            return 0, 0, sb, 0, 0
        end = offset + nbytes
        first = offset // sb
        last = (end - 1) // sb
        head = min(end, (first + 1) * sb) - offset
        tail = end - max(offset, last * sb)
        return first, last - first + 1, sb, head, tail

    # -- state queries -----------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        return self._used * self._sb

    @property
    def dirty_bytes(self) -> int:
        return self._dirty_total

    @property
    def need_throttle(self) -> bool:
        return self._dirty_total > self._dirty_limit

    @property
    def need_background_flush(self) -> bool:
        return self._dirty_total > self._background_limit

    def is_resident(self, fileid: int, seg: int) -> bool:
        fi = self._files.get(fileid)
        if fi is None:
            return False
        i = bisect_right(fi.starts, seg) - 1
        return i >= 0 and seg < fi.starts[i] + fi.exts[i].nsegs

    def dirty_amount(self, fileid: int, seg: int) -> int:
        fi = self._files.get(fileid)
        if fi is None:
            return 0
        i = bisect_right(fi.starts, seg) - 1
        if i >= 0 and seg < fi.starts[i] + fi.exts[i].nsegs:
            return fi.exts[i].dirty
        return 0

    def file_resident_segments(self, fileid: int) -> int:
        fi = self._files.get(fileid)
        return fi.count if fi is not None else 0

    def file_fully_resident(self, fileid: int, file_bytes: int) -> bool:
        """True when every segment of the file is cached."""
        sb = self.spec.segment_bytes
        nsegs = (file_bytes + sb - 1) // sb
        return nsegs > 0 and self.file_resident_segments(fileid) >= nsegs

    def resident_files(self) -> list[int]:
        """Ids of the files with at least one resident segment, sorted."""
        return sorted(self._files)

    def lru_keys(self) -> list[tuple[int, int, int]]:
        """Resident segments oldest first as ``(fileid, seg, dirty_bytes)``
        (a read-only snapshot, one entry per segment)."""
        out = []
        e = self._lru.next
        while e is not self._lru:
            d, f = e.dirty, e.fileid
            out.extend((f, s, d) for s in range(e.first, e.first + e.nsegs))
            e = e.next
        return out

    # -- access -------------------------------------------------------------
    def lookup(self, fileid: int, first: int, nsegs: int) -> tuple[int, int]:
        """Walk segments ``first ..`` as a cached read does.

        Resident segments are hits and move to the MRU end in order;
        absent ones are misses.  The walk stops at the end of the first
        miss run: when a resident segment follows the run, that one hit
        is taken too, so the caller fetches the run before walking on
        from the segment after it.  Returns ``(miss_first, nmiss)``;
        ``nmiss == 0`` means every segment hit.
        """
        stats = self.stats
        s, end = first, first + nsegs
        while s < end:
            fi = self._files.get(fileid)
            if fi is None:
                stats.misses += end - s
                return s, end - s
            starts = fi.starts
            i = bisect_right(starts, s) - 1
            if i >= 0:
                e = fi.exts[i]
                eend = e.first + e.nsegs
                if s < eend:
                    k = (end if end < eend else eend) - s
                    self._to_tail(fi, i, e, s, k, e.dirty)
                    stats.hits += k
                    s += k
                    continue
            i += 1
            if i < len(starts) and starts[i] < end:
                nxt = starts[i]
                e = fi.exts[i]
                self._to_tail(fi, i, e, nxt, 1, e.dirty)
                stats.misses += nxt - s
                stats.hits += 1
                return s, nxt - s
            stats.misses += end - s
            return s, end - s
        return end, 0

    def touch(self, fileid: int, first: int, nsegs: int, *, fill: bool = False) -> None:
        """Access segments ``first ..`` in order, counting hits and misses.

        Hits move to the MRU end.  With ``fill`` every miss is made
        resident clean, evicting from the LRU head and dropping any
        dirty victim's data (the caller accounts its write-back
        analytically); without it misses are only counted.
        """
        stats = self.stats
        cap = self._nsegments
        s, end = first, first + nsegs
        while s < end:
            fi = self._files.get(fileid)
            cend = end
            if fi is not None:
                starts = fi.starts
                i = bisect_right(starts, s) - 1
                if i >= 0:
                    e = fi.exts[i]
                    eend = e.first + e.nsegs
                    if s < eend:
                        k = (end if end < eend else eend) - s
                        self._to_tail(fi, i, e, s, k, e.dirty)
                        stats.hits += k
                        s += k
                        continue
                if i + 1 < len(starts) and starts[i + 1] < end:
                    cend = starts[i + 1]
            k = cend - s
            if fill:
                if k > cap:
                    k = cap
                free = cap - self._used
                if k > free:
                    self._evict(k - free, True)
                self._add(fileid, s, k, 0)
            stats.misses += k
            s += k

    def insert(
        self,
        fileid: int,
        first: int,
        nsegs: int,
        dirty: int = 0,
        head: int | None = None,
        tail: int | None = None,
        *,
        throttle: bool = False,
        force: bool = False,
    ) -> tuple[int, Run | None]:
        """Make segments ``first ..`` resident at the MRU end, adding
        newly dirty bytes to each (capped at a segment): ``tail`` to the
        last segment, ``head`` to the first, ``dirty`` to the others
        (``None`` means ``dirty``).

        A batch: stops before the first segment whose insertion would
        evict a *dirty* victim, or — with ``throttle`` — before the
        first segment reached while the dirty total is over the
        writer-throttle limit.  Clean victims are evicted silently.
        With ``force`` the first segment goes in regardless (no
        throttle test; a dirty victim is evicted and the call returns
        right after it), then the batch continues.

        Returns ``(done, victim)``: how many leading segments were
        absorbed, and the dirty victim the forced segment evicted as a
        one-segment write-back run, or ``None``.  The caller flushes the
        victim, or waits out the throttle, and resumes at ``first + done``
        with ``force`` set.
        """
        sb = self._sb
        cap = self._nsegments
        limit = self._dirty_limit
        files = self._files
        end = first + nsegs
        last = end - 1
        s = first
        while s < end:
            if s == last and tail is not None:
                amt, cend = tail, end
            elif s == first and head is not None:
                amt, cend = head, s + 1
            else:
                amt, cend = dirty, (last if tail is not None else end)
            if amt > sb:
                amt = sb
            if force:
                cend = s + 1
            elif throttle and self._dirty_total > limit:
                break
            fi = files.get(fileid)
            if fi is not None:
                starts = fi.starts
                i = bisect_right(starts, s) - 1
                if i >= 0:
                    e = fi.exts[i]
                    eend = e.first + e.nsegs
                    if s < eend:
                        # resident: add the dirty bytes, refresh LRU
                        k = (cend if cend < eend else eend) - s
                        old = e.dirty
                        new = old + amt
                        if new > sb:
                            new = sb
                        delta = new - old
                        if delta and throttle and not force:
                            room = (limit - self._dirty_total) // delta + 1
                            if k > room:
                                k = room
                        self._to_tail(fi, i, e, s, k, new)
                        self._dirty_total += k * delta
                        s += k
                        force = False
                        continue
                if i + 1 < len(starts) and starts[i + 1] < cend:
                    cend = starts[i + 1]
            # absent: evict from the LRU head to make room
            k = cend - s
            if amt and throttle and not force:
                room = (limit - self._dirty_total) // amt + 1
                if k > room:
                    k = room
            if k > cap:
                k = cap
            free = cap - self._used
            if k > free:
                if force:
                    h = self._lru.next
                    victim = (h.fileid, h.first, 1, h.dirty) if h.dirty else None
                    self._evict(1, True)
                    if victim is not None:
                        self._add(fileid, s, 1, amt)
                        return s + 1 - first, victim
                else:
                    k = free + self._evict(k - free, False)
                    if not k:
                        break  # dirty victim: the caller forces it
            self._add(fileid, s, k, amt)
            s += k
            force = False
        return s - first, None

    # -- write-back -----------------------------------------------------------
    def dirty_runs(self, limit: int | None = None, fileid: int | None = None) -> list[Run]:
        """The ``limit`` oldest dirty segments (all when ``None``; only
        file ``fileid``'s when given) as write-back runs.

        Segments merge into ``(fileid, first_seg, nsegs, dirty_bytes)``
        runs of consecutive segments of one file, sorted by file and
        segment, so write-back can issue large contiguous device writes
        where the data is densely dirty.
        """
        pieces = []
        left = limit
        dl = self._dl
        e = dl.dnext
        while e is not dl:
            if fileid is None or e.fileid == fileid:
                k = e.nsegs
                if left is not None:
                    if k > left:
                        k = left
                    left -= k
                pieces.append((e.fileid, e.first, k, e.dirty))
                if left == 0:
                    break
            e = e.dnext
        pieces.sort()
        runs: list[Run] = []
        for f, a, k, d in pieces:
            if runs:
                rf, ra, rn, rd = runs[-1]
                if rf == f and ra + rn == a:
                    runs[-1] = (rf, ra, rn + k, rd + k * d)
                    continue
            runs.append((f, a, k, k * d))
        return runs

    def clean(self, fileid: int, first: int, nsegs: int) -> None:
        """Mark the resident segments of ``first ..`` clean (written
        back) without changing their LRU position."""
        fi = self._files.get(fileid)
        if fi is None:
            return
        end = first + nsegs
        starts = fi.starts
        lo_i = bisect_right(starts, first) - 1
        hi_i = bisect_left(starts, end)
        for e in fi.exts[max(lo_i, 0):hi_i]:
            d = e.dirty
            if not d:
                continue
            a = e.first
            eend = a + e.nsegs
            lo = a if a > first else first
            hi = eend if eend < end else end
            if lo < hi:
                self._dirty_total -= (hi - lo) * d
                self._clean_piece(fi, e, lo, hi)

    def drop_file(self, fileid: int) -> int:
        """Invalidate every segment of a file (unlink); returns count dropped."""
        fi = self._files.pop(fileid, None)
        if fi is None:
            return 0
        for e in fi.exts:
            self._unlink(e)
            self._dirty_total -= e.nsegs * e.dirty
        self._used -= fi.count
        return fi.count

    # -- extent list plumbing -----------------------------------------------
    @staticmethod
    def _link_after(p: _Extent, e: _Extent) -> None:
        n = p.next
        e.prev = p
        e.next = n
        p.next = e
        n.prev = e

    @staticmethod
    def _dlink_after(p: _Extent, e: _Extent) -> None:
        n = p.dnext
        e.dprev = p
        e.dnext = n
        p.dnext = e
        n.dprev = e

    @staticmethod
    def _unlink(e: _Extent) -> None:
        p, n = e.prev, e.next
        p.next = n
        n.prev = p
        if e.dirty:
            p, n = e.dprev, e.dnext
            p.dnext = n
            n.dprev = p

    def _index_add(self, e: _Extent) -> None:
        fi = self._files.get(e.fileid)
        if fi is None:
            fi = self._files[e.fileid] = _FileIndex()
        i = bisect_left(fi.starts, e.first)
        fi.starts.insert(i, e.first)
        fi.exts.insert(i, e)

    @staticmethod
    def _index_drop(fi: _FileIndex, e: _Extent) -> None:
        i = bisect_left(fi.starts, e.first)
        del fi.starts[i]
        del fi.exts[i]

    def _append(self, fileid: int, first: int, nsegs: int, dirty: int) -> None:
        """Link segments at the MRU end, extending the tail extent when
        they continue it."""
        sent = self._lru
        t = sent.prev
        if t.fileid == fileid and t.dirty == dirty and t.first + t.nsegs == first:
            t.nsegs += nsegs
            return
        e = _Extent(fileid, first, nsegs, dirty)
        self._link_after(t, e)
        if dirty:
            self._dlink_after(self._dl.dprev, e)
        self._index_add(e)

    def _add(self, fileid: int, first: int, nsegs: int, dirty: int) -> None:
        """Make absent segments resident at the MRU end."""
        self._append(fileid, first, nsegs, dirty)
        self._files[fileid].count += nsegs
        self._used += nsegs
        self._dirty_total += nsegs * dirty

    def _to_tail(self, fi: _FileIndex, i: int, e: _Extent, s: int, k: int, new: int) -> None:
        """Move resident segments ``s .. s + k - 1`` of ``e`` (entry ``i``
        of ``fi``) to the MRU end, now holding ``new`` dirty bytes each."""
        a = e.first
        eend = a + e.nsegs
        pend = s + k
        old = e.dirty
        sent = self._lru
        if pend == eend and new == old and e is sent.prev:
            return  # already the most recent segments
        if s == a and pend == eend:
            if e is sent.prev:
                # more dirty in place; it may now continue its predecessor
                if not old:
                    self._dlink_after(self._dl.dprev, e)
                e.dirty = new
                p = e.prev
                if p.fileid == e.fileid and p.dirty == new and p.first + p.nsegs == a:
                    p.nsegs += k
                    self._unlink(e)
                    del fi.starts[i]
                    del fi.exts[i]
                return
            self._unlink(e)
            e.dirty = new
            t = sent.prev
            if t.fileid == e.fileid and t.dirty == new and t.first + t.nsegs == a:
                t.nsegs += k
                del fi.starts[i]
                del fi.exts[i]
                return
            # relink the whole extent at the MRU end (inline: hot path)
            e.prev = t
            e.next = sent
            t.next = e
            sent.prev = e
            if new:
                dl = self._dl
                dt = dl.dprev
                e.dprev = dt
                e.dnext = dl
                dt.dnext = e
                dl.dprev = e
            return
        if s == a:
            e.first = pend
            e.nsegs = eend - pend
            fi.starts[i] = pend
        else:
            e.nsegs = s - a
            if pend < eend:
                r = _Extent(e.fileid, pend, eend - pend, old)
                self._link_after(e, r)
                if old:
                    self._dlink_after(e, r)
                fi.starts.insert(i + 1, pend)
                fi.exts.insert(i + 1, r)
        self._append(e.fileid, s, k, new)

    def _clean_piece(self, fi: _FileIndex, e: _Extent, lo: int, hi: int) -> None:
        """Make segments ``lo .. hi - 1`` of dirty extent ``e`` clean in
        place, merging with clean LRU neighbours that continue them."""
        f = e.fileid
        a = e.first
        eend = a + e.nsegs
        p = e.prev
        if lo == a and hi == eend:
            dp, dn = e.dprev, e.dnext
            dp.dnext = dn
            dn.dprev = dp
            e.dirty = 0
            if p.fileid == f and not p.dirty and p.first + p.nsegs == a:
                p.nsegs += e.nsegs
                self._unlink(e)
                self._index_drop(fi, e)
                e = p
            n = e.next
            if n.fileid == f and not n.dirty and e.first + e.nsegs == n.first:
                e.nsegs += n.nsegs
                self._unlink(n)
                self._index_drop(fi, n)
            return
        if lo == a:
            i = bisect_left(fi.starts, a)
            e.first = hi
            e.nsegs = eend - hi
            fi.starts[i] = hi
            if p.fileid == f and not p.dirty and p.first + p.nsegs == lo:
                p.nsegs += hi - lo
            else:
                m = _Extent(f, lo, hi - lo, 0)
                self._link_after(p, m)
                self._index_add(m)
            return
        e.nsegs = lo - a
        m = _Extent(f, lo, hi - lo, 0)
        self._link_after(e, m)
        self._index_add(m)
        if hi < eend:
            r = _Extent(f, hi, eend - hi, e.dirty)
            self._link_after(m, r)
            self._dlink_after(e, r)
            self._index_add(r)
        elif m.next.fileid == f and not m.next.dirty and m.next.first == hi:
            n = m.next
            m.nsegs += n.nsegs
            self._unlink(n)
            self._index_drop(fi, n)

    def _evict(self, want: int, drop_dirty: bool) -> int:
        """Evict up to ``want`` segments from the LRU head, stopping at a
        dirty one unless ``drop_dirty``; returns how many went."""
        sent = self._lru
        files = self._files
        stats = self.stats
        got = 0
        while got < want:
            h = sent.next
            d = h.dirty
            if h is sent or (d and not drop_dirty):
                break
            take = h.nsegs
            if take > want - got:
                take = want - got
            fi = files[h.fileid]
            fi.count -= take
            if take == h.nsegs:
                self._unlink(h)
                self._index_drop(fi, h)
            else:
                i = bisect_left(fi.starts, h.first)
                h.first += take
                h.nsegs -= take
                fi.starts[i] = h.first
            if not fi.count:
                del files[h.fileid]
            if d:
                self._dirty_total -= take * d
                stats.dirty_evictions += take
            got += take
        self._used -= got
        stats.evictions += got
        return got
