"""Local (ext4-like) filesystem on top of a block array.

This is the "devices / local filesystem" level of the paper's I/O
path.  It combines:

* an extent-based allocator (files are laid out in large contiguous
  extents, as ext4's delayed allocation achieves in practice);
* the node's :class:`~repro.storage.cache.PageCache` with write-back,
  background flushing, dirty throttling and filesystem readahead;
* per-operation syscall and memcpy CPU costs;
* journalled metadata operations (create/unlink pay a journal write).

Writes are absorbed by the page cache and reach the device through
write-back.  Because the cache tracks *dirty bytes per segment*, the
flush cost of a sparsely-dirtied region degenerates to random
page-sized device writes while dense regions flush as large
sequential writes — so a small-strided workload throttles at the
array's random-write rate and a streaming one at its sequential rate,
with no per-workload special cases.  Reads miss to the device in
coalesced runs extended by a readahead window; files that are fully
resident are served from memory regardless of access pattern (the
effect behind the paper's >100% "used percentage" entries).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from ..simengine import Environment, Event, Resource
from ..hardware.node import Node
from ..hardware.raid import RAIDArray
from .base import IORequest, KiB, MiB
from .cache import CacheSpec, PageCache, Run

__all__ = ["LocalFSSpec", "Inode", "LocalFS"]


@dataclass(frozen=True)
class LocalFSSpec:
    """Cost parameters of the filesystem implementation."""

    syscall_s: float = 1.4e-6  # per read()/write() entry
    open_s: float = 45e-6
    create_s: float = 220e-6  # includes journal record
    close_s: float = 15e-6
    unlink_s: float = 260e-6
    min_io_bytes: int = 4 * KiB  # page-granular device I/O
    readahead_bytes: int = 1 * MiB  # sequential readahead window
    extent_bytes: int = 8 * MiB  # allocation granularity
    journal_write_bytes: int = 8 * KiB
    #: fraction of node RAM available to the page cache
    cache_fraction: float = 0.85
    #: a flush run at least this dense writes the whole run sequentially
    dense_flush_threshold: float = 0.5


@dataclass
class Inode:
    """Namespace entry; data extents map file offsets to device offsets."""

    fileid: int
    path: str
    size: int = 0
    nlink: int = 1
    # extents: (file_offset, device_offset, length) — appended in file
    # order, so file offsets are contiguous from 0 and sorted
    extents: list[tuple[int, int, int]] = field(default_factory=list)

    def allocated_bytes(self) -> int:
        if not self.extents:
            return 0
        fo, _do, ln = self.extents[-1]
        return fo + ln

    def device_offset(self, file_offset: int) -> int:
        """Device byte address backing ``file_offset``."""
        i = bisect.bisect_right(self.extents, file_offset, key=lambda e: e[0]) - 1
        if i >= 0:
            fo, do, ln = self.extents[i]
            if fo <= file_offset < fo + ln:
                return do + (file_offset - fo)
        raise KeyError(f"offset {file_offset} beyond allocation of {self.path!r}")


@dataclass
class FSStats:
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    opens: int = 0
    creates: int = 0
    flush_runs: int = 0


class LocalFS:
    """A mounted local filesystem instance on one node."""

    FLUSH_BATCH_SEGS = 64
    #: sparse requests touching more segments than this many cache
    #: capacities are charged arithmetically instead of per-segment
    OVERFLOW_FACTOR = 4

    def __init__(
        self,
        env: Environment,
        node: Node,
        array: RAIDArray,
        spec: LocalFSSpec | None = None,
        cache_spec: CacheSpec | None = None,
        name: str = "localfs",
    ):
        self.env = env
        self.node = node
        self.array = array
        self.spec = spec or LocalFSSpec()
        if cache_spec is None:
            cache_spec = CacheSpec(
                capacity_bytes=int(node.spec.ram_bytes * self.spec.cache_fraction)
            )
        self.cache = PageCache(cache_spec, name=f"{name}.cache")
        self.name = name
        self.stats = FSStats()
        self._inodes: dict[str, Inode] = {}
        self._by_id: dict[int, Inode] = {}
        self._next_fileid = 1
        self._alloc_cursor = 0
        self._flusher_running = False
        self._flush_waiters: list[Event] = []
        self._inode_locks: dict[int, object] = {}

    # ------------------------------------------------------------------
    # namespace operations (each returns an Event)
    # ------------------------------------------------------------------
    def create(self, path: str) -> Event:
        """Create (or truncate) a file; value is the :class:`Inode`."""
        return self.env.process(self._create(path), name=f"{self.name}.create")

    def _create(self, path):
        yield self.env.timeout(self.spec.create_s)
        yield self.array.submit(
            "write", self._journal_offset(), self.spec.journal_write_bytes
        )
        inode = self._inodes.get(path)
        if inode is None:
            inode = Inode(self._next_fileid, path)
            self._next_fileid += 1
            self._inodes[path] = inode
            self._by_id[inode.fileid] = inode
        else:
            inode.size = 0
            self.cache.drop_file(inode.fileid)
        self.stats.creates += 1
        return inode

    def open(self, path: str, create: bool = False) -> Event:
        """Open an existing file; value is the :class:`Inode`."""
        if path not in self._inodes:
            if create:
                return self.create(path)
            raise FileNotFoundError(path)
        inode = self._inodes[path]

        def _op():
            yield self.env.timeout(self.spec.open_s)
            self.stats.opens += 1
            return inode

        return self.env.process(_op(), name=f"{self.name}.open")

    def close(self, inode: Inode) -> Event:
        return self.env.timeout(self.spec.close_s, value=inode)

    def unlink(self, path: str) -> Event:
        inode = self._inodes.get(path)
        if inode is None:
            raise FileNotFoundError(path)

        def _op():
            yield self.env.timeout(self.spec.unlink_s)
            yield self.array.submit(
                "write", self._journal_offset(), self.spec.journal_write_bytes
            )
            self.cache.drop_file(inode.fileid)
            del self._inodes[path]
            del self._by_id[inode.fileid]
            return None

        return self.env.process(_op(), name=f"{self.name}.unlink")

    def stat(self, path: str) -> Inode:
        if path not in self._inodes:
            raise FileNotFoundError(path)
        return self._inodes[path]

    def exists(self, path: str) -> bool:
        return path in self._inodes

    def paths(self) -> list[str]:
        return list(self._inodes)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def submit(self, inode: Inode, req: IORequest) -> Event:
        """Serve a data request; the event fires when it is *accepted*
        (writes: resident in cache under write-back; reads: data
        available in the caller's buffer)."""
        if req.op == "write":
            return self.env.process(self._write(inode, req), name=f"{self.name}.write")
        return self.env.process(self._read(inode, req), name=f"{self.name}.read")

    def submit_direct(self, inode: Inode, req: IORequest) -> Event:
        """MPI-IO access path; on a local filesystem it is the normal
        page-cached path (syscalls are already synchronous)."""
        san = self.env.sanitizer
        if san is not None:
            san.account_fs(self, req.op, req.total_bytes)
        return self.submit(inode, req)

    def submit_serialized_write(self, inode: Inode, req: IORequest, per_op_s: float) -> Event:
        """Small synchronous writes under the per-inode mutex.

        NFS servers serialise writes to one file on the inode mutex;
        each operation additionally pays ``per_op_s`` of VFS/ext4
        service time.  This is the server-side path of ROMIO-style
        synchronous small strided writes (NAS BT-IO *simple*): the
        data still lands in the page cache (and flushes normally), but
        concurrent writers to a shared file make no aggregate progress
        beyond ``1 / per_op_s`` operations per second.
        """
        if req.op != "write":
            raise ValueError("submit_serialized_write is write-only")

        def _op():
            lock = self._ilock(inode)
            grant = lock.request()
            yield grant
            try:
                yield self.env.timeout(req.count * per_op_s)
                yield self.submit(inode, req)
            finally:
                if grant in lock.users:
                    lock.release(grant)
            return req.total_bytes

        return self.env.process(_op(), name=f"{self.name}.syncwrite")

    def _ilock(self, inode: Inode) -> Resource:
        lock = self._inode_locks.get(inode.fileid)
        if lock is None:
            lock = self._inode_locks[inode.fileid] = Resource(
                self.env, 1, name=f"{self.name}.ilock{inode.fileid}"
            )
        return lock

    def absorb(self, inode: Inode, req: IORequest) -> int:
        """Apply a request's *state* side effects without simulating it.

        Used by the phase-replay fastpath: once a phase's per-occurrence
        timing is verified steady, remaining occurrences are charged
        analytically — but file growth, allocation and cache residency
        must still happen so that later (simulated) phases see the same
        filesystem state full replay would have left.  Advances no
        simulated time.  Absorbed writes land *clean*: a steady write
        phase's measured duration already includes its amortised flush
        cost, so the flusher is modelled as having kept up.
        """
        total = req.total_bytes
        san = self.env.sanitizer
        if san is not None:
            san.account_fs(self, req.op, total)
        if req.op == "write":
            end = req.offset + req.span
            self._ensure_allocation(inode, end)
            inode.size = max(inode.size, end)
            self.stats.writes += req.count
            self.stats.bytes_written += total
        else:
            self.stats.reads += req.count
            self.stats.bytes_read += total
        if req.is_dense:
            span = req.span
            if req.op == "read":
                span = min(span, max(inode.size - req.offset, 0))
            # misses land clean; dirty victims were already flushed
            # analytically as part of the steady-state timing
            segs = self.cache.segments_of(req.offset, span)
            self.cache.touch(inode.fileid, segs.start, len(segs), fill=True)
        return total

    def state_token(self, inode: Inode, req: IORequest) -> tuple:
        """Coarse fingerprint of the cache state governing a request's
        service time, used as part of the replay phase key.

        A phase occurrence's duration depends not only on its geometry
        but on the regime the cache is in when it starts: whether the
        target range is resident (none / partial / full), and whether
        the cache is under background-flush or writer-throttle
        pressure.  Folding this into the key splits a drifting phase
        (cache still filling, flusher ramping up) into per-regime
        phases that each verify independently — a regime change after
        verification changes the key and forces re-simulation instead
        of extrapolating a stale steady value.
        """
        segs = self.cache.segments_of(req.offset, req.span)
        n = len(segs)
        if n == 0:
            res = 0
        else:
            # probing first/middle/last segments classifies the regime
            # in O(1); the token is a heuristic key component, so the
            # approximation only needs to be deterministic
            probes = sorted({segs[0], segs[n // 2], segs[-1]})
            hits = sum(1 for s in probes if self.cache.is_resident(inode.fileid, s))
            res = 0 if hits == 0 else (2 if hits == len(probes) else 1)
        return (res, self.cache.need_background_flush, self.cache.need_throttle)

    def reset(self) -> None:
        """Drop all namespace, cache and allocator state (warm reuse)."""
        self.cache.reset()
        self.stats = FSStats()
        self._inodes.clear()
        self._by_id.clear()
        self._next_fileid = 1
        self._alloc_cursor = 0
        self._flusher_running = False
        self._flush_waiters.clear()
        self._inode_locks.clear()

    def fsync(self, inode: Inode) -> Event:
        """Flush the file's dirty segments to the device."""
        return self.env.process(self._fsync(inode), name=f"{self.name}.fsync")

    def sync(self) -> Event:
        """Flush everything dirty and drain the array's cache."""
        return self.env.process(self._sync_all(), name=f"{self.name}.sync")

    # -- write -------------------------------------------------------------
    def _dirty_plan(self, req: IORequest) -> tuple[list[tuple[int, int, int, int, int]], int]:
        """Dirty-byte contributions of a request as runs ``(first, nsegs,
        body, head, tail)`` (see :meth:`PageCache.dense_run`), plus an
        arithmetic overflow remainder in bytes for huge sparse streams."""
        cache = self.cache
        sb = cache.spec.segment_bytes
        cap = self.OVERFLOW_FACTOR * cache.spec.nsegments
        if req.is_dense:
            run = cache.dense_run(req.offset, req.span)
            return ([run] if run[1] else []), 0
        stride = req.effective_stride if req.stride != -1 else 7919 * self.spec.min_io_bytes
        if stride < sb:
            # Dirtiness spreads uniformly over the span.
            segs = cache.segments_of(req.offset, req.span)
            per = max(req.total_bytes // max(len(segs), 1), 1)
            n = min(len(segs), cap)
            return [(segs.start, n, per, per, per)], max(0, (len(segs) - cap)) * per
        # One (partial) segment per operation.
        n = min(req.count, cap)
        nb = req.nbytes
        plan = [((req.offset + k * stride) // sb, 1, nb, nb, nb) for k in range(n)]
        return plan, (req.count - n) * nb

    def _write(self, inode, req: IORequest):
        spec = self.spec
        total = req.total_bytes
        # CPU: syscalls + copy into the cache
        yield self.env.timeout(req.count * spec.syscall_s + self.node.memcpy_time(total))
        end = req.offset + req.span
        self._ensure_allocation(inode, end)
        self.stats.writes += req.count
        self.stats.bytes_written += total

        plan, overflow = self._dirty_plan(req)
        cache = self.cache
        fileid = inode.fileid
        if cache.spec.write_back:
            for first, nsegs, dirty, head, tail in plan:
                seg, stop = first, first + nsegs
                force = False
                while seg < stop:
                    # absorb the throttle-free, flush-free prefix in one call
                    done, victim = cache.insert(
                        fileid, seg, stop - seg, dirty, head if seg == first else None, tail,
                        throttle=True, force=force,
                    )
                    seg += done
                    force = victim is None
                    if victim is not None:
                        yield from self._flush_runs([victim])
                    elif seg < stop and cache.need_throttle:
                        yield from self._throttle()
        else:
            for first, nsegs, dirty, head, tail in plan:
                for seg in range(first, first + nsegs):
                    if cache.need_throttle:
                        yield from self._throttle()
                    _done, victim = cache.insert(fileid, seg, 1, force=True)
                    amount = _plan_amount(seg, first, nsegs, dirty, head, tail)
                    yield from self._flush_runs([(fileid, seg, 1, amount)])
                    if victim is not None:
                        yield from self._flush_runs([victim])
        if overflow:
            # Stream far larger than the cache: the excess hits the
            # device directly at the pattern's natural rate.
            nb = max(req.nbytes, spec.min_io_bytes)
            dev = inode.device_offset(0)
            yield self.array.submit("write", dev, nb, max(overflow // nb, 1), 7919 * nb, cached=False)
        if self.cache.need_background_flush:
            self._kick_flusher()
        inode.size = max(inode.size, end)
        return total

    # -- read --------------------------------------------------------------
    def _read(self, inode, req: IORequest):
        spec = self.spec
        total = req.total_bytes
        yield self.env.timeout(req.count * spec.syscall_s + self.node.memcpy_time(total))
        self.stats.reads += req.count
        self.stats.bytes_read += total

        if req.offset >= inode.size:
            # read at/past EOF (e.g. a never-written file): POSIX
            # returns short/zero without touching the device
            return total
        if self.cache.file_fully_resident(inode.fileid, max(inode.size, 1)):
            span = min(req.span, max(inode.size - req.offset, 0))
            segs = self.cache.segments_of(req.offset, span)
            self.cache.touch(inode.fileid, segs.start, len(segs))
            return total
        if req.is_dense:
            yield from self._cached_read(inode, req)
        else:
            # Sparse cold reads: page-granular device I/O per operation.
            nb = max(req.nbytes, spec.min_io_bytes)
            dev = inode.device_offset(min(req.offset, max(inode.size - 1, 0)))
            stride = req.effective_stride if req.stride != -1 else 7919 * spec.min_io_bytes
            self.cache.stats.misses += req.count
            yield self.array.submit("read", dev, nb, req.count, stride)
        return total

    def _cached_read(self, inode, req: IORequest):
        span = min(req.span, max(inode.size - req.offset, 0))
        segs = self.cache.segments_of(req.offset, span)
        seg, end = segs.start, segs.stop
        while seg < end:
            miss, nmiss = self.cache.lookup(inode.fileid, seg, end - seg)
            if not nmiss:
                break
            seg = miss + nmiss + 1  # past the hit that ended the miss run
            if seg <= end:
                yield from self._fill(inode, miss, nmiss)
            else:
                # sequential tail: extend by the readahead window
                yield from self._fill(inode, miss, nmiss + self._readahead(inode, end - 1))

    def _readahead(self, inode, last: int) -> int:
        """Segments of readahead past ``last`` that lie inside the file."""
        sb = self.cache.spec.segment_bytes
        file_last_seg = max((inode.size - 1) // sb, 0)
        return max(0, min(self.spec.readahead_bytes // sb, file_last_seg - last))

    def _fill(self, inode, first: int, nsegs: int):
        """Read missing segments from the device and make them resident."""
        sb = self.cache.spec.segment_bytes
        off = first * sb
        length = min(nsegs * sb, max(inode.size - off, sb))
        self._ensure_allocation(inode, off + length)
        dev = inode.device_offset(off)
        yield self.array.submit("read", dev, length)
        s, end = first, first + nsegs
        force = False
        while s < end:
            done, victim = self.cache.insert(inode.fileid, s, end - s, force=force)
            s += done
            force = victim is None
            if victim is not None:
                yield from self._flush_runs([victim])

    # -- write-back machinery ------------------------------------------------
    def _journal_offset(self) -> int:
        # fixed journal region at the tail of the device
        return max(self.array.capacity_bytes - 128 * MiB, 0)

    def _ensure_allocation(self, inode: Inode, upto: int) -> None:
        have = inode.allocated_bytes()
        if upto <= have:
            return
        need = upto - have
        ext = self.spec.extent_bytes
        length = ((need + ext - 1) // ext) * ext
        usable = max(self.array.capacity_bytes - 256 * MiB, length)
        start = self._alloc_cursor % usable
        self._alloc_cursor = start + length
        inode.extents.append((have, start, length))

    def _flush_runs(self, runs: list[Run]):
        """Write dirty cache runs to the device and mark them clean.

        Runs that are densely dirty flush as one sequential write;
        sparse runs flush as scattered page-sized writes.
        """
        sb = self.cache.spec.segment_bytes
        for fileid, first, nsegs, dirty in runs:
            inode = self._by_id.get(fileid)
            if inode is None:
                self.cache.clean(fileid, first, nsegs)
                continue
            off = first * sb
            self._ensure_allocation(inode, off + nsegs * sb)
            dev = inode.device_offset(off)
            density = dirty / (nsegs * sb)
            if density >= self.spec.dense_flush_threshold:
                yield self.array.submit("write", dev, nsegs * sb, cached=False)
            else:
                nb = self.spec.min_io_bytes
                nops = max(dirty // nb, 1)
                scatter = max((nsegs * sb) // nops, nb)
                yield self.array.submit("write", dev, nb, nops, scatter, cached=False)
            self.cache.clean(fileid, first, nsegs)
            self.stats.flush_runs += 1

    def _kick_flusher(self) -> None:
        if not self._flusher_running:
            self._flusher_running = True
            self.env.process(self._flusher(), name=f"{self.name}.flusher")

    def _flusher(self):
        while self.cache.need_background_flush:
            batch = self.cache.dirty_runs(limit=self.FLUSH_BATCH_SEGS)
            if not batch:
                break
            yield from self._flush_runs(batch)
            waiters, self._flush_waiters = self._flush_waiters, []
            for w in waiters:
                w.succeed()
        self._flusher_running = False
        waiters, self._flush_waiters = self._flush_waiters, []
        for w in waiters:
            w.succeed()

    def _throttle(self):
        """Block the writer until the flusher drains below the dirty limit."""
        while self.cache.need_throttle:
            self._kick_flusher()
            ev = self.env.event()
            self._flush_waiters.append(ev)
            yield ev

    def _fsync(self, inode):
        yield self.env.timeout(self.spec.syscall_s)
        yield from self._flush_runs(self.cache.dirty_runs(fileid=inode.fileid))
        yield self.array.submit(
            "write", self._journal_offset(), self.spec.journal_write_bytes
        )
        return None

    def _sync_all(self):
        yield from self._flush_runs(self.cache.dirty_runs())
        yield self.array.flush()
        return None


def _plan_amount(seg: int, first: int, nsegs: int, dirty: int, head: int, tail: int) -> int:
    """Dirty bytes a write-plan run gives segment ``seg`` (the rule of
    :meth:`PageCache.insert`)."""
    if seg == first + nsegs - 1:
        return tail
    return head if seg == first else dirty
