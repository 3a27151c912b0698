"""Network filesystem (NFS-like) client/server model.

This is the "I/O node (global filesystem)" level of the paper's I/O
path: on both of the paper's clusters a front-end node exports a
RAID-backed ext4 filesystem over NFS to all compute nodes.

The model captures the pieces that determine the paper's NFS-level
numbers:

* every operation is an **RPC** over the data network — a request
  message, a server-side service (thread pool + the server's own
  :class:`~repro.storage.localfs.LocalFS`, with *its* page cache and
  RAID write-back behind it) and a reply message;
* bulk data moves in ``rsize``/``wsize`` chunks with a bounded slot
  table, so large transfers pipeline and approach wire speed while
  small strided operations pay per-RPC latency — the contrast behind
  BT-IO *full* vs *simple*;
* the **client-side page cache** absorbs dense writes (write-back,
  flushed on close/fsync with a COMMIT) and caches read data, so a
  re-read of a file smaller than client RAM never touches the wire
  (the paper's >100% used-percentage readings);
* many clients contend on the server's network link, thread pool,
  page cache and disks — the emergent many-to-one bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simengine import Environment, Event, Resource
from ..hardware.network import Network
from ..hardware.node import Node
from .base import IORequest, KiB
from .cache import CacheSpec, PageCache, Run
from .localfs import Inode, LocalFS

__all__ = ["NFSSpec", "NFSServer", "NFSMount"]


@dataclass(frozen=True)
class NFSSpec:
    """Protocol and mount parameters."""

    rsize: int = 256 * KiB
    wsize: int = 256 * KiB
    rpc_header_bytes: int = 160
    #: concurrent in-flight RPCs per mount (Linux slot table)
    slot_table: int = 16
    server_threads: int = 8
    server_rpc_cpu_s: float = 18e-6  # per-RPC service CPU
    client_rpc_cpu_s: float = 9e-6
    getattr_s: float = 30e-6
    #: server-side VFS/ext4 service per small synchronous write — these
    #: serialise on the file's inode mutex (drives BT-IO "simple")
    server_small_op_s: float = 120e-6
    #: COMMIT flushes the server file durably (async exports skip it)
    commit_durable: bool = True
    #: fraction of client RAM used for the NFS data cache
    client_cache_fraction: float = 0.5
    #: RPC timeout before the first retransmission (mount option
    #: ``timeo``, here in seconds; Linux default 600 deciseconds over
    #: TCP — shortened to the UDP-era default so stalls are visible at
    #: simulated-run scale)
    timeo_s: float = 1.1
    #: retransmissions before a *major timeout* ("server not
    #: responding"); hard mounts then start over, so a stalled server
    #: slows clients down but never hangs them
    retrans: int = 3


@dataclass
class NFSStats:
    rpcs: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    commits: int = 0
    #: RPC requests re-sent after a timeout (stalled/unresponsive server)
    retransmits: int = 0
    #: exhausted retrans cycles ("nfs: server ... not responding")
    major_timeouts: int = 0


class NFSServer:
    """The I/O node: exports one :class:`LocalFS` over a network."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        export: LocalFS,
        network: Network,
        spec: NFSSpec | None = None,
        name: str = "nfsd",
    ):
        self.env = env
        self.node = node
        self.export = export
        self.network = network
        self.spec = spec or NFSSpec()
        self.name = name
        self.threads = Resource(env, capacity=self.spec.server_threads, name=f"{name}.threads")
        self.stats = NFSStats()
        #: absolute simulated time until which the server is stalled
        #: (fault injection; see :meth:`stall`)
        self.stall_until = 0.0

    def stall(self, duration_s: float) -> None:
        """Wedge the server for ``duration_s`` seconds from now.

        Models an I/O-node brown-out (reboot, thrashing, hung export):
        granted nfsd threads sit on the wedged backend, the thread pool
        backs up, and clients retransmit until service resumes.
        """
        self.stall_until = max(self.stall_until, self.env.now + duration_s)

    @property
    def stalled(self) -> bool:
        return self.env.now < self.stall_until

    def service(self, work_event_factory, rpc_count: int = 1):
        """Hold a server thread while performing backend work.

        ``work_event_factory`` is a zero-argument callable returning the
        backend event (e.g. a LocalFS submit) — created *after* the
        thread is granted, as real nfsd threads do.  Returns the backend
        event's value.
        """
        result = None
        req = self.threads.request()
        yield req
        try:
            if self.env.now < self.stall_until:
                # stalled: the granted thread sits on the wedged
                # backend until service resumes
                yield self.env.wake_at(self.stall_until)
            yield self.env.timeout(self.spec.server_rpc_cpu_s * rpc_count)
            ev = work_event_factory()
            if ev is not None:
                result = yield ev
        finally:
            if req in self.threads.users:
                self.threads.release(req)
        self.stats.rpcs += rpc_count
        return result

    def reset(self) -> None:
        """Forget thread-pool, stall and statistics state (warm reuse)."""
        self.threads.reset()
        self.stats = NFSStats()
        self.stall_until = 0.0


class NFSMount:
    """A client mount of an :class:`NFSServer` export on one node."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        server: NFSServer,
        spec: NFSSpec | None = None,
        cache_spec: CacheSpec | None = None,
        name: str = "",
    ):
        self.env = env
        self.node = node
        self.server = server
        self.spec = spec or server.spec
        if cache_spec is None:
            cache_spec = CacheSpec(
                capacity_bytes=int(node.spec.ram_bytes * self.spec.client_cache_fraction)
            )
        self.cache = PageCache(cache_spec, name=f"{name or node.name}.nfscache")
        self.name = name or f"nfs@{node.name}"
        self.stats = NFSStats()
        self.network = server.network

    # ------------------------------------------------------------------
    # namespace
    # ------------------------------------------------------------------
    def create(self, path: str) -> Event:
        return self.env.process(self._meta_rpc(lambda: self.server.export.create(path)))

    def open(self, path: str, create: bool = False) -> Event:
        if create and not self.server.export.exists(path):
            return self.create(path)
        return self.env.process(self._meta_rpc(lambda: self.server.export.open(path)))

    def close(self, inode: Inode) -> Event:
        """Close-to-open consistency: flush dirty data, then COMMIT."""
        return self.env.process(self._close(inode), name=f"{self.name}.close")

    def unlink(self, path: str) -> Event:
        def _inval():
            if self.server.export.exists(path):
                self.cache.drop_file(self.server.export.stat(path).fileid)
            return self.server.export.unlink(path)

        return self.env.process(self._meta_rpc(_inval))

    def stat(self, path: str) -> Inode:
        return self.server.export.stat(path)

    def exists(self, path: str) -> bool:
        return self.server.export.exists(path)

    def fsync(self, inode: Inode) -> Event:
        return self.env.process(self._commit(inode), name=f"{self.name}.fsync")

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def submit(self, inode: Inode, req: IORequest) -> Event:
        if req.op == "write":
            return self.env.process(self._write(inode, req), name=f"{self.name}.write")
        return self.env.process(self._read(inode, req), name=f"{self.name}.read")

    def submit_direct(self, inode: Inode, req: IORequest) -> Event:
        """Uncached, synchronous access — how MPI-IO (ROMIO) drives NFS.

        ROMIO disables NFS client caching to get shared-file
        consistency, so every operation is a wire round trip:

        * dense requests still pipeline their ``rsize``/``wsize`` chunks
          inside one call (the data of a single large MPI write fills
          the slot table);
        * sparse requests serialise — each small strided operation pays
          a full RTT plus server service before the next can start,
          which is the behaviour behind the paper's NAS BT-IO *simple*
          results.
        """
        return self.env.process(self._direct(inode, req), name=f"{self.name}.direct")

    def absorb(self, inode: Inode, req: IORequest) -> int:
        """Apply a direct request's state side effects analytically.

        The MPI-IO path is uncached on the client, so the state that
        matters lives server-side: delegate to the export's
        :meth:`~repro.storage.localfs.LocalFS.absorb` (file growth,
        allocation, server cache residency) and account the wire bytes.
        Advances no simulated time.
        """
        total = self.server.export.absorb(inode, req)
        san = self.env.sanitizer
        if san is not None:
            san.account_fs(self, req.op, total)
        if req.op == "write":
            self.stats.bytes_sent += total
        else:
            self.stats.bytes_received += total
        return total

    def state_token(self, inode: Inode, req: IORequest) -> tuple:
        """Cache-regime fingerprint for the replay phase key.

        The MPI-IO direct path bypasses the client cache, so the state
        that governs a request's service time is the server export's
        — delegate to it (see
        :meth:`~repro.storage.localfs.LocalFS.state_token`).
        """
        return self.server.export.state_token(inode, req)

    def reset(self) -> None:
        """Drop client-cache and statistics state (warm reuse)."""
        self.cache.reset()
        self.stats = NFSStats()

    def _direct(self, inode: Inode, req: IORequest):
        spec = self.spec
        total = req.total_bytes
        san = self.env.sanitizer
        if san is not None:
            san.account_fs(self, req.op, total)
        yield self.env.timeout(
            req.count * spec.client_rpc_cpu_s + self.node.memcpy_time(total)
        )
        if req.op == "write":
            self.stats.bytes_sent += total
        else:
            self.stats.bytes_received += total

        if req.is_dense:
            chunk = spec.wsize if req.op == "write" else spec.rsize
            nrpc = max((total + chunk - 1) // chunk, 1)

            def server_window(w, idx):
                sub = IORequest(req.op, req.offset + idx * chunk, chunk, count=w)
                return self.server.export.submit(inode, sub)

            if req.op == "write":
                yield from self._stream(nrpc, chunk, 8, server_window)
                inode.size = max(inode.size, req.offset + req.span)
            else:
                yield from self._stream(nrpc, 8, chunk, server_window)
            return total

        # Sparse: strictly synchronous per-operation round trips.  With
        # no pipelining the total is the sum of the per-stage times, so
        # each stage is charged once in bulk.
        yield self.env.timeout(req.count * 2 * self.network.spec.latency_s)
        send_payload = req.nbytes if req.op == "write" else 8
        reply_payload = 8 if req.op == "write" else req.nbytes
        yield self.network.transfer(
            self.node.name,
            self.server.node.name,
            send_payload + spec.rpc_header_bytes,
            count=req.count,
        )
        if self.server.stalled:
            yield from self._retransmit_while_stalled(send_payload, req.count)
        if req.op == "write":
            backend = lambda: self.server.export.submit_serialized_write(
                inode, req, self.spec.server_small_op_s
            )
        else:
            backend = lambda: self.server.export.submit(inode, req)
        yield self.env.process(self.server.service(backend, rpc_count=req.count))
        yield self.network.transfer(
            self.server.node.name,
            self.node.name,
            reply_payload + spec.rpc_header_bytes,
            count=req.count,
        )
        self.stats.rpcs += req.count
        if req.op == "write":
            inode.size = max(inode.size, req.offset + req.span)
        return total

    # -- RPC plumbing -------------------------------------------------------
    def _retransmit_while_stalled(self, payload_bytes: int, count: int = 1):
        """Client-side RPC timeout handling against a stalled server.

        Called after a request hit the wire while the server is wedged
        (``server.stall_until``): wait ``timeo``, re-send the request
        bytes, back off exponentially; after ``retrans`` unanswered
        re-sends log a *major timeout* and start over (hard-mount
        semantics — bounded slowdown, never a hang).  The loop never
        sleeps past the stall window, so the reply path resumes as soon
        as the server does.

        Jitter (±10% of each backoff step) comes from the seeded
        ``env.rng`` streams installed by the fault injector; with no
        registry installed the backoff is exact — either way the run
        is deterministic for a fixed seed.
        """
        spec = self.spec
        stall_end = self.server.stall_until
        delay = spec.timeo_s
        attempt = 0
        rng = self.env.rng
        while self.env.now + delay < stall_end:
            yield self.env.timeout(delay)
            wire = (payload_bytes + spec.rpc_header_bytes) * count
            yield self.network.transfer(
                self.node.name,
                self.server.node.name,
                payload_bytes + spec.rpc_header_bytes,
                count=count,
            )
            self.stats.retransmits += count
            san = self.env.sanitizer
            if san is not None:
                san.note_retransmit(wire)
            attempt += 1
            if attempt >= spec.retrans:
                self.stats.major_timeouts += 1
                attempt = 0
                delay = spec.timeo_s
            else:
                delay *= 2.0
            if rng is not None:
                jitter = rng.stream(f"nfs.retrans.{self.name}").random()
                delay *= 0.9 + 0.2 * float(jitter)

    def _meta_rpc(self, backend_factory):
        yield self.env.timeout(self.spec.getattr_s + self.spec.client_rpc_cpu_s)
        yield self.network.transfer(
            self.node.name, self.server.node.name, self.spec.rpc_header_bytes
        )
        if self.server.stalled:
            yield from self._retransmit_while_stalled(0)
        result = yield self.env.process(self.server.service(backend_factory))
        yield self.network.transfer(
            self.server.node.name, self.node.name, self.spec.rpc_header_bytes
        )
        self.stats.rpcs += 1
        return result

    def _stream(self, count, send_bytes_per_rpc, reply_bytes_per_rpc, server_window_factory):
        """Pipelined RPC stream: windows of RPCs move over the network
        while the server digests earlier windows; fires when all replies
        are in."""
        window = max(self.spec.slot_table, count // 64)
        done: list[Event] = []
        sent = 0
        while sent < count:
            w = min(window, count - sent)
            yield self.network.transfer(
                self.node.name,
                self.server.node.name,
                send_bytes_per_rpc + self.spec.rpc_header_bytes,
                count=w,
            )
            if self.server.stalled:
                yield from self._retransmit_while_stalled(send_bytes_per_rpc, w)
            done.append(
                self.env.process(
                    self._server_window(w, sent, reply_bytes_per_rpc, server_window_factory)
                )
            )
            sent += w
        if done:
            yield self.env.all_of(done)
        self.stats.rpcs += count

    def _server_window(self, w, start_index, reply_bytes_per_rpc, server_window_factory):
        yield self.env.process(
            self.server.service(lambda: server_window_factory(w, start_index), rpc_count=w)
        )
        yield self.network.transfer(
            self.server.node.name,
            self.node.name,
            reply_bytes_per_rpc + self.spec.rpc_header_bytes,
            count=w,
        )

    # -- write ---------------------------------------------------------------
    def _write(self, inode: Inode, req: IORequest):
        spec = self.spec
        total = req.total_bytes
        yield self.env.timeout(
            req.count * spec.client_rpc_cpu_s + self.node.memcpy_time(total)
        )
        self.stats.bytes_sent += total

        if req.is_dense:
            # Absorb into the client cache; write-back flushes in wsize
            # chunks.  Evicted dirty victims flush synchronously.
            cache = self.cache
            first, nsegs, dirty, head, tail = cache.dense_run(req.offset, req.span)
            seg, end = first, first + nsegs
            force = False
            while seg < end:
                # absorb the throttle-free, flush-free prefix in one call
                done, victim = cache.insert(
                    inode.fileid, seg, end - seg, dirty, head if seg == first else None, tail,
                    throttle=True, force=force,
                )
                seg += done
                force = victim is None
                if victim is not None:
                    yield from self._push_runs([victim])
                elif seg < end and cache.need_throttle:
                    yield from self._flush_some(inode)
            inode_end = req.offset + req.span
            if inode_end > inode.size:
                inode.size = inode_end  # size pushed at next flush/commit
            return total
        # Sparse stream: one WRITE RPC per operation, pipelined.
        stride = req.effective_stride if req.stride != -1 else 7919 * 4096

        def server_window(w, idx):
            sub = IORequest(
                "write", req.offset + idx * stride, req.nbytes, count=w, stride=req.stride
            )
            return self.server.export.submit(inode, sub)

        yield from self._stream(req.count, req.nbytes, 8, server_window)
        end = req.offset + req.span
        inode.size = max(inode.size, end)
        return total

    def _flush_some(self, inode):
        """Drain roughly a quarter of the dirty set (throttling writers)."""
        yield from self._push_runs(self._throttle_batch())

    def _throttle_batch(self) -> list[Run]:
        return self.cache.dirty_runs(limit=max(self.cache.spec.nsegments // 4, 8))

    def _push_runs(self, runs: list[Run]):
        """Send dirty cache runs to the server as wsize-chunked streams."""
        sb = self.cache.spec.segment_bytes
        for fileid, first, nsegs, dirty in runs:
            inode = self._inode_by_id(fileid)
            run_bytes = nsegs * sb
            density = dirty / run_bytes
            if inode is None:
                self.cache.clean(fileid, first, nsegs)
                continue
            if density >= 0.5:
                nrpc = max(run_bytes // self.spec.wsize, 1)

                def server_window(w, idx, _inode=inode, _first=first):
                    sub = IORequest(
                        "write",
                        _first * sb + idx * self.spec.wsize,
                        self.spec.wsize,
                        count=w,
                    )
                    return self.server.export.submit(_inode, sub)

                yield from self._stream(nrpc, self.spec.wsize, 8, server_window)
            else:
                # sparsely dirty run: page-sized WRITE RPCs
                nb = 4 * KiB
                nrpc = max(dirty // nb, 1)
                scatter = max(run_bytes // nrpc, nb)

                def server_window(w, idx, _inode=inode, _first=first, _sc=scatter):
                    sub = IORequest(
                        "write", _first * sb + idx * _sc, nb, count=w, stride=_sc
                    )
                    return self.server.export.submit(_inode, sub)

                yield from self._stream(nrpc, nb, 8, server_window)
            self.cache.clean(fileid, first, nsegs)

    def _inode_by_id(self, fileid):
        return self.server.export._by_id.get(fileid)

    # -- read ----------------------------------------------------------------
    def _read(self, inode: Inode, req: IORequest):
        spec = self.spec
        total = req.total_bytes
        yield self.env.timeout(
            req.count * spec.client_rpc_cpu_s + self.node.memcpy_time(total)
        )
        self.stats.bytes_received += total

        if self.cache.file_fully_resident(inode.fileid, max(inode.size, 1)):
            span = min(req.span, max(inode.size - req.offset, 0))
            segs = self.cache.segments_of(req.offset, span)
            self.cache.touch(inode.fileid, segs.start, len(segs))
            return total
        if req.is_dense:
            yield from self._dense_read(inode, req)
            return total
        # Sparse cold reads: one READ RPC per op.
        stride = req.effective_stride if req.stride != -1 else 7919 * 4096

        def server_window(w, idx):
            sub = IORequest(
                "read", req.offset + idx * stride, req.nbytes, count=w, stride=req.stride
            )
            return self.server.export.submit(inode, sub)

        yield from self._stream(req.count, 8, req.nbytes, server_window)
        return total

    def _dense_read(self, inode: Inode, req: IORequest):
        span = min(req.span, max(inode.size - req.offset, 0))
        segs = self.cache.segments_of(req.offset, span)
        seg, end = segs.start, segs.stop
        while seg < end:
            miss, nmiss = self.cache.lookup(inode.fileid, seg, end - seg)
            if not nmiss:
                break
            seg = miss + nmiss + 1  # past the hit that ended the miss run
            yield from self._fetch(inode, miss, nmiss)

    def _fetch(self, inode: Inode, first: int, nsegs: int):
        """READ-RPC a run of segments from the server into the cache."""
        sb = self.cache.spec.segment_bytes
        run_bytes = min(nsegs * sb, max(inode.size - first * sb, sb))
        nrpc = max(run_bytes // self.spec.rsize, 1)

        def server_window(w, idx):
            sub = IORequest(
                "read", first * sb + idx * self.spec.rsize, self.spec.rsize, count=w
            )
            return self.server.export.submit(inode, sub)

        yield from self._stream(nrpc, 8, self.spec.rsize, server_window)
        s, end = first, first + nsegs
        force = False
        while s < end:
            done, victim = self.cache.insert(inode.fileid, s, end - s, force=force)
            s += done
            force = victim is None
            if victim is not None:
                yield from self._push_runs([victim])

    # -- consistency ----------------------------------------------------------
    def _close(self, inode: Inode):
        yield from self._commit(inode)
        yield self.env.timeout(self.spec.client_rpc_cpu_s)
        return inode

    def _commit(self, inode: Inode):
        runs = self.cache.dirty_runs(fileid=inode.fileid)
        if runs:
            yield from self._push_runs(runs)
        yield self.network.transfer(
            self.node.name, self.server.node.name, self.spec.rpc_header_bytes
        )
        if self.spec.commit_durable:
            yield self.env.process(
                self.server.service(lambda: self.server.export.fsync(inode))
            )
        else:
            yield self.env.process(self.server.service(lambda: None))
        yield self.network.transfer(
            self.server.node.name, self.node.name, self.spec.rpc_header_bytes
        )
        self.stats.commits += 1
        return None
