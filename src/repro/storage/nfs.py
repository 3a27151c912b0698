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

from ..simengine import Environment, Event, FlatOp, Resource, Timeout, Wake
from ..simengine import resources as _kernel
from ..hardware.network import Network
from ..hardware.node import Node
from .base import IORequest, KiB, MiB
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

    def service_op(self, work_event_factory, rpc_count: int = 1) -> Event:
        """Thread-pool service as an event (see :meth:`service`)."""
        if _kernel.FS_FAST:
            return _ServerService(self, work_event_factory, rpc_count).result
        return self.env.process(self.service(work_event_factory, rpc_count))

    def service(self, work_event_factory, rpc_count: int = 1):  # simlint: ignore[generator-serve]
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
        return self._meta_op(lambda: self.server.export.create(path))

    def open(self, path: str, create: bool = False) -> Event:
        if create and not self.server.export.exists(path):
            return self.create(path)
        return self._meta_op(lambda: self.server.export.open(path))

    def close(self, inode: Inode) -> Event:
        """Close-to-open consistency: flush dirty data, then COMMIT."""
        if _kernel.FS_FAST:
            return _FlatCommit(self, inode, close=True).result
        return self.env.process(self._close(inode), name=f"{self.name}.close")

    def unlink(self, path: str) -> Event:
        def _inval():
            if self.server.export.exists(path):
                self.cache.drop_file(self.server.export.stat(path).fileid)
            return self.server.export.unlink(path)

        return self._meta_op(_inval)

    def _meta_op(self, backend_factory) -> Event:
        if _kernel.FS_FAST:
            return _FlatMetaRpc(self, backend_factory).result
        return self.env.process(self._meta_rpc(backend_factory))

    def stat(self, path: str) -> Inode:
        return self.server.export.stat(path)

    def exists(self, path: str) -> bool:
        return self.server.export.exists(path)

    def fsync(self, inode: Inode) -> Event:
        if _kernel.FS_FAST:
            return _FlatCommit(self, inode, close=False).result
        return self.env.process(self._commit(inode), name=f"{self.name}.fsync")

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def submit(self, inode: Inode, req: IORequest) -> Event:
        if _kernel.FS_FAST:
            if req.op == "write":
                return _NFSWrite(self, inode, req).result
            return _NFSRead(self, inode, req).result
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
        if _kernel.FS_FAST:
            return _FlatDirect(self, inode, req).result
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

    def _direct(self, inode: Inode, req: IORequest):  # simlint: ignore[generator-serve]
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
    def _retransmit_while_stalled(self, payload_bytes: int, count: int = 1):  # simlint: ignore[generator-serve]
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

    def _meta_rpc(self, backend_factory):  # simlint: ignore[generator-serve]
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

    def _stream(self, count, send_bytes_per_rpc, reply_bytes_per_rpc, server_window_factory):  # simlint: ignore[generator-serve]
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

    def _server_window(self, w, start_index, reply_bytes_per_rpc, server_window_factory):  # simlint: ignore[generator-serve]
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
    def _write(self, inode: Inode, req: IORequest):  # simlint: ignore[generator-serve]
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

    def _flush_some(self, inode):  # simlint: ignore[generator-serve]
        """Drain roughly a quarter of the dirty set (throttling writers)."""
        yield from self._push_runs(self._throttle_batch())

    def _throttle_batch(self) -> list[Run]:
        return self.cache.dirty_runs(limit=max(self.cache.spec.nsegments // 4, 8))

    def _push_runs(self, runs: list[Run]):  # simlint: ignore[generator-serve]
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
    def _read(self, inode: Inode, req: IORequest):  # simlint: ignore[generator-serve]
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

    def _dense_read(self, inode: Inode, req: IORequest):  # simlint: ignore[generator-serve]
        span = min(req.span, max(inode.size - req.offset, 0))
        segs = self.cache.segments_of(req.offset, span)
        seg, end = segs.start, segs.stop
        while seg < end:
            miss, nmiss = self.cache.lookup(inode.fileid, seg, end - seg)
            if not nmiss:
                break
            seg = miss + nmiss + 1  # past the hit that ended the miss run
            yield from self._fetch(inode, miss, nmiss)

    def _fetch(self, inode: Inode, first: int, nsegs: int):  # simlint: ignore[generator-serve]
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
    def _close(self, inode: Inode):  # simlint: ignore[generator-serve]
        yield from self._commit(inode)
        yield self.env.timeout(self.spec.client_rpc_cpu_s)
        return inode

    def _commit(self, inode: Inode):  # simlint: ignore[generator-serve]
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


# ----------------------------------------------------------------------
# flat service paths (REPRO_NO_FSFAST falls back to the generators)
# ----------------------------------------------------------------------
class _ServerService(FlatOp):
    """Flat counterpart of :meth:`NFSServer.service`."""

    __slots__ = ("srv", "factory", "rpc_count", "_req")

    def __init__(self, srv, factory, rpc_count):
        self.srv = srv
        self.factory = factory
        self.rpc_count = rpc_count
        self._req = None
        super().__init__(srv.env)

    def _start(self, event):
        req = self._req = self.srv.threads.request()  # simlint: ignore[resource-release]
        self._await(req, self._thread)

    def _thread(self, _v):
        env = self.env
        srv = self.srv
        if env._now < srv.stall_until:
            self._await(Wake(env, srv.stall_until), self._unstalled)
        else:
            self._unstalled(None)

    def _unstalled(self, _v):
        self._await(
            Timeout(self.env, self.srv.spec.server_rpc_cpu_s * self.rpc_count),
            self._cpu_done,
        )

    def _cpu_done(self, _v):
        ev = self.factory()
        if ev is not None:
            self._await(ev, self._backend_done)
        else:
            self._backend_done(None)

    def _backend_done(self, value):
        self._release()
        self.srv.stats.rpcs += self.rpc_count
        self._finish(value)

    def _release(self):
        req = self._req
        if req is not None and req in self.srv.threads.users:
            self.srv.threads.release(req)

    def _cleanup(self):
        # the generator's ``finally``
        self._release()


class _FlatRetransmit:
    """Flat counterpart of :meth:`NFSMount._retransmit_while_stalled`."""

    __slots__ = ("m", "op", "payload", "count", "k", "delay", "attempt", "stall_end", "_wire")

    def __init__(self, m, op, payload_bytes, count, k):
        self.m = m
        self.op = op
        self.payload = payload_bytes
        self.count = count
        self.k = k
        self.stall_end = m.server.stall_until
        self.delay = m.spec.timeo_s
        self.attempt = 0
        self._tick()

    def _tick(self, _v=None):
        m = self.m
        if m.env._now + self.delay < self.stall_end:
            self.op._await(Timeout(m.env, self.delay), self._resend)
            return
        self.k()

    def _resend(self, _v):
        m = self.m
        spec = m.spec
        self._wire = (self.payload + spec.rpc_header_bytes) * self.count
        self.op._await(
            m.network.transfer(
                m.node.name,
                m.server.node.name,
                self.payload + spec.rpc_header_bytes,
                count=self.count,
            ),
            self._sent,
        )

    def _sent(self, _v):
        m = self.m
        spec = m.spec
        m.stats.retransmits += self.count
        san = m.env.sanitizer
        if san is not None:
            san.note_retransmit(self._wire)
        self.attempt += 1
        if self.attempt >= spec.retrans:
            m.stats.major_timeouts += 1
            self.attempt = 0
            self.delay = spec.timeo_s
        else:
            self.delay *= 2.0
        rng = m.env.rng
        if rng is not None:
            jitter = rng.stream(f"nfs.retrans.{m.name}").random()
            self.delay *= 0.9 + 0.2 * float(jitter)
        self._tick()


class _FlatServerWindow(FlatOp):
    """Flat counterpart of :meth:`NFSMount._server_window`."""

    __slots__ = ("m", "w", "start_index", "reply_b", "factory")

    def __init__(self, m, w, start_index, reply_b, factory):
        self.m = m
        self.w = w
        self.start_index = start_index
        self.reply_b = reply_b
        self.factory = factory
        super().__init__(m.env)

    def _start(self, event):
        m = self.m
        self._await(
            _ServerService(
                m.server, lambda: self.factory(self.w, self.start_index), self.w
            ).result,
            self._served,
        )

    def _served(self, _v):
        m = self.m
        self._await(
            m.network.transfer(
                m.server.node.name,
                m.node.name,
                self.reply_b + m.spec.rpc_header_bytes,
                count=self.w,
            ),
            self._replied,
        )

    def _replied(self, _v):
        self._finish(None)


class _FlatStream:
    """Flat counterpart of :meth:`NFSMount._stream`."""

    __slots__ = ("m", "op", "count", "send_b", "reply_b", "factory", "k", "window", "sent", "done", "_w")

    def __init__(self, m, op, count, send_b, reply_b, factory, k):
        self.m = m
        self.op = op
        self.count = count
        self.send_b = send_b
        self.reply_b = reply_b
        self.factory = factory
        self.k = k
        self.window = max(m.spec.slot_table, count // 64)
        self.sent = 0
        self.done = []
        self._send_next()

    def _send_next(self, _v=None):
        m = self.m
        if self.sent < self.count:
            w = self._w = min(self.window, self.count - self.sent)
            self.op._await(
                m.network.transfer(
                    m.node.name,
                    m.server.node.name,
                    self.send_b + m.spec.rpc_header_bytes,
                    count=w,
                ),
                self._sent_window,
            )
            return
        if self.done:
            self.op._await(m.env.all_of(self.done), self._all_done)
            return
        m.stats.rpcs += self.count
        self.k()

    def _sent_window(self, _v):
        m = self.m
        if m.server.stalled:
            _FlatRetransmit(m, self.op, self.send_b, self._w, self._spawn_window)
            return
        self._spawn_window()

    def _spawn_window(self, _v=None):
        w = self._w
        self.done.append(
            _FlatServerWindow(self.m, w, self.sent, self.reply_b, self.factory).result
        )
        self.sent += w
        self._send_next()

    def _all_done(self, _v):
        self.m.stats.rpcs += self.count
        self.k()


class _FlatPush:
    """Flat counterpart of :meth:`NFSMount._push_runs`."""

    __slots__ = ("m", "op", "runs", "i", "k")

    def __init__(self, m, op, runs, k):
        self.m = m
        self.op = op
        self.runs = runs
        self.i = 0
        self.k = k
        self._next()

    def _next(self, _v=None):
        m = self.m
        sb = m.cache.spec.segment_bytes
        runs = self.runs
        while self.i < len(runs):
            fileid, first, nsegs, dirty = runs[self.i]
            inode = m._inode_by_id(fileid)
            run_bytes = nsegs * sb
            density = dirty / run_bytes
            if inode is None:
                m.cache.clean(fileid, first, nsegs)
                self.i += 1
                continue
            if density >= 0.5:
                nrpc = max(run_bytes // m.spec.wsize, 1)

                def server_window(w, idx, _m=m, _inode=inode, _first=first, _sb=sb):
                    sub = IORequest(
                        "write",
                        _first * _sb + idx * _m.spec.wsize,
                        _m.spec.wsize,
                        count=w,
                    )
                    return _m.server.export.submit(_inode, sub)

                _FlatStream(m, self.op, nrpc, m.spec.wsize, 8, server_window, self._streamed)
            else:
                # sparsely dirty run: page-sized WRITE RPCs
                nb = 4 * KiB
                nrpc = max(dirty // nb, 1)
                scatter = max(run_bytes // nrpc, nb)

                def server_window(w, idx, _m=m, _inode=inode, _first=first, _sc=scatter, _sb=sb, _nb=nb):
                    sub = IORequest(
                        "write", _first * _sb + idx * _sc, _nb, count=w, stride=_sc
                    )
                    return _m.server.export.submit(_inode, sub)

                _FlatStream(m, self.op, nrpc, nb, 8, server_window, self._streamed)
            return
        self.k()

    def _streamed(self, _v=None):
        m = self.m
        fileid, first, nsegs, _d = self.runs[self.i]
        m.cache.clean(fileid, first, nsegs)
        self.i += 1
        self._next()


class _FlatFetch:
    """Flat counterpart of :meth:`NFSMount._fetch`."""

    __slots__ = ("m", "op", "inode", "s", "end", "force", "k")

    def __init__(self, m, op, inode, first, nsegs, k):
        self.m = m
        self.op = op
        self.inode = inode
        self.s = first
        self.end = first + nsegs
        self.force = False
        self.k = k
        sb = m.cache.spec.segment_bytes
        run_bytes = min(nsegs * sb, max(inode.size - first * sb, sb))
        nrpc = max(run_bytes // m.spec.rsize, 1)

        def server_window(w, idx, _m=m, _inode=inode, _first=first, _sb=sb):
            sub = IORequest(
                "read", _first * _sb + idx * _m.spec.rsize, _m.spec.rsize, count=w
            )
            return _m.server.export.submit(_inode, sub)

        _FlatStream(m, op, nrpc, 8, m.spec.rsize, server_window, self._insert_loop)

    def _insert_loop(self, _v=None):
        cache = self.m.cache
        fileid = self.inode.fileid
        while self.s < self.end:
            done, victim = cache.insert(fileid, self.s, self.end - self.s, force=self.force)
            self.s += done
            self.force = victim is None
            if victim is not None:
                _FlatPush(self.m, self.op, [victim], self._insert_loop)
                return
        self.k()


class _FlatDirect(FlatOp):
    """Flat counterpart of :meth:`NFSMount._direct`."""

    __slots__ = ("m", "inode", "req", "total")

    def __init__(self, m, inode, req):
        self.m = m
        self.inode = inode
        self.req = req
        super().__init__(m.env)

    def _start(self, event):
        m = self.m
        req = self.req
        total = self.total = req.total_bytes
        san = self.env.sanitizer
        if san is not None:
            san.account_fs(m, req.op, total)
        self._await(
            Timeout(
                self.env,
                req.count * m.spec.client_rpc_cpu_s + m.node.memcpy_time(total),
            ),
            self._after_cpu,
        )

    def _after_cpu(self, _v):
        m = self.m
        req = self.req
        spec = m.spec
        total = self.total
        if req.op == "write":
            m.stats.bytes_sent += total
        else:
            m.stats.bytes_received += total

        if req.is_dense:
            chunk = spec.wsize if req.op == "write" else spec.rsize
            nrpc = max((total + chunk - 1) // chunk, 1)
            inode = self.inode

            def server_window(w, idx, _m=m, _req=req, _chunk=chunk, _inode=inode):
                sub = IORequest(_req.op, _req.offset + idx * _chunk, _chunk, count=w)
                return _m.server.export.submit(_inode, sub)

            if req.op == "write":
                _FlatStream(m, self, nrpc, chunk, 8, server_window, self._dense_done)
            else:
                _FlatStream(m, self, nrpc, 8, chunk, server_window, self._dense_done)
            return
        # Sparse: strictly synchronous per-operation round trips.
        self._await(
            Timeout(self.env, req.count * 2 * m.network.spec.latency_s),
            self._after_latency,
        )

    def _dense_done(self, _v=None):
        req = self.req
        if req.op == "write":
            inode = self.inode
            inode.size = max(inode.size, req.offset + req.span)
        self._finish(self.total)

    def _after_latency(self, _v):
        m = self.m
        req = self.req
        send_payload = req.nbytes if req.op == "write" else 8
        self._await(
            m.network.transfer(
                m.node.name,
                m.server.node.name,
                send_payload + m.spec.rpc_header_bytes,
                count=req.count,
            ),
            self._after_send,
        )

    def _after_send(self, _v):
        m = self.m
        req = self.req
        if m.server.stalled:
            send_payload = req.nbytes if req.op == "write" else 8
            _FlatRetransmit(m, self, send_payload, req.count, self._service)
            return
        self._service()

    def _service(self, _v=None):
        m = self.m
        req = self.req
        inode = self.inode
        if req.op == "write":
            backend = lambda: m.server.export.submit_serialized_write(
                inode, req, m.spec.server_small_op_s
            )
        else:
            backend = lambda: m.server.export.submit(inode, req)
        self._await(m.server.service_op(backend, rpc_count=req.count), self._after_service)

    def _after_service(self, _v):
        m = self.m
        req = self.req
        reply_payload = 8 if req.op == "write" else req.nbytes
        self._await(
            m.network.transfer(
                m.server.node.name,
                m.node.name,
                reply_payload + m.spec.rpc_header_bytes,
                count=req.count,
            ),
            self._after_reply,
        )

    def _after_reply(self, _v):
        m = self.m
        req = self.req
        m.stats.rpcs += req.count
        if req.op == "write":
            inode = self.inode
            inode.size = max(inode.size, req.offset + req.span)
        self._finish(self.total)


class _FlatMetaRpc(FlatOp):
    """Flat counterpart of :meth:`NFSMount._meta_rpc`."""

    __slots__ = ("m", "factory", "_result")

    def __init__(self, m, factory):
        self.m = m
        self.factory = factory
        self._result = None
        super().__init__(m.env)

    def _start(self, event):
        m = self.m
        self._await(
            Timeout(self.env, m.spec.getattr_s + m.spec.client_rpc_cpu_s),
            self._after_cpu,
        )

    def _after_cpu(self, _v):
        m = self.m
        self._await(
            m.network.transfer(m.node.name, m.server.node.name, m.spec.rpc_header_bytes),
            self._after_send,
        )

    def _after_send(self, _v):
        m = self.m
        if m.server.stalled:
            _FlatRetransmit(m, self, 0, 1, self._service)
            return
        self._service()

    def _service(self, _v=None):
        m = self.m
        self._await(m.server.service_op(self.factory), self._after_service)

    def _after_service(self, result):
        m = self.m
        self._result = result
        self._await(
            m.network.transfer(m.server.node.name, m.node.name, m.spec.rpc_header_bytes),
            self._after_reply,
        )

    def _after_reply(self, _v):
        self.m.stats.rpcs += 1
        self._finish(self._result)


class _NFSWrite(FlatOp):
    """Flat counterpart of :meth:`NFSMount._write`."""

    __slots__ = ("m", "inode", "req", "total", "_run", "_seg", "_force")

    def __init__(self, m, inode, req):
        self.m = m
        self.inode = inode
        self.req = req
        super().__init__(m.env)

    def _start(self, event):
        m = self.m
        req = self.req
        total = self.total = req.total_bytes
        self._await(
            Timeout(
                self.env,
                req.count * m.spec.client_rpc_cpu_s + m.node.memcpy_time(total),
            ),
            self._after_cpu,
        )

    def _after_cpu(self, _v):
        m = self.m
        req = self.req
        m.stats.bytes_sent += self.total
        if req.is_dense:
            self._run = m.cache.dense_run(req.offset, req.span)
            self._seg = self._run[0]
            self._force = False
            self._seg_loop()
            return
        # Sparse stream: one WRITE RPC per operation, pipelined.
        stride = req.effective_stride if req.stride != -1 else 7919 * 4096
        inode = self.inode

        def server_window(w, idx, _m=m, _req=req, _stride=stride, _inode=inode):
            sub = IORequest(
                "write", _req.offset + idx * _stride, _req.nbytes, count=w, stride=_req.stride
            )
            return _m.server.export.submit(_inode, sub)

        _FlatStream(m, self, req.count, req.nbytes, 8, server_window, self._sparse_done)

    def _sparse_done(self, _v=None):
        req = self.req
        inode = self.inode
        inode.size = max(inode.size, req.offset + req.span)
        self._finish(self.total)

    def _seg_loop(self, _v=None):
        m = self.m
        cache = m.cache
        fileid = self.inode.fileid
        first, nsegs, dirty, head, tail = self._run
        end = first + nsegs
        while self._seg < end:
            # absorb the throttle-free, flush-free prefix in one call
            seg = self._seg
            done, victim = cache.insert(
                fileid, seg, end - seg, dirty, head if seg == first else None, tail,
                throttle=True, force=self._force,
            )
            self._seg = seg = seg + done
            self._force = victim is None
            if victim is not None:
                _FlatPush(m, self, [victim], self._seg_loop)
                return
            if seg < end and cache.need_throttle:
                _FlatPush(m, self, m._throttle_batch(), self._seg_loop)
                return
        inode = self.inode
        inode_end = self.req.offset + self.req.span
        if inode_end > inode.size:
            inode.size = inode_end  # size pushed at next flush/commit
        self._finish(self.total)


class _NFSRead(FlatOp):
    """Flat counterpart of :meth:`NFSMount._read` (incl. ``_dense_read``)."""

    __slots__ = ("m", "inode", "req", "total", "_seg", "_end")

    def __init__(self, m, inode, req):
        self.m = m
        self.inode = inode
        self.req = req
        super().__init__(m.env)

    def _start(self, event):
        m = self.m
        req = self.req
        total = self.total = req.total_bytes
        self._await(
            Timeout(
                self.env,
                req.count * m.spec.client_rpc_cpu_s + m.node.memcpy_time(total),
            ),
            self._after_cpu,
        )

    def _after_cpu(self, _v):
        m = self.m
        req = self.req
        inode = self.inode
        m.stats.bytes_received += self.total

        if m.cache.file_fully_resident(inode.fileid, max(inode.size, 1)):
            span = min(req.span, max(inode.size - req.offset, 0))
            segs = m.cache.segments_of(req.offset, span)
            m.cache.touch(inode.fileid, segs.start, len(segs))
            self._finish(self.total)
            return
        if req.is_dense:
            span = min(req.span, max(inode.size - req.offset, 0))
            segs = m.cache.segments_of(req.offset, span)
            self._seg, self._end = segs.start, segs.stop
            self._scan()
            return
        # Sparse cold reads: one READ RPC per op.
        stride = req.effective_stride if req.stride != -1 else 7919 * 4096

        def server_window(w, idx, _m=m, _req=req, _stride=stride, _inode=inode):
            sub = IORequest(
                "read", _req.offset + idx * _stride, _req.nbytes, count=w, stride=_req.stride
            )
            return _m.server.export.submit(_inode, sub)

        _FlatStream(m, self, req.count, 8, req.nbytes, server_window, self._sparse_done)

    def _sparse_done(self, _v=None):
        self._finish(self.total)

    def _scan(self, _v=None):
        m = self.m
        inode = self.inode
        end = self._end
        while self._seg < end:
            miss, nmiss = m.cache.lookup(inode.fileid, self._seg, end - self._seg)
            if not nmiss:
                break
            self._seg = miss + nmiss + 1  # past the hit that ended the miss run
            _FlatFetch(m, self, inode, miss, nmiss, self._scan)
            return
        self._finish(self.total)


class _FlatCommit(FlatOp):
    """Flat counterpart of :meth:`NFSMount._commit` / ``_close``."""

    __slots__ = ("m", "inode", "close")

    def __init__(self, m, inode, close):
        self.m = m
        self.inode = inode
        self.close = close
        super().__init__(m.env)

    def _start(self, event):
        m = self.m
        runs = m.cache.dirty_runs(fileid=self.inode.fileid)
        if runs:
            _FlatPush(m, self, runs, self._pushed)
            return
        self._pushed()

    def _pushed(self, _v=None):
        m = self.m
        self._await(
            m.network.transfer(m.node.name, m.server.node.name, m.spec.rpc_header_bytes),
            self._sent,
        )

    def _sent(self, _v):
        m = self.m
        inode = self.inode
        if m.spec.commit_durable:
            factory = lambda: m.server.export.fsync(inode)
        else:
            factory = lambda: None
        self._await(m.server.service_op(factory), self._served)

    def _served(self, _v):
        m = self.m
        self._await(
            m.network.transfer(m.server.node.name, m.node.name, m.spec.rpc_header_bytes),
            self._replied,
        )

    def _replied(self, _v):
        m = self.m
        m.stats.commits += 1
        if self.close:
            self._await(Timeout(self.env, m.spec.client_rpc_cpu_s), self._closed)
            return
        self._finish(None)

    def _closed(self, _v):
        self._finish(self.inode)
