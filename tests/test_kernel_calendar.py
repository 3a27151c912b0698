"""The kernel's calendar, pinned, and its garbage, kept acyclic.

Kernel speed work must not move a single calendar entry: the tables,
clocks and counters the rest of the suite compares are downstream of
the ``(time, priority)`` pop stream, so this file pins the stream
itself — its length and a digest of every popped ``(time, priority)``
— for two runs that exercise the grant/release/rotation round trip:

* a quick jbod NFS characterization (IOzone through the NFS client,
  server, network and device: the bulk of cold characterization);
* a contended two-resource rotation: ``FastHold`` holders sharing a
  capacity-1 pivot behind two capacity-1 uplinks, so grants, quantum
  releases and re-acquires all queue.

The golden values were recorded before the grant path was rewritten
and must not change under a pure speed change.

The second half checks that the grant path leaves no reference cycles
behind: granted requests, finished holds, finished processes and fired
``all_of``/``any_of`` combinators must be freed by reference counting
alone, not by the cyclic garbage collector.
"""

from __future__ import annotations

import gc
import hashlib

import pytest

from repro import aohyper_config
from repro.clusters.builder import build_system
from repro.core.characterize import characterize_level
from repro.hardware.network import GIGABIT, Network
from repro.simengine import Environment
from repro.simengine import analytic as _analytic
from repro.simengine.bench import _BenchHold
from repro.simengine.core import AllOf, AnyOf, Process, Timeout
from repro.simengine.resources import FastHold, Request, Resource
from repro.simengine.schedule import PopRecorder, capture
from repro.storage.base import IORequest, KiB, MiB
from conftest import small_config


def _pop_stream(run) -> tuple[int, str]:
    """Run ``run()`` under a pop recorder; return ``(pops, digest)``."""
    rec = PopRecorder()
    with capture(rec):
        run()
    h = hashlib.sha256()
    for _env_idx, when, priority, _kind in rec.pops:
        h.update(f"{when!r}:{priority};".encode())
    return len(rec.pops), h.hexdigest()[:16]


def _nfs_characterization() -> None:
    characterize_level(
        aohyper_config("jbod"),
        "nfs",
        block_sizes=(32 * KiB, 256 * KiB, 2 * MiB),
        file_bytes=128 * MiB,
    )


def _two_resource_rotation() -> None:
    env = Environment()
    pivot = Resource(env, capacity=1)
    uplinks = [Resource(env, capacity=1), Resource(env, capacity=1)]
    for i in range(6):
        _BenchHold(env, [uplinks[i % 2], pivot], 0.093 + 0.031 * i, 0.020)

    def late(ev):
        _BenchHold(env, [uplinks[0], pivot], 0.047, 0.020)

    Timeout(env, 0.211).callbacks.append(late)
    env.run()


@pytest.fixture
def exact_kernel():
    saved = _analytic.ANALYTIC
    _analytic.ANALYTIC = False
    try:
        yield
    finally:
        _analytic.ANALYTIC = saved


@pytest.mark.parametrize(
    "run, golden",
    [
        (_nfs_characterization, (4764, "96246bb9f2cb7f6a")),
        (_two_resource_rotation, (187, "88c3a8d376bed1c2")),
    ],
    ids=["nfs_characterization", "two_resource_rotation"],
)
def test_calendar_pop_stream_pinned(exact_kernel, run, golden):
    assert _pop_stream(run) == golden


# ----------------------------------------------------------------------
# reference cycles
# ----------------------------------------------------------------------
def _shared_downlink_and_nfs_write() -> None:
    env = Environment()
    net = Network(env, ["a", "b", "c", "server"], GIGABIT)
    for i, src in enumerate(("a", "b", "c", "a")):
        # four transfers into one downlink: grants, quantum rotations
        # and re-acquires on a contended resource
        net.transfer(src, "server", 4 * MiB + i * 64 * KiB, order_key=i)
    env.run()
    system = build_system(Environment(), small_config("jbod"))
    vfs = system.node("n0").vfs

    def write():
        fh = yield vfs.create("/nfs/cycles")
        yield fh.fs.submit(fh.inode, IORequest("write", 0, 256 * KiB, count=16))
        yield fh.fsync()
        yield fh.close()

    system.env.run(system.env.process(write()))
    # drain the write-back still in flight: an environment abandoned
    # with pending entries is a cycle of its own (events <-> calendar)
    system.env.run()


def _combinators() -> None:
    env = Environment()

    def waiter():
        yield env.all_of([env.timeout(0.1), env.timeout(0.2)])
        # the slower child is still pending when any_of fires
        yield env.any_of([env.timeout(0.1), env.timeout(0.3)])

    env.run(env.process(waiter()))
    env.run()


def test_grant_path_leaves_no_reference_cycles(exact_kernel):
    was_enabled = gc.isenabled()
    saved_flags = gc.get_debug()
    gc.collect()
    n_before = len(gc.garbage)
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        _shared_downlink_and_nfs_write()
        _combinators()
        gc.collect()
        found = gc.garbage[n_before:]
        kinds = (Request, FastHold, AllOf, AnyOf, Process)
        leaked = sorted({type(o).__name__ for o in found if isinstance(o, kinds)})
    finally:
        gc.set_debug(saved_flags)
        del gc.garbage[n_before:]
        if was_enabled:
            gc.enable()
    assert leaked == []
