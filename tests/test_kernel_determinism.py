"""Kernel determinism suite: every speed path is bit-identical.

The simengine optimizations all promise *bit-identical* results — the
FastHold state machines, the coalesced-wake quantum path, the analytic
slice rings and the vectorized disk scatter each claim to insert the
same calendar entries (or compute the same floats) as the code they
replace.  This suite holds them to it by byte-comparing performance
tables, completion clocks and final system state across the kernel
modes:

* ``baseline`` — all optimizations on (the shipped default);
* ``no_fasthold`` — ``REPRO_NO_FASTHOLD``: generator serve paths;
* ``no_coalesce`` — ``REPRO_NO_FASTPATH``: one wake per quantum;
* ``analytic`` — ``REPRO_ANALYTIC``: slice rings + numpy scatter.

Coverage: the Aohyper characterization tables (iolib/localfs/nfs) for
jbod, raid1 and raid5; all eight iozone workloads plus IOR and BT-IO,
where the iozone and BT-IO runs also compare every file's final size
and every filesystem, NFS, page-cache, disk and link counter (a wrong
``inode.size`` leaves rates and clocks unchanged, so those alone
cannot see it);
synthetic slice-ring scenarios (plain rotation, a mid-window arrival
that forces a dissolve, pivot at a non-zero member index, and
idle-suffix members) that pin the ring adoption machinery directly;
and synthetic coupled-ring scenarios (two uplinks feeding one pivot,
with mid-window foreign arrivals on either level) that pin the
two-level adoption the same way.
"""

from __future__ import annotations

import contextlib
import functools
import random

import pytest

from repro import aohyper_config, characterize_system
from repro.clusters.builder import build_system
from repro.hardware.disk import Disk, DiskSpec, READ, WRITE
from repro.obs.metrics import MetricsRegistry
from repro.simengine import Environment
from repro.simengine import analytic as _analytic
from repro.simengine import resources as _kernel
from repro.simengine.bench import _BenchHold
from repro.simengine.core import Timeout
from repro.simengine.resources import Resource
from repro.storage.base import KiB, MiB
from repro.workloads import run_ior, run_iozone
from repro.workloads.btio import BTIOConfig, run_btio
from conftest import small_config

DEVICES = ("jbod", "raid1", "raid5")
ALT_MODES = ("no_fasthold", "no_coalesce", "analytic")


@contextlib.contextmanager
def kernel_mode(mode: str):
    """Flip the kernel escape hatches for one run, then restore them."""
    saved = (
        _kernel.FAST_HOLD,
        _kernel.QUANTUM_COALESCE,
        _analytic.ANALYTIC,
    )
    try:
        _kernel.FAST_HOLD = mode != "no_fasthold"
        _kernel.QUANTUM_COALESCE = mode != "no_coalesce"
        _analytic.ANALYTIC = mode == "analytic"
        yield
    finally:
        (
            _kernel.FAST_HOLD,
            _kernel.QUANTUM_COALESCE,
            _analytic.ANALYTIC,
        ) = saved


# ----------------------------------------------------------------------
# characterization tables: jbod / raid1 / raid5 in quick mode
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _characterize_csv(device: str, mode: str) -> str:
    with kernel_mode(mode):
        tables = characterize_system(
            aohyper_config(device),
            block_sizes=(256 * KiB, 1 * MiB),
            file_bytes=8 * MiB,
            ior_nprocs=4,
            ior_file_bytes=64 * MiB,
        )
    return "\n".join(
        f"# {level}\n{tables[level].to_csv()}" for level in sorted(tables)
    )


@pytest.mark.parametrize("mode", ALT_MODES)
@pytest.mark.parametrize("device", DEVICES)
def test_characterization_tables_bit_identical(device, mode):
    reference = _characterize_csv(device, "baseline")
    assert "rate" in reference.lower() or reference  # non-empty tables
    assert _characterize_csv(device, mode) == reference


# ----------------------------------------------------------------------
# the eight iozone workloads + IOR + BT-IO across kernel modes
# ----------------------------------------------------------------------
def _track_file_sizes(system) -> list:
    """Record ``(fs, path, size)`` of every file as it is unlinked;
    :func:`_final_state` adds the files still present at the end."""
    sizes: list = []
    for fs in (system.export, *system.local_fs.values()):
        unlink = fs.unlink

        def spy(path, fs=fs, unlink=unlink):
            if fs.exists(path):
                sizes.append((fs.name, path, fs.stat(path).size))
            return unlink(path)

        fs.unlink = spy
    return sizes


def _final_state(system, unlinked: list):
    """File sizes plus every fs/NFS/page-cache/device counter."""
    sizes = list(unlinked)
    for fs in (system.export, *system.local_fs.values()):
        sizes.extend((fs.name, path, fs.stat(path).size) for path in sorted(fs.paths()))
    return sizes, MetricsRegistry(system).snapshot().values


def _iozone_run(device: str, mode: str):
    with kernel_mode(mode):
        system = build_system(Environment(), small_config(device))
        unlinked = _track_file_sizes(system)
        res = run_iozone(
            system, "n0", "/local/z", file_bytes=16 * MiB,
            block_sizes=(256 * KiB,), include_strided=True, include_random=True,
        )
    rows = [(r.test, r.rate_Bps) for r in res.rows]
    return rows, _final_state(system, unlinked)


@pytest.mark.parametrize("mode", ALT_MODES)
@pytest.mark.parametrize("device", DEVICES)
def test_iozone_eight_workloads_bit_identical(device, mode):
    reference = _iozone_run(device, "baseline")
    rows, (sizes, counters) = reference
    assert len({test for test, _ in rows}) == 8
    assert [(path, size) for _fs, path, size in sizes] == [("/local/z", 16 * MiB)]
    assert counters
    assert _iozone_run(device, mode) == reference


def _ior_rows(device: str, mode: str):
    with kernel_mode(mode):
        system = build_system(Environment(), small_config(device, n_compute=2))
        res = run_ior(system, 4, block_sizes=(1 * MiB,), file_bytes=8 * MiB)
    return [(r.op, r.aggregate_rate_Bps, r.elapsed_s) for r in res.rows]


@pytest.mark.parametrize("mode", ALT_MODES)
@pytest.mark.parametrize("device", DEVICES)
def test_ior_bit_identical(device, mode):
    assert _ior_rows(device, mode) == _ior_rows(device, "baseline")


def _btio_run(device: str, mode: str):
    with kernel_mode(mode):
        system = build_system(Environment(), small_config(device, n_compute=2))
        unlinked = _track_file_sizes(system)
        res = run_btio(
            system, BTIOConfig(clazz="S", nprocs=4, subtype="full", path="/nfs/bt")
        )
    times = (res.execution_time, res.io_time, res.write_time, res.read_time)
    return times, _final_state(system, unlinked)


@pytest.mark.parametrize("mode", ALT_MODES)
def test_btio_bit_identical(mode):
    reference = _btio_run("jbod", "baseline")
    _times, (sizes, _counters) = reference
    assert sizes and all(size > 0 for _fs, _path, size in sizes)
    assert _btio_run("jbod", mode) == reference


# ----------------------------------------------------------------------
# synthetic slice-ring scenarios: ring adoption pinned directly
# ----------------------------------------------------------------------
def _build_plain_rotation(env, times):
    """Four holders time-slicing one resource: the canonical ring."""
    res = Resource(env, capacity=1)
    for i in range(4):
        h = _BenchHold(env, [res], 6 * 0.020 + 0.007, 0.020)
        h.result.callbacks.append(lambda ev, i=i: times.append((i, env.now)))


def _build_late_arrival(env, times):
    """A fifth holder arrives mid-window: the ring must dissolve and
    materialize exact FIFO state before the newcomer's request lands."""
    res = Resource(env, capacity=1)
    for i in range(3):
        h = _BenchHold(env, [res], 0.127, 0.020)
        h.result.callbacks.append(lambda ev, i=i: times.append((i, env.now)))

    def late(ev):
        h = _BenchHold(env, [res], 0.053, 0.020)
        h.result.callbacks.append(lambda ev: times.append(("late", env.now)))

    Timeout(env, 0.171).callbacks.append(late)


def _build_prefix_pivot(env, times):
    """Contended resource at member index 1: a held, uncontended prefix
    (capacity 8, never queues) precedes the pivot.  Totals are staggered
    so the post-completion grants (where no rotated-out holder is mid
    re-acquisition) see multi-quantum steady windows and adopt rings."""
    pre = Resource(env, capacity=8)
    piv = Resource(env, capacity=1)
    for i in range(4):
        h = _BenchHold(env, [pre, piv], 0.107 + 0.060 * i, 0.020)
        h.result.callbacks.append(lambda ev, i=i: times.append((i, env.now)))


def _build_idle_suffix(env, times):
    """Pivot at index 0 with a private suffix resource per member —
    queued members sit with the suffix released, so it must be idle."""
    piv = Resource(env, capacity=1)
    for i in range(4):
        suf = Resource(env, capacity=1)
        h = _BenchHold(env, [piv, suf], 0.087, 0.020)
        h.result.callbacks.append(lambda ev, i=i: times.append((i, env.now)))


_RING_SCENARIOS = {
    "plain_rotation": _build_plain_rotation,
    "late_arrival": _build_late_arrival,
    "prefix_pivot": _build_prefix_pivot,
    "idle_suffix": _build_idle_suffix,
}


def _run_ring(builder, mode: str):
    times: list = []
    with kernel_mode(mode):
        env = Environment()
        builder(env, times)
        env.run()
    return times, env._seq


@pytest.mark.parametrize("name", sorted(_RING_SCENARIOS))
def test_ring_scenarios_match_exact(name):
    builder = _RING_SCENARIOS[name]
    ref_times, ref_seq = _run_ring(builder, "baseline")
    assert ref_times, "scenario completed no holders"
    for mode in ("no_coalesce", "analytic"):
        times, seq = _run_ring(builder, mode)
        assert times == ref_times, f"{name}: {mode} diverged from exact DES"
        if mode == "analytic":
            # the ring must actually have formed: analytic runs replace
            # per-quantum calendar entries with one wake per window
            assert seq < ref_seq, f"{name}: analytic mode never adopted a ring"


# ----------------------------------------------------------------------
# synthetic coupled-ring scenarios: two uplinks feeding one pivot
# ----------------------------------------------------------------------
def _build_coupled(env, times, foreign_at=None, foreign_level=None):
    """Four holders on two capacity-1 uplinks all holding one shared
    pivot: the two-level rotation (client uplink x server downlink)
    that defeats the single-pivot criterion.  Starts are staggered so
    the steady window forms mid-rotation; an optional foreign holder
    arrives mid-window on either level and must dissolve the ring."""
    pivot = Resource(env, capacity=1)
    up_a = Resource(env, capacity=1)
    up_c = Resource(env, capacity=1)

    def start(name, res_list, total, at):
        def go(ev):
            h = _BenchHold(env, res_list, total, 0.020)
            h.result.callbacks.append(lambda e, n=name: times.append((n, env.now)))

        if at == 0.0:
            go(None)
        else:
            Timeout(env, at).callbacks.append(go)

    start("A", [up_a, pivot], 0.500, 0.0)
    start("C", [up_c, pivot], 0.450, 0.001)
    start("B", [up_a, pivot], 0.300, 0.002)
    start("D", [up_c, pivot], 0.350, 0.003)
    if foreign_at is not None:
        level = {"pivot": pivot, "uplink_a": up_a, "uplink_c": up_c}[foreign_level]

        def foreign(ev):
            h = _BenchHold(env, [level], 0.040, 0.020)
            h.result.callbacks.append(lambda e: times.append(("foreign", env.now)))

        Timeout(env, foreign_at).callbacks.append(foreign)


_COUPLED_SCENARIOS = {
    "coupled_plain": {},
    "coupled_foreign_pivot": dict(foreign_at=0.137, foreign_level="pivot"),
    "coupled_foreign_uplink_a": dict(foreign_at=0.211, foreign_level="uplink_a"),
    "coupled_foreign_uplink_c": dict(foreign_at=0.093, foreign_level="uplink_c"),
}


def _run_coupled(kwargs, mode: str):
    times: list = []
    with kernel_mode(mode):
        env = Environment()
        _build_coupled(env, times, **kwargs)
        env.run()
    return times, env._seq


@pytest.mark.parametrize("name", sorted(_COUPLED_SCENARIOS))
def test_coupled_ring_scenarios_match_exact(name):
    kwargs = _COUPLED_SCENARIOS[name]
    ref_times, ref_seq = _run_coupled(kwargs, "baseline")
    assert len(ref_times) >= 4, "scenario completed too few holders"
    times, seq = _run_coupled(kwargs, "analytic")
    assert times == ref_times, f"{name}: analytic diverged from exact DES"
    # the coupled ring must actually collapse the calendar: the whole
    # point of the two-level adoption is one wake per window instead of
    # one entry per quantum per member
    assert seq < ref_seq, f"{name}: analytic mode never adopted a coupled ring"


# ----------------------------------------------------------------------
# vectorized disk scatter: scalar loop vs numpy, bit-identical
# ----------------------------------------------------------------------
def test_scatter_vectorization_bit_identical():
    pytest.importorskip("numpy")
    rng = random.Random(7)
    spec = DiskSpec()
    vec_cases = 0
    for trial in range(400):
        env = Environment()
        d1 = Disk(env, DiskSpec())
        d2 = Disk(env, DiskSpec())
        # random prior state: cold, sequential head, or a read that
        # leaves a readahead window behind
        pre = rng.choice(["none", "seq", "read"])
        if pre == "seq":
            hp = rng.randrange(0, 10**9)
            d1._head_pos = hp
            d2._head_pos = hp
        elif pre == "read":
            off0 = rng.randrange(0, 10**9)
            nb0 = rng.choice([4096, 65536, 1 << 20])
            with kernel_mode("baseline"):
                d1.service_time(READ, off0, nb0)
                d2.service_time(READ, off0, nb0)
        op = rng.choice([READ, WRITE])
        nbytes = rng.choice([0, 512, 4096, 32768, 65536, 262144, 1 << 20])
        count = rng.randrange(9, 200)
        stride = nbytes + rng.choice(
            [1, 512, 4096, 100_000, 2 * (1 << 20), 127 * max(nbytes, 65536)]
        )
        offset = rng.randrange(0, 10**9)
        if offset + stride * (count - 1) + nbytes > spec.capacity_bytes:
            continue
        vec_cases += 1
        with kernel_mode("baseline"):
            t_scalar = d1.service_time(op, offset, nbytes, count, stride)
        with kernel_mode("analytic"):
            t_vector = d2.service_time(op, offset, nbytes, count, stride)
        assert t_scalar == t_vector, (trial, op, offset, nbytes, count, stride)
        assert d1._head_pos == d2._head_pos
        assert (d1._ra_start, d1._ra_end) == (d2._ra_start, d2._ra_end)
        assert d1.stats.seeks == d2.stats.seeks
        assert d1.stats.readahead_hits == d2.stats.readahead_hits
    assert vec_cases > 200, "random parameters barely hit the vector path"
