"""Kernel microbenchmarks: raw event throughput of the DES core.

Synthetic scenarios exercising the calendar and resource machinery in
isolation — no cluster model, no filesystems — so a regression in the
kernel hot path (heap handling, event dispatch, the FastHold rotation,
analytic ring adoption) shows up directly as events/second instead of
being diluted by model code.  ``repro perf`` runs these and emits the
results as ``BENCH_kernel.json`` for ``scripts/perf_guard.py`` to gate.

Scenario mix:

* ``timeout_chain`` — one callback re-arming a ``Timeout`` back to
  back: pure calendar push/pop/dispatch cost.
* ``request_release`` — tight acquire/release cycles on a contended
  FIFO :class:`Resource`: grant/queue bookkeeping.
* ``contended_rotation`` — several ``FastHold`` holders time-slicing
  one capacity-1 resource: the quantum round-robin that dominates
  contended cluster runs (and the adoption surface of the analytic
  slice rings when ``REPRO_ANALYTIC=1``).
* ``uncontended_hold`` — many holders each alone on a private
  resource: the coalesced-wake path (one entry per hold instead of
  one per quantum).
* ``coupled_rotation`` — holders split over two capacity-1 uplinks
  all contending for one shared pivot: the two-level rotation the
  coupled analytic rings collapse (``REPRO_ANALYTIC=1``).
* ``fs_serve`` — a stream of cached reads/writes through a real
  :class:`~repro.storage.localfs.LocalFS`: its generator service
  path driving the page cache (the one scenario that touches model
  code, because the local-FS serve cost is what it gates).

Each scenario reports wall seconds, simulated events (calendar entries
consumed, from the environment's sequence counter) and events/second.
"""

from __future__ import annotations

import time
from typing import Any

from .core import Environment, Event, Timeout
from .resources import FastHold, Resource

__all__ = ["kernel_microbench"]


class _BenchHold(FastHold):
    """Minimal concrete FastHold: hold ``total`` seconds in quanta."""

    __slots__ = ("total", "_q")

    def __init__(self, env, resources, total, quantum, priority=0):
        self.total = total
        self._q = quantum
        super().__init__(env, resources, priority)

    def _start(self, event: Event) -> None:
        self._acquire()

    def _granted(self) -> None:
        self._begin_hold(self.total, self._q)

    def _done(self) -> None:
        self.result.succeed(None)


def _timeout_chain(n: int) -> Environment:
    env = Environment()
    state = {"left": n}

    def rearm(ev: Event) -> None:
        if state["left"] > 0:
            # single self-rearming chain: no concurrent writer exists
            state["left"] -= 1  # simlint: ignore[tie-order-rmw]
            Timeout(env, 0.001).callbacks.append(rearm)

    Timeout(env, 0.001).callbacks.append(rearm)
    return env

def _request_release(cycles: int, waiters: int) -> Environment:
    env = Environment()
    res = Resource(env, capacity=1)
    state = {"left": cycles}

    def granted(req: Event) -> None:
        if state["left"] > 0:
            # benchmark driver: all waiters are interchangeable, so the
            # grant order cannot change what is measured
            state["left"] -= 1  # simlint: ignore[tie-order-rmw]
            # callback-driven churn: every granted request is released on
            # the next grant of the chain, ending with the cycle budget
            nxt = res.request()  # simlint: ignore[resource-release]
            if nxt.callbacks is not None:
                nxt.callbacks.append(granted)
            res.release(req)

    for _ in range(waiters):
        req = res.request()  # simlint: ignore[resource-release]
        req.callbacks.append(granted)
    return env


def _contended_rotation(holders: int, rounds: int) -> Environment:
    env = Environment()
    res = Resource(env, capacity=1)
    for _ in range(holders):
        # each hold spans ``rounds`` quanta of 20 ms
        _BenchHold(env, [res], rounds * 0.020 + 0.013, 0.020)
    return env


def _uncontended_hold(holders: int, rounds: int) -> Environment:
    env = Environment()
    for _ in range(holders):
        res = Resource(env, capacity=1)
        _BenchHold(env, [res], rounds * 0.020 + 0.013, 0.020)
    return env


def _coupled_rotation(holders: int, rounds: int, uplinks: int = 2) -> Environment:
    env = Environment()
    pivot = Resource(env, capacity=1)
    ups = [Resource(env, capacity=1) for _ in range(uplinks)]
    for i in range(holders):
        # stagger the starts so the window forms mid-rotation, like a
        # real client fan-in, instead of all holders arriving at t=0
        def go(ev, up=ups[i % uplinks], k=i):
            _BenchHold(env, [up, pivot], rounds * 0.020 + 0.013 * (k + 1), 0.020)

        if i == 0:
            go(None)
        else:
            Timeout(env, 0.001 * i).callbacks.append(go)
    return env


def _fs_serve(ops: int) -> Environment:
    # imported here, not at module top: the kernel package must stay
    # importable without the model layers, and every other scenario is
    # pure-kernel — only the local-FS serve gate needs a real filesystem
    from ..hardware import Node, NodeSpec, RAIDArray, RAIDConfig, RAIDLevel
    from ..hardware.disk import DiskSpec
    from ..storage.base import IORequest, KiB, MiB
    from ..storage.cache import CacheSpec
    from ..storage.localfs import LocalFS

    env = Environment()
    node = Node(env, "bench", NodeSpec(ram_bytes=64 * MiB))
    arr = RAIDArray(
        env,
        RAIDConfig(
            level=RAIDLevel.JBOD, ndisks=1, disk=DiskSpec(capacity_bytes=4096 * MiB)
        ),
    )
    fs = LocalFS(env, node, arr, cache_spec=CacheSpec(capacity_bytes=32 * MiB))
    state = {"inode": None, "i": 0}

    def step(_ev=None):
        i = state["i"]
        if i >= ops:
            return
        state["i"] = i + 1
        op = "write" if i % 2 == 0 else "read"
        offset = (i % 16) * MiB
        ev = fs.submit(state["inode"], IORequest(op, offset, 256 * KiB, count=4))
        ev.callbacks.append(step)

    def created(ev):
        state["inode"] = ev.value
        step()

    fs.create("/bench").callbacks.append(created)
    return env


#: scenario name -> zero-arg environment builder (sizes tuned so the
#: whole suite stays around a second on a laptop-class core)
_SCENARIOS = {
    "timeout_chain": lambda: _timeout_chain(150_000),
    "request_release": lambda: _request_release(60_000, 4),
    "contended_rotation": lambda: _contended_rotation(8, 2_500),
    "uncontended_hold": lambda: _uncontended_hold(64, 400),
    "coupled_rotation": lambda: _coupled_rotation(8, 1_200),
    "fs_serve": lambda: _fs_serve(4_000),
}


def kernel_microbench(repeats: int = 3) -> dict[str, Any]:
    """Run every scenario ``repeats`` times; keep the best wall time.

    Returns a JSON-safe dict: per-scenario ``{wall_s, events,
    events_per_s}`` plus aggregate ``events_per_s`` over the mix.
    """
    out: dict[str, Any] = {"scenarios": {}, "repeats": repeats}
    total_events = 0
    total_wall = 0.0
    for name, build in _SCENARIOS.items():
        best = None
        events = 0
        for _ in range(repeats):
            env = build()
            # measuring host wall time is the whole point of the
            # microbenchmark — it never runs inside a simulation
            t0 = time.perf_counter()  # simlint: ignore[wall-clock]
            env.run()
            wall = time.perf_counter() - t0  # simlint: ignore[wall-clock]
            if best is None or wall < best:
                best = wall
                events = env._seq
        rate = events / best if best > 0 else float("inf")
        out["scenarios"][name] = {
            "wall_s": round(best, 4),
            "events": events,
            "events_per_s": round(rate),
        }
        total_events += events
        total_wall += best
    out["events"] = total_events
    out["wall_s"] = round(total_wall, 4)
    out["events_per_s"] = round(total_events / total_wall) if total_wall > 0 else None
    return out
