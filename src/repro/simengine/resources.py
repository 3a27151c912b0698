"""Shared-resource primitives for the DES kernel.

These model the contention points of an I/O system: a disk head, a
network link, an NFS server thread pool.  All are FIFO (or priority
FIFO) and deterministic.

* :class:`Resource` — ``capacity`` slots; processes ``yield res.request()``
  and must release (or use :meth:`Resource.using` inside a process).
* :class:`PriorityResource` — like Resource but requests carry a
  priority (lower value served first).
* :class:`Container` — a lumped continuous quantity (e.g. bytes of
  cache space) with ``put``/``get``.
* :class:`Store` — a FIFO queue of Python objects between processes.
"""

from __future__ import annotations

import os
from typing import Any, Generator, Optional

from . import analytic as _analytic
from .core import PENDING, Environment, Event, Hop, SimulationError, Timeout, Wake

__all__ = [
    "Request",
    "Resource",
    "PriorityResource",
    "Container",
    "Store",
    "hold_quantum",
    "FastHold",
]

#: escape hatch: set REPRO_NO_FASTPATH=1 to force the classic
#: one-event-per-quantum resource holds (useful when bisecting)
QUANTUM_COALESCE = os.environ.get("REPRO_NO_FASTPATH", "") in ("", "0")

#: escape hatch: set REPRO_NO_FASTHOLD=1 to serve disk/network requests
#: through the classic generator processes instead of the callback
#: state machines (:class:`FastHold`); orthogonal to REPRO_NO_FASTPATH
FAST_HOLD = os.environ.get("REPRO_NO_FASTHOLD", "") in ("", "0")


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Fires with value ``None`` when the slot is granted.  Must be
    released exactly once via :meth:`Resource.release`.
    """

    __slots__ = ("resource", "priority", "_order", "_released", "fh", "t_arrival", "order_key")

    def __init__(self, resource: "Resource", priority: int = 0, order_key=None):
        # inlined Event.__init__ (one request per grant)
        env = self.env = resource.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._scheduled = False
        self.resource = resource
        self.priority = priority
        resource._order += 1
        self._order = resource._order
        self._released = False
        # back-pointer set by FastHold re-acquires in analytic mode;
        # lets the slice rings recognise rotation members in the queue
        self.fh = None
        self.t_arrival = env._now
        # semantic tie-break among waiters that arrived at the *same*
        # sim-time: requests carrying a key are ordered by it instead of
        # by incidental insertion order (e.g. the disk head queues by
        # starting offset, like command queueing in a real drive), so
        # grant order — and therefore every downstream timestamp — is
        # invariant under permutations of same-time scheduling order
        self.order_key = order_key


def _tie_rank(req: "Request"):
    """Order among waiters that arrived at the same sim-time.

    Keyed requests sort by their ``order_key`` (then arrival seq);
    keyless requests keep plain arrival order after any keyed ones.
    With no keys in play this reduces exactly to FIFO, so the hot path
    is unchanged — the rank only matters inside a same-time cohort.
    """
    if req.order_key is None:
        return (1, 0, req._order)
    return (0, req.order_key, req._order)


class Resource:
    """A counted resource with FIFO queueing.

    Waiters are FIFO by arrival sim-time; *within* a set of waiters
    that arrived at the same sim-time, requests carrying an
    ``order_key`` are granted in key order rather than incidental
    insertion order (see :meth:`request`).
    """

    #: False in subclasses whose queue order is not arrival order:
    #: every grant of theirs goes through :meth:`_pop_next`
    _fifo = True

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.users: list[Request] = []
        self.queue: list[Request] = []
        self._order = 0
        self._arrival_watchers: list[Event] = []
        # synchronous callbacks run at the top of request(), before any
        # state is read — analytic slice rings use these to dissolve
        # exactly when a foreign request is about to observe the
        # resource (empty except while a ring is live)
        self._request_hooks: list = []

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self, priority: int = 0, order_key=None) -> Request:
        """Claim a slot; the returned event fires when granted.

        ``order_key`` (optional, orderable) breaks ties among waiters
        that arrive at the same sim-time; see :class:`Request`.
        """
        if self._request_hooks:
            for cb in self._request_hooks[:]:
                cb()
        req = Request(self, priority, order_key)
        queue = self.queue
        if not queue and len(self.users) < self.capacity:
            # grant: a fresh request is pending and unscheduled, so the
            # checks of Event.succeed cannot fire
            self.users.append(req)
            req._value = None
            req._scheduled = True
            env = self.env
            env._push(env._now, 1, req)
        else:
            queue.append(req)
            if self._arrival_watchers:
                watchers, self._arrival_watchers = self._arrival_watchers, []
                for ev in watchers:
                    ev.succeed(self)
        return req

    # -- arrival notification (coalesced holds) -------------------------
    def watch_arrival(self) -> Event:
        """A pending event fired the next time a request *queues* on
        this resource (i.e. contention appears).  Holders sleeping
        through an uncontended stretch watch this instead of waking
        every quantum."""
        ev = Event(self.env)
        self._arrival_watchers.append(ev)
        return ev

    def unwatch_arrival(self, ev: Event) -> None:
        """Deregister a watcher obtained from :meth:`watch_arrival`."""
        try:
            self._arrival_watchers.remove(ev)
        except ValueError:
            pass

    def reset(self) -> None:
        """Forget all holders, waiters and watchers (warm reuse)."""
        self.users.clear()
        self.queue.clear()
        self._order = 0
        self._arrival_watchers.clear()
        self._request_hooks.clear()

    def release(self, req: Request) -> None:
        """Give the slot back and wake the next waiter.

        Misuse — releasing twice, or releasing a queued request that
        was never granted — silently corrupts the slot count, so it is
        always an error; under sanitize mode the active sanitizer
        additionally records it as a violation.
        """
        try:
            self.users.remove(req)
        except ValueError:
            if req._released:
                msg = f"double release of a request on {self.name or type(self).__name__!r}"
            elif req in self.queue:
                msg = (
                    f"releasing a queued request on "
                    f"{self.name or type(self).__name__!r} that was never granted"
                )
            else:
                msg = "releasing a request that is not held"
            san = self.env.sanitizer
            if san is not None:
                san.resource_misuse(msg)
            raise SimulationError(msg) from None
        req._released = True
        queue = self.queue
        users = self.users
        while queue and len(users) < self.capacity:
            if len(queue) > 1 and (
                queue[1].t_arrival == queue[0].t_arrival or not self._fifo
            ):
                nxt = self._pop_next()
            else:
                nxt = queue.pop(0)
            users.append(nxt)
            # queued requests are pending and unscheduled: grant inline
            nxt._value = None
            nxt._scheduled = True
            env = self.env
            env._push(env._now, 1, nxt)

    def _pop_next(self) -> Request:
        """Dequeue the next waiter of a same-arrival-time cohort at the
        head of the queue, by :func:`_tie_rank`."""
        queue = self.queue
        t0 = queue[0].t_arrival
        best = 0
        best_rank = _tie_rank(queue[0])
        for i in range(1, len(queue)):
            req = queue[i]
            if req.t_arrival != t0:
                break
            rank = _tie_rank(req)
            if rank < best_rank:
                best, best_rank = i, rank
        return queue.pop(best)

    def using(self, hold: float, priority: int = 0) -> Generator:
        """Generator helper: acquire, hold for ``hold`` seconds, release.

        Usage inside a process::

            yield from resource.using(0.01)
        """
        req = self.request(priority)
        yield req
        try:
            yield self.env.timeout(hold)
        finally:
            self.release(req)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<{type(self).__name__} {self.name!r} {len(self.users)}/{self.capacity}"
            f" queued={len(self.queue)}>"
        )


# plain FIFO resources are the only ring-eligible kind; the analytic
# module checks exact type identity without importing this module
_analytic._RESOURCE_CLS = Resource
_analytic._REQUEST_CLS = Request


class PriorityResource(Resource):
    """Resource whose queue is ordered by (priority, arrival order)."""

    _fifo = False

    def _pop_next(self) -> Request:
        queue = self.queue
        best = min(
            range(len(queue)),
            key=lambda i: (queue[i].priority, queue[i].t_arrival) + _tie_rank(queue[i]),
        )
        return queue.pop(best)


def hold_quantum(
    env: Environment,
    resources: list[Resource],
    reqs: list[Request],
    total: float,
    quantum: float,
    priority: int = 0,
    order_key=None,
) -> Generator:
    """Hold granted slots for ``total`` seconds, yielding to competitors
    at ``quantum`` boundaries.

    Semantically this is the classic fairness loop — sleep one quantum,
    then release/re-acquire whenever somebody is queued — but
    uncontended stretches are covered by a *single* calendar entry
    instead of one event per quantum: the holder sleeps on
    ``AnyOf(wake-at-completion, arrival-watcher)`` and, if contention
    appears mid-sleep, rejoins the quantum grid at the first boundary
    after the arrival.  Boundary times replay the per-quantum float
    additions, so resulting timestamps are identical to the sliced
    path.

    ``reqs`` is mutated in place as slots are released/re-acquired, so
    a caller's ``finally`` block always releases the current requests.
    Multiple resources (e.g. a sender's uplink plus a receiver's
    downlink) release in reverse list order and re-acquire in list
    order.  Use as ``yield from hold_quantum(...)`` inside a process.
    """
    remaining = total
    while remaining > 0:
        if remaining <= quantum:
            yield env.timeout(remaining)
            return
        if any(r.queue for r in resources) or not QUANTUM_COALESCE:
            yield env.timeout(quantum)
            remaining -= quantum
        else:
            # Replay the per-quantum addition chain to the exact time
            # the sliced loop would finish, then sleep there in one go.
            start = env.now
            end = start
            rem = remaining
            while rem > 0:
                step = rem if rem < quantum else quantum
                end += step
                rem -= step
            watchers = [r.watch_arrival() for r in resources]
            wake = env.wake_at(end)
            yield env.any_of([wake] + watchers)
            for r, w in zip(resources, watchers):
                r.unwatch_arrival(w)
            if wake.callbacks is None:  # processed: hold ran to completion
                return
            # Contention arrived mid-sleep: rejoin the quantum grid at
            # the first boundary after the arrival.
            t_arr = env.now
            b = start
            rem = remaining
            while rem > 0 and b <= t_arr:
                step = rem if rem < quantum else quantum
                b += step
                rem -= step
            remaining = rem
            yield env.wake_at(b)
        if remaining > 0 and any(r.queue for r in resources):
            for i in range(len(resources) - 1, -1, -1):
                resources[i].release(reqs[i])
            for i, r in enumerate(resources):
                # the re-acquired request replaces reqs[i] in place, so
                # the *caller's* try/finally releases it — guaranteed
                # release lives one frame up
                req = r.request(priority, order_key)  # simlint: ignore[resource-release]
                yield req
                reqs[i] = req


class FastHold:
    """Callback-driven replica of ``request → hold_quantum → release``.

    The generator serve paths (``Disk._serve``, ``Link._send``,
    ``Network._route``) spend most of their cost on kernel plumbing: a
    :class:`~repro.simengine.core.Process` object, a generator frame,
    and a ``send()`` round trip per event.  This class drives the same
    protocol as a flat state machine — each ``yield`` of the generator
    corresponds to one bound-method callback here.

    **Bit-identity invariant**: every calendar entry the generator path
    inserts has a counterpart inserted *at the same moment* with the
    same ``(time, priority)`` — construction pushes a priority-0
    :class:`~repro.simengine.core.Hop` exactly where ``Initialize``
    would sit; the request grant, quantum boundaries, coalesced-sleep
    combinator resume and completion each consume one sequence number
    exactly where the slow path consumes one.  Since sequence numbers
    are assigned in the same order, the heap holds identical keys and
    the simulation is bit-identical between the two paths (the kernel
    determinism suite byte-compares the resulting tables).

    Subclasses implement:

    * ``_start(event)`` — runs where the process's first segment would
      (priority-0 hop); usually ends in :meth:`_acquire`;
    * ``_granted()`` — runs at the grant of the last resource; must
      compute the hold time, apply the accounting the generator path
      applies there, and call :meth:`_begin_hold`;
    * ``_done()`` — runs after all resources are released at
      completion; typically triggers the result event.
    """

    __slots__ = (
        "env",
        "resources",
        "reqs",
        "priority",
        "quantum",
        "remaining",
        "result",
        "_hold_start",
        "_wake",
        "_watchers",
        "_acq_i",
        "order_key",
    )

    def __init__(self, env: Environment, resources: list[Resource], priority: int, order_key=None):
        self.env = env
        self.resources = resources
        self.priority = priority
        self.order_key = order_key
        self.reqs: list[Request] = []
        self.result = Event(env)
        self._wake = None
        self._hold_start = -1.0
        # where the generator path creates Initialize(env, process)
        Hop(env, self._start, priority=0)

    # -- subclass hooks --------------------------------------------------
    def _start(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _granted(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _done(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- acquisition -----------------------------------------------------
    def _acquire(self) -> None:
        """Acquire ``resources`` in list order, one grant at a time —
        the fixed-order chain of ``yield req`` in the generator paths."""
        self._acq_i = 0
        req = self.resources[0].request(self.priority, self.order_key)  # simlint: ignore[resource-release]
        self.reqs = [req]
        req.callbacks.append(self._on_grant)

    def _on_grant(self, ev: Event) -> None:
        # resource ``_acq_i`` granted: request the next one, or hold
        i = self._acq_i + 1
        resources = self.resources
        if i == len(resources):
            self._granted()
            return
        self._acq_i = i
        req = resources[i].request(self.priority, self.order_key)  # simlint: ignore[resource-release]
        self.reqs.append(req)
        req.callbacks.append(self._on_grant)

    # -- the hold loop (mirrors hold_quantum statement for statement) ----
    def _begin_hold(self, total: float, quantum: float) -> None:
        self.remaining = total
        self.quantum = quantum
        self._hold_step()

    def _hold_step(self) -> None:
        env = self.env
        remaining = self.remaining
        if remaining <= 0:
            self._release_and_done()
            return
        quantum = self.quantum
        if remaining <= quantum:
            Timeout(env, remaining).callbacks.append(self._release_and_done)
            return
        resources = self.resources
        contended = False
        for r in resources:
            if r.queue:
                contended = True
                break
        if contended or not QUANTUM_COALESCE:
            if contended and _analytic.ANALYTIC and _analytic.try_adopt(self, remaining):
                return
            self.remaining = remaining - quantum
            # record the in-flight slice so a late ring adoption (see
            # analytic.try_adopt_late) can identify and defuse it; the
            # coalesced branch below reuses the same slots
            self._hold_start = env._now
            wake = self._wake = Timeout(env, quantum)
            wake.callbacks.append(self._after_sleep)
            return
        # Replay the per-quantum addition chain to the exact time the
        # sliced loop would finish, then sleep there in one go.
        start = env._now
        end = start
        rem = remaining
        while rem > 0:
            step = rem if rem < quantum else quantum
            end += step
            rem -= step
        self._hold_start = start
        watchers = self._watchers = [r.watch_arrival() for r in resources]
        wake = self._wake = Wake(env, end)
        cb = self._coalesce_fired
        wake.callbacks.append(cb)
        for w in watchers:
            w.callbacks.append(cb)

    def _coalesce_fired(self, ev: Event) -> None:
        # mirror of AnyOf._on_child: schedule the resume (one priority-1
        # entry, where AnyOf.succeed would insert itself), then prune
        # the shared callback from the other chained events
        Hop(self.env, self._after_coalesce)
        cb = self._coalesce_fired
        wake = self._wake
        if wake is not ev and wake.callbacks is not None:
            try:
                wake.callbacks.remove(cb)
            except ValueError:
                pass
        for w in self._watchers:
            if w is not ev and w.callbacks is not None:
                try:
                    w.callbacks.remove(cb)
                except ValueError:
                    pass

    def _after_coalesce(self, hop: Event) -> None:
        env = self.env
        wake = self._wake
        for r, w in zip(self.resources, self._watchers):
            r.unwatch_arrival(w)
        self._watchers = None
        self._wake = None
        if wake.callbacks is None:  # processed: hold ran to completion
            self._release_and_done()
            return
        # Contention arrived mid-sleep: rejoin the quantum grid at the
        # first boundary after the arrival.
        t_arr = env._now
        quantum = self.quantum
        b = self._hold_start
        rem = self.remaining
        while rem > 0 and b <= t_arr:
            step = rem if rem < quantum else quantum
            b += step
            rem -= step
        self.remaining = rem
        Wake(env, b).callbacks.append(self._after_sleep)

    def _after_sleep(self, ev: Event) -> None:
        # hold_quantum loop bottom: yield slots to queued competitors,
        # then re-request them in list order
        if self.remaining > 0:
            resources = self.resources
            for r in resources:
                if r.queue:
                    reqs = self.reqs
                    for i in range(len(resources) - 1, -1, -1):
                        resources[i].release(reqs[i])
                    self._acq_i = -1
                    self._on_regrant(None)
                    return
        self._hold_step()

    def _on_regrant(self, ev: Optional[Event]) -> None:
        # re-acquired resource ``_acq_i`` (-1: none yet): request the
        # next one, or resume the hold loop
        i = self._acq_i + 1
        resources = self.resources
        if i == len(resources):
            self._hold_step()
            return
        self._acq_i = i
        r = resources[i]
        req = r.request(self.priority, self.order_key)  # simlint: ignore[resource-release]
        self.reqs[i] = req
        req.callbacks.append(self._on_regrant)
        if _analytic.ANALYTIC:
            req.fh = self
            if req._value is PENDING:
                # a stalled re-acquire is the last deferred hop of a
                # rotation boundary — the first instant a two-level
                # steady window is fully observable (the new holder's
                # _hold_step ran one grant-callback too early to see
                # this queue entry)
                _analytic.try_adopt_late(r)

    def _release_and_done(self, ev: Optional[Event] = None) -> None:
        # the callers' ``finally``: release in reverse list order,
        # guarded against a slot already gone (teardown mid-hold)
        resources = self.resources
        reqs = self.reqs
        for i in range(len(resources) - 1, -1, -1):
            if reqs[i] in resources[i].users:
                resources[i].release(reqs[i])
        self._done()


class Container:
    """A continuous quantity with blocking ``get`` and capacity-bounded ``put``."""

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
        name: str = "",
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must be within [0, capacity]")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._level = init
        self._getters: list[tuple[float, Event]] = []
        self._putters: list[tuple[float, Event]] = []

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        """Add ``amount``; blocks (pending event) while it would overflow."""
        if amount < 0:
            raise ValueError("amount must be >= 0")
        ev = Event(self.env)
        self._putters.append((amount, ev))
        self._settle()
        return ev

    def get(self, amount: float) -> Event:
        """Remove ``amount``; blocks while the level is insufficient."""
        if amount < 0:
            raise ValueError("amount must be >= 0")
        ev = Event(self.env)
        self._getters.append((amount, ev))
        self._settle()
        return ev

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                amount, ev = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._level += amount
                    self._putters.pop(0)
                    ev.succeed(amount)
                    progressed = True
            if self._getters:
                amount, ev = self._getters[0]
                if amount <= self._level:
                    self._level -= amount
                    self._getters.pop(0)
                    ev.succeed(amount)
                    progressed = True


class Store:
    """A FIFO object queue with blocking ``get`` and optional capacity."""

    def __init__(self, env: Environment, capacity: float = float("inf"), name: str = ""):
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: list[Any] = []
        self._getters: list[Event] = []
        self._putters: list[tuple[Any, Event]] = []

    def put(self, item: Any) -> Event:
        ev = Event(self.env)
        self._putters.append((item, ev))
        self._settle()
        return ev

    def get(self) -> Event:
        ev = Event(self.env)
        self._getters.append(ev)
        self._settle()
        return ev

    def _settle(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            item, ev = self._putters.pop(0)
            self.items.append(item)
            ev.succeed(item)
        while self._getters and self.items:
            ev = self._getters.pop(0)
            ev.succeed(self.items.pop(0))
        # putters may have been unblocked by the getters draining items
        while self._putters and len(self.items) < self.capacity:
            item, ev = self._putters.pop(0)
            self.items.append(item)
            ev.succeed(item)
            while self._getters and self.items:
                g = self._getters.pop(0)
                g.succeed(self.items.pop(0))

    def __len__(self) -> int:
        return len(self.items)
