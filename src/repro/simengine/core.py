"""Discrete-event simulation kernel.

Everything in :mod:`repro` runs on this kernel: disks, networks,
filesystems and MPI ranks are *processes* (Python generators) that
yield events to an :class:`Environment`.  The design follows the
classic process-interaction style (as popularised by SimPy) but is
self-contained, deterministic, and tuned for the access patterns this
project needs:

* a binary-heap event calendar keyed on ``(time, priority, seq)`` so
  same-time events fire in schedule order — simulations are exactly
  reproducible run-to-run;
* generator-based processes with ``yield env.timeout(dt)``,
  ``yield other_event`` and combinators :class:`AllOf` / :class:`AnyOf`;
* failure propagation: an event failed with an exception re-raises the
  exception inside every waiting process.

Simulated time is a ``float`` in **seconds**.  Wall-clock time never
enters the simulation.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Wake",
    "Process",
    "AllOf",
    "AnyOf",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. triggering an event twice)."""


PENDING = object()  #: sentinel value of an untriggered event


class Event:
    """A happening that processes can wait for.

    An event starts *pending*; it is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, at which point it is scheduled on
    the calendar and, when processed, runs its callbacks (resuming any
    processes that yielded it).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._scheduled = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not have fired yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, priority: int = 1) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if self._scheduled:
            raise SimulationError(f"{self!r} scheduled twice")
        self._ok = True
        self._value = value
        self._scheduled = True
        env = self.env
        env._push(env._now, priority, self)
        return self

    def fail(self, exception: BaseException, priority: int = 1) -> "Event":
        """Trigger the event with an exception.

        Every process waiting on the event will see ``exception`` raised
        at its ``yield`` statement.
        """
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self, priority)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._value is PENDING else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        # Timeouts are created triggered-and-scheduled; bypassing
        # Event.__init__ and the _schedule re-schedule guard saves two
        # attribute round trips on the kernel's most common event.
        self.env = env
        self.callbacks = []
        self.delay = delay
        self._ok = True
        self._value = value
        self._scheduled = True
        env._push(env._now + delay, 1, self)


class Wake(Event):
    """An event firing at an *absolute* simulated time.

    Unlike ``Timeout(delay)`` the calendar entry is exactly ``at``,
    with no ``now + delay`` float round trip — coalesced resource
    holds use this to land on the same timestamps the quantum-sliced
    path produces (sums of per-quantum additions).
    """

    __slots__ = ()

    def __init__(self, env: "Environment", at: float, value: Any = None):
        if at < env._now:
            raise ValueError(f"wake_at({at!r}) is in the past (now={env._now!r})")
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._scheduled = True
        env._push(at, 1, self)


class Initialize(Event):
    """Internal: first resume of a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        # Like Timeout, created triggered-and-scheduled in one step.
        self.env = env
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        self._scheduled = True
        env._push(env._now, 0, self)


class Hop(Event):
    """Internal: a pre-triggered bare event with one fixed callback.

    The fast serve paths (:mod:`repro.simengine.resources`,
    :mod:`repro.hardware`) use hops to reproduce, entry for entry, the
    calendar inserts that the generator-based paths make through
    ``Initialize`` / combinator triggering — one heap entry, one
    callback, no generator frame behind it.
    """

    __slots__ = ()

    def __init__(
        self,
        env: "Environment",
        callback: Callable[["Event"], None],
        priority: int = 1,
    ):
        self.env = env
        self.callbacks = [callback]
        self._ok = True
        self._value = None
        self._scheduled = True
        env._push(env._now, priority, self)


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The value of the event is the generator's return value; if the
    generator raises, the process event fails with that exception and
    the exception propagates to any process waiting on it (or crashes
    the simulation if nobody is waiting).
    """

    __slots__ = ("generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator,
        name: str = "",
    ):
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        # inlined Event.__init__: processes are created on the serve
        # hot paths, so the extra frame is measurable
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._scheduled = False
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or exception) of ``event``."""
        env = self.env
        env._active_process = self
        send = self.generator.send
        while True:
            try:
                if event._ok:
                    target = send(event._value)
                else:
                    target = self.generator.throw(event._value)
            except StopIteration as exc:
                env._active_process = None
                self.succeed(exc.value)
                return
            except BaseException as exc:
                env._active_process = None
                if not self._failure_handled(exc):
                    raise
                return

            try:
                callbacks = target.callbacks
            except AttributeError:
                env._active_process = None
                exc = SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}"
                )
                self.generator.throw(exc)
                raise exc
            if callbacks is not None:
                # Target still pending or scheduled: wait for it.
                callbacks.append(self._resume)
                self._target = target
                env._active_process = None
                return
            # Target already processed: resume immediately with its value.
            event = target

    def _failure_handled(self, exc: BaseException) -> bool:
        """Fail this process event; return True if somebody is waiting."""
        self._ok = False
        self._value = exc
        self.env._schedule(self, priority=1)
        return bool(self.callbacks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


def _prune_combinator(self, fired: Event) -> None:
    """Detach a fired combinator from its still-pending children so it
    (and its values) are collectible instead of lingering in their
    callback lists until they eventually fire."""
    cb = self._on_child
    for ev in self._events:
        if ev is not fired and ev.callbacks is not None:
            try:
                # bound methods compare equal by (__self__, __func__)
                ev.callbacks.remove(cb)
            except ValueError:
                pass


class AllOf(Event):
    """Fires when *all* given events have fired; value is a list of values.

    Fails fast if any constituent fails.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._remaining = 0
        # a local, not an attribute: a bound method stored on the
        # combinator would make it a reference cycle
        cb = self._on_child
        for ev in self._events:
            if ev.callbacks is None:
                if not ev._ok:
                    # Already failed: mirror the failure immediately.
                    self.fail(ev._value)
                    return
                continue
            self._remaining += 1
            ev.callbacks.append(cb)
        if self._remaining == 0 and self._value is PENDING:
            self.succeed([ev._value for ev in self._events])

    def _on_child(self, ev: Event) -> None:
        if self._value is not PENDING:
            return
        if not ev._ok:
            self.fail(ev._value)
            self._prune(ev)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e._value for e in self._events])

    _prune = _prune_combinator


class AnyOf(Event):
    """Fires when the *first* of the given events fires; value is that value."""

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        if not self._events:
            raise ValueError("AnyOf requires at least one event")
        done = [ev for ev in self._events if ev.callbacks is None]
        if done:
            first = done[0]
            if first._ok:
                self.succeed(first._value)
            else:
                self.fail(first._value)
            return
        cb = self._on_child
        for ev in self._events:
            ev.callbacks.append(cb)

    def _on_child(self, ev: Event) -> None:
        if self._value is not PENDING:
            return
        if ev._ok:
            self.succeed(ev._value)
        else:
            self.fail(ev._value)
        self._prune(ev)

    _prune = _prune_combinator


class Environment:
    """The simulation clock and event calendar."""

    #: active :class:`repro.analysis.sanitizer.SimSanitizer`, if any.
    #: A class-level ``None`` keeps the disabled-mode check on the hot
    #: paths to a single attribute read; an attached sanitizer shadows
    #: it with an instance attribute (and overrides ``step``/``reset``
    #: the same way — ``run`` rebinds ``step`` per call, so the
    #: instance override takes effect).
    sanitizer = None

    #: active :class:`repro.simengine.rng.RngRegistry`, if any — same
    #: class-attribute pattern as ``sanitizer``.  Stochastic model
    #: elements (NFS retransmit jitter under fault injection) draw
    #: from ``env.rng`` streams when one is installed and fall back to
    #: their deterministic default (no jitter) when it is ``None``.
    rng = None

    #: registered creation hooks — each new environment is passed to
    #: every callable here right after ``__init__`` finishes.  Empty in
    #: normal operation (one falsy check on the construction path); the
    #: schedule-race probe registers itself here so that *every*
    #: environment built during a captured run (characterization builds
    #: many) is instrumented from its first calendar insert.
    _init_hooks: list = []

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        if Environment._init_hooks:
            for hook in Environment._init_hooks:
                hook(self)

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event construction ----------------------------------------------
    def event(self) -> Event:
        """A fresh pending event; trigger it with ``.succeed()``/``.fail()``."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def wake_at(self, at: float, value: Any = None) -> Wake:
        """An event firing at the absolute simulated time ``at``."""
        return Wake(self, at, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _push(self, when: float, priority: int, event: Event) -> None:
        """Insert one calendar entry — the single scheduling funnel.

        Every entry (``Timeout``/``Wake``/``Initialize`` construction,
        ``succeed``/``fail`` triggering, the fast serve paths) lands
        here, so an attached sanitizer can interpose on the instance to
        observe every scheduled event.
        """
        self._seq += 1
        heappush(self._queue, (when, priority, self._seq, event))

    def _schedule(self, event: Event, priority: int = 1) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        self._push(self._now, priority, event)

    # -- execution ----------------------------------------------------------
    def step(self) -> None:
        """Process the single next event on the calendar."""
        when, _prio, _seq, event = heappop(self._queue)
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None
        for cb in callbacks:
            cb(event)
        if not event._ok and not callbacks and not isinstance(event, Process):
            # A failed event nobody waited for: surface the error.
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to calendar exhaustion), a time
        (run until the clock reaches it), or an :class:`Event` (run until
        it fires; its value is returned).
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError("cannot run until a time in the past")

        queue = self._queue
        if "step" in self.__dict__:
            # an instance-level override (attached sanitizer) replaces
            # the inlined loop below with the instrumented step
            step = self.step
            while queue:
                if stop_event is not None and stop_event.callbacks is None:
                    break
                if stop_time is not None and queue[0][0] > stop_time:
                    break
                step()
        else:
            # inlined step(): the per-event method call, property reads
            # and heappop lookup add up over O(10^5) events per run
            pop = heappop
            while queue:
                if stop_event is not None:
                    if stop_event.callbacks is None:
                        break
                elif stop_time is not None and queue[0][0] > stop_time:
                    break
                when, _prio, _seq, event = pop(queue)
                if when < self._now:
                    raise SimulationError("event scheduled in the past")
                self._now = when
                callbacks = event.callbacks
                event.callbacks = None
                for cb in callbacks:
                    cb(event)
                if not event._ok and not callbacks and not isinstance(event, Process):
                    # A failed event nobody waited for: surface the error.
                    raise event._value

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "run(until=event) exhausted the calendar before the event fired"
                )
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        if stop_time is not None:
            self._now = stop_time
        return None

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def reset(self, initial_time: float = 0.0) -> None:
        """Return the environment to a fresh state for warm reuse.

        Drops every pending calendar entry and rewinds the clock.  Any
        still-alive processes are simply abandoned (their generators are
        collected); callers are responsible for resetting the mutable
        state of components built on this environment.
        """
        self._now = float(initial_time)
        self._queue.clear()
        self._seq = 0
        self._active_process = None
