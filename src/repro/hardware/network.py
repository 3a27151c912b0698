"""Interconnect model: links, switch fabric, message transfers.

The paper's clusters use one or two Gigabit Ethernet networks (one for
"communication"/services, one for data).  We model a network as a
star: every node owns a full-duplex **uplink** (node→switch) and
**downlink** (switch→node); a transfer from A to B holds A's uplink
and B's downlink for its serialisation time, so hot receivers (an NFS
server under N writers) become the shared bottleneck, which is the
dominant effect in the paper's NFS-level results.

Effective bandwidth accounts for protocol framing overhead (TCP/IP
over Ethernet, ~94% of line rate), and each message pays a fixed
per-message latency (propagation, interrupt and protocol stack cost).
Bulk transfers (``count`` messages back-to-back) are pipelined: the
latency is paid once per message but overlaps with serialisation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simengine import Environment, Event, Resource, hold_quantum
from ..simengine import resources as _kernel
from ..simengine.core import Timeout, Wake
from ..simengine.resources import FastHold

__all__ = ["LinkSpec", "Link", "Network", "GIGABIT", "TEN_GIGABIT"]

MiB = 1024 * 1024


@dataclass(frozen=True)
class LinkSpec:
    """Static parameters of a network link."""

    raw_bandwidth_Bps: float = 125.0 * 1000 * 1000  # 1 Gb/s line rate
    efficiency: float = 0.94  # framing + TCP/IP overhead
    latency_s: float = 55e-6  # per-message one-way latency
    per_message_cpu_s: float = 8e-6  # stack cost per message/RPC

    @property
    def bandwidth_Bps(self) -> float:
        return self.raw_bandwidth_Bps * self.efficiency


GIGABIT = LinkSpec()
TEN_GIGABIT = LinkSpec(raw_bandwidth_Bps=1250.0 * 1000 * 1000, latency_s=30e-6)


class _FastSend(FastHold):
    """State-machine twin of ``Link._send`` (same entries, no process)."""

    __slots__ = ("link", "nbytes", "count")

    def __init__(self, link: "Link", nbytes: int, count: int, priority: int, order_key=None):
        self.link = link
        self.nbytes = nbytes
        self.count = count
        super().__init__(link.env, [link.channel], priority, order_key=order_key)

    def _start(self, event) -> None:
        link = self.link
        env = self.env
        if env._now < link._down_until:
            # ride out the outage; re-check on wake (it may have been
            # extended), exactly like the generator's while loop
            Wake(env, link._down_until).callbacks.append(self._start)
            return
        self._acquire()

    def _granted(self) -> None:
        link = self.link
        total = link.hold_time(self.nbytes, self.count)
        link.busy_s += total
        link.bytes_carried += self.nbytes * self.count
        link.messages += self.count
        self._begin_hold(total, link.QUANTUM_S)

    def _done(self) -> None:
        # propagation latency of the tail message (pipelined with the rest)
        Timeout(self.env, self.link.effective_latency_s).callbacks.append(
            self._latency_done
        )

    def _latency_done(self, ev) -> None:
        self.result.succeed(self.nbytes * self.count)


class _FastRoute(FastHold):
    """State-machine twin of ``Network._route``: uplink + downlink held
    concurrently, released in reverse order, latency is the max."""

    __slots__ = ("up", "down", "nbytes", "count")

    def __init__(
        self,
        up: "Link",
        down: "Link",
        nbytes: int,
        count: int,
        priority: int,
        order_key=None,
    ):
        self.up = up
        self.down = down
        self.nbytes = nbytes
        self.count = count
        super().__init__(up.env, [up.channel, down.channel], priority, order_key=order_key)

    def _start(self, event) -> None:
        env = self.env
        up, down = self.up, self.down
        if env._now < up._down_until or env._now < down._down_until:
            Wake(env, max(up._down_until, down._down_until)).callbacks.append(
                self._start
            )
            return
        self._acquire()

    def _granted(self) -> None:
        up, down = self.up, self.down
        nb = self.nbytes * self.count
        total = up.hold_time(self.nbytes, self.count)
        up.busy_s += total
        down.busy_s += total
        up.bytes_carried += nb
        down.bytes_carried += nb
        up.messages += self.count
        down.messages += self.count
        self._begin_hold(total, Link.QUANTUM_S)

    def _done(self) -> None:
        Timeout(
            self.env,
            max(self.up.effective_latency_s, self.down.effective_latency_s),
        ).callbacks.append(self._latency_done)

    def _latency_done(self, ev) -> None:
        self.result.succeed(self.nbytes * self.count)


class Link:
    """A single simplex link; transfers serialise FIFO on it."""

    QUANTUM_S = 0.010

    def __init__(self, env: Environment, spec: LinkSpec, name: str = "link"):
        self.env = env
        self.spec = spec
        self.name = name
        self.channel = Resource(env, capacity=1, name=name)
        self.bytes_carried = 0
        self.messages = 0
        self.busy_s = 0.0
        # fault-injection state: transfers wait out a down window, and
        # a latency spike multiplies the per-message latency until it
        # expires (see repro.faults)
        self._down_until = 0.0
        self._latency_factor = 1.0
        self._latency_until = 0.0
        # measurement origin for :attr:`utilization` (see
        # mark_measurement): excludes pre-run setup time
        self._mark_t = 0.0
        self._mark_busy = 0.0

    # -- fault injection -------------------------------------------------
    def fail_until(self, t_s: float) -> None:
        """Take the link down until absolute simulated time ``t_s``.

        Transfers that have not yet acquired the channel wait out the
        window; a transfer already serialising completes (its frames
        were on the wire).
        """
        self._down_until = max(self._down_until, t_s)

    def spike_latency_until(self, factor: float, t_s: float) -> None:
        """Multiply the per-message latency by ``factor`` until ``t_s``."""
        if factor <= 0:
            raise ValueError("latency factor must be positive")
        self._latency_factor = factor
        self._latency_until = t_s

    @property
    def down(self) -> bool:
        return self.env.now < self._down_until

    @property
    def effective_latency_s(self) -> float:
        if self.env.now < self._latency_until:
            return self.spec.latency_s * self._latency_factor
        return self.spec.latency_s

    def hold_time(self, nbytes: int, count: int = 1) -> float:
        """Serialisation time for ``count`` back-to-back messages."""
        return (
            nbytes * count / self.spec.bandwidth_Bps
            + count * self.spec.per_message_cpu_s
        )

    def transfer(
        self, nbytes: int, count: int = 1, priority: int = 0, order_key=None
    ) -> Event:
        """Move ``count`` messages of ``nbytes`` each across the link."""
        if nbytes < 0 or count < 1:
            raise ValueError("invalid transfer geometry")
        if _kernel.FAST_HOLD:
            return _FastSend(self, nbytes, count, priority, order_key).result
        return self.env.process(
            self._send(nbytes, count, priority, order_key), name=f"{self.name}.xfer"
        )

    def _send(self, nbytes, count, priority, order_key=None):
        while self.env.now < self._down_until:
            yield self.env.wake_at(self._down_until)
        req = self.channel.request(priority, order_key)
        yield req
        reqs = [req]
        try:
            total = self.hold_time(nbytes, count)
            self.busy_s += total
            self.bytes_carried += nbytes * count
            self.messages += count
            yield from hold_quantum(
                self.env, [self.channel], reqs, total, self.QUANTUM_S, priority,
                order_key=order_key,
            )
        finally:
            # held-check: a teardown close (abandoned/reset env) may
            # arrive while hold_quantum is between release and re-grant
            if reqs[0] in self.channel.users:
                self.channel.release(reqs[0])
        # propagation latency of the tail message (pipelined with the rest)
        yield self.env.timeout(self.effective_latency_s)
        return nbytes * count

    def mark_measurement(self) -> None:
        """Start the utilization measurement interval *now*."""
        self._mark_t = self.env.now
        self._mark_busy = self.busy_s

    @property
    def utilization(self) -> float:
        """Busy fraction over the measured interval (since the last
        :meth:`mark_measurement`; build time when never marked)."""
        elapsed = self.env.now - self._mark_t
        if elapsed <= 0:
            return 0.0
        return (self.busy_s - self._mark_busy) / elapsed

    def reset(self) -> None:
        """Clear channel occupancy and traffic counters (warm reuse)."""
        self.channel.reset()
        self.bytes_carried = 0
        self.messages = 0
        self.busy_s = 0.0
        self._down_until = 0.0
        self._latency_factor = 1.0
        self._latency_until = 0.0
        self._mark_t = 0.0
        self._mark_busy = 0.0


class Network:
    """A switched star network connecting named endpoints.

    >>> env = Environment()
    >>> net = Network(env, ["n0", "n1", "server"], GIGABIT)
    >>> ev = net.transfer("n0", "server", 1 << 20)
    """

    def __init__(
        self,
        env: Environment,
        endpoints: list[str],
        spec: LinkSpec = GIGABIT,
        name: str = "net",
    ):
        if len(set(endpoints)) != len(endpoints):
            raise ValueError("duplicate endpoint names")
        self.env = env
        self.spec = spec
        self.name = name
        self._ep_index = {n: i for i, n in enumerate(endpoints)}
        self.uplinks = {n: Link(env, spec, f"{name}.{n}.up") for n in endpoints}
        self.downlinks = {n: Link(env, spec, f"{name}.{n}.down") for n in endpoints}

    @property
    def endpoints(self) -> list[str]:
        return list(self.uplinks)

    def add_endpoint(self, node: str) -> None:
        if node in self.uplinks:
            raise ValueError(f"endpoint {node!r} already attached")
        self._ep_index[node] = len(self._ep_index)
        self.uplinks[node] = Link(self.env, self.spec, f"{self.name}.{node}.up")
        self.downlinks[node] = Link(self.env, self.spec, f"{self.name}.{node}.down")

    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: int,
        count: int = 1,
        priority: int = 0,
        order_key=None,
    ) -> Event:
        """Event firing when the last byte reaches ``dst``.

        Cut-through switching: the sender's uplink and the receiver's
        downlink are held *concurrently* for the serialisation time, so
        a hot receiver (many-to-one traffic) bottlenecks on its
        downlink while independent pairs proceed in parallel.  Local
        transfers (``src == dst``) cost a memcpy and never touch the
        fabric.
        """
        if src not in self.uplinks or dst not in self.uplinks:
            raise KeyError(f"unknown endpoint in transfer {src!r}->{dst!r}")
        if src == dst:
            return self.env.timeout(1e-6 + nbytes * count / (2000.0 * MiB))
        if _kernel.FAST_HOLD:
            return _FastRoute(
                self.uplinks[src], self.downlinks[dst], nbytes, count, priority,
                order_key=order_key,
            ).result
        return self.env.process(
            self._route(src, dst, nbytes, count, priority, order_key)
        )

    def _route(self, src, dst, nbytes, count, priority, order_key=None):
        up = self.uplinks[src]
        down = self.downlinks[dst]
        # A flapped link delays the transfer until it is back up (TCP
        # rides out short outages by retransmitting; payload accounting
        # of those retransmits lives at the RPC layer, see storage.nfs).
        while self.env.now < up._down_until or self.env.now < down._down_until:
            yield self.env.wake_at(max(up._down_until, down._down_until))
        # Acquire uplink first, downlink second (fixed order; the two
        # resource sets are disjoint so no deadlock cycle can form).
        up_req = up.channel.request(priority, order_key)
        yield up_req
        down_req = down.channel.request(priority, order_key)
        yield down_req
        reqs = [up_req, down_req]
        try:
            total = up.hold_time(nbytes, count)
            up.busy_s += total
            down.busy_s += total
            up.bytes_carried += nbytes * count
            down.bytes_carried += nbytes * count
            up.messages += count
            down.messages += count
            # Competitors interleave at quantum granularity.
            yield from hold_quantum(
                self.env,
                [up.channel, down.channel],
                reqs,
                total,
                Link.QUANTUM_S,
                priority,
                order_key=order_key,
            )
        finally:
            if reqs[1] in down.channel.users:
                down.channel.release(reqs[1])
            if reqs[0] in up.channel.users:
                up.channel.release(reqs[0])
        yield self.env.timeout(
            max(up.effective_latency_s, down.effective_latency_s)
        )
        return nbytes * count

    # -- fault injection -------------------------------------------------
    def flap(self, endpoint: str, duration_s: float, direction: str = "both") -> None:
        """Take ``endpoint``'s link(s) down for ``duration_s`` from now."""
        if endpoint not in self.uplinks:
            raise KeyError(f"unknown endpoint {endpoint!r}")
        if direction not in ("both", "up", "down"):
            raise ValueError(f"bad direction {direction!r}")
        until = self.env.now + duration_s
        if direction in ("both", "up"):
            self.uplinks[endpoint].fail_until(until)
        if direction in ("both", "down"):
            self.downlinks[endpoint].fail_until(until)

    def latency_spike(self, endpoint: str, factor: float, duration_s: float) -> None:
        """Multiply ``endpoint``'s per-message latency for ``duration_s``."""
        if endpoint not in self.uplinks:
            raise KeyError(f"unknown endpoint {endpoint!r}")
        until = self.env.now + duration_s
        self.uplinks[endpoint].spike_latency_until(factor, until)
        self.downlinks[endpoint].spike_latency_until(factor, until)

    def reset(self) -> None:
        """Reset every link of the fabric (warm reuse)."""
        for link in self.uplinks.values():
            link.reset()
        for link in self.downlinks.values():
            link.reset()

    def estimate_point_to_point(self, nbytes: int) -> float:
        """Uncontended one-message A→B time (for cost-model callers)."""
        return (
            self.spec.latency_s
            + self.spec.per_message_cpu_s
            + nbytes / self.spec.bandwidth_Bps
        )
