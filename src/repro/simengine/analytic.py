"""Opt-in analytic fast-forward for steady calendar windows.

Enabled with ``REPRO_ANALYTIC=1`` (or ``repro ... --analytic``); off by
default.  Two accelerations live here:

**Slice rings** (:class:`SliceRing`) — the dominant event producer in a
contended run is the quantum round-robin: every holder of a busy
resource sleeps one quantum, releases, re-requests, and the next FIFO
waiter grants, at roughly three calendar entries per quantum.  The
rotation among a *stable* set of :class:`~repro.simengine.resources.FastHold`
holders is fully deterministic: boundary times are the float chain
``t += quantum`` in FIFO rotation order and each member's remaining
hold shrinks by exactly the same repeated subtraction the sliced loop
performs.  A ring therefore virtualizes the rotation — the calendar
carries a *single* :class:`~repro.simengine.core.Wake` at the first
completion time, computed by replaying the per-turn float operations in
plain Python — and dissolves back to exact event-by-event slicing the
moment anything external touches an involved resource.  Timestamps
produced this way are bit-identical to the sliced path because they
replay the identical float chains; the kernel determinism suite
byte-compares the resulting tables.

The rotation revolves around a single *pivot* — the one contended
resource — which may sit at any position of a member's resource list
(an NFS reply contends on the server uplink, the first resource of its
route; a data transfer contends on the receiver downlink, the last).
Resources *before* the pivot are re-granted instantly at every virtual
boundary and stay effectively held throughout the rotation; resources
*after* it are released while the member waits and re-acquired only
when the pivot grants, so they must be idle at adoption.

Steady-window criterion (all must hold, checked at adoption):

* the pivot is a plain FIFO :class:`Resource` of capacity 1 with no
  foreign arrival watchers, and it is the only contended resource of
  any member;
* the holder is a ``FastHold`` with more than one quantum of hold
  left;
* every queued request is a *re-acquire* of a ``FastHold`` rotation
  member (first-time acquirers have unevaluated service times and side
  effects at grant, so they make the window non-steady);
* each member's resources before its pivot are held with empty queues,
  and those after it are completely idle.

Dissolution is driven by synchronous request hooks: while a ring is
live every involved resource carries a hook that runs at the top of
``Resource.request()``, *before* the request observes any state.  The
hook rebuilds the exact rotation state for the arrival time — current
holder (with its in-flight slice re-scheduled), waiter order, remaining
holds, held/idle side resources — so the arriving request sees
precisely what the event-by-event rotation would have shown it.  Rings
never form across ``PriorityResource`` queues or generator
(``hold_quantum``) holders.

**Coupled rings** (:class:`CoupledRing`) — the single-pivot criterion
rejects the many-to-one network shape: transfers into one node hold
``[sender_uplink, receiver_downlink]``, and with several streams per
sender *both* levels are contended, so no member has a single contended
resource.  The rotation is still deterministic, it just runs on two
coupled FIFO levels: *active* members (holding their uplink) rotate on
the shared pivot; a member rotating out hands its uplink to that
uplink's FIFO head, which immediately joins the pivot queue, while the
leaver re-queues on its own uplink.  The composite replay walks exactly
that dance — one ``t += quantum`` per pivot turn, FIFO pops on the
uplink queues — and the same dissolve-and-materialize hooks guarantee
any foreign request observes the exact event-by-event state.  Adoption
requires every waiting request to be a ``FastHold`` re-acquire of a
member pivoting on the same resource, at most one contended pre-pivot
resource per member, and all of pivot/uplinks to be plain capacity-1
FIFO resources.

**Vectorized scatter service times** — ``Disk.service_time`` evaluates
strided/random scatters one operation at a time.  With the flag on and
the pattern free of readahead/wraparound interactions the per-op times
are computed elementwise with numpy (IEEE-identical to the scalar
expressions) and accumulated in the original sequential order; see
``hardware/disk.py``.
"""

from __future__ import annotations

import os

from .core import Event, Wake

__all__ = ["ANALYTIC", "CoupledRing", "SliceRing", "try_adopt", "try_adopt_late"]

#: master switch — ``REPRO_ANALYTIC=1`` or ``--analytic``; modules read
#: this attribute at run time so tests and the CLI can flip it.
ANALYTIC = os.environ.get("REPRO_ANALYTIC", "") in ("1", "true", "yes")

#: injected by ``resources`` at import (avoids a circular import);
#: rings only ever form on exactly this class — subclasses may order
#: their queue differently
_RESOURCE_CLS = None
_REQUEST_CLS = None


def try_adopt(holder, remaining: float) -> bool:
    """Form a ring around ``holder`` if the current contention is a
    steady window; returns False to fall back to exact event-by-event
    slicing.  A single-pivot :class:`SliceRing` is tried first, then
    the two-level :class:`CoupledRing`.
    """
    if _try_single(holder, remaining):
        return True
    return _try_coupled(holder, remaining)


def _post_pivot_clear(rj, holder, ph) -> bool:
    """True if a member's post-pivot resource blocks nobody.

    Post-pivot resources are re-acquired zero-delay right after the
    pivot grant, so they must not be able to stall a member mid
    rotation.  Idle qualifies, and so does a *shadow* resource held by
    the current pivot holder at one of its own post-pivot positions
    (e.g. the receiver downlink every window stream of an NFS reply
    holds together with the shared server uplink): the holder releases
    it in the same instant it yields the pivot, so the successor's
    acquire still grants instantly.
    """
    if rj.queue:
        return False
    hreqs = holder.reqs
    for rq in rj.users:
        for k in range(ph + 1, len(hreqs)):
            if hreqs[k] is rq:
                break
        else:
            return False
    return True


def _try_single(holder, remaining: float) -> bool:
    resources = holder.resources
    pivot = None
    for r in resources:
        if r.queue:
            if pivot is not None:
                return False  # two contended resources — no single rotation
            pivot = r
    if (
        pivot is None
        or type(pivot) is not _RESOURCE_CLS
        or pivot.capacity != 1
        or pivot._arrival_watchers
    ):
        return False
    ph = 0
    for j, r in enumerate(resources):
        if r is pivot:
            ph = j
            break
    users = pivot.users
    if (
        len(users) != 1
        or len(holder.reqs) != len(resources)
        or users[0] is not holder.reqs[ph]
    ):
        return False
    members = [holder]
    rems = [remaining]
    pivots = [ph]
    for req in pivot.queue:
        fh = req.fh
        if fh is None or fh is holder or not fh.remaining > 0 or not fh.quantum > 0:
            return False
        # a re-acquire stores the request at its acquisition index, so
        # the queued request's slot in fh.reqs is the member's pivot
        # position
        mres = fh.resources
        pm = -1
        for j, rq in enumerate(fh.reqs):
            if rq is req:
                pm = j
                break
        if pm < 0 or len(fh.reqs) != len(mres) or mres[pm] is not pivot:
            return False
        for j in range(pm):
            rj = mres[j]
            if rj.queue or fh.reqs[j] not in rj.users:
                return False  # pre-pivot resources must be held, uncontended
        for j in range(pm + 1, len(mres)):
            # post-pivot resources: idle, or a shadow held only by the
            # current pivot holder
            if not _post_pivot_clear(mres[j], holder, ph):
                return False
        members.append(fh)
        rems.append(fh.remaining)
        pivots.append(pm)
    if len(members) < 2:
        return False
    # A holder rotated out in this same timestep may still be mid
    # re-acquisition: it holds its pre-pivot resources again but its
    # pivot request is one deferred grant-callback away.  Adopting now
    # would form a ring without it, only for that request to land on
    # the very next event and dissolve the ring — pure calendar churn.
    # Its signature is a tagged (re-acquire) request on a participant's
    # prefix resource whose owner is not itself a participant: bail and
    # let the post-completion grant (or a later boundary) adopt.
    for m, pm in zip(members, pivots):
        for j in range(pm):
            for rq in m.resources[j].users:
                fh2 = rq.fh
                if fh2 is not None and not any(fh2 is p for p in members):
                    return False
    SliceRing(pivot, members, rems, pivots)
    return True


class SliceRing:
    """One virtualized quantum rotation on one resource.

    Live from adoption until the first member completion (the scheduled
    Wake) or the first request touching any involved resource (the
    synchronous hooks), whichever comes first; both paths rebuild the
    exact resource/holder state the event-by-event rotation would be in
    at that moment.
    """

    __slots__ = ("env", "res", "members", "rems", "pivots", "t0", "wake", "hooked", "dead")

    def __init__(self, res, members, rems, pivots):
        env = res.env
        self.env = env
        self.res = res
        self.members = members
        self.rems = rems
        self.pivots = pivots
        self.t0 = env._now
        self.dead = False
        # replay the rotation to the first completion; one calendar
        # entry covers every virtual quantum boundary before it
        _i, _r, _o, _t, t_c, _f = self._replay(None)
        wake = self.wake = Wake(env, t_c)
        wake.callbacks.append(self._on_wake)
        # any request on any involved resource breaks the steady window
        # — hook them all so the dissolve happens before the arriving
        # request observes the frozen state
        hook = self._dissolve
        hooked = self.hooked = []
        for m in members:
            for rj in m.resources:
                if not any(h is rj for h in hooked):
                    hooked.append(rj)
                    rj._request_hooks.append(hook)

    # -- exact float replay of the rotation ------------------------------
    def _replay(self, t_stop):
        """Replay the rotation from the adoption state on copies.

        With ``t_stop is None``: run to the first completion.  With a
        time: process every quantum boundary at or before ``t_stop``
        (a boundary exactly at an arrival is the older calendar entry,
        so it replays first).  Returns ``(i, rems, outs, start, end,
        final)`` where ``i`` indexes the in-flight/completing member,
        ``rems`` holds the advanced remaining times in original member
        order, ``outs`` each member's *last rotate-out boundary* (None
        if it never rotated out — that instant is when the real
        rotation created the member's current pivot re-request, so it
        is the arrival time materialization must stamp), ``start``/
        ``end`` bound the in-flight slice and ``final`` whether that
        slice completes the member's hold.  The adoption state itself
        is never mutated — it stays valid for a later replay.

        Mirrors ``FastHold._hold_step`` statement for statement:
        ``t + quantum`` per non-final turn, ``remaining - quantum`` per
        member turn, ``t + remaining`` for a final slice.
        """
        members = self.members
        rems = list(self.rems)
        outs = [None] * len(members)
        t = self.t0
        i = 0
        n = len(members)
        while True:
            r = rems[i]
            q = members[i].quantum
            if r <= 0:
                end, final = t, True
            elif r <= q:
                end, final = t + r, True
            else:
                end, final = t + q, False
            if final or (t_stop is not None and end > t_stop):
                break
            rems[i] = r - q
            t = end
            outs[i] = t
            i = (i + 1) % n
        return i, rems, outs, t, end, final

    def _advance(self, t_stop):
        """Replay and rotate the member/remaining/pivot lists so the
        in-flight member leads."""
        i, rems, outs, t, end, final = self._replay(t_stop)
        members = self.members
        pivots = self.pivots
        return (
            members[i:] + members[:i],
            rems[i:] + rems[:i],
            pivots[i:] + pivots[:i],
            outs[i:] + outs[:i],
            t,
            end,
            final,
        )

    # -- materialization --------------------------------------------------
    def _rebuild(self, members, rems, pivots, outs):
        """Point the resources and members at the replayed rotation state.

        ``members[0]`` becomes the holder — its pivot request moves to
        ``users`` and its post-pivot resources are granted (a real
        rotation grants them instantly right after the pivot).  The
        rest queue in rotation order ahead of any foreign arrivals,
        with their post-pivot holdings released, and every member's
        ``remaining`` is the replayed value.  The queue was never
        popped while the ring was live, so its first
        ``len(members) - 1`` entries are exactly the member requests
        and anything after them arrived later.

        Queued requests must carry the metadata the event-by-event
        rotation would have given them: a member that rotated out at
        virtual boundary ``outs[j]`` re-requested *at that instant*
        with its ``order_key``, so its queue entry gets that arrival
        time (and a replacement request, where the stored object was
        already consumed, that key).  ``Resource._pop_next`` resolves
        same-arrival-time cohorts by key, so a stale or dissolve-time
        arrival stamp would let a keyed foreign request arriving at the
        dissolve instant overtake members the exact path serves first.
        """
        res = self.res
        foreign = res.queue[len(members) - 1 :]
        h = members[0]
        res.users[:] = [h.reqs[pivots[0]]]
        for j in range(pivots[0] + 1, len(h.resources)):
            rj = h.resources[j]
            if h.reqs[j] not in rj.users:
                rq = _REQUEST_CLS(rj, h.priority, h.order_key)
                rj.users.append(rq)
                h.reqs[j] = rq
        rebuilt = []
        for m, pm, out in zip(members[1:], pivots[1:], outs[1:]):
            req = m.reqs[pm]
            if req.triggered:
                # this member held the pivot at some virtual boundary —
                # a real rotation would have released and re-requested,
                # so give it the fresh request that rotation would have
                # created (placed directly; the ring's own hooks must
                # not observe it as an arrival)
                req = _REQUEST_CLS(res, m.priority, m.order_key)
                req.fh = m
                req.callbacks.append(m._on_regrant)
                m.reqs[pm] = req
                m._acq_i = pm
            if out is not None:
                req.t_arrival = out
            rebuilt.append(req)
            for j in range(pm + 1, len(m.resources)):
                # a member that rotated out releases what it held past
                # the pivot
                rj = m.resources[j]
                rq = m.reqs[j]
                if rq in rj.users:
                    rj.users.remove(rq)
        res.queue[:] = rebuilt + foreign
        for m, r in zip(members, rems):
            m.remaining = r

    def _unhook(self) -> None:
        hook = self._dissolve
        for rj in self.hooked:
            try:
                rj._request_hooks.remove(hook)
            except ValueError:
                pass

    def _on_wake(self, ev: Event) -> None:
        if self.dead:
            return
        self.dead = True
        self._unhook()
        members, rems, pivots, outs, _t, _end, _final = self._advance(None)
        self._rebuild(members, rems, pivots, outs)
        # the completer's release grants the next member for real — the
        # rotation resumes event-by-event (and typically re-adopts)
        members[0]._release_and_done()

    def _dissolve(self) -> None:
        """Synchronous request hook: restore exact state *now*."""
        if self.dead:
            return
        self.dead = True
        self._unhook()
        wake = self.wake
        if wake.callbacks is not None:
            try:
                wake.callbacks.remove(self._on_wake)
            except ValueError:
                pass
        members, rems, pivots, outs, t_start, end, final = self._advance(self.env._now)
        self._rebuild(members, rems, pivots, outs)
        holder = members[0]
        if final:
            # in a final slice the sliced loop leaves ``remaining``
            # untouched and sleeps Timeout(remaining) — resume there
            Wake(self.env, end).callbacks.append(holder._release_and_done)
        else:
            # mid-quantum: the sliced loop decremented before sleeping
            holder.remaining = rems[0] - holder.quantum
            w = Wake(self.env, end)
            w.callbacks.append(holder._after_sleep)
            # leave the holder exactly as _hold_step's sliced branch
            # would: a ring that dissolved the instant it formed (a
            # same-pivot requester was one grant-callback away) must
            # stay visible to try_adopt_late for re-adoption
            holder._hold_start = t_start
            holder._wake = w


def try_adopt_late(res) -> bool:
    """Adoption attempt at the moment a stalled re-acquire enqueues.

    In a two-level rotation the boundary cascade runs through deferred
    grant callbacks: the new pivot holder's ``_hold_step`` (where
    :func:`try_adopt` runs) fires one event *before* the freshly
    granted uplink holder re-requests the pivot, so the boundary-time
    attempt always sees an empty pivot queue.  The stalled enqueue
    itself is the final hop of the cascade — here the steady window is
    fully materialized.  If the shape matches, the in-flight slice
    Timeout of the pivot holder (recorded by ``_hold_step``) is defused
    and the ring's Wake replaces it.
    """
    users = res.users
    if type(res) is not _RESOURCE_CLS or len(users) != 1:
        return False
    holder = users[0].fh
    if holder is None:
        return False
    # the holder must be inside a sliced (non-final, non-coalesced)
    # quantum that started this very instant — otherwise replaying from
    # ``now`` would not reproduce the sliced float chain
    wake = holder._wake
    if (
        holder._hold_start != res.env._now
        or wake is None
        or wake.callbacks is None
        or holder._after_sleep not in wake.callbacks
    ):
        return False
    ph = -1
    for j, rq in enumerate(holder.reqs):
        if rq is users[0]:
            ph = j
            break
    if ph < 0 or len(holder.reqs) != len(holder.resources) or holder.resources[ph] is not res:
        return False
    # _hold_step already decremented for the slice in flight; the
    # replay works in at-slice-start terms
    if not _adopt_coupled(holder, holder.remaining + holder.quantum, res, ph):
        return False
    wake.callbacks.remove(holder._after_sleep)
    return True


def _try_coupled(holder, remaining: float) -> bool:
    """Form a :class:`CoupledRing` around ``holder`` if the contention
    is a steady two-level uplink x pivot rotation; returns False to
    fall back to exact slicing.
    """
    resources = holder.resources
    reqs = holder.reqs
    if len(reqs) != len(resources):
        return False
    # candidate pivots: contended resources the holder currently holds
    for ph, pivot in enumerate(resources):
        if pivot.queue and _adopt_coupled(holder, remaining, pivot, ph):
            return True
    return False


def _adopt_coupled(holder, remaining, pivot, ph) -> bool:
    if (
        type(pivot) is not _RESOURCE_CLS
        or pivot.capacity != 1
        or pivot._arrival_watchers
    ):
        return False
    users = pivot.users
    if len(users) != 1 or users[0] is not holder.reqs[ph]:
        return False
    actives = [holder]
    pidx = {holder: ph}
    rems = {holder: remaining}
    jidx = {}
    upres = {}
    uplinks = {}
    for req in pivot.queue:
        fh = req.fh
        if (
            fh is None
            or fh is holder
            or fh in pidx
            or not fh.remaining > 0
            or not fh.quantum > 0
        ):
            return False
        mres = fh.resources
        pm = -1
        for j, rq in enumerate(fh.reqs):
            if rq is req:
                pm = j
                break
        if pm < 0 or len(fh.reqs) != len(mres) or mres[pm] is not pivot:
            return False
        actives.append(fh)
        pidx[fh] = pm
        rems[fh] = fh.remaining
    if len(actives) < 2:
        return False
    # active-member structure: pre-pivot held with at most one
    # contended resource (the member's uplink), post-pivot idle
    # (holder: held by the holder itself, uncontended)
    for m in actives:
        pm = pidx[m]
        mres = m.resources
        um = None
        for j in range(pm):
            rj = mres[j]
            if m.reqs[j] not in rj.users:
                return False
            if rj.queue:
                if (
                    um is not None
                    or type(rj) is not _RESOURCE_CLS
                    or rj.capacity != 1
                    or rj._arrival_watchers
                    or len(rj.users) != 1
                    or rj in uplinks
                ):
                    return False
                um = j
                uplinks[rj] = []
        if m is holder:
            for j in range(pm + 1, len(mres)):
                rj = mres[j]
                if rj.queue or m.reqs[j] not in rj.users:
                    return False
        else:
            for j in range(pm + 1, len(mres)):
                if not _post_pivot_clear(mres[j], holder, ph):
                    return False
        if um is not None:
            upres[m] = mres[um]
            jidx[m] = um
        else:
            upres[m] = None
    if not uplinks:
        return False  # no second level: the single ring's domain
    # waiting members: each uplink waiter is a re-acquire pivoting on
    # the same pivot, holding an uncontended prefix, everything between
    # its uplink and the pivot (and after the pivot) idle
    for up, waiters in uplinks.items():
        for req in up.queue:
            fh = req.fh
            if (
                fh is None
                or fh in pidx
                or not fh.remaining > 0
                or not fh.quantum > 0
            ):
                return False
            mres = fh.resources
            jw = -1
            for j, rq in enumerate(fh.reqs):
                if rq is req:
                    jw = j
                    break
            if jw < 0 or len(fh.reqs) != len(mres) or mres[jw] is not up:
                return False
            pj = -1
            for k in range(jw + 1, len(mres)):
                if mres[k] is pivot:
                    pj = k
                    break
            if pj < 0:
                return False
            for k in range(jw):
                rk = mres[k]
                if rk.queue or fh.reqs[k] not in rk.users:
                    return False
            for k in range(jw + 1, len(mres)):
                if k == pj:
                    continue
                rk = mres[k]
                if rk.users or rk.queue:
                    return False
            pidx[fh] = pj
            jidx[fh] = jw
            upres[fh] = up
            rems[fh] = fh.remaining
            waiters.append(fh)
    # a holder rotated out in this same timestep may be mid
    # re-acquisition (see the single-ring guard): any held re-acquire
    # on an involved resource owned by a non-member means the window is
    # about to change — bail
    members = pidx
    seen = []
    for m in members:
        for rj in m.resources:
            if any(s is rj for s in seen):
                continue
            seen.append(rj)
            for rq in rj.users:
                fh2 = rq.fh
                if fh2 is not None and fh2 not in members:
                    return False
    CoupledRing(pivot, actives, uplinks, pidx, jidx, upres, rems)
    return True


class CoupledRing:
    """One virtualized two-level rotation: uplink FIFOs x one pivot.

    Same lifecycle as :class:`SliceRing` — live from adoption until the
    first member completion (the Wake) or the first foreign request on
    any involved resource (the synchronous hooks); both paths replay
    the composite rotation in floats and materialize the exact state
    the event-by-event dance would be in.
    """

    __slots__ = (
        "env",
        "res",
        "actives",
        "uplinks",
        "pidx",
        "jidx",
        "upres",
        "rems",
        "t0",
        "wake",
        "hooked",
        "dead",
    )

    def __init__(self, res, actives, uplinks, pidx, jidx, upres, rems):
        env = res.env
        self.env = env
        self.res = res
        self.actives = actives
        self.uplinks = uplinks
        self.pidx = pidx
        self.jidx = jidx
        self.upres = upres
        self.rems = rems
        self.t0 = env._now
        self.dead = False
        _dq, _uq, _rems, _born, _t, t_c, _f = self._replay(None)
        wake = self.wake = Wake(env, t_c)
        wake.callbacks.append(self._on_wake)
        hook = self._dissolve
        hooked = self.hooked = []
        for m in pidx:
            for rj in m.resources:
                if not any(h is rj for h in hooked):
                    hooked.append(rj)
                    rj._request_hooks.append(hook)

    # -- exact float replay of the composite rotation ---------------------
    def _replay(self, t_stop):
        """Replay the two-level rotation from the adoption state.

        Boundary step (mirrors the event-by-event release/re-acquire
        cascade): the pivot holder burns one quantum; rotating out it
        hands the pivot to the pivot-FIFO head and its uplink to that
        uplink's FIFO head, which joins the pivot queue in its place,
        while the leaver re-queues on its own uplink (or directly on
        the pivot when its uplink has no waiters).  Returns
        ``(dq, uq, rems, born, start, end, final)`` where ``dq`` is the
        pivot rotation order (holder first), ``uq`` maps each uplink to
        its waiter order, ``born`` maps each member that changed queues
        to the boundary time of its *last* transition (the instant the
        real rotation created its current pivot or uplink request),
        ``start``/``end`` bound the in-flight slice and ``final``
        whether that slice completes the holder.  The adoption state is
        never mutated.
        """
        dq = list(self.actives)
        uq = {up: list(ws) for up, ws in self.uplinks.items()}
        rems = dict(self.rems)
        born = {}
        upres = self.upres
        t = self.t0
        while True:
            h = dq[0]
            r = rems[h]
            q = h.quantum
            if r <= 0:
                end, final = t, True
            elif r <= q:
                end, final = t + r, True
            else:
                end, final = t + q, False
            if final or (t_stop is not None and end > t_stop):
                break
            rems[h] = r - q
            t = end
            dq.pop(0)
            up = upres[h]
            if up is not None and uq[up]:
                s = uq[up].pop(0)
                dq.append(s)
                born[s] = t
                uq[up].append(h)
            else:
                dq.append(h)
            born[h] = t
        return dq, uq, rems, born, t, end, final

    # -- materialization --------------------------------------------------
    def _rebuild(self, dq, uq, rems, born):
        """Point every involved resource and member at the replayed
        state: ``dq[0]`` holds the pivot (and its post-pivot/between
        resources), the rest of ``dq`` queues on the pivot in rotation
        order, each uplink is held by its one active member with the
        ``uq`` waiters queued behind, and waiting members hold nothing
        past their uplink position.  Requests whose stored object was
        already consumed at some virtual boundary get the fresh request
        the real rotation would have created (placed directly; the
        ring's own hooks must not observe it as an arrival), and every
        request whose member changed queues during the replay is
        stamped with its ``born`` boundary as arrival time — the
        key-aware same-arrival cohort scan in ``Resource._pop_next``
        reads that metadata, so it must match the exact path's."""
        res = self.res
        pidx = self.pidx
        jidx = self.jidx
        foreign = res.queue[len(self.actives) - 1 :]
        h = dq[0]
        ph = pidx[h]
        res.users[:] = [h.reqs[ph]]
        rebuilt = []
        for n, m in enumerate(dq):
            pm = pidx[m]
            jm = jidx.get(m, -1)
            if n:
                req = m.reqs[pm]
                if req.triggered:
                    req = _REQUEST_CLS(res, m.priority, m.order_key)
                    req.fh = m
                    req.callbacks.append(m._on_regrant)
                    m.reqs[pm] = req
                bt = born.get(m)
                if bt is not None:
                    req.t_arrival = bt
                m._acq_i = pm
                rebuilt.append(req)
                stop = len(m.resources)
            else:
                stop = pm  # the holder's post-pivot re-held below
            # active members hold everything before the pivot; a member
            # adopted as a waiter re-acquired its between resources at
            # some virtual boundary
            for k in range(jm + 1, pm):
                rk = m.resources[k]
                if m.reqs[k] not in rk.users:
                    rq = _REQUEST_CLS(rk, m.priority, m.order_key)
                    rk.users.append(rq)
                    m.reqs[k] = rq
            # ...and holds nothing after it while queued there
            for k in range(pm + 1, stop):
                rk = m.resources[k]
                rq = m.reqs[k]
                if rq in rk.users:
                    rk.users.remove(rq)
        for k in range(ph + 1, len(h.resources)):
            rk = h.resources[k]
            if h.reqs[k] not in rk.users:
                rq = _REQUEST_CLS(rk, h.priority, h.order_key)
                rk.users.append(rq)
                h.reqs[k] = rq
        res.queue[:] = rebuilt + foreign
        upres = self.upres
        for up, waiters in uq.items():
            hu = None
            for m in dq:
                if upres.get(m) is up:
                    hu = m
                    break
            up.users[:] = [hu.reqs[jidx[hu]]]
            wforeign = up.queue[len(self.uplinks[up]) :]
            wreqs = []
            for w in waiters:
                jw = jidx[w]
                req = w.reqs[jw]
                if req.triggered:
                    req = _REQUEST_CLS(up, w.priority, w.order_key)
                    req.fh = w
                    req.callbacks.append(w._on_regrant)
                    w.reqs[jw] = req
                bt = born.get(w)
                if bt is not None:
                    req.t_arrival = bt
                w._acq_i = jw
                wreqs.append(req)
                for k in range(jw + 1, len(w.resources)):
                    rk = w.resources[k]
                    rq = w.reqs[k]
                    if rq in rk.users:
                        rk.users.remove(rq)
            up.queue[:] = wreqs + wforeign
        for m, r in rems.items():
            m.remaining = r

    def _unhook(self) -> None:
        hook = self._dissolve
        for rj in self.hooked:
            try:
                rj._request_hooks.remove(hook)
            except ValueError:
                pass

    def _on_wake(self, ev: Event) -> None:
        if self.dead:
            return
        self.dead = True
        self._unhook()
        dq, uq, rems, born, _t, _end, _final = self._replay(None)
        self._rebuild(dq, uq, rems, born)
        # the completer's release grants the pivot and uplink for real
        # — the rotation resumes event-by-event (and typically
        # re-adopts)
        dq[0]._release_and_done()

    def _dissolve(self) -> None:
        """Synchronous request hook: restore exact state *now*."""
        if self.dead:
            return
        self.dead = True
        self._unhook()
        wake = self.wake
        if wake.callbacks is not None:
            try:
                wake.callbacks.remove(self._on_wake)
            except ValueError:
                pass
        dq, uq, rems, born, t_start, end, final = self._replay(self.env._now)
        self._rebuild(dq, uq, rems, born)
        holder = dq[0]
        if final:
            # in a final slice the sliced loop leaves ``remaining``
            # untouched and sleeps Timeout(remaining) — resume there
            Wake(self.env, end).callbacks.append(holder._release_and_done)
        else:
            # mid-quantum: the sliced loop decremented before sleeping
            holder.remaining = rems[holder] - holder.quantum
            w = Wake(self.env, end)
            w.callbacks.append(holder._after_sleep)
            holder._hold_start = t_start
            holder._wake = w
