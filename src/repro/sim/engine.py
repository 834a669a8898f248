"""The discrete-event simulation engine.

The engine is a classic calendar queue built on :mod:`heapq`.  Heap
entries are plain tuples, so ordering comparisons run at C speed:

* ``(time, seq, event)`` for *handle* events created by
  :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`.  The
  returned :class:`Event` can be cancelled or rescheduled.
* ``(time, seq, callback, arg)`` for *anonymous* events created by the
  :meth:`Simulator.post` / :meth:`Simulator.post_at` fast path.  No
  Event object is allocated at all; the callback and its single
  argument ride directly in the heap entry.  Anonymous events cannot
  be cancelled -- they are the allocation-free path for the per-packet
  hot loop (link serialization and delivery), which never cancels.

A third shape rides on the anonymous form: :meth:`Simulator.post_batch`
posts a whole time-sorted burst of callbacks (a link's batched packet
deliveries) as **one** heap entry carrying a :class:`_Batch`.  When the
entry surfaces, the engine fires the due callback and then *drains*
subsequent batch entries inline -- no pop, no push -- for as long as
they sort before the heap's head, pushing the remainder back as a
single re-keyed entry when an unrelated event intervenes.  A burst of
``n`` packets thus costs one ``O(log n)`` heap operation instead of
``n``, while observable ordering is exactly what ``n`` individual
``post_at`` calls with one shared sequence number would produce.

The sequence number makes ordering total and stable (two events
scheduled for the same instant fire in the order they were scheduled),
which keeps simulations deterministic and therefore reproducible and
testable.  Every scheduling primitive -- ``schedule``, ``schedule_at``,
``post``, ``post_at`` and ``reschedule`` -- consumes exactly one
sequence number, so swapping one primitive for another (e.g. a
closure-carrying ``schedule`` for an arg-carrying ``post``) leaves the
event order, and therefore simulation results, bit-for-bit identical.

Cancellation is lazy: the entry stays in the heap but is skipped when
popped.  To stop cancelled timers from accumulating (a long transfer
restarts its RTO timer on every ACK), the engine tracks the number of
cancelled entries still in the heap and compacts the heap in place
when they exceed half of it.  Rescheduling via :meth:`reschedule`
avoids creating garbage in the first place: a *forward* move (the
common case -- inactivity timers pushed out, RTO re-armed later) keeps
the existing heap entry and re-keys it lazily when it surfaces,
timer-wheel style.  A *backward* move (e.g. an RTO estimator shrinking
faster than time elapses) cannot be lazy -- the stale, later heap key
would delay the pop past the new deadline -- so the engine pushes a
fresh entry eagerly and remembers the abandoned entry's sequence
number as a *ghost* to be discarded when it surfaces.

Fired handle events are recycled through a small free list
(:attr:`Simulator.pool_reuses` counts reuses).  A handle must be
dropped once its event has fired or been cancelled; retaining one and
cancelling it much later is a no-op at worst while it sits in the
pool, but undefined once the object has been reused.  (Every timer
holder in this codebase clears its reference inside the callback or
immediately after cancelling.)

Time is a float measured in **seconds** of simulated time.  The engine
never consults the wall clock.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.obs.bus import NULL_TRACE_BUS
from repro.obs.metrics import NULL_METRICS


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


class _NoArg:
    """Sentinel: 'this event's callback takes no argument'."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<no-arg>"


#: Passed as ``arg`` to mean "call the callback with no arguments".
NO_ARG = _NoArg()

#: Heap-compaction trigger: compact when more than this many cancelled
#: entries linger *and* they make up over half the heap.
_COMPACT_MIN = 64

#: Maximum number of recycled Event objects kept in the free list.
_POOL_MAX = 256


class _Batch:
    """A time-sorted burst of callbacks sharing one heap entry.

    ``times`` must be nondecreasing; ``args[i]`` is passed to
    ``callback`` when entry ``i`` fires.  ``idx`` is the next entry to
    fire *whenever the batch is not the event currently executing* (it
    is re-synced on every push-back).
    """

    __slots__ = ("times", "callback", "args", "idx", "seq")

    def __init__(self, times, callback, args, seq: int) -> None:
        self.times = times
        self.callback = callback
        self.args = args
        self.idx = 0
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<_Batch {self.idx}/{len(self.times)} "
                f"t0={self.times[0]:.6f}>")


class Event:
    """A handle to a scheduled callback.

    Returned by :meth:`Simulator.schedule`; the supported operations
    are :meth:`cancel`, :meth:`Simulator.reschedule`, and inspecting
    :attr:`time` / :attr:`cancelled`.  ``cancelled`` is True once the
    event is dead -- cancelled *or* already fired.
    """

    __slots__ = ("time", "seq", "callback", "arg", "cancelled", "name",
                 "key_time", "key_seq", "_sim")

    def __init__(self, time: float, seq: int,
                 callback: Optional[Callable[..., None]],
                 arg: Any = NO_ARG, name: str = "",
                 sim: Optional["Simulator"] = None) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.arg = arg
        self.cancelled = False
        self.name = name
        # The (time, seq) key of this event's current heap entry.  It
        # lags (time, seq) after a lazy (forward) reschedule until the
        # entry surfaces and is re-keyed.
        self.key_time = time
        self.key_seq = seq
        self._sim = sim

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already fired or was cancelled."""
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = None  # break reference cycles promptly
        self.arg = NO_ARG
        sim = self._sim
        if sim is not None:
            sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dead" if self.cancelled else "pending"
        label = f" {self.name!r}" if self.name else ""
        return f"<Event{label} t={self.time:.6f} {state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, lambda: print("one second"))
        sim.post(2.0, print, "two seconds")   # allocation-free fast path
        sim.run()

    The engine supports bounded runs (``until=``), step-wise execution
    (:meth:`step`), and a hard event-count limit as a runaway guard for
    tests.
    """

    def __init__(self) -> None:
        self._queue: list = []
        self._seq = 0
        #: Current simulated time in seconds.  A plain attribute (not a
        #: property): it is read on every packet send/receive, so the
        #: cheap lookup matters.  Treat it as read-only outside the
        #: engine.
        self.now = 0.0
        self._running = False
        self._live = 0        # scheduled, not yet fired or cancelled
        self._stale = 0       # cancelled/ghost entries still in the heap
        #: Sequence numbers of heap entries abandoned by a *backward*
        #: reschedule.  Such entries are discarded by seq when popped,
        #: without touching the (possibly recycled) event they carry.
        self._ghost_seqs: set = set()
        self._pool: list = []  # recycled Event objects
        self.events_processed = 0
        #: Total events accepted via any scheduling primitive.
        self.events_scheduled = 0
        #: Events scheduled through the anonymous post()/post_at() path.
        self.events_posted = 0
        #: Handle events served from the free list instead of allocated.
        self.pool_reuses = 0
        #: Times the heap was compacted to drop cancelled entries.
        self.heap_compactions = 0
        #: High-water mark of the heap length (live + stale entries).
        self.peak_heap = 0
        #: Bursts accepted via :meth:`post_batch`.
        self.batches_posted = 0
        #: Total entries carried by those bursts.
        self.batch_entries = 0
        #: Batch entries drained inline (no heap pop of their own).
        self.batch_inline = 0
        #: High-water mark of in-flight ranges over the sender
        #: scoreboards attached to this simulator (:mod:`repro.sim.arena`).
        self.arena_peak = 0
        #: Active run()'s ``until`` bound; inline batch draining must
        #: not fire past it (the remainder is pushed back instead).
        self._batch_limit = float("inf")
        #: Protocol-event trace bus (see :mod:`repro.obs.bus`).  The
        #: default is the shared no-op; components cache a reference at
        #: construction, so install a real bus *before* building the
        #: protocol stack.  Tracing is passive -- swapping the bus
        #: never changes simulation results.
        self.trace = NULL_TRACE_BUS
        #: Metrics registry (see :mod:`repro.obs.metrics`), the bus's
        #: aggregating sibling, under the same contract: no-op default,
        #: cached at construction, strictly passive.
        self.metrics = NULL_METRICS

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def _new_event(self, time: float, callback: Callable[..., None],
                   arg: Any, name: str) -> Event:
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = seq
            event.key_time = time
            event.key_seq = seq
            event.callback = callback
            event.arg = arg
            event.cancelled = False
            event.name = name
            event._sim = self
            self.pool_reuses += 1
        else:
            event = Event(time, seq, callback, arg, name, self)
        return event

    def _book(self) -> None:
        self.events_scheduled += 1
        self._live += 1
        if len(self._queue) > self.peak_heap:
            self.peak_heap = len(self._queue)

    def schedule(self, delay: float, callback: Callable[..., None],
                 arg: Any = NO_ARG, name: str = "") -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns an :class:`Event` handle that may be cancelled or
        rescheduled.  With ``arg`` given, the callback is invoked as
        ``callback(arg)`` -- passing the argument through the event
        avoids allocating a closure per call.  A negative delay is an
        error; a zero delay fires after all events already scheduled
        for the current instant.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r}s in the past")
        event = self._new_event(self.now + delay, callback, arg, name)
        heapq.heappush(self._queue, (event.time, event.seq, event))
        self._book()
        return event

    def schedule_at(self, time: float, callback: Callable[..., None],
                    arg: Any = NO_ARG, name: str = "") -> Event:
        """Schedule ``callback`` at absolute simulated ``time``.

        The event carries exactly ``time`` (no now-relative roundoff),
        so equal absolute times keep FIFO ordering.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, now is {self.now!r}")
        event = self._new_event(time, callback, arg, name)
        heapq.heappush(self._queue, (event.time, event.seq, event))
        self._book()
        return event

    def post(self, delay: float, callback: Callable[..., None],
             arg: Any = NO_ARG) -> None:
        """Anonymous fast path: like :meth:`schedule`, but no handle.

        No :class:`Event` is allocated -- the callback and its single
        argument ride in the heap entry itself.  The event cannot be
        cancelled; use :meth:`schedule` when a handle is needed.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r}s in the past")
        seq = self._seq
        self._seq = seq + 1
        queue = self._queue
        heapq.heappush(queue, (self.now + delay, seq, callback, arg))
        # _book(), inlined: this is the per-packet path.
        self.events_posted += 1
        self.events_scheduled += 1
        self._live += 1
        if len(queue) > self.peak_heap:
            self.peak_heap = len(queue)

    def post_at(self, time: float, callback: Callable[..., None],
                arg: Any = NO_ARG) -> None:
        """Anonymous fast path at an absolute time (see :meth:`post`)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, now is {self.now!r}")
        seq = self._seq
        self._seq = seq + 1
        queue = self._queue
        heapq.heappush(queue, (time, seq, callback, arg))
        # _book(), inlined: this is the per-packet path.
        self.events_posted += 1
        self.events_scheduled += 1
        self._live += 1
        if len(queue) > self.peak_heap:
            self.peak_heap = len(queue)

    def post_batch(self, times: list, callback: Callable[[Any], None],
                   args: list) -> _Batch:
        """Post a nondecreasing burst of ``callback(args[i])`` at
        ``times[i]`` as a single heap entry.

        All entries share **one** sequence number, exactly as if the
        caller had pre-allocated it and issued ``post_at`` per entry --
        so ties against unrelated events resolve by when the *burst*
        was posted, and entries within the burst keep list order.
        Entries cannot be cancelled.  ``times`` must be sorted
        ascending (the caller guarantees it; links clamp deliveries
        FIFO anyway).
        """
        n = len(times)
        if n == 0:
            raise SimulationError("post_batch() requires entries")
        if times[0] < self.now:
            raise SimulationError(
                f"cannot schedule at {times[0]!r}, now is {self.now!r}")
        seq = self._seq
        self._seq = seq + 1
        batch = _Batch(times, callback, args, seq)
        queue = self._queue
        heapq.heappush(queue, (times[0], seq, self._step_batch, batch))
        self.events_posted += n
        self.events_scheduled += n
        self._live += n
        self.batches_posted += 1
        self.batch_entries += n
        if len(queue) > self.peak_heap:
            self.peak_heap = len(queue)
        return batch

    def _step_batch(self, batch: _Batch) -> None:
        """Fire the due batch entry, then drain successors inline.

        Runs as the callback of the batch's heap entry: the event loop
        has already advanced the clock to ``times[idx]`` and accounted
        for that one pop.  Each further entry fires inline only while
        it sorts strictly before the heap head under the usual
        ``(time, seq)`` key and does not cross the active ``until``
        bound; otherwise the remainder is pushed back as one entry.
        """
        times = batch.times
        args = batch.args
        callback = batch.callback
        i = batch.idx
        n = len(times)
        callback(args[i])
        i += 1
        queue = self._queue
        if not self._running:
            # step(): single-event semantics -- never drain inline.
            if i < n:
                batch.idx = i
                heapq.heappush(queue,
                               (times[i], batch.seq, self._step_batch,
                                batch))
            return
        limit = self._batch_limit
        seq = batch.seq
        inline = 0
        while i < n:
            t = times[i]
            if t > limit:
                break
            if queue:
                head = queue[0]
                if head[0] < t or (head[0] == t and head[1] < seq):
                    break
            self.now = t
            self.events_processed += 1
            self._live -= 1
            inline += 1
            callback(args[i])
            i += 1
        if inline:
            self.batch_inline += inline
        if i < n:
            batch.idx = i
            heapq.heappush(queue, (times[i], seq, self._step_batch, batch))

    def reschedule(self, event: Event, delay: float) -> Event:
        """Move a pending ``event`` to ``delay`` seconds from now.

        Equivalent to cancelling and scheduling afresh -- the event is
        assigned a new sequence number, so FIFO ordering among equal
        timestamps matches a cancel+schedule exactly -- but no
        cancelled tombstone is left behind.  A move to a *later* time
        reuses the existing heap entry, timer-wheel style, re-keying it
        lazily when it surfaces.  A move to an *earlier* time pushes a
        fresh entry eagerly (a lazy re-key would fire late, stuck
        behind the stale later key) and marks the old entry as a ghost
        to be discarded when it surfaces.  Returns the (same) event
        handle.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r}s in the past")
        if event.cancelled or event._sim is not self:
            raise SimulationError("reschedule() requires a pending event "
                                  "of this simulator")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        self.events_scheduled += 1
        event.time = time
        event.seq = seq
        if time < event.key_time:
            # Backward move: abandon the current heap entry (by seq)
            # and push the new key now so the pop is not delayed.
            self._ghost_seqs.add(event.key_seq)
            self._stale += 1
            event.key_time = time
            event.key_seq = seq
            queue = self._queue
            heapq.heappush(queue, (time, seq, event))
            if len(queue) > self.peak_heap:
                self.peak_heap = len(queue)
            if (self._stale > _COMPACT_MIN
                    and self._stale * 2 > len(queue)):
                self._compact()
        return event

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel`: update live/stale counts and
        compact the heap when cancelled entries dominate it."""
        self._live -= 1
        self._stale += 1
        if (self._stale > _COMPACT_MIN
                and self._stale * 2 > len(self._queue)):
            self._compact()

    def _release(self, event: Event) -> None:
        """Recycle a dead event into the free list."""
        event.callback = None
        event.arg = NO_ARG
        event.cancelled = True
        event._sim = None
        pool = self._pool
        if len(pool) < _POOL_MAX:
            pool.append(event)

    def _compact(self) -> None:
        """Drop cancelled/ghost entries and re-key rescheduled ones,
        in place.

        In-place (slice assignment) so that a compaction triggered from
        inside a callback is seen by the running event loop, which
        holds a local reference to the queue list.
        """
        queue = self._queue
        ghosts = self._ghost_seqs
        kept = []
        for entry in queue:
            if len(entry) == 4:         # anonymous: never cancelled
                kept.append(entry)
                continue
            if entry[1] in ghosts:
                # Abandoned by a backward reschedule; the event it
                # carries lives on under its new key (and may even
                # have been recycled) -- drop the entry, nothing else.
                ghosts.discard(entry[1])
                self._stale -= 1
                continue
            event = entry[2]
            if event.cancelled:
                self._stale -= 1
                self._release(event)
                continue
            if event.time != entry[0] or event.seq != entry[1]:
                event.key_time = event.time
                event.key_seq = event.seq
                kept.append((event.time, event.seq, event))
            else:
                kept.append(entry)
        queue[:] = kept
        heapq.heapify(queue)
        self.heap_compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Run the single next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue was
        empty (cancelled events are skipped transparently).
        """
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            if len(entry) == 4:
                self.now = entry[0]
                self.events_processed += 1
                self._live -= 1
                callback, arg = entry[2], entry[3]
                if arg is NO_ARG:
                    callback()
                else:
                    callback(arg)
                return True
            if entry[1] in self._ghost_seqs:
                self._ghost_seqs.discard(entry[1])
                self._stale -= 1
                continue
            event = entry[2]
            if event.cancelled:
                self._stale -= 1
                self._release(event)
                continue
            if event.time != entry[0] or event.seq != entry[1]:
                event.key_time = event.time
                event.key_seq = event.seq
                heapq.heappush(queue, (event.time, event.seq, event))
                continue
            self.now = event.time
            self.events_processed += 1
            self._live -= 1
            callback, arg = event.callback, event.arg
            self._release(event)
            assert callback is not None
            if arg is NO_ARG:
                callback()
            else:
                callback(arg)
            return True
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` more events have been processed.

        Returns the simulated time when the run stopped.  When stopping
        at ``until``, the clock is advanced to ``until`` even if no
        event fires exactly there, so successive bounded runs compose.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        processed = 0
        queue = self._queue
        heappop = heapq.heappop
        heappush = heapq.heappush
        no_arg = NO_ARG
        ghost_seqs = self._ghost_seqs  # mutated in place, never rebound
        # Sentinel limits keep the per-event checks to one comparison
        # each instead of a None test plus a comparison.
        time_limit = float("inf") if until is None else until
        budget = float("inf") if max_events is None else max_events
        self._batch_limit = time_limit
        try:
            while queue:
                entry = queue[0]
                if len(entry) == 3:
                    # Ghost check first: a ghost entry's event may be
                    # cancelled, live under a newer key, or recycled --
                    # only the entry's own seq identifies it safely.
                    if ghost_seqs and entry[1] in ghost_seqs:
                        heappop(queue)
                        ghost_seqs.discard(entry[1])
                        self._stale -= 1
                        continue
                    event = entry[2]
                    if event.cancelled:
                        heappop(queue)
                        self._stale -= 1
                        self._release(event)
                        continue
                    if event.time != entry[0] or event.seq != entry[1]:
                        # Lazily re-key a forward-rescheduled timer.
                        heappop(queue)
                        event.key_time = event.time
                        event.key_seq = event.seq
                        heappush(queue, (event.time, event.seq, event))
                        continue
                    if entry[0] > time_limit or processed >= budget:
                        break
                    heappop(queue)
                    self.now = event.time
                    processed += 1
                    callback = event.callback
                    arg = event.arg
                    self._release(event)
                    if arg is no_arg:
                        callback()
                    else:
                        callback(arg)
                else:
                    if entry[0] > time_limit or processed >= budget:
                        break
                    heappop(queue)
                    self.now = entry[0]
                    processed += 1
                    callback = entry[2]
                    arg = entry[3]
                    if arg is no_arg:
                        callback()
                    else:
                        callback(arg)
        finally:
            self._running = False
            self._batch_limit = float("inf")
            # Folded in once at loop exit; pending() and
            # events_processed read from *inside* a callback lag by the
            # events fired so far in this run() call.
            self.events_processed += processed
            self._live -= processed
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def pending(self) -> int:
        """Number of scheduled, not-yet-cancelled events.  O(1): the
        engine maintains a live count on schedule/cancel/fire.  Events
        fired by an in-progress :meth:`run` are folded in when the run
        loop exits, so a read from inside a callback may overcount."""
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:.6f} pending={self.pending()}>"
