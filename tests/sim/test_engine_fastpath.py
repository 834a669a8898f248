"""Tests for the fast event engine: arg-carrying scheduling, the
anonymous post() path, reschedule(), the event pool, heap compaction,
and the O(1) pending() count under RTO-style timer churn."""

import pytest

from repro.sim.engine import NO_ARG, Simulator, SimulationError


# ----------------------------------------------------------------------
# Arg-carrying and anonymous scheduling
# ----------------------------------------------------------------------

def test_schedule_with_arg_passes_it_through():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "payload")
    sim.run()
    assert seen == ["payload"]


def test_post_fires_callback_with_and_without_arg():
    sim = Simulator()
    seen = []
    sim.post(1.0, seen.append, "a")
    sim.post(2.0, lambda: seen.append("bare"))
    sim.post_at(3.0, seen.append, "b")
    sim.run()
    assert seen == ["a", "bare", "b"]


def test_post_and_schedule_interleave_in_seq_order():
    """Every primitive consumes one sequence number, so events at the
    same instant fire in scheduling order regardless of primitive."""
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, 1)
    sim.post(1.0, seen.append, 2)
    sim.schedule_at(1.0, seen.append, 3)
    sim.post_at(1.0, seen.append, 4)
    sim.run()
    assert seen == [1, 2, 3, 4]


def test_post_rejects_negative_delay_and_past_time():
    sim = Simulator()
    sim.post(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post(-0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.post_at(0.5, lambda: None)


def test_no_arg_sentinel_is_exported():
    assert repr(NO_ARG) == "<no-arg>"


# ----------------------------------------------------------------------
# reschedule()
# ----------------------------------------------------------------------

def test_reschedule_moves_event_and_preserves_handle():
    sim = Simulator()
    seen = []
    event = sim.schedule(1.0, seen.append, "late")
    sim.schedule(2.0, seen.append, "middle")
    assert sim.reschedule(event, 5.0) is event
    sim.run()
    assert seen == ["middle", "late"]
    assert event.cancelled  # fired events read as dead


def test_reschedule_matches_cancel_plus_schedule_fifo():
    """A rescheduled event takes a fresh sequence number, so among
    equal timestamps it fires exactly where a cancel+schedule would."""

    def run_variant(use_reschedule):
        sim = Simulator()
        seen = []
        timer = sim.schedule(5.0, seen.append, "timer")
        sim.schedule(3.0, seen.append, "before")

        def reset():
            nonlocal timer
            if use_reschedule:
                sim.reschedule(timer, 2.0)  # now=1 -> fires at t=3
            else:
                timer.cancel()
                timer = sim.schedule(2.0, seen.append, "timer")

        sim.schedule(1.0, reset)
        sim.schedule(3.0, seen.append, "after")
        sim.run()
        return seen

    # The reset at t=1 hands the timer the *next* sequence number, so
    # it fires after both t=3 events scheduled earlier -- in both
    # variants identically.
    assert run_variant(True) == run_variant(False) \
        == ["before", "after", "timer"]


def test_reschedule_rejects_dead_or_foreign_events():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    with pytest.raises(SimulationError):
        sim.reschedule(event, 1.0)
    other = Simulator()
    pending = other.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.reschedule(pending, 1.0)
    live = sim.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.reschedule(live, -1.0)


def test_rescheduled_event_leaves_no_tombstone():
    """reschedule() re-keys the existing heap entry instead of
    cancelling it, so the heap does not grow with churn."""
    sim = Simulator()
    state = {"count": 0, "timer": None}

    def on_tick():
        state["count"] += 1
        if state["count"] < 1000:
            sim.reschedule(state["timer"], 60.0)
            sim.post(0.001, on_tick)

    state["timer"] = sim.schedule(60.0, lambda: None)
    sim.post(0.001, on_tick)
    sim.run(until=30.0)
    assert state["count"] == 1000
    assert sim.peak_heap <= 4


def test_reschedule_backward_fires_at_the_earlier_time():
    """Moving a timer *earlier* than its current heap key must take
    effect immediately -- the regression here was an RTO timer re-armed
    with a shrinking estimate firing at the stale, later key."""
    sim = Simulator()
    seen = []
    timer = sim.schedule(10.0, lambda: seen.append(("rto", sim.now)))
    sim.schedule(1.0, lambda: sim.reschedule(timer, 2.0))
    sim.schedule(5.0, lambda: seen.append(("probe", sim.now)))
    sim.run()
    assert seen == [("rto", 3.0), ("probe", 5.0)]


def test_reschedule_backward_matches_cancel_plus_schedule():
    """Backward moves, like forward ones, must order identically to
    cancel+schedule among equal timestamps."""

    def run_variant(use_reschedule):
        sim = Simulator()
        seen = []
        timer = sim.schedule(9.0, seen.append, "timer")
        sim.schedule(3.0, seen.append, "before")

        def reset():
            nonlocal timer
            if use_reschedule:
                sim.reschedule(timer, 2.0)  # now=1 -> fires at t=3
            else:
                timer.cancel()
                timer = sim.schedule(2.0, seen.append, "timer")

        sim.schedule(1.0, reset)
        sim.schedule(3.0, seen.append, "after")
        sim.run()
        return seen

    assert run_variant(True) == run_variant(False) \
        == ["before", "after", "timer"]


def test_reschedule_backward_then_forward_and_multi_hop():
    """A chain of moves in both directions lands on the final time, and
    every abandoned ghost entry is drained from the heap."""
    sim = Simulator()
    seen = []
    timer = sim.schedule(8.0, lambda: seen.append(sim.now))
    # back (8 -> 3), forward again (3 -> 6), back again (6 -> 4).
    sim.schedule(1.0, lambda: sim.reschedule(timer, 2.0))
    sim.schedule(2.0, lambda: sim.reschedule(timer, 4.0))
    sim.schedule(2.5, lambda: sim.reschedule(timer, 1.5))
    sim.run()
    assert seen == [4.0]
    assert len(sim._queue) == 0
    assert sim._stale == 0
    assert not sim._ghost_seqs


def test_cancel_after_backward_reschedule_no_double_release():
    """Cancelling an event whose old heap entry is still a ghost must
    release the event exactly once -- a double release would let two
    live timers share one pooled object."""
    sim = Simulator()
    seen = []
    timer = sim.schedule(10.0, seen.append, "dead")
    sim.reschedule(timer, 5.0)   # ghosts the t=10 entry
    timer.cancel()
    # Recycle the pool hard: if the object were released twice, two of
    # these timers would alias one Event and misfire.
    for index in range(8):
        sim.schedule(1.0 + index, seen.append, index)
    sim.run()
    assert seen == list(range(8))
    assert len(sim._queue) == 0 and sim._stale == 0
    assert not sim._ghost_seqs


def test_compaction_drops_ghost_entries():
    """Heap compaction triggered by cancel churn must also drain ghost
    entries without touching the events they once carried."""
    sim = Simulator()
    keepers = []
    timer = sim.schedule(500.0, lambda: keepers.append(sim.now))
    sim.reschedule(timer, 400.0)  # leaves one ghost at t=500
    victims = [sim.schedule(100.0, lambda: None) for _ in range(300)]
    for victim in victims:
        victim.cancel()           # trips _compact()
    assert sim.heap_compactions >= 1
    assert not sim._ghost_seqs    # ghost swept during compaction
    assert sim.pending() == 1     # only the re-keyed timer is live
    assert len(sim._queue) < 100     # tombstone pile was swept away
    sim.run()
    assert keepers == [400.0]
    assert len(sim._queue) == 0 and sim._stale == 0


# ----------------------------------------------------------------------
# Event pool
# ----------------------------------------------------------------------

def test_pool_recycles_fired_events():
    sim = Simulator()
    for _ in range(50):
        sim.schedule(1.0, lambda: None)
    sim.run()
    first_batch_reuses = sim.pool_reuses
    for _ in range(50):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.pool_reuses > first_batch_reuses


def test_cancelled_event_never_fires_after_recycling():
    """A handle cancelled before its time must not fire even after its
    Event object has been recycled for an unrelated later event."""
    sim = Simulator()
    seen = []
    doomed = sim.schedule(5.0, seen.append, "doomed")
    doomed.cancel()
    # Force recycling: fire enough events that the pooled object backs
    # a new, live event before t=5.
    for index in range(10):
        sim.schedule(1.0 + index * 0.1, seen.append, index)
    sim.run()
    assert "doomed" not in seen
    assert seen == list(range(10))


def test_fired_handle_cancel_is_harmless_noop():
    sim = Simulator()
    seen = []
    event = sim.schedule(1.0, seen.append, "x")
    sim.run()
    event.cancel()  # already fired: must not corrupt pool accounting
    sim.schedule(1.0, seen.append, "y")
    sim.run()
    assert seen == ["x", "y"]
    assert sim.pending() == 0


# ----------------------------------------------------------------------
# Heap compaction and O(1) pending()
# ----------------------------------------------------------------------

def test_compaction_drops_cancelled_entries():
    sim = Simulator()
    events = [sim.schedule(100.0, lambda: None) for _ in range(500)]
    assert len(sim._queue) == 500
    for event in events:
        event.cancel()
    assert sim.heap_compactions >= 1
    assert len(sim._queue) < 500
    assert sim.pending() == 0
    sim.run()
    assert sim.events_processed == 0


def test_cancelled_events_skipped_without_firing():
    sim = Simulator()
    seen = []
    events = [sim.schedule(1.0 + i * 0.001, seen.append, i)
              for i in range(100)]
    for event in events[::2]:
        event.cancel()
    sim.run()
    assert seen == list(range(1, 100, 2))
    assert sim.events_processed == 50


def test_pending_is_constant_time_and_exact_under_rto_churn():
    """The RTO pattern -- cancel + re-arm a far-out timer on every ACK
    -- must neither inflate pending() nor grow the heap unboundedly."""
    sim = Simulator()
    state = {"i": 0, "rto": None}

    def on_rto():
        pass

    def on_ack():
        if state["rto"] is not None:
            state["rto"].cancel()
        state["rto"] = sim.schedule(60.0, on_rto)
        state["i"] += 1
        if state["i"] < 5000:
            sim.post(0.0001, on_ack)

    sim.post(0.0001, on_ack)
    sim.run(until=10.0)
    # One live RTO timer remains; tombstones must have been compacted
    # away instead of accumulating 5000 entries.
    assert sim.pending() == 1
    assert len(sim._queue) < 200
    assert sim.peak_heap < 200
    assert sim.heap_compactions > 0


def test_events_processed_counts_all_primitives():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.post(1.0, lambda: None)
    event = sim.schedule(2.0, lambda: None)
    sim.reschedule(event, 3.0)
    cancelled = sim.schedule(4.0, lambda: None)
    cancelled.cancel()
    sim.run()
    assert sim.events_processed == 3
    assert sim.events_scheduled == 5  # reschedule books a new seq
    assert sim.events_posted == 1
    assert sim.pending() == 0
