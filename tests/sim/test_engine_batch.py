"""Tests for ``Simulator.post_batch``: one heap entry per burst, inline
draining during run(), step()/until semantics, and the batch
telemetry counters feeding ``--profile``."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_batch_fires_all_entries_at_their_times():
    sim = Simulator()
    seen = []
    times = [1.0, 1.5, 2.0]

    def record(tag):
        seen.append((sim.now, tag))

    sim.post_batch(times, record, ["a", "b", "c"])
    sim.run()
    assert seen == [(1.0, "a"), (1.5, "b"), (2.0, "c")]


def test_batch_occupies_one_heap_slot():
    sim = Simulator()
    sim.post_batch([float(t) for t in range(1, 101)],
                   lambda _: None, list(range(100)))
    assert len(sim._queue) == 1
    assert sim.pending() == 100
    sim.run()
    assert sim.events_processed == 100
    assert sim.pending() == 0


def test_batch_entries_share_one_sequence_number():
    """Ties against unrelated events resolve by when the burst was
    posted: earlier-posted events beat the batch at the same instant,
    later-posted events lose to *every* batch entry at that instant."""
    sim = Simulator()
    seen = []
    sim.post_at(1.0, seen.append, "before")
    sim.post_batch([1.0, 1.0], seen.append, ["b0", "b1"])
    sim.post_at(1.0, seen.append, "after")
    sim.run()
    assert seen == ["before", "b0", "b1", "after"]


def test_inline_drain_respects_interleaved_events():
    """A non-batch event landing between two batch times must fire in
    between -- the drain checks the heap head before every entry."""
    sim = Simulator()
    seen = []
    sim.post_batch([1.0, 2.0, 3.0], seen.append, ["b1", "b2", "b3"])
    sim.post_at(1.5, seen.append, "mid")
    sim.post_at(2.5, seen.append, "mid2")
    sim.run()
    assert seen == ["b1", "mid", "b2", "mid2", "b3"]
    assert sim.batch_inline < 3, "interleaved events break the drain"


def test_step_never_drains_inline():
    """step() keeps single-event semantics: each call fires exactly one
    batch entry and pushes the remainder back."""
    sim = Simulator()
    seen = []
    sim.post_batch([1.0, 1.0, 1.0], seen.append, ["a", "b", "c"])
    assert sim.step() and seen == ["a"]
    assert sim.step() and seen == ["a", "b"]
    assert sim.step() and seen == ["a", "b", "c"]
    assert not sim.step()
    assert sim.batch_inline == 0


def test_run_until_splits_a_batch():
    """Entries beyond ``until`` stay pending; a later run() fires them
    at unchanged times."""
    sim = Simulator()
    seen = []

    def record(tag):
        seen.append((sim.now, tag))

    sim.post_batch([1.0, 2.0, 3.0], record, ["a", "b", "c"])
    sim.run(until=2.0)
    assert seen == [(1.0, "a"), (2.0, "b")]
    assert sim.now == 2.0
    sim.run()
    assert seen[-1] == (3.0, "c")


def test_post_batch_rejects_empty_and_past_times():
    sim = Simulator()
    sim.post_at(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post_batch([], lambda _: None, [])
    with pytest.raises(SimulationError):
        sim.post_batch([0.5], lambda _: None, [None])


def test_batch_counters():
    sim = Simulator()
    sim.post_batch([1.0, 1.0, 1.0], lambda _: None, [0, 1, 2])
    sim.post_batch([2.0, 2.0], lambda _: None, [0, 1])
    sim.run()
    assert sim.batches_posted == 2
    assert sim.batch_entries == 5
    assert sim.batch_inline == 3, "2 + 1 entries drained without a pop"
    assert sim.events_processed == 5
