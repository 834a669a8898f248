"""Trace bus unit tests: emit/query, sinks, and the null bus."""

import json

import pytest

from repro.obs.bus import (
    JsonlSink,
    MemorySink,
    NULL_TRACE_BUS,
    RingSink,
    TraceBus,
    TraceEvent,
    make_trace_bus,
    read_jsonl,
    ring_of,
)


def _filled_bus():
    bus = TraceBus(MemorySink())
    bus.emit(0.0, "tcp.established", subflow=0, name="a")
    bus.emit(0.5, "sched.select", subflow=0, reason="fresh")
    bus.emit(1.0, "sched.refuse", subflow=1, reason="rwnd-limited")
    bus.emit(2.0, "cc.cwnd", subflow=1, cwnd=2896.0)
    return bus


def test_emit_and_query_all():
    bus = _filled_bus()
    assert len(bus.events()) == 4


def test_query_by_kind_prefix():
    bus = _filled_bus()
    assert [e.kind for e in bus.events(kind="sched")] == \
        ["sched.select", "sched.refuse"]
    assert [e.kind for e in bus.events(kind="sched.select")] == \
        ["sched.select"]
    # A prefix must match at a dot boundary, not mid-token.
    assert bus.events(kind="sch") == []


def test_query_by_subflow_and_time():
    bus = _filled_bus()
    assert len(bus.events(subflow=1)) == 2
    assert [e.kind for e in bus.events(t0=0.5, t1=1.0)] == \
        ["sched.select", "sched.refuse"]


def test_event_payload_round_trip():
    event = TraceEvent(1.5, "rto.fire", 2, {"consecutive": 3})
    back = TraceEvent.from_dict(event.to_dict())
    assert (back.t, back.kind, back.subflow, back.data) == \
        (event.t, event.kind, event.subflow, event.data)


def test_null_bus_is_disabled_and_inert():
    assert NULL_TRACE_BUS.enabled is False
    NULL_TRACE_BUS.emit(0.0, "anything", x=1)
    assert NULL_TRACE_BUS.events() == []
    NULL_TRACE_BUS.flush()
    NULL_TRACE_BUS.close()


def test_null_bus_has_no_dict():
    """Slotted like NullInstrumentation: no per-instance dict to pay
    for on the hot path."""
    with pytest.raises(AttributeError):
        NULL_TRACE_BUS.extra = 1


def test_ring_sink_keeps_only_recent(tmp_path):
    bus = TraceBus(RingSink(maxlen=3))
    for index in range(10):
        bus.emit(float(index), "cc.cwnd", n=index)
    ring = ring_of(bus)
    assert [event.t for event in ring] == [7.0, 8.0, 9.0]
    path = tmp_path / "dump.jsonl"
    assert ring.dump(path) == 3
    lines = path.read_text().splitlines()
    assert [json.loads(line)["data"]["n"] for line in lines] == [7, 8, 9]


def test_jsonl_sink_streams_and_reads_back(tmp_path):
    path = tmp_path / "events.jsonl"
    bus = make_trace_bus("jsonl", path=str(path))
    bus.emit(0.25, "mptcp.join", subflow=1, status="established")
    bus.emit(0.50, "rrc.state", old="idle", new="promoting")
    bus.close()
    events = read_jsonl(path)
    assert [event.kind for event in events] == ["mptcp.join", "rrc.state"]
    assert events[0].subflow == 1
    assert events[1].data["new"] == "promoting"


def test_read_jsonl_tolerates_truncated_tail(tmp_path):
    path = tmp_path / "events.jsonl"
    sink = JsonlSink(str(path))
    bus = TraceBus(sink)
    bus.emit(1.0, "a.b")
    bus.close()
    with open(path, "a") as handle:
        handle.write('{"t": 2.0, "kind": "tru')  # killed mid-write
    events = read_jsonl(path)
    assert len(events) == 1


def test_make_trace_bus_modes(tmp_path):
    assert make_trace_bus("off") is NULL_TRACE_BUS
    ring_bus = make_trace_bus("ring")
    assert ring_bus.enabled and ring_of(ring_bus) is not None
    with pytest.raises(ValueError):
        make_trace_bus("jsonl")  # path required
    with pytest.raises(ValueError):
        make_trace_bus("bogus")


def test_multiple_sinks_all_receive():
    first, second = MemorySink(), MemorySink()
    bus = TraceBus(first)
    bus.add_sink(second)
    bus.emit(0.0, "x.y")
    assert len(first) == 1 and len(second) == 1
