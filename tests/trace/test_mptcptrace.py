"""Tests for the MPTCP-level trace analyzer, including the
cross-validation against the receive buffer's exact accounting."""

import statistics

import pytest

from repro.app.http import HTTP_PORT, HttpClient, HttpServerSession
from repro.core.connection import MptcpConfig, MptcpConnection, \
    MptcpListener
from repro.core.options import DssMapping, MptcpOptions
from repro.netsim.packet import Packet
from repro.tcp.segment import Flags, Segment
from repro.testbed import Testbed, TestbedConfig
from repro.trace.capture import PacketCapture, PacketRecord

from .mptcptrace import analyze_mptcp

MB = 1024 * 1024


class FakeCapture:
    def __init__(self, records):
        self.records = records


def data_record(time, dsn, length, path="wifi"):
    options = MptcpOptions(dss=DssMapping(dsn=dsn, ssn=1, length=length))
    segment = Segment(src_port=8080, dst_port=4000, seq=1,
                      payload_len=length, flags=Flags(ack=True),
                      options=options)
    return PacketRecord(time, "recv",
                        Packet("server.eth0", f"client.{path}", segment))


def test_in_order_stream_has_zero_delays():
    records = [data_record(0.1 * i, 1000 * i, 1000) for i in range(5)]
    analysis = analyze_mptcp(FakeCapture(records))
    assert analysis.stream_bytes == 5000
    assert analysis.ofo_delays == [0.0] * 5
    assert analysis.in_order_fraction() == 1.0


def test_reordered_packet_waits_for_the_hole():
    records = [
        data_record(0.0, 0, 1000, path="wifi"),
        data_record(0.1, 2000, 1000, path="wifi"),   # early
        data_record(0.5, 1000, 1000, path="att"),    # fills the hole
    ]
    analysis = analyze_mptcp(FakeCapture(records))
    delays = sorted(analysis.ofo_delays)
    assert delays[0] == 0.0                  # first packet
    assert delays[1] == 0.0                  # the hole-filler itself
    assert delays[2] == pytest.approx(0.4)   # the early packet's wait


def test_duplicates_counted_not_delivered():
    records = [
        data_record(0.0, 0, 1000),
        data_record(0.1, 0, 1000, path="att"),  # exact duplicate
    ]
    analysis = analyze_mptcp(FakeCapture(records))
    assert analysis.stream_bytes == 1000
    assert analysis.duplicate_bytes == 1000
    assert analysis.bytes_by_path == {"wifi": 1000}


def test_shares_attributed_to_first_deliverer():
    records = [
        data_record(0.0, 0, 1000, path="wifi"),
        data_record(0.1, 1000, 1000, path="att"),
    ]
    analysis = analyze_mptcp(FakeCapture(records))
    assert analysis.bytes_by_path == {"wifi": 1000, "att": 1000}
    assert analysis.cellular_fraction() == pytest.approx(0.5)


def test_empty_capture():
    analysis = analyze_mptcp(FakeCapture([]))
    assert analysis.stream_bytes == 0
    assert analysis.in_order_fraction() == 1.0
    assert analysis.goodput_bps() == 0.0


def run_instrumented(carrier, size, seed):
    testbed = Testbed(TestbedConfig(carrier=carrier, seed=seed))
    capture = PacketCapture(testbed.client, keep_records=True)
    config = MptcpConfig()
    MptcpListener(testbed.sim, testbed.server, HTTP_PORT, config,
                  server_addrs=testbed.server_addrs,
                  on_connection=lambda c: HttpServerSession.fixed(c, size))
    connection = MptcpConnection.client(
        testbed.sim, testbed.client, testbed.client_addrs,
        testbed.server_addrs[0], HTTP_PORT, config)
    client = HttpClient(testbed.sim, connection, size)
    client.start()
    connection.connect()
    testbed.run(until=300.0)
    assert client.record.complete
    return capture, connection


@pytest.mark.parametrize("carrier", ["att", "sprint"])
def test_cross_validates_receive_buffer_accounting(carrier):
    """The capture-only reconstruction must agree with the receive
    buffer's exact internal accounting."""
    capture, connection = run_instrumented(carrier, 2 * MB, seed=17)
    from_trace = analyze_mptcp(capture)
    exact = connection.receive_buffer.metrics
    # Stream conservation.
    assert from_trace.stream_bytes == exact.delivered_bytes
    # Byte shares match exactly (both count unique bytes).
    assert from_trace.bytes_by_path == exact.bytes_by_path
    # In-order fractions agree closely (range splits differ slightly).
    assert from_trace.in_order_fraction() == pytest.approx(
        exact.in_order_fraction(), abs=0.08)
    # Mean reorder delays agree.
    if exact.delays():
        assert statistics.mean(from_trace.ofo_delays) == pytest.approx(
            statistics.mean(exact.delays()), rel=0.25, abs=0.005)
