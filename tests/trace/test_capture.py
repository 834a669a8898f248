"""Tests for the packet capture layer."""

import pytest

from repro.app.http import HTTP_PORT, HttpClient, HttpServerSession
from repro.core.connection import MptcpConfig, MptcpConnection, \
    MptcpListener
from repro.core.options import DssMapping, MptcpOptions
from repro.netsim.packet import Packet
from repro.testbed import Testbed, TestbedConfig
from repro.trace.analyzer import analyze_sender
from repro.trace.capture import PacketCapture
from repro.tcp.segment import Flags, Segment

from tests.conftest import build_mininet

KB = 1024


class Sink:
    def handle_packet(self, packet):
        pass


def send(net, payload=100, flags=None, options=None):
    segment = Segment(src_port=1000, dst_port=80, payload_len=payload,
                      flags=flags or Flags(), options=options)
    net.client.send(Packet("client.wifi", "server.eth0", segment))


def test_capture_records_sends_and_receives():
    net = build_mininet()
    client_cap = PacketCapture(net.client, keep_records=True)
    server_cap = PacketCapture(net.server, keep_records=True)
    net.server.register_endpoint(("server.eth0", 80, "client.wifi", 1000),
                                 Sink())
    send(net)
    net.run()
    assert [r.direction for r in client_cap.records] == ["send"]
    assert [r.direction for r in server_cap.records] == ["recv"]
    assert client_cap.records[0].packet_id == \
        server_cap.records[0].packet_id


def test_records_flatten_header_fields():
    net = build_mininet()
    capture = PacketCapture(net.client, keep_records=True)
    send(net, payload=123, flags=Flags(syn=True))
    net.run()
    record = capture.records[0]
    assert record.src == "client.wifi"
    assert record.dst == "server.eth0"
    assert record.payload_len == 123
    assert record.syn and not record.fin
    assert record.end_seq == 124  # payload + SYN


def test_flow_key_is_direction_agnostic():
    net = build_mininet()
    capture = PacketCapture(net.client, keep_records=True)
    send(net)
    net.run()
    record = capture.records[0]
    key = record.flow_key
    assert key == ((("client.wifi"), 1000), (("server.eth0"), 80))


def test_detach_stops_recording():
    net = build_mininet()
    capture = PacketCapture(net.client)
    send(net)
    capture.detach()
    send(net)
    net.run()
    assert len(capture) == 1


def test_iteration_and_direction_filters():
    net = build_mininet()
    capture = PacketCapture(net.client, keep_records=True)
    send(net)
    send(net)
    net.run()
    assert len(list(capture)) == 2
    assert len(list(capture.sent())) == 2
    assert len(list(capture.received())) == 0


# ----------------------------------------------------------------------
# The record sink is optional; the stream is not
# ----------------------------------------------------------------------

def test_default_capture_keeps_no_records():
    net = build_mininet()
    capture = PacketCapture(net.client)
    send(net)
    net.run()
    assert capture.packets_seen == 1
    with pytest.raises(RuntimeError, match="no per-packet records"):
        capture.records
    with pytest.raises(RuntimeError, match="no per-packet records"):
        list(capture.sent())


def test_summary_tracks_syn_and_data():
    net = build_mininet()
    capture = PacketCapture(net.client)
    send(net, payload=0, flags=Flags(syn=True))
    net.run()
    assert capture.summary.first_syn_sent is not None
    assert capture.summary.last_data_recv is None


def test_records_carry_mptcp_options():
    options = MptcpOptions(mp_capable=True,
                           dss=DssMapping(dsn=5, ssn=0, length=100),
                           data_ack=7)
    net = build_mininet()
    capture = PacketCapture(net.client, keep_records=True)
    send(net, options=options)
    net.run()
    record = capture.records[0]
    assert record.dsn == 5
    assert record.dss_len == 100
    assert record.data_ack == 7
    assert record.mp_capable and not record.mp_join


def test_record_keeping_capture_still_streams():
    """Records are a sink on top of the stream, not instead of it."""
    net = build_mininet()
    capture = PacketCapture(net.client, keep_records=True)
    send(net, payload=0, flags=Flags(syn=True))
    send(net, payload=100)
    net.run()
    assert len(capture.records) == 2
    assert capture.summary.first_syn_sent == capture.records[0].time
    assert capture.flow_analyses() == analyze_sender(capture)
    (analysis,) = capture.flow_analyses().values()
    assert analysis.data_packets_sent == 1


def test_two_subflow_download_records_mptcp_signalling():
    """A real two-subflow download carries the Section 2.2.1 signalling
    in the client's records: MP_CAPABLE, MP_JOIN and DSS all appear,
    data arrives on both client paths, and every stream byte rides
    under at least one DSS mapping."""
    size = 256 * KB
    testbed = Testbed(TestbedConfig(carrier="att", seed=17))
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

    records = capture.records
    assert any(record.mp_capable for record in records)
    assert any(record.mp_join for record in records)
    mapped = [record for record in records if record.dsn is not None]
    assert {record.dst for record in mapped
            if record.direction == "recv"} == set(testbed.client_addrs)
    assert sum(record.dss_len for record in mapped) >= size
