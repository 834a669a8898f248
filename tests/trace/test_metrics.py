"""Tests for connection-level metric roll-ups."""

import pytest

from repro.experiments.config import FlowSpec
from repro.experiments.runner import Measurement
from repro.netsim.packet import Packet
from repro.tcp.segment import Flags, Segment
from repro.trace.metrics import (
    bytes_by_client_path,
    cellular_fraction,
    download_time_from_capture,
)

from tests.conftest import capture_of


def client_capture(packets):
    return capture_of(packets, analyze_senders=False)


def rec(time, direction, src, dst, payload=0, syn=False, ack_flag=False,
        src_port=1000, dst_port=80):
    segment = Segment(src_port=src_port, dst_port=dst_port,
                      payload_len=payload,
                      flags=Flags(syn=syn, ack=ack_flag))
    return (time, direction, Packet(src, dst, segment))


def test_download_time_first_syn_to_last_data():
    capture = client_capture([
        rec(1.0, "send", "client.wifi", "server.eth0", syn=True),
        rec(1.5, "recv", "server.eth0", "client.wifi", payload=1000,
            src_port=80, dst_port=1000),
        rec(2.5, "recv", "server.eth0", "client.wifi", payload=1000,
            src_port=80, dst_port=1000),
    ])
    assert download_time_from_capture(capture) == pytest.approx(1.5)


def test_download_time_none_without_data():
    capture = client_capture([
        rec(1.0, "send", "client.wifi", "server.eth0", syn=True)])
    assert download_time_from_capture(capture) is None


def test_bytes_by_client_path_groups_by_interface():
    capture = client_capture([
        rec(1.0, "recv", "server.eth0", "client.wifi", payload=700,
            src_port=80, dst_port=1000),
        rec(1.1, "recv", "server.eth0", "client.att", payload=300,
            src_port=80, dst_port=1001),
    ])
    assert bytes_by_client_path(capture) == {"wifi": 700, "att": 300}


def test_cellular_fraction():
    capture = client_capture([
        rec(1.0, "recv", "server.eth0", "client.wifi", payload=700,
            src_port=80, dst_port=1000),
        rec(1.1, "recv", "server.eth0", "client.att", payload=300,
            src_port=80, dst_port=1001),
    ])
    assert cellular_fraction(capture) == pytest.approx(0.3)


def test_cellular_fraction_empty_capture():
    assert cellular_fraction(client_capture([])) == 0.0


def test_connection_metrics_from_real_run():
    """Full pipeline: run a real MPTCP measurement, check coherence."""
    result = Measurement(FlowSpec.mptcp(carrier="att"),
                         size=512 * 1024, seed=4).run()
    assert result.completed
    metrics = result.metrics
    assert metrics.download_time is not None
    assert metrics.download_time == pytest.approx(result.download_time)
    assert metrics.bytes_received >= 512 * 1024
    assert 0.0 <= metrics.cellular_fraction <= 1.0
    assert "wifi" in metrics.per_path
    wifi = metrics.per_path["wifi"]
    assert wifi.data_packets_sent > 0
    assert wifi.rtt_samples, "server-side RTT samples must exist"
    assert 0.0 <= wifi.loss_rate < 0.3
    # OFO delays recorded at the client receive buffer.
    assert metrics.ofo_delays is not None


def test_connection_metrics_single_path_has_no_cellular():
    result = Measurement(FlowSpec.single_path("wifi"),
                         size=64 * 1024, seed=4).run()
    assert result.completed
    assert result.metrics.cellular_fraction == 0.0
    assert set(result.metrics.per_path) == {"wifi"}
