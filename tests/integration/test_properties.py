"""Property-based and fuzz tests of system-level invariants."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.middlebox.base import LinkTap, MiddleboxChain
from repro.middlebox.proxy import PayloadProxy
from repro.netsim.link import Link, LinkConfig
from repro.netsim.packet import Packet
from repro.sim.engine import Simulator
from repro.tcp.segment import Segment

from tests.conftest import (DropEveryNth, build_mininet, examples,
                            start_transfer)


@settings(max_examples=examples(100))
@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=50))
def test_engine_fires_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@settings(max_examples=examples(50))
@given(st.lists(st.floats(min_value=0.0, max_value=10.0,
                          allow_nan=False), min_size=1, max_size=30),
       st.data())
def test_engine_cancellation_is_exact(delays, data):
    sim = Simulator()
    fired = []
    events = [sim.schedule(delay, lambda i=i: fired.append(i))
              for i, delay in enumerate(delays)]
    to_cancel = data.draw(st.sets(
        st.integers(min_value=0, max_value=len(delays) - 1)))
    for index in to_cancel:
        events[index].cancel()
    sim.run()
    assert set(fired) == set(range(len(delays))) - to_cancel


@settings(max_examples=examples(25))
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
       st.integers(min_value=2_000, max_value=50_000),
       st.sampled_from([None, "proxy", "dropper"]))
def test_link_conserves_packets(seed, loss, buffer_kb, box):
    sim = Simulator()
    config = LinkConfig(rate_bps=5e6, prop_delay=0.005,
                        buffer_bytes=buffer_kb, loss_rate=loss)
    link = Link(sim, config, random.Random(seed))
    if box is not None:
        # A re-segmenting proxy (one 500-byte packet becomes three) or
        # a box that swallows every fourth packet.
        link.middlebox = LinkTap(MiddleboxChain(
            [PayloadProxy(proxy_mss=200) if box == "proxy"
             else DropEveryNth(4)]), "up")
    delivered = []
    link.deliver = delivered.append
    n = 150

    def feed(i=0):
        if i < n:
            link.send(Packet("a", "b", Segment(src_port=1, dst_port=2,
                                               payload_len=500)))
            sim.schedule(0.0005, lambda: feed(i + 1))

    feed()
    sim.run()
    stats = link.stats
    offered = 3 * n if box == "proxy" else n
    assert stats.packets_offered == offered
    accounted = (len(delivered) + stats.drops_overflow + stats.drops_loss
                 + stats.drops_arq_residual + stats.drops_down
                 + stats.drops_middlebox)
    assert accounted == offered


@settings(max_examples=examples(15))
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.floats(min_value=0.0, max_value=0.08, allow_nan=False),
       st.integers(min_value=1, max_value=300))
def test_tcp_delivers_exactly_once_under_random_loss(seed, loss,
                                                     size_kb):
    """The stream abstraction: every byte exactly once, in order,
    for any loss pattern that eventually lets packets through."""
    size = size_kb * 1024
    net = build_mininet(loss_rate=loss, seed=seed)
    harness = start_transfer(net, size=size)
    net.run(until=600.0)
    assert sum(harness.received) == size


def _assert_delivers_through_outage(seed, down_at, duration):
    """Download 1 MB over MP-2 while WiFi drops out for ``duration``
    seconds from ``down_at``; every byte must arrive exactly once."""
    from repro.app.http import HTTP_PORT, HttpClient, HttpServerSession
    from repro.core.connection import MptcpConfig, MptcpConnection, \
        MptcpListener
    from repro.testbed import Testbed, TestbedConfig
    from repro.wireless.mobility import InterfaceOutage

    size = 1024 * 1024
    testbed = Testbed(TestbedConfig(seed=seed))
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
    outage = InterfaceOutage(testbed.sim,
                             testbed.client.interfaces["client.wifi"])
    outage.schedule(down_at=down_at, up_at=down_at + duration)
    manager = connection.path_manager
    outage.on_down.append(lambda: manager.on_interface_down("client.wifi"))
    outage.on_up.append(lambda: manager.on_interface_up("client.wifi"))
    testbed.run(until=240.0)
    assert client.record.complete
    assert connection.receive_buffer.metrics.delivered_bytes == size


@settings(max_examples=examples(10))
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.floats(min_value=0.3, max_value=3.0, allow_nan=False),
       st.floats(min_value=0.5, max_value=5.0, allow_nan=False))
@example(seed=156, down_at=1.0, duration=1.0)
def test_mptcp_delivers_exactly_once_through_outage(seed, down_at,
                                                    duration):
    """Reinjection + failover must never duplicate or drop stream
    bytes, whatever the outage timing."""
    _assert_delivers_through_outage(seed % 1000, down_at, duration)


#: Every seed in 0-999 on which WiFi loses the first SYN-ACK, so the
#: client's 1 s SYN retransmission coincides with a ``down_at=1.0``
#: outage and the initial subflow is re-opened from a new port when
#: WiFi returns.  The listener used to drop that SYN as a duplicate and
#: the connection never established.
HANDSHAKE_OUTAGE_SEEDS = (25, 46, 156, 189, 235, 399, 440, 473, 475, 484,
                          491, 522, 602, 607, 662, 791, 827, 978)


@pytest.mark.parametrize("seed", HANDSHAKE_OUTAGE_SEEDS)
def test_handshake_survives_outage_at_syn_retransmit(seed):
    _assert_delivers_through_outage(seed, down_at=1.0, duration=1.0)


@settings(max_examples=examples(10))
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_mptcp_deterministic_under_seed(seed):
    from repro.experiments.config import FlowSpec
    from repro.experiments.runner import Measurement

    spec = FlowSpec.mptcp(carrier="att")
    a = Measurement(spec, 128 * 1024, seed=seed % 10_000).run()
    b = Measurement(spec, 128 * 1024, seed=seed % 10_000).run()
    assert a.download_time == b.download_time
