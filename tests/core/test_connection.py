"""Integration tests of the MPTCP connection over the testbed."""

import pytest

from repro.app.http import HTTP_PORT, HttpClient, HttpServerSession
from repro.core.connection import MptcpConfig, MptcpConnection, MptcpListener
from repro.testbed import Testbed, TestbedConfig


def build(carrier="att", paths=2, config=None, size=256 * 1024, seed=1,
          jitter=False):
    """Testbed + MPTCP listener + client download, ready to run."""
    testbed = Testbed(TestbedConfig(
        carrier=carrier, server_interfaces=2 if paths == 4 else 1,
        seed=seed, environment_jitter=jitter))
    config = config or MptcpConfig()
    state = {}

    def on_connection(connection):
        state["server"] = connection
        HttpServerSession.fixed(connection, size)

    listener = MptcpListener(testbed.sim, testbed.server, HTTP_PORT, config,
                             server_addrs=testbed.server_addrs,
                             on_connection=on_connection)
    connection = MptcpConnection.client(
        testbed.sim, testbed.client, testbed.client_addrs,
        testbed.server_addrs[0], HTTP_PORT, config)
    client = HttpClient(testbed.sim, connection, size)
    client.start()
    connection.connect()
    return testbed, connection, client, state, listener


def test_two_path_connection_opens_two_subflows():
    testbed, connection, client, state, _ = build(paths=2)
    testbed.run(until=30.0)
    assert client.record.complete
    assert len(connection.subflows) == 2
    assert {s.path_name for s in connection.subflows} == {"wifi", "att"}
    assert len(state["server"].subflows) == 2


def test_four_path_connection_opens_four_subflows():
    testbed, connection, client, state, _ = build(paths=4)
    testbed.run(until=30.0)
    assert client.record.complete
    assert len(connection.subflows) == 4
    pairs = {(s.endpoint.local_addr, s.endpoint.remote_addr)
             for s in connection.subflows}
    assert pairs == {
        ("client.wifi", "server.eth0"), ("client.att", "server.eth0"),
        ("client.wifi", "server.eth1"), ("client.att", "server.eth1")}


def test_initial_subflow_uses_default_path_first():
    testbed, connection, client, state, _ = build()
    testbed.run(until=30.0)
    initial = connection.subflows[0]
    assert initial.is_initial
    assert initial.path_name == "wifi"


def test_join_waits_for_initial_establishment_by_default():
    testbed, connection, client, state, _ = build()
    testbed.run(until=30.0)
    initial, join = connection.subflows
    assert initial.endpoint.stats.connect_started_at == 0.0
    # The MP_JOIN SYN leaves only after the first handshake completes.
    assert join.endpoint.stats.connect_started_at >= \
        initial.endpoint.stats.established_at


def test_simultaneous_syn_opens_both_at_once():
    config = MptcpConfig(simultaneous_syn=True)
    testbed, connection, client, state, _ = build(config=config)
    testbed.run(until=30.0)
    assert client.record.complete
    starts = [s.endpoint.stats.connect_started_at
              for s in connection.subflows]
    assert starts == [0.0, 0.0]


def test_download_delivers_exact_bytes():
    testbed, connection, client, state, _ = build(size=1024 * 1024)
    testbed.run(until=60.0)
    assert client.record.complete
    assert client.record.bytes_received >= 1024 * 1024


def test_data_fin_closes_connection_at_client():
    closed = []
    testbed, connection, client, state, _ = build(size=64 * 1024)
    # HttpClient replaced on_close? Attach ours too.
    connection.on_close = lambda: closed.append(testbed.sim.now)
    testbed.run(until=30.0)
    assert closed, "DATA_FIN must be delivered once the stream completes"


def test_traffic_split_recorded_per_path():
    testbed, connection, client, state, _ = build(size=2 * 1024 * 1024)
    testbed.run(until=60.0)
    shares = connection.receive_buffer.metrics.bytes_by_path
    assert sum(shares.values()) >= 2 * 1024 * 1024
    assert shares.get("wifi", 0) > 0
    assert shares.get("att", 0) > 0


def test_tiny_transfer_stays_on_wifi():
    testbed, connection, client, state, _ = build(size=8 * 1024)
    testbed.run(until=30.0)
    shares = connection.receive_buffer.metrics.bytes_by_path
    assert shares.get("att", 0) == 0


def test_server_allocates_dsn_contiguously():
    testbed, connection, client, state, _ = build(size=512 * 1024)
    testbed.run(until=60.0)
    server = state["server"]
    assert server.next_dsn == server.total_queued == 512 * 1024 + 0
    assert server.data_acked >= 512 * 1024


def test_bytes_allocated_sums_to_stream_length():
    testbed, connection, client, state, _ = build(size=512 * 1024)
    testbed.run(until=60.0)
    server = state["server"]
    assert sum(server.bytes_allocated.values()) == server.total_queued


def test_same_seed_is_deterministic():
    def run():
        testbed, connection, client, state, _ = build(
            size=512 * 1024, seed=77, jitter=True)
        testbed.run(until=60.0)
        return (client.record.completed_at,
                connection.receive_buffer.metrics.bytes_by_path)

    assert run() == run()


def test_unknown_join_token_is_parked_then_accepted():
    """With simultaneous SYN the JOIN can arrive before MP_CAPABLE."""
    config = MptcpConfig(simultaneous_syn=True)
    # Sprint has a huge base RTT; WiFi MP_CAPABLE still lands first, so
    # park-and-replay is exercised by swapping the default path order.
    testbed = Testbed(TestbedConfig(carrier="att", seed=3,
                                    environment_jitter=False))
    state = {}
    MptcpListener(
        testbed.sim, testbed.server, HTTP_PORT, config,
        server_addrs=testbed.server_addrs,
        on_connection=lambda c: (state.__setitem__("server", c),
                                 HttpServerSession.fixed(c, 65536)))
    # Default path = cellular (slower handshake): the WiFi JOIN's SYN
    # reaches the listener before the cellular MP_CAPABLE does.
    addrs = [testbed.cellular_addr, "client.wifi"]
    connection = MptcpConnection.client(
        testbed.sim, testbed.client, addrs,
        testbed.server_addrs[0], HTTP_PORT, config)
    client = HttpClient(testbed.sim, connection, 65536)
    client.start()
    connection.connect()
    testbed.run(until=30.0)
    assert client.record.complete
    assert len(state["server"].subflows) == 2


def _send_capable_syn(testbed, token, src_port):
    """A bare MP_CAPABLE SYN from client.wifi, as a (re)opened initial
    subflow would send it."""
    from repro.core.options import MptcpOptions
    from repro.netsim.packet import Packet
    from repro.tcp.segment import Flags, Segment
    segment = Segment(src_port=src_port, dst_port=HTTP_PORT,
                      flags=Flags(syn=True),
                      options=MptcpOptions(mp_capable=True, token=token))
    testbed.client.send(Packet("client.wifi", testbed.server_addrs[0],
                               segment))


def _synacks_to(capture, port):
    """SYN-ACKs the (server-side) capture saw leave for ``port``."""
    return [record for record in capture.sent()
            if record.syn and record.ack_flag and record.dst_port == port]


def test_reopened_mp_capable_from_new_port_is_answered():
    """The client's first SYN reached us but it never saw the SYN-ACK
    and re-opens the initial subflow from a new port (same token): the
    new SYN replaces the half-open attempt instead of being dropped as
    a duplicate."""
    from repro.trace.capture import PacketCapture
    testbed = Testbed(TestbedConfig(seed=1, environment_jitter=False))
    accepted = []
    listener = MptcpListener(testbed.sim, testbed.server, HTTP_PORT,
                             MptcpConfig(),
                             server_addrs=testbed.server_addrs,
                             on_connection=accepted.append)
    capture = PacketCapture(testbed.server, keep_records=True)
    _send_capable_syn(testbed, token=77, src_port=40000)
    testbed.run(until=0.5)
    (server,) = accepted
    assert [s.endpoint.state for s in server.subflows] == ["syn_rcvd"]
    assert len(_synacks_to(capture, 40000)) == 1

    _send_capable_syn(testbed, token=77, src_port=40001)
    testbed.run(until=1.0)
    assert accepted == [server], "same connection, not a second one"
    assert listener.connections == {77: server}
    assert [(s.is_initial, s.endpoint.state) for s in server.subflows] \
        == [(True, "failed"), (True, "syn_rcvd")]
    (synack,) = _synacks_to(capture, 40001)
    assert synack.mp_capable


def test_mp_capable_after_establishment_is_ignored():
    """Once established the client only ever joins, so an MP_CAPABLE
    SYN carrying a live token is a stale duplicate: no new subflow, no
    answer."""
    from repro.trace.capture import PacketCapture
    testbed, connection, client, state, listener = build()
    testbed.run(until=30.0)
    assert client.record.complete
    server = state["server"]
    subflows = list(server.subflows)
    capture = PacketCapture(testbed.server, keep_records=True)
    _send_capable_syn(testbed, token=connection.token, src_port=49999)
    testbed.run(until=31.0)
    assert [record.src_port for record in capture.received()] == [49999]
    assert server.subflows == subflows
    assert listener.connections == {connection.token: server}
    assert list(capture.sent()) == []


def test_penalization_disabled_by_default():
    config = MptcpConfig()
    assert config.penalization is False


def test_max_subflows_caps_paths():
    config = MptcpConfig(max_subflows=1)
    testbed, connection, client, state, _ = build(config=config,
                                                  size=64 * 1024)
    testbed.run(until=30.0)
    assert client.record.complete
    assert len(connection.subflows) == 1


def test_connect_requires_client_role():
    testbed = Testbed(TestbedConfig(seed=1))
    server_conn = MptcpConnection(testbed.sim, testbed.server, "server",
                                  1234, MptcpConfig(), token=1)
    with pytest.raises(RuntimeError):
        server_conn.connect()


def test_bad_role_rejected():
    testbed = Testbed(TestbedConfig(seed=1))
    with pytest.raises(ValueError):
        MptcpConnection(testbed.sim, testbed.client, "proxy", 1,
                        MptcpConfig(), token=1)
