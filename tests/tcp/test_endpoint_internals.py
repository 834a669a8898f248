"""Focused unit tests on endpoint internals: SACK scoreboard, flight
accounting, delegate-mode behaviour, teardown edges."""

import pytest

from repro.core.options import DssMapping, MptcpOptions
from repro.tcp.endpoint import TcpConfig, TcpEndpoint
from repro.tcp.segment import Flags, Segment

from tests.conftest import build_mininet, start_transfer


def established_pair(net=None, size=1_000_000):
    net = net or build_mininet()
    harness = start_transfer(net, size=size)
    net.run(until=0.2)
    assert harness.server().state == "established"
    return net, harness


def test_flight_size_bounded_by_cwnd():
    net, harness = established_pair()
    server = harness.server()
    assert server._flight_size() <= server.cwnd
    assert server._flight_size() >= server.mss


def test_pipe_matches_unacked_unsacked_bytes():
    net, harness = established_pair()
    server = harness.server()
    manual = sum(s.seq_space for s in server._sent.values()
                 if s.state == 0)  # _FLIGHT
    assert server.flight_bytes == manual


def test_sack_marks_reduce_pipe():
    net, harness = established_pair()
    server = harness.server()
    sent = list(server._sent.values())
    assert len(sent) >= 3
    victim = sent[1]
    before = server.flight_bytes
    server._process_sack(((victim.seq, victim.end_seq),))
    assert server.flight_bytes == before - victim.seq_space
    # Re-SACKing the same range changes nothing.
    server._process_sack(((victim.seq, victim.end_seq),))
    assert server.flight_bytes == before - victim.seq_space


def test_mark_sack_losses_requires_dupthresh_of_sacked_data():
    net, harness = established_pair()
    server = harness.server()
    sent = list(server._sent.values())
    assert len(sent) >= 6
    server._in_recovery = True
    server._recovery_epoch += 1
    # SACK only the segment right after the first: 1 MSS above the
    # hole -- below DupThresh * MSS, so nothing may be marked lost.
    server._process_sack(((sent[1].seq, sent[1].end_seq),))
    assert sent[0].state == 0  # still _FLIGHT
    # SACK three more segments: now the hole is marked lost.
    server._process_sack(((sent[1].seq, sent[4].end_seq),))
    assert sent[0].state == 2  # _LOST


def test_advertised_window_reflects_buffered_out_of_order():
    net, harness = established_pair()
    client = harness.client_ep
    free_before = client._advertised_window()
    # Inject an out-of-order segment well past rcv_nxt.
    future = client.reassembly.rcv_nxt + 100_000
    segment = Segment(src_port=80, dst_port=client.local_port,
                      seq=future, payload_len=1000,
                      flags=Flags(ack=True), ack=client.snd_nxt)
    from repro.netsim.packet import Packet
    client.handle_packet(Packet("server.eth0", "client.wifi", segment))
    assert client._advertised_window() == free_before - 1000


def test_duplicate_syn_triggers_synack_retransmission():
    net = build_mininet()
    harness = start_transfer(net, size=0)
    net.run(until=0.2)
    server = harness.server()
    syn = Segment(src_port=harness.client_ep.local_port, dst_port=80,
                  seq=0, flags=Flags(syn=True))
    from repro.netsim.packet import Packet
    server.state = "syn_rcvd"  # simulate a lost handshake ACK
    server.handle_packet(Packet("client.wifi", "server.eth0", syn))
    # A fresh SYN+ACK went out (transmitted via the host, not counted
    # in acks_sent); the endpoint must not crash or double-establish.
    assert server.state == "syn_rcvd"


def test_rst_tears_down():
    net, harness = established_pair()
    client = harness.client_ep
    rst = Segment(src_port=80, dst_port=client.local_port,
                  flags=Flags(rst=True))
    from repro.netsim.packet import Packet
    client.handle_packet(Packet("server.eth0", "client.wifi", rst))
    assert client.state == "closed"


def test_packets_ignored_after_failure():
    net, harness = established_pair()
    client = harness.client_ep
    client.fail()
    assert client.state == "failed"
    data = Segment(src_port=80, dst_port=client.local_port,
                   seq=client.reassembly.rcv_nxt, payload_len=100,
                   flags=Flags(ack=True), ack=client.snd_nxt)
    from repro.netsim.packet import Packet
    before = client.stats.acks_sent
    client.handle_packet(Packet("server.eth0", "client.wifi", data))
    assert client.stats.acks_sent == before  # no reaction


def test_fail_is_idempotent_and_detaches():
    net, harness = established_pair()
    client = harness.client_ep
    failures = []
    client.on_failed = lambda: failures.append(1)
    client.fail()
    client.fail()
    assert failures == [1]
    assert client not in client.controller.flows


def test_deregister_releases_four_tuple():
    net, harness = established_pair()
    client = harness.client_ep
    key = client.four_tuple
    client.deregister()
    # The tuple can be bound again.
    net.client.register_endpoint(key, object())


class StubDelegate:
    """A minimal delegate: serves a fixed DSN stream."""

    def __init__(self, total):
        self.total = total
        self.next_dsn = 0
        self.received = []
        self.segments = []

    def syn_options(self, ep):
        return MptcpOptions(mp_capable=True, token=1)

    def synack_options(self, ep):
        return MptcpOptions(mp_capable=True, token=1)

    def on_handshake_options(self, ep, options):
        pass

    def on_established(self, ep):
        pass

    def pull_data(self, ep, max_bytes):
        if self.next_dsn >= self.total:
            return None
        length = min(max_bytes, self.total - self.next_dsn)
        dsn = self.next_dsn
        self.next_dsn += length
        return dsn, length

    def data_options(self, ep, ssn, dsn, length):
        return MptcpOptions(dss=DssMapping(dsn=dsn, ssn=ssn,
                                           length=length))

    def ack_options(self, ep):
        return MptcpOptions(data_ack=0)

    def receive_window(self, ep):
        return 8 * 1024 * 1024

    def on_data(self, ep, start, end, meta):
        self.received.append((start, end))

    def on_segment(self, ep, segment):
        self.segments.append(segment)

    def on_peer_fin(self, ep):
        pass

    def on_rto(self, ep):
        pass

    def on_failed(self, ep):
        pass

    def has_pending_data(self, ep):
        return self.next_dsn < self.total


def run_delegate_transfer(server_delegate, client_delegate):
    """Connect a delegate-mode pair over a clean mininet and run 10 s;
    returns the client endpoint."""
    from repro.core.coupling import RenoController
    from repro.tcp.endpoint import TcpListener

    net = build_mininet()
    config = TcpConfig()

    def accept(packet, host):
        segment = packet.segment
        endpoint = TcpEndpoint(net.sim, host, packet.dst,
                               segment.dst_port, packet.src,
                               segment.src_port, config,
                               RenoController(),
                               delegate=server_delegate)
        endpoint.accept(packet)

    net.server.bind_listener(80, TcpListener(accept))
    client = TcpEndpoint(net.sim, net.client, "client.wifi",
                         net.client.ephemeral_port(), "server.eth0",
                         80, config, RenoController(),
                         delegate=client_delegate)
    assert client._in_try_send is False  # set by __init__, not getattr
    client.connect()
    net.run(until=10.0)
    return client


def test_delegate_mode_pulls_and_maps():
    server_delegate = StubDelegate(total=50_000)
    client_delegate = StubDelegate(total=0)
    run_delegate_transfer(server_delegate, client_delegate)
    # All 50 KB pulled, transmitted with mappings, and delivered in
    # SSN order with the mapping metadata intact.
    assert server_delegate.next_dsn == 50_000
    total = sum(end - start for start, end in client_delegate.received)
    assert total == 50_000
    starts = [start for start, _ in client_delegate.received]
    assert starts == sorted(starts)


def test_delegate_send_rejected():
    net = build_mininet()
    from repro.core.coupling import RenoController

    endpoint = TcpEndpoint(net.sim, net.client, "client.wifi",
                           net.client.ephemeral_port(), "server.eth0",
                           80, TcpConfig(), RenoController(),
                           delegate=StubDelegate(0))
    with pytest.raises(RuntimeError):
        endpoint.send(100)


def test_try_send_reentered_from_pull_data_does_not_nest():
    """A scheduler pump re-enters ``_try_send`` from inside
    ``pull_data``; the inner call must return at the guard and leave
    the outer loop to send the data, exactly once and in order."""

    class PumpingDelegate(StubDelegate):
        depth = 0
        max_depth = 0

        def pull_data(self, ep, max_bytes):
            self.depth += 1
            self.max_depth = max(self.max_depth, self.depth)
            ep._try_send()
            self.depth -= 1
            return super().pull_data(ep, max_bytes)

    server_delegate = PumpingDelegate(50_000)
    client_delegate = StubDelegate(0)
    client = run_delegate_transfer(server_delegate, client_delegate)
    assert server_delegate.max_depth == 1
    assert client._in_try_send is False
    assert client_delegate.received == sorted(client_delegate.received)
    assert sum(end - start
               for start, end in client_delegate.received) == 50_000
