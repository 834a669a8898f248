"""Tests for packets and the NAT filter."""

import pytest

from repro.netsim.nat import Nat
from repro.core.options import DssMapping, MptcpOptions
from repro.netsim.packet import Packet
from repro.tcp.segment import Segment


def make_packet(src="client.wifi", dst="server.eth0", src_port=1000,
                dst_port=80, payload=0, **kwargs):
    segment = Segment(src_port=src_port, dst_port=dst_port,
                      payload_len=payload, **kwargs)
    return Packet(src, dst, segment)


def test_wire_size_includes_header_overhead():
    # Plain segment: 20 B TCP base header + 20 B IP.
    assert make_packet(payload=1000).wire_size == 1000 + 40
    assert make_packet(payload=0).wire_size == 40


def test_wire_size_grows_with_options_and_sack():
    options = MptcpOptions(dss=DssMapping(dsn=0, ssn=1, length=1000),
                           data_ack=0)
    with_dss = make_packet(payload=1000, options=options)
    # 20 base + 20 DSS (rounded) + 20 IP.
    assert with_dss.wire_size == 1000 + 60
    with_sack = make_packet(payload=0, sack_blocks=((100, 200),))
    # 20 base + 10 SACK -> padded to 32, + 20 IP.
    assert with_sack.wire_size == 52


def test_mptcp_option_wire_lengths():
    assert MptcpOptions(mp_capable=True, token=1).wire_length() == 12
    assert MptcpOptions(mp_join=True, token=1).wire_length() == 12
    assert MptcpOptions(data_ack=5).wire_length() == 8
    assert MptcpOptions(dss=DssMapping(0, 1, 10),
                        data_ack=5).wire_length() == 20
    assert MptcpOptions(add_addr=("a", "b")).wire_length() == 16
    assert MptcpOptions(dead_addrs=("a",)).wire_length() == 12
    assert MptcpOptions().wire_length() == 0


def test_packet_ids_are_unique_and_increasing():
    a, b = make_packet(), make_packet()
    assert b.packet_id > a.packet_id


def test_nat_drops_without_mapping():
    nat = Nat()
    inbound = make_packet(src="server.eth0", dst="client.wifi",
                          src_port=80, dst_port=1000)
    assert not nat.allows(inbound)
    assert nat.dropped == 1


def test_nat_allows_after_outbound():
    nat = Nat()
    nat.note_outbound(make_packet())
    inbound = make_packet(src="server.eth0", dst="client.wifi",
                          src_port=80, dst_port=1000)
    assert nat.allows(inbound)


def test_nat_mapping_is_port_specific():
    nat = Nat()
    nat.note_outbound(make_packet(src_port=1000))
    other_port = make_packet(src="server.eth0", dst="client.wifi",
                             src_port=80, dst_port=2000)
    assert not nat.allows(other_port)


def test_nat_mapping_is_peer_specific():
    nat = Nat()
    nat.note_outbound(make_packet(dst="server.eth0"))
    from_other = make_packet(src="server.eth1", dst="client.wifi",
                             src_port=80, dst_port=1000)
    assert not nat.allows(from_other)


def test_nat_default_keeps_bindings_forever():
    """No idle timeout, no capacity: a binding survives any amount of
    later traffic through the same NAT."""
    nat = Nat()
    nat.note_outbound(make_packet())
    for port in range(2000, 3000):
        nat.note_outbound(make_packet(src_port=port))
    inbound = make_packet(src="server.eth0", dst="client.wifi",
                          src_port=80, dst_port=1000)
    assert nat.allows(inbound)
    assert nat.dropped == 0


def test_nat_without_a_timeout_never_reads_the_clock():
    """Nothing ages, so a binding is plain membership: the NAT takes no
    clock, and repeated outbound packets keep one mapping."""
    with pytest.raises(TypeError):
        Nat(clock=lambda: 0.0)
    nat = Nat()
    inbound = make_packet(src="server.eth0", dst="client.wifi",
                          src_port=80, dst_port=1000)
    assert not nat.allows(inbound)
    for _ in range(3):
        nat.note_outbound(make_packet())
        assert nat.allows(inbound)
    assert nat.mappings == {("client.wifi", 1000, "server.eth0", 80)}
    assert nat.dropped == 1
