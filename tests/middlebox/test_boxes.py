"""Unit tests for the on-path middlebox models."""

import random

import pytest

from repro.core.options import DssMapping, MptcpOptions
from repro.middlebox import (
    LinkTap,
    Middlebox,
    MiddleboxChain,
    OptionStripper,
    PayloadProxy,
    SequenceRewriter,
    build_chain,
    install_chain,
)
from repro.netsim.link import Link, LinkConfig
from repro.netsim.packet import Packet
from repro.sim.engine import Simulator
from repro.tcp.segment import Flags, Segment


def make_packet(src="client.wifi", dst="server.eth0", src_port=1000,
                dst_port=80, payload=0, **kwargs):
    segment = Segment(src_port=src_port, dst_port=dst_port,
                      payload_len=payload, **kwargs)
    return Packet(src, dst, segment)


# ----------------------------------------------------------------------
# OptionStripper
# ----------------------------------------------------------------------

def test_stripper_removes_mp_capable_and_token():
    box = OptionStripper()
    packet = make_packet(flags=Flags(syn=True),
                         options=MptcpOptions(mp_capable=True, token=7))
    out = box.process(packet, "up", 0.0)
    assert len(out) == 1
    # Nothing left of the option block: it vanishes entirely.
    assert out[0].segment.options is None
    assert box.options_stripped == 1


def test_stripper_is_selective():
    box = OptionStripper(strip_capable=False, strip_join=False,
                         strip_add_addr=False, strip_dss=True)
    options = MptcpOptions(mp_capable=True, token=7,
                           dss=DssMapping(dsn=0, ssn=1, length=100))
    out = box.process(make_packet(payload=100, options=options), "up", 0.0)
    stripped = out[0].segment.options
    assert stripped.mp_capable and stripped.token == 7
    assert stripped.dss is None


def test_stripper_clears_mp_fail_with_dss():
    box = OptionStripper(strip_capable=False, strip_join=False,
                         strip_add_addr=False, strip_dss=True)
    out = box.process(make_packet(options=MptcpOptions(mp_fail=True)),
                      "up", 0.0)
    assert out[0].segment.options is None


def test_stripper_probability_zero_never_strips():
    box = OptionStripper(probability=0.0, rng=random.Random(1))
    packet = make_packet(options=MptcpOptions(mp_capable=True, token=7))
    out = box.process(packet, "up", 0.0)
    assert out[0].segment.options is not None
    assert out[0].segment.options.mp_capable
    assert box.options_stripped == 0


def test_wire_size_follows_a_rewritten_segment():
    """``Packet.wire_size`` is set with the segment: a box that strips
    the option block in place shrinks the packet by exactly the block's
    ``wire_length()`` (a multiple of 4, so header padding is unmoved),
    to the size a fresh packet carrying the stripped segment has."""
    for sack_blocks in ((), ((100, 200),)):       # 20 / 30 -> 32 padded
        for options in (
                MptcpOptions(mp_capable=True, token=7),
                MptcpOptions(data_ack=5),
                MptcpOptions(dss=DssMapping(0, 1, 100), data_ack=5,
                             dead_addrs=("client.wifi",))):
            packet = make_packet(payload=100, sack_blocks=sack_blocks,
                                 options=options)
            before, packet_id = packet.wire_size, packet.packet_id
            (out,) = OptionStripper().process(packet, "up", 0.0)
            assert out is packet and out.packet_id == packet_id
            assert out.segment.options is None
            assert out.wire_size == before - options.wire_length()
            assert out.wire_size == Packet(
                out.src, out.dst, out.segment).wire_size


def test_rewriter_keeps_the_wire_size():
    packet = make_packet(payload=100, options=MptcpOptions(
        dss=DssMapping(0, 1, 100), data_ack=5))
    before = packet.wire_size
    (out,) = SequenceRewriter().process(packet, "up", 0.0)
    assert out.segment.options.dss.ssn != 1
    assert out.wire_size == before


def test_stripper_passes_plain_tcp_untouched():
    box = OptionStripper()
    packet = make_packet(payload=100)
    assert box.process(packet, "down", 0.0) == [packet]
    assert packet.segment.options is None


# ----------------------------------------------------------------------
# SequenceRewriter
# ----------------------------------------------------------------------

def test_rewriter_displaces_dss_anchor_per_flow():
    box = SequenceRewriter(rng=random.Random(9))
    options = MptcpOptions(dss=DssMapping(dsn=0, ssn=1, length=100))
    first = box.process(make_packet(payload=100, options=options),
                        "up", 0.0)[0]
    offset = first.segment.options.dss.ssn - 1
    assert offset >= 1
    # The same flow gets the same displacement on every packet...
    again = box.process(
        make_packet(payload=100, options=MptcpOptions(
            dss=DssMapping(dsn=100, ssn=101, length=100))), "up", 0.0)[0]
    assert again.segment.options.dss.ssn == 101 + offset
    # ...and both directions share the per-flow offset (the key is
    # bidirectional, like a real ISN-randomizing box).
    reverse = box.process(
        make_packet(src="server.eth0", dst="client.wifi", src_port=80,
                    dst_port=1000, payload=100,
                    options=MptcpOptions(
                        dss=DssMapping(dsn=0, ssn=1, length=100))),
        "down", 0.0)[0]
    assert reverse.segment.options.dss.ssn == 1 + offset


def test_rewriter_ignores_packets_without_dss():
    box = SequenceRewriter()
    packet = make_packet(options=MptcpOptions(mp_capable=True, token=1))
    assert box.process(packet, "up", 0.0) == [packet]
    assert box.offsets == {}


# ----------------------------------------------------------------------
# PayloadProxy
# ----------------------------------------------------------------------

def test_proxy_resegments_and_strands_options():
    box = PayloadProxy(proxy_mss=500)
    options = MptcpOptions(dss=DssMapping(dsn=0, ssn=1, length=1200))
    packet = make_packet(payload=1200, seq=1,
                         flags=Flags(ack=True, fin=True), options=options)
    chunks = box.process(packet, "down", 0.0)
    assert [chunk.segment.payload_len for chunk in chunks] == [500, 500, 200]
    assert [chunk.segment.seq for chunk in chunks] == [1, 501, 1001]
    # The mapping rides only the first chunk; the FIN only the last.
    assert chunks[0].segment.options is options
    assert all(chunk.segment.options is None for chunk in chunks[1:])
    assert [chunk.segment.flags.fin for chunk in chunks] == \
        [False, False, True]


def test_proxy_passes_small_packets_untouched():
    box = PayloadProxy(proxy_mss=536)
    packet = make_packet(payload=536)
    assert box.process(packet, "up", 0.0) == [packet]
    assert box.packets_split == 0


# ----------------------------------------------------------------------
# Chain, tap, link hook
# ----------------------------------------------------------------------

def test_chain_feeds_boxes_in_order_and_counts():
    proxy = PayloadProxy(proxy_mss=600)
    stripper = OptionStripper()
    chain = MiddleboxChain([proxy, stripper])
    options = MptcpOptions(dss=DssMapping(dsn=0, ssn=1, length=1200))
    out = chain.process(make_packet(payload=1200, seq=1, options=options),
                        "up", 0.0)
    # The proxy split once; the stripper then saw *both* chunks but
    # only the first still carried options to strip.
    assert len(out) == 2
    assert all(chunk.segment.options is None for chunk in out)
    assert proxy.stats.packets_seen == 1
    assert proxy.stats.packets_created == 1
    assert stripper.stats.packets_seen == 2
    assert stripper.stats.packets_mangled == 1


def test_chain_respects_box_directions():
    box = OptionStripper(directions=("down",))
    chain = MiddleboxChain([box])
    packet = make_packet(options=MptcpOptions(mp_capable=True, token=1))
    assert chain.process(packet, "up", 0.0)[0].segment.options is not None
    assert box.stats.packets_seen == 0


def test_link_tap_rejects_bad_direction():
    with pytest.raises(ValueError):
        LinkTap(MiddleboxChain(), "sideways")


class _DroppingBox(Middlebox):
    def process(self, packet, direction, now):
        return []


def _make_link(sim):
    config = LinkConfig(rate_bps=10e6, prop_delay=0.001,
                        buffer_bytes=100_000)
    return Link(sim, config, random.Random(0), name="test-link")


def test_link_middlebox_drop_is_counted():
    sim = Simulator()
    link = _make_link(sim)
    delivered = []
    link.deliver = delivered.append
    link.middlebox = LinkTap(MiddleboxChain([_DroppingBox()]), "down")
    link.send(make_packet(src="server.eth0", dst="client.wifi",
                          src_port=80, dst_port=1000))
    sim.run(until=1.0)
    assert delivered == []
    assert link.stats.drops_middlebox == 1


def test_link_forwards_every_proxy_chunk():
    sim = Simulator()
    link = _make_link(sim)
    delivered = []
    link.deliver = delivered.append
    link.middlebox = LinkTap(MiddleboxChain([PayloadProxy(proxy_mss=400)]),
                             "up")
    link.send(make_packet(payload=1000, seq=1))
    sim.run(until=1.0)
    assert [packet.segment.payload_len for packet in delivered] == \
        [400, 400, 200]
    assert link.stats.packets_delivered == 3


class _FakeNetwork:
    def __init__(self, sim):
        self.up = _make_link(sim)
        self.down = _make_link(sim)

    def links_for(self, address):
        return self.up, self.down


def test_install_chain_taps_both_directions():
    network = _FakeNetwork(Simulator())
    chain = install_chain(network, "client.wifi", MiddleboxChain())
    assert network.up.middlebox.chain is chain
    assert network.up.middlebox.direction == "up"
    assert network.down.middlebox.chain is chain
    assert network.down.middlebox.direction == "down"


def test_build_chain_profiles():
    chain = build_chain("strip-all")
    assert isinstance(chain.boxes[0], OptionStripper)
    with pytest.raises(ValueError):
        build_chain("tarpit")
