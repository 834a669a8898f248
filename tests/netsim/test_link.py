"""Tests for the link model: serialization, buffering, loss, ARQ."""

import random

import pytest

from repro.middlebox.base import LinkTap, MiddleboxChain
from repro.middlebox.proxy import PayloadProxy
from repro.netsim.link import ArqConfig, Link, LinkConfig, RateModulation
from repro.netsim.packet import Packet
from repro.sim.engine import Simulator
from repro.tcp.segment import Segment

from tests.conftest import DropEveryNth




def PLAIN_WIRE(payload):
    """Wire size of a plain (option-less, SACK-less) segment."""
    return payload + 40  # 20 B TCP base header + 20 B IP

def make_packet(payload: int = 1000) -> Packet:
    segment = Segment(src_port=1, dst_port=2, payload_len=payload)
    return Packet("a", "b", segment)


def make_link(sim, rate=8e6, prop=0.01, buffer_bytes=100_000, loss=0.0,
              jitter=0.0, arq=None, modulation=None, seed=1):
    config = LinkConfig(rate_bps=rate, prop_delay=prop,
                        buffer_bytes=buffer_bytes, loss_rate=loss,
                        jitter_mean=jitter, arq=arq, modulation=modulation)
    return Link(sim, config, random.Random(seed))


def test_delivery_time_is_serialization_plus_propagation():
    sim = Simulator()
    link = make_link(sim, rate=8e6, prop=0.01)
    arrivals = []
    link.deliver = lambda packet: arrivals.append(sim.now)
    packet = make_packet(1000)
    link.send(packet)
    sim.run()
    expected = PLAIN_WIRE(1000) * 8 / 8e6 + 0.01
    assert arrivals == [pytest.approx(expected)]


def test_back_to_back_packets_queue_behind_each_other():
    sim = Simulator()
    link = make_link(sim, rate=8e6, prop=0.0)
    arrivals = []
    link.deliver = lambda packet: arrivals.append(sim.now)
    for _ in range(3):
        link.send(make_packet(1000))
    sim.run()
    service = PLAIN_WIRE(1000) * 8 / 8e6
    assert arrivals == pytest.approx([service, 2 * service, 3 * service])


def test_queueing_delay_estimate_tracks_queue():
    sim = Simulator()
    link = make_link(sim, rate=8e6, prop=0.0)
    link.deliver = lambda packet: None
    assert link.queueing_delay_estimate() == 0.0
    link.send(make_packet(1000))  # enters service immediately
    link.send(make_packet(1000))  # queued
    assert link.queue_bytes == PLAIN_WIRE(1000)
    assert link.queueing_delay_estimate() == pytest.approx(
        PLAIN_WIRE(1000) * 8 / 8e6)


def test_drop_tail_overflow():
    sim = Simulator()
    link = make_link(sim, buffer_bytes=2500)
    delivered = []
    link.deliver = lambda packet: delivered.append(packet)
    for _ in range(5):
        link.send(make_packet(1000))
    sim.run()
    # One in service immediately; the buffer fits two more (2 x 1040).
    assert link.stats.drops_overflow == 2
    assert len(delivered) == 3


def test_conservation_offered_equals_delivered_plus_drops():
    """Every packet the link has to account for ends up delivered or in
    exactly one drop counter -- also behind an on-path box that turns
    one packet into three (each is offered to drop-tail admission) or
    swallows it (offered, then a middlebox drop)."""
    sends = 200
    for box, offered in ((None, sends),
                         (PayloadProxy(proxy_mss=200), 3 * sends),
                         (DropEveryNth(3), sends)):
        sim = Simulator()
        link = make_link(sim, buffer_bytes=5000, loss=0.3, seed=7)
        if box is not None:
            link.middlebox = LinkTap(MiddleboxChain([box]), "up")
        delivered = []
        link.deliver = lambda packet: delivered.append(packet)

        def feed(i=0):
            if i < sends:
                link.send(make_packet(500))
                sim.schedule(0.002, lambda: feed(i + 1))

        feed()
        sim.run()
        stats = link.stats
        assert stats.packets_offered == offered
        assert stats.packets_delivered == len(delivered)
        assert (len(delivered) + stats.drops_overflow + stats.drops_loss
                + stats.drops_arq_residual
                + stats.drops_middlebox) == offered
        assert stats.drops_middlebox == (sends // 3 if isinstance(
            box, DropEveryNth) else 0)


def test_bernoulli_loss_rate_statistics():
    sim = Simulator()
    link = make_link(sim, loss=0.1, buffer_bytes=10 ** 9, seed=3)
    count = [0]
    link.deliver = lambda packet: count.__setitem__(0, count[0] + 1)
    n = 5000

    def feed(i=0):
        if i < n:
            link.send(make_packet(100))
            sim.schedule(0.001, lambda: feed(i + 1))

    feed()
    sim.run()
    loss = 1 - count[0] / n
    assert 0.07 < loss < 0.13


def test_arq_converts_losses_to_delay():
    sim = Simulator()
    arq = ArqConfig(error_rate=1.0, recovery_min=0.05, recovery_max=0.05,
                    residual_loss=0.0)
    link = make_link(sim, rate=8e6, prop=0.01, arq=arq)
    arrivals = []
    link.deliver = lambda packet: arrivals.append(sim.now)
    link.send(make_packet(1000))
    sim.run()
    expected = PLAIN_WIRE(1000) * 8 / 8e6 + 0.01 + 0.05
    assert arrivals == [pytest.approx(expected)]
    assert link.stats.arq_recoveries == 1
    assert link.stats.drops_arq_residual == 0


def test_arq_residual_loss_drops():
    sim = Simulator()
    arq = ArqConfig(error_rate=1.0, residual_loss=1.0)
    link = make_link(sim, arq=arq)
    delivered = []
    link.deliver = lambda packet: delivered.append(packet)
    link.send(make_packet(1000))
    sim.run()
    assert delivered == []
    assert link.stats.drops_arq_residual == 1


def test_delivery_order_is_fifo_even_with_jitter():
    sim = Simulator()
    link = make_link(sim, jitter=0.02, seed=9)
    order = []
    link.deliver = lambda packet: order.append(packet.packet_id)
    packets = [make_packet(100) for _ in range(50)]
    for packet in packets:
        link.send(packet)
    sim.run()
    assert order == [packet.packet_id for packet in packets]


def test_modulation_changes_rate_within_bounds():
    sim = Simulator()
    modulation = RateModulation(rho=0.5, sigma=0.5, interval=0.01,
                                floor=0.2, ceiling=1.8)
    link = make_link(sim, modulation=modulation, seed=4)
    rates = []

    def probe(i=0):
        rates.append(link.current_rate())
        if i < 200:
            sim.schedule(0.05, lambda: probe(i + 1))

    probe()
    sim.run()
    base = link.config.rate_bps
    assert min(rates) >= 0.2 * base - 1e-6
    assert max(rates) <= 1.8 * base + 1e-6
    assert len(set(rates)) > 10  # it actually varies


def test_modulation_disabled_with_zero_sigma():
    sim = Simulator()
    modulation = RateModulation(sigma=0.0)
    link = make_link(sim, modulation=modulation)
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert link.current_rate() == link.config.rate_bps


def test_peak_queue_statistic():
    sim = Simulator()
    link = make_link(sim)
    link.deliver = lambda packet: None
    for _ in range(4):
        link.send(make_packet(1000))
    assert link.stats.peak_queue_bytes == 3 * PLAIN_WIRE(1000)
