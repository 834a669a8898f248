"""Batched link pipeline equivalence tests.

On a single link the batched pipeline (``Link._serve_burst`` +
``Simulator.post_batch``) must be *unobservable*: identical delivery
streams (time, subflow sequence number, DSN), identical RNG
consumption, identical stats, against the per-packet pipeline a link
runs after ``disable_batching()``.  A hypothesis property drives both
pipelines through random bursts, loss, jitter, ARQ and rate modulation.

Across links the guarantee is weaker, and pinned here as an expected
failure: with two subflows per interface (MP-4) the two pipelines order
same-instant packets of sibling subflows differently on the wire.

Both production pipelines are flattened for speed; the differential
oracle for that is ``reference_link.ReferenceLink``, the same link with
one method per step.  A second property replays drawn schedules --
idle gaps, same-instant bursts, outages, fluid-load changes, an on-path
box that drops or splits packets -- through all of them.

Also here: the regression test for the hoisted no-modulation check
(satellite): unmodulated links must never enter the AR(1) stepping
code on the per-packet path.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.options import DssMapping, MptcpOptions
from repro.experiments.config import FlowSpec
from repro.experiments.runner import Measurement
from repro.netsim.link import ArqConfig, Link, LinkConfig, RateModulation
from repro.netsim.packet import Packet
from repro.sim.engine import Simulator
from repro.tcp.segment import Segment

from tests.conftest import examples

from .reference_link import ReferenceLink


# ----------------------------------------------------------------------
# Hoisted no-modulation check
# ----------------------------------------------------------------------

def _counting_link(modulation):
    sim = Simulator()
    config = LinkConfig(rate_bps=8e6, prop_delay=0.001,
                        buffer_bytes=100_000, modulation=modulation)
    link = Link(sim, config, random.Random(3))
    calls = {"n": 0}
    original = link._step_modulation

    def counting(now=None):
        calls["n"] += 1
        return original(now)

    link._step_modulation = counting
    return sim, link, calls


def _pump(sim, link, packets=20):
    for index in range(packets):
        segment = Segment(src_port=index, dst_port=2, payload_len=1000)
        sim.schedule(0.0005 * index, link.send, Packet("a", "b", segment))
    sim.run()


def test_unmodulated_link_never_steps_modulation():
    """Satellite: the no-modulation check is hoisted out of the
    per-packet path -- ``_step_modulation`` is not even called."""
    sim, link, calls = _counting_link(modulation=None)
    _pump(sim, link)
    assert link.stats.packets_delivered == 20
    assert calls["n"] == 0


def test_sigma_zero_modulation_counts_as_unmodulated():
    sim, link, calls = _counting_link(
        modulation=RateModulation(sigma=0.0, interval=0.1))
    _pump(sim, link)
    assert link.stats.packets_delivered == 20
    assert calls["n"] == 0


def test_modulated_link_still_steps_per_service_start():
    sim, link, calls = _counting_link(
        modulation=RateModulation(sigma=0.05, interval=0.01))
    _pump(sim, link)
    assert link.stats.packets_delivered == 20
    assert calls["n"] > 0


# ----------------------------------------------------------------------
# Batched vs per-packet equivalence on one link (hypothesis property)
# ----------------------------------------------------------------------

def _config(loss_rate, jitter, use_arq, modulated, buffer_bytes=200_000):
    return LinkConfig(
        rate_bps=4e6, prop_delay=0.005, buffer_bytes=buffer_bytes,
        loss_rate=loss_rate, jitter_mean=jitter,
        arq=ArqConfig(error_rate=0.1, recovery_min=0.002,
                      recovery_max=0.01,
                      residual_loss=0.2) if use_arq else None,
        modulation=RateModulation(sigma=0.05, interval=0.01)
        if modulated else None)


def _drive(bursts, loss_rate, jitter, use_arq, modulated, seed,
           per_packet):
    """Run one burst schedule through a link; return the delivery
    stream as exact (time, seq, dsn) triples plus RNG state and stats.

    ``per_packet=True`` pins the link to the per-packet pipeline with
    ``disable_batching()`` before any traffic.
    """
    sim = Simulator()
    config = _config(loss_rate, jitter, use_arq, modulated)
    link = Link(sim, config, random.Random(seed))
    assert link._vectorized
    if per_packet:
        link.disable_batching()

    stream = []

    def deliver(packet):
        segment = packet.segment
        stream.append((sim.now, segment.seq, segment.options.dss.dsn))

    link.deliver = deliver
    at = 0.0
    for index, (gap, size) in enumerate(bursts):
        at += gap * 0.0004
        options = MptcpOptions(dss=DssMapping(
            dsn=100_000 + 2 * index, ssn=index, length=size))
        segment = Segment(src_port=1, dst_port=2, seq=index,
                          payload_len=size, options=options)
        sim.schedule(at, link.send, Packet("a", "b", segment))
    sim.run()
    return stream, link.rng.random(), link.stats


@settings(max_examples=examples(40))
@given(
    bursts=st.lists(st.tuples(st.integers(0, 40),
                              st.integers(40, 1500)),
                    min_size=1, max_size=60),
    loss_rate=st.sampled_from([0.0, 0.05, 0.3]),
    jitter=st.sampled_from([0.0, 0.001]),
    use_arq=st.booleans(),
    modulated=st.booleans(),
    seed=st.integers(0, 2 ** 16),
)
def test_batched_pipeline_matches_scalar(bursts, loss_rate, jitter,
                                         use_arq, modulated, seed):
    """Batched and per-packet runs of one link produce bit-equal
    (time, seq, dsn) delivery streams, RNG states and stats across
    random bursts, losses, jitter, ARQ and modulation."""
    batched = _drive(bursts, loss_rate, jitter, use_arq, modulated,
                     seed, per_packet=False)
    legacy = _drive(bursts, loss_rate, jitter, use_arq, modulated,
                    seed, per_packet=True)
    assert batched[0] == legacy[0]
    assert batched[1] == legacy[1]
    assert batched[2] == legacy[2]


def test_long_clean_burst_matches_per_packet():
    """A deep burst on an RNG-free link (no loss, jitter, ARQ or
    modulation) accumulates 40 service times in sequence; the sums
    must be float-exact against the per-packet event chain."""
    bursts = [(0, 1448)] * 40  # one instant: a 40-deep burst
    batched = _drive(bursts, 0.0, 0.0, False, False, 11,
                     per_packet=False)
    legacy = _drive(bursts, 0.0, 0.0, False, False, 11, per_packet=True)
    assert batched == legacy


# ----------------------------------------------------------------------
# Production (both pipelines) vs the per-packet reference link
# ----------------------------------------------------------------------

class _CountingBox:
    """An on-path box that swallows every third packet and splits every
    second of the rest in two (the clone's seq is offset so deliveries
    stay identifiable)."""

    def __init__(self):
        self.seen = 0

    def __call__(self, packet, now):
        self.seen += 1
        if self.seen % 3 == 0:
            return []
        if self.seen % 2 == 0:
            segment = packet.segment
            clone = Packet(packet.src, packet.dst, segment._replace(
                seq=segment.seq + 1_000_000,
                payload_len=segment.payload_len // 2))
            return [packet, clone]
        return [packet]


def _replay(make_link, script, config, seed, boxed):
    """Play ``script`` -- (gap, kind, value) steps -- into a link;
    return its (time, seq) deliveries, stats and final RNG state."""
    sim = Simulator()
    link = make_link(sim, config, random.Random(seed))
    if boxed:
        link.middlebox = _CountingBox()
    deliveries = []
    link.deliver = lambda packet: deliveries.append(
        (sim.now, packet.segment.seq))
    at = 0.0
    for index, (gap, kind, value) in enumerate(script):
        at += gap * 0.0004
        if kind == "send":
            segment = Segment(1, 2, seq=index, payload_len=value)
            sim.schedule(at, link.send, Packet("a", "b", segment))
        elif kind == "fluid":
            # 0.1 - 4.5 Mbit/s of a 4 Mbit/s link: through the floor.
            sim.schedule(at, link.set_fluid_load, value * 3000.0)
        else:
            sim.schedule(at, link.set_down, kind == "down")
    sim.run()
    return deliveries, link.stats, link.rng.getstate()


def _pinned_link(sim, config, rng):
    link = Link(sim, config, rng)
    link.disable_batching()
    return link


@settings(max_examples=examples(60))
@given(
    script=st.lists(
        st.tuples(st.integers(0, 40),
                  st.sampled_from(["send"] * 7 + ["fluid", "down", "up"]),
                  st.integers(40, 1500)),
        min_size=1, max_size=60),
    loss_rate=st.sampled_from([0.0, 0.05, 0.3]),
    jitter=st.sampled_from([0.0, 0.001]),
    use_arq=st.booleans(),
    modulated=st.booleans(),
    buffer_bytes=st.sampled_from([4_000, 200_000]),
    boxed=st.booleans(),
    seed=st.integers(0, 2 ** 16),
)
def test_production_link_matches_reference(script, loss_rate, jitter,
                                           use_arq, modulated,
                                           buffer_bytes, boxed, seed):
    """The flattened production link == the per-packet reference link:
    same (time, seq) deliveries, same ``LinkStats``, same RNG state --
    per-packet pinned on any schedule, batched too on schedules whose
    link state nobody touches mid-run."""
    config = _config(loss_rate, jitter, use_arq, modulated, buffer_bytes)
    reference = _replay(ReferenceLink, script, config, seed, boxed)
    assert _replay(_pinned_link, script, config, seed, boxed) == reference
    if all(kind == "send" for _, kind, _ in script):
        assert _replay(Link, script, config, seed, boxed) == reference


def test_link_that_still_batches_refuses_to_go_down():
    """A precomputed burst cannot follow an outage, and nothing tries
    to make it: the owner of a link that goes down pins it per-packet
    first (``InterfaceOutage`` does, at construction)."""
    sim, link, _ = _counting_link(None)
    with pytest.raises(RuntimeError, match="disable_batching"):
        link.set_down(True)
    assert not link.is_down
    link.disable_batching()
    link.send(Packet("a", "b", Segment(src_port=1, dst_port=2,
                                       payload_len=1000)))
    link.send(Packet("a", "b", Segment(src_port=1, dst_port=2,
                                       payload_len=1000)))
    link.set_down(True)
    assert link.is_down
    assert link.stats.drops_down == 1, "the queued packet is flushed"
    sim.run()
    assert link.stats.drops_down == 2, "the one in service dies with it"
    assert link.stats.packets_delivered == 0


# ----------------------------------------------------------------------
# Across links: what is *not* guaranteed
# ----------------------------------------------------------------------

def _cell(paths, per_packet):
    """(download_time, WiFi RTT samples) of one 1 MiB MPTCP cell."""
    with pytest.MonkeyPatch.context() as patch:
        if per_packet:
            patch.setattr("repro.netsim.link._BATCH_MIN", 10 ** 9)
        result = Measurement(FlowSpec.mptcp("att", "coupled", paths),
                             1 << 20, seed=1).run()
    return result.download_time, result.metrics.rtt_samples("wifi")


@pytest.fixture(scope="module")
def mp4_batched_and_per_packet():
    return _cell(4, per_packet=False), _cell(4, per_packet=True)


def test_mp2_campaign_cell_is_identical_without_batching():
    """One subflow per interface: every link carries a single stream,
    so the single-link guarantee above carries to the whole cell."""
    assert _cell(2, per_packet=False) == _cell(2, per_packet=True)


def test_mp4_download_time_is_identical_without_batching(
        mp4_batched_and_per_packet):
    batched, per_packet = mp4_batched_and_per_packet
    assert batched[0] == per_packet[0]
    assert len(batched[1]) == len(per_packet[1])


@pytest.mark.xfail(strict=True, reason=(
    "MP-4: two same-instant packets of sibling subflows swap on the "
    "wire between batched and per-packet link service (18 of 489 WiFi "
    "RTT samples differ, same sum); the oracle pins the batched "
    "ordering.  ROADMAP item 4(ii) keeps one pipeline; it waits for "
    "the perfbench/oracle.json re-pin of item 9(e)."))
def test_mp4_rtt_samples_are_identical_without_batching(
        mp4_batched_and_per_packet):
    batched, per_packet = mp4_batched_and_per_packet
    assert batched[1] == per_packet[1]
