"""Unidirectional links: serialization, propagation, buffering, loss.

This is where every access-network pathology the paper measures comes
from:

* **Bufferbloat** (Section 5.1): a link has a finite *drop-tail* buffer
  sized in bytes.  Cellular profiles use very deep buffers, so when TCP
  grows its window the queueing delay -- occupancy divided by service
  rate -- inflates the RTT by the 4-20x factors the paper reports.
* **Wireless loss**: a Bernoulli per-packet loss probability models
  WiFi's 1-3 % TCP-visible loss.
* **Link-layer ARQ** (Section 2.1): cellular carriers retransmit
  locally, transparent to TCP, so radio errors surface as *delay*
  rather than loss.  :class:`ArqConfig` models this: with probability
  ``error_rate`` a packet is delayed by a recovery time, and only a
  small residual fraction is actually dropped.
* **Rate variability**: cellular service rate is modulated by a seeded
  AR(1) process (:class:`RateModulation`), producing the RTT spread and
  heavy tails of Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional
import bisect
import collections
import random

from repro.netsim.packet import Packet
from repro.obs.metrics import BYTES_EDGES
from repro.sim.engine import Simulator

#: Queue length at which :meth:`Link._serve_next` switches from the
#: scalar per-packet path to a batched burst.  A singleton queue stays
#: scalar (zero batch-build overhead on idle links).
_BATCH_MIN = 2


@dataclass(frozen=True)
class ArqConfig:
    """Link-layer local retransmission parameters.

    Attributes:
        error_rate: probability that a packet suffers a radio error.
        recovery_min: minimum local-recovery delay (seconds).
        recovery_max: maximum local-recovery delay (seconds).
        residual_loss: probability, *given* a radio error, that local
            recovery fails and the packet is dropped (TCP-visible loss).
    """

    error_rate: float = 0.0
    recovery_min: float = 0.02
    recovery_max: float = 0.08
    residual_loss: float = 0.01


@dataclass(frozen=True)
class RateModulation:
    """AR(1) multiplicative modulation of the link service rate.

    Every ``interval`` seconds the rate multiplier ``m`` evolves as
    ``m' = 1 + rho * (m - 1) + sigma * N(0, 1)`` and is clamped to
    ``[floor, ceiling]``.  ``sigma = 0`` disables modulation.
    """

    rho: float = 0.9
    sigma: float = 0.0
    interval: float = 0.1
    floor: float = 0.25
    ceiling: float = 1.75


@dataclass(frozen=True)
class LinkConfig:
    """Static description of a unidirectional link."""

    rate_bps: float
    prop_delay: float
    buffer_bytes: int
    loss_rate: float = 0.0
    jitter_mean: float = 0.0
    arq: Optional[ArqConfig] = None
    modulation: Optional[RateModulation] = None


@dataclass
class LinkStats:
    """Counters a link accumulates; read by tests and reports."""

    packets_offered: int = 0
    packets_delivered: int = 0
    drops_overflow: int = 0
    drops_loss: int = 0
    drops_arq_residual: int = 0
    drops_down: int = 0
    drops_middlebox: int = 0
    arq_recoveries: int = 0
    bytes_delivered: int = 0
    peak_queue_bytes: int = 0


class Link:
    """A unidirectional store-and-forward link.

    Packets are serialized one at a time at the (possibly modulated)
    service rate, subject to a drop-tail buffer, then experience
    propagation delay, optional jitter, random loss and optional ARQ
    recovery before being handed to ``deliver``.
    """

    def __init__(self, sim: Simulator, config: LinkConfig,
                 rng: random.Random, name: str = "link") -> None:
        self.sim = sim
        self.config = config
        self.rng = rng
        self.name = name
        self.deliver: Callable[[Packet], None] = lambda packet: None
        #: Optional on-path middlebox hook: called as ``(packet, now)``
        #: for every offered packet, returning the packets to forward
        #: (none = dropped by the box); the middlebox package's
        #: ``install_chain`` sets it.
        self.middlebox: Optional[
            Callable[[Packet, float], "list[Packet]"]] = None
        self.stats = LinkStats()
        # Metrics registry, cached at construction like ``sim.trace``
        # consumers elsewhere: install a real registry before building
        # the network.  Guarded with ``enabled`` on the hot path.
        self._metrics = sim.metrics
        # Invariant: an idle link's queue is empty.  ``_busy`` is cleared
        # only when a service completion or a burst's end finds the
        # queue empty, and :meth:`set_down` clears the queue but never
        # ``_busy`` -- so :meth:`_admit` may put a packet that finds the
        # link idle straight into service.
        self._queue: collections.deque[Packet] = collections.deque()
        self._queue_bytes = 0
        self._busy = False
        self._rate_multiplier = 1.0
        self._last_modulation_step = 0.0
        self._last_delivery_time = 0.0
        self._down = False
        self._fluid_bps = 0.0
        # What every packet reads of the (frozen) config, hoisted once:
        # per-packet service must not pay a dataclass attribute walk,
        # least of all to learn there is nothing to modulate or recover.
        self._rate_bps = config.rate_bps
        self._buffer_bytes = config.buffer_bytes
        self._prop_delay = config.prop_delay
        self._jitter_mean = config.jitter_mean
        self._loss_rate = config.loss_rate
        arq = config.arq
        self._arq = arq if arq is not None and arq.error_rate > 0.0 else None
        modulation = config.modulation
        self._modulation = (modulation if modulation is not None
                            and modulation.sigma != 0.0 else None)
        #: Batched serving enabled?  Cleared by :meth:`disable_batching`
        #: (mobility / shared-world owners).
        self._vectorized = True
        # Active-burst bookkeeping.  While a burst is in flight the
        # packets are no longer in ``_queue``, so drop-tail admission
        # and occupancy reads reconstruct "bytes not yet in service"
        # from the burst's precomputed service-start times.
        self._batch_starts: Optional[list] = None  # service starts
        self._batch_suffix: list = []  # suffix byte sums over starts

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def set_down(self, down: bool) -> None:
        """Take the link down (all traffic black-holed) or back up.

        Models WiFi disassociation / walking out of AP range: packets
        already queued are flushed (they would be lost with the
        association state), and new offers are dropped until the link
        comes back.  A precomputed burst cannot follow an outage, so
        the owner of a link that goes down pins it per-packet first
        (:meth:`disable_batching`, at construction).
        """
        if down and self._vectorized:
            raise RuntimeError("disable_batching() first")
        self._down = down
        if down:
            self.stats.drops_down += len(self._queue)
            self._queue.clear()
            self._queue_bytes = 0

    def disable_batching(self) -> None:
        """Pin this link to the scalar per-packet pipeline.

        Mobility outages (:class:`repro.wireless.mobility.InterfaceOutage`)
        and shared-world residual-capacity coupling
        (:meth:`set_fluid_load` called mid-run) mutate link state while
        packets are in flight.  A precomputed burst cannot follow such
        mutations without replaying RNG draws, so owners of volatile
        links pin them scalar at construction time.

        What batching guarantees elsewhere: one link fed one packet
        stream delivers bit-identical (time, packet) sequences, RNG
        draws and stats either way, and so do whole cells with one
        subflow per interface (SP, MP-2).  It is *not* a whole-run
        guarantee: with sibling subflows sharing a link (MP-4) two
        same-instant packets can swap on the wire, which moves
        individual RTT samples though not the download time
        (tests/netsim/test_link_batched.py pins both facts).  The
        determinism guard and perfbench/oracle.json pin the batched
        ordering.
        """
        self._vectorized = False

    @property
    def is_down(self) -> bool:
        return self._down

    def send(self, packet: Packet) -> None:
        """Offer a packet to the link; it is queued, dropped, or served.

        ``packets_offered`` counts what the link itself has to account
        for -- every packet handed to drop-tail admission (an on-path
        box may have turned one into several) plus every packet the box
        swallowed -- so offered = delivered + drops + in flight holds
        behind a re-segmenting box too.
        """
        if self._down:
            self.stats.packets_offered += 1
            self.stats.drops_down += 1
            if self._metrics.enabled:
                self._metrics.counter("link.drops.down").inc()
            return
        if self.middlebox is not None:
            forwarded = self.middlebox(packet, self.sim.now)
            if not forwarded:
                self.stats.packets_offered += 1
                self.stats.drops_middlebox += 1
                if self._metrics.enabled:
                    self._metrics.counter("link.drops.middlebox").inc()
                return
            for transformed in forwarded:
                self._admit(transformed)
            return
        self._admit(packet)

    def _admit(self, packet: Packet) -> None:
        """Drop-tail admission: into service if the link is idle, else
        into the serialization queue."""
        stats = self.stats
        stats.packets_offered += 1
        size = packet.wire_size
        occupancy = self._queue_bytes
        starts = self._batch_starts
        if starts is not None:
            # Packets of the active burst whose service starts after
            # now are, in scalar terms, still buffered: count them so
            # drop-tail decisions and the peak-queue statistic stay
            # byte-identical to the per-packet pipeline.
            occupancy += self._batch_suffix[
                bisect.bisect_right(starts, self.sim.now)]
        if occupancy + size > self._buffer_bytes:
            stats.drops_overflow += 1
            if self._metrics.enabled:
                self._metrics.counter("link.drops.overflow").inc()
            return
        if self._metrics.enabled:
            self._metrics.histogram("link.queue_bytes",
                                    BYTES_EDGES).observe(float(occupancy))
        occupancy += size
        if occupancy > stats.peak_queue_bytes:
            stats.peak_queue_bytes = occupancy
        if self._busy:
            self._queue.append(packet)
            self._queue_bytes += size
        else:
            # Idle, hence an empty queue: the packet would be appended
            # and popped straight back.
            self._busy = True
            sim = self.sim
            sim.post(size * 8.0 / self._rate_at(sim.now),
                     self._service_done, packet)

    @property
    def queue_bytes(self) -> int:
        """Bytes currently buffered (excludes the packet in service)."""
        starts = self._batch_starts
        if starts is None:
            return self._queue_bytes
        return self._queue_bytes + self._batch_suffix[
            bisect.bisect_right(starts, self.sim.now)]

    def set_fluid_load(self, load_bps: float) -> None:
        """Declare bandwidth claimed by fluid-model background flows.

        The shared-world kernel (:mod:`repro.world`) pushes the summed
        max-min share of every background flow crossing this link here;
        packet-level flows then see the *residual* capacity through
        :meth:`current_rate`.  A load of ``0.0`` restores the link to
        its exact stand-alone behaviour -- the subtraction below is
        guarded so single-connection runs stay byte-identical.
        """
        self._fluid_bps = load_bps

    def current_rate(self) -> float:
        """Instantaneous service rate in bits/s after modulation.

        When a shared world has claimed fluid background load (see
        :meth:`set_fluid_load`) the packet-level rate is the residual
        capacity, floored at 2 % of nominal so a saturated bottleneck
        degrades the foreground flow instead of stalling it outright.
        """
        return self._rate_at(self.sim.now)

    def _rate_at(self, now: float) -> float:
        """Service rate with the AR(1) state advanced to ``now``.

        The batched pipeline evaluates this at each packet's *future*
        service-start time, replicating exactly the modulation draws
        the scalar path would make at those event times.  Unmodulated
        links never enter :meth:`_step_modulation`, modulated ones only
        when a whole interval has passed.
        """
        modulation = self._modulation
        if modulation is not None:
            steps = int((now - self._last_modulation_step)
                        / modulation.interval)
            if steps > 0:
                self._step_modulation(steps)
        rate = self._rate_bps * self._rate_multiplier
        if self._fluid_bps:
            rate -= self._fluid_bps
            floor = 0.02 * self._rate_bps
            if rate < floor:
                rate = floor
        return rate

    def queueing_delay_estimate(self) -> float:
        """Time a packet arriving now would wait before service begins."""
        return self.queue_bytes * 8.0 / self.current_rate()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _step_modulation(self, steps: int) -> None:
        """Advance the AR(1) state by ``steps`` whole intervals."""
        modulation = self._modulation
        # Cap the catch-up work after a very long idle period (beyond
        # ~10k intervals AR(1) memory of the old state is gone anyway).
        # _last_modulation_step must advance only by the iterations
        # actually applied: advancing by the full `steps` would silently
        # skip AR(1) evolution (and its RNG draws) for the excess.
        applied = min(steps, 10_000)
        multiplier = self._rate_multiplier
        for _ in range(applied):
            noise = self.rng.gauss(0.0, modulation.sigma)
            multiplier = 1.0 + modulation.rho * (multiplier - 1.0) + noise
            multiplier = min(max(multiplier, modulation.floor),
                             modulation.ceiling)
        self._rate_multiplier = multiplier
        self._last_modulation_step += applied * modulation.interval

    def _serve_next(self) -> None:
        queue = self._queue
        if not queue:
            self._busy = False
            return
        if self._vectorized and len(queue) >= _BATCH_MIN:
            self._serve_burst()
            return
        packet = queue.popleft()
        size = packet.wire_size
        self._queue_bytes -= size
        sim = self.sim
        sim.post(size * 8.0 / self._rate_at(sim.now),
                 self._service_done, packet)

    def _serve_burst(self) -> None:
        """Serve the whole queue as one precomputed burst.

        Replays, at build time, exactly the arithmetic and RNG draw
        sequence the scalar path would perform across the burst --
        modulation steps at each service start, then jitter, loss and
        ARQ draws at each service completion -- and posts every
        surviving delivery as a single batched engine event plus one
        continuation at the burst's end of service.  Packets arriving
        mid-burst queue behind it and are served by the continuation,
        at the same service-start times the scalar path would give
        them.
        """
        queue = self._queue
        packets = list(queue)
        queue.clear()
        self._queue_bytes = 0
        sizes = [packet.wire_size for packet in packets]
        count = len(packets)
        now = self.sim.now
        prop = self._prop_delay
        arq = self._arq
        # The exact per-packet loop, evaluated ahead of time.  Draw
        # order matches the event interleaving of the per-packet
        # pipeline: modulation at this packet's service start, then its
        # propagation draws, then the next packet's modulation step.
        rng = self.rng
        stats = self.stats
        jitter_mean = self._jitter_mean
        loss_rate = self._loss_rate
        starts = [0.0] * count
        delivery_times: list = []
        delivery_args: list = []
        last = self._last_delivery_time
        t = now
        for j in range(count):
            starts[j] = t
            size = sizes[j]
            t = t + size * 8.0 / self._rate_at(t)
            delay = prop
            if jitter_mean > 0.0:
                delay += rng.expovariate(1.0 / jitter_mean)
            if loss_rate > 0.0 and rng.random() < loss_rate:
                stats.drops_loss += 1
                continue
            if arq is not None:
                if rng.random() < arq.error_rate:
                    if rng.random() < arq.residual_loss:
                        stats.drops_arq_residual += 1
                        continue
                    stats.arq_recoveries += 1
                    delay += rng.uniform(arq.recovery_min,
                                         arq.recovery_max)
            stats.packets_delivered += 1
            stats.bytes_delivered += size
            delivery_time = t + delay
            if delivery_time < last:
                delivery_time = last
            else:
                last = delivery_time
            delivery_times.append(delivery_time)
            delivery_args.append(packets[j])
        self._last_delivery_time = last
        burst_end = t
        suffix = [0] * (count + 1)
        total = 0
        for j in range(count - 1, -1, -1):
            total += sizes[j]
            suffix[j] = total
        self._batch_starts = starts
        self._batch_suffix = suffix
        sim = self.sim
        if delivery_times:
            sim.post_batch(delivery_times, self.deliver, delivery_args)
        sim.post_at(burst_end, self._burst_done)

    def _burst_done(self) -> None:
        """End of a burst's serialization: resume normal serving."""
        self._batch_starts = None
        self._serve_next()

    def _service_done(self, packet: Packet) -> None:
        """End of one packet's serialization: launch it across the
        propagation leg (delay, jitter, loss, ARQ recovery), then serve
        whatever queued behind it."""
        stats = self.stats
        delay: Optional[float] = self._prop_delay  # None once dropped
        if self._down:
            stats.drops_down += 1
            delay = None
        else:
            rng = self.rng
            arq = self._arq
            if self._jitter_mean > 0.0:
                delay += rng.expovariate(1.0 / self._jitter_mean)
            if self._loss_rate > 0.0 and rng.random() < self._loss_rate:
                stats.drops_loss += 1
                delay = None
            elif arq is not None and rng.random() < arq.error_rate:
                if rng.random() < arq.residual_loss:
                    stats.drops_arq_residual += 1
                    delay = None
                else:
                    stats.arq_recoveries += 1
                    delay += rng.uniform(arq.recovery_min,
                                         arq.recovery_max)
        if delay is not None:
            stats.packets_delivered += 1
            stats.bytes_delivered += packet.wire_size
            # FIFO links (WiFi MAC queues, cellular RLC-AM) deliver in
            # order: a delayed packet holds back the ones behind it.
            sim = self.sim
            delivery_time = sim.now + delay
            if delivery_time < self._last_delivery_time:
                delivery_time = self._last_delivery_time
            else:
                self._last_delivery_time = delivery_time
            sim.post_at(delivery_time, self.deliver, packet)
        if self._queue:
            self._serve_next()
        else:
            self._busy = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Link {self.name} rate={self.config.rate_bps / 1e6:.1f}Mbps "
                f"queued={self._queue_bytes}B>")
