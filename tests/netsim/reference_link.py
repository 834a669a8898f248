"""A per-packet reference link, written to be read.

``repro.netsim.link.Link`` flattens this pipeline for speed (service
started from admission, propagation folded into service completion,
config fields hoisted, bursts precomputed).  This is the same link with
nothing flattened: one method per step, every value read where it is
used.  ``test_link_batched.py`` replays drawn schedules through both
and demands identical deliveries, ``LinkStats`` and RNG state -- so the
reference must draw from ``rng`` and post to the engine in the order a
store-and-forward link defines, and nothing here may be "optimised".
"""

import collections

from repro.netsim.link import LinkStats


class ReferenceLink:
    def __init__(self, sim, config, rng):
        self.sim, self.config, self.rng = sim, config, rng
        self.deliver = lambda packet: None
        self.middlebox = None
        self.stats = LinkStats()
        self.queue = collections.deque()
        self.busy = self.down = False
        self.multiplier = 1.0
        self.last_step = self.last_delivery = self.fluid_bps = 0.0

    def set_down(self, down):
        self.down = down
        if down:
            self.stats.drops_down += len(self.queue)
            self.queue.clear()

    def set_fluid_load(self, load_bps):
        self.fluid_bps = load_bps

    def send(self, packet):
        if self.down:
            self.stats.packets_offered += 1
            self.stats.drops_down += 1
            return
        forwarded = [packet]
        if self.middlebox is not None:
            forwarded = self.middlebox(packet, self.sim.now)
            if not forwarded:
                self.stats.packets_offered += 1
                self.stats.drops_middlebox += 1
        for transformed in forwarded:
            self.admit(transformed)

    def admit(self, packet):
        self.stats.packets_offered += 1
        occupancy = sum(queued.wire_size for queued in self.queue)
        if occupancy + packet.wire_size > self.config.buffer_bytes:
            self.stats.drops_overflow += 1
            return
        self.queue.append(packet)
        self.stats.peak_queue_bytes = max(self.stats.peak_queue_bytes,
                                          occupancy + packet.wire_size)
        if not self.busy:
            self.serve_next()

    def rate(self):
        modulation = self.config.modulation
        if modulation is not None and modulation.sigma != 0.0:
            steps = int((self.sim.now - self.last_step) / modulation.interval)
            applied = min(max(steps, 0), 10_000)  # catch-up cap after idling
            for _ in range(applied):
                noise = self.rng.gauss(0.0, modulation.sigma)
                drift = modulation.rho * (self.multiplier - 1.0)
                self.multiplier = min(max(1.0 + drift + noise,
                                          modulation.floor),
                                      modulation.ceiling)
            self.last_step += applied * modulation.interval
        rate = self.config.rate_bps * self.multiplier
        if self.fluid_bps:
            rate = max(rate - self.fluid_bps, 0.02 * self.config.rate_bps)
        return rate

    def serve_next(self):
        self.busy = bool(self.queue)
        if self.busy:
            packet = self.queue.popleft()
            self.sim.post(packet.wire_size * 8.0 / self.rate(),
                          self.service_done, packet)

    def service_done(self, packet):
        self.propagate(packet)
        self.serve_next()

    def propagate(self, packet):
        config, arq, stats = self.config, self.config.arq, self.stats
        if self.down:
            stats.drops_down += 1
            return
        delay = config.prop_delay
        if config.jitter_mean > 0.0:
            delay += self.rng.expovariate(1.0 / config.jitter_mean)
        if config.loss_rate > 0.0 and self.rng.random() < config.loss_rate:
            stats.drops_loss += 1
            return
        if (arq is not None and arq.error_rate > 0.0
                and self.rng.random() < arq.error_rate):
            if self.rng.random() < arq.residual_loss:
                stats.drops_arq_residual += 1
                return
            stats.arq_recoveries += 1
            delay += self.rng.uniform(arq.recovery_min, arq.recovery_max)
        stats.packets_delivered += 1
        stats.bytes_delivered += packet.wire_size
        self.last_delivery = max(self.last_delivery, self.sim.now + delay)
        self.sim.post_at(self.last_delivery, self.deliver, packet)
