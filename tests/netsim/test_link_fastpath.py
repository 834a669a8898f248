"""Tests for the link hot path: the modulation catch-up clamp."""

import random

import pytest

from repro.netsim.link import Link, LinkConfig, RateModulation
from repro.sim.engine import Simulator


def make_link(sim, rate=8e6, prop=0.01, modulation=None, seed=7):
    config = LinkConfig(rate_bps=rate, prop_delay=prop,
                        buffer_bytes=100_000, modulation=modulation)
    return Link(sim, config, random.Random(seed))


# ----------------------------------------------------------------------
# Modulation catch-up clamp
# ----------------------------------------------------------------------

def test_long_idle_catch_up_is_clamped():
    """After a very long idle gap, the AR(1) catch-up loop runs at
    most 10k iterations instead of one per elapsed interval."""
    sim = Simulator()
    modulation = RateModulation(sigma=0.05, interval=0.1)
    link = make_link(sim, modulation=modulation)
    draws = {"n": 0}
    real_gauss = link.rng.gauss

    def counting_gauss(mu, sigma):
        draws["n"] += 1
        return real_gauss(mu, sigma)

    link.rng.gauss = counting_gauss
    sim.schedule(1_000_000.0, link.current_rate)  # ~10M intervals idle
    sim.run()
    assert draws["n"] == 10_000


def test_clamped_catch_up_advances_step_cursor_by_applied_work():
    """_last_modulation_step must advance only by the iterations that
    actually ran.  If it jumped to `now`, the next call would see zero
    elapsed steps and skip the AR(1) evolution (and its RNG draws) it
    still owes for the residual gap."""
    sim = Simulator()
    modulation = RateModulation(sigma=0.05, interval=0.1)
    link = make_link(sim, modulation=modulation)
    sim.schedule(2_000.0, link.current_rate)  # 20k intervals: clamped
    sim.run()
    assert link._last_modulation_step == pytest.approx(10_000 * 0.1)
    # The second call, in the same instant, applies the remaining 10k.
    draws = {"n": 0}
    real_gauss = link.rng.gauss
    link.rng.gauss = lambda mu, sigma: (
        draws.__setitem__("n", draws["n"] + 1) or real_gauss(mu, sigma))
    link.current_rate()
    assert draws["n"] == 10_000
    assert link._last_modulation_step == pytest.approx(2_000.0)


def test_short_gap_applies_every_interval():
    sim = Simulator()
    modulation = RateModulation(sigma=0.05, interval=0.1)
    link = make_link(sim, modulation=modulation)
    draws = {"n": 0}
    real_gauss = link.rng.gauss
    link.rng.gauss = lambda mu, sigma: (
        draws.__setitem__("n", draws["n"] + 1) or real_gauss(mu, sigma))
    sim.schedule(5.0, link.current_rate)
    sim.run()
    assert draws["n"] == 50
