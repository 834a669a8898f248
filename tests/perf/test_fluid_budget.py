"""Counted budget of the fluid tier: Python frames per engine event and
solver calls per reallocation.

The fluid counterpart of ``test_packet_budget.py``.  The three
single-route ``PIN_*`` cells of ``tests/world/test_fluid.py`` (closed
loop with think time 0 and 0.5 s, Poisson arrivals) run under
``cProfile``; Python frames (every profiled call that is not a C
builtin) are divided by ``events_processed``, and calls of
``solve_max_min`` by the ``world.realloc`` counter of a metered run of
the same cell.  The bounds sit ~5% above what the tree reaches
(think 0: 26.2 frames per event, 0.60 solves per reallocation;
think 0.5: 18.7 and 0.87; Poisson: 17.4 and 0.85).  Before a flow
restarting into its own class skipped the solve and the last class
froze in closed form, the same cells needed 39.7 / 28.4 / 26.4 frames
and the think-0 cell 1.00 solves per reallocation.  A frame added to
every fluid event fails here on any machine.  After a deliberate
trade, re-measure (the assertion message prints the numbers) and move
the bound with the reason in the commit.
"""

import cProfile
import random

import pytest

from repro.obs.metrics import make_metrics
from repro.sim.engine import Simulator
from repro.world import (
    ClosedLoopUsers,
    FluidNetwork,
    PoissonArrivals,
    make_size_sampler,
)

#: The ``PIN_*`` cells' topology and flow sizes.
CAPACITIES = {"wifi:down": 20e6, "cell:down": 13e6}
SIZES = "lognormal:mu=9.6,sigma=1.0,cap=1048576"

CELLS = {
    # name: (arrival, horizon, params, frames per event, solves per
    # reallocation)
    "closed think 0": (ClosedLoopUsers, 8.0,
                       {"users": 40, "think_mean": 0.0}, 27.5, 0.63),
    "closed think 0.5": (ClosedLoopUsers, 10.0,
                         {"users": 60, "think_mean": 0.5}, 19.6, 0.92),
    "poisson": (PoissonArrivals, 6.0, {"rate": 80.0}, 18.3, 0.89),
}


def _run(arrival, horizon, params, metered=False):
    sim = Simulator()
    if metered:
        sim.metrics = make_metrics("on")
    fluid = FluidNetwork(sim)
    for name, capacity in CAPACITIES.items():
        fluid.add_bottleneck(name, capacity)
    arrival(sim, fluid, random.Random(2013),
            [(name,) for name in CAPACITIES],
            make_size_sampler(SIZES), **params).start()
    sim.run(until=horizon)
    return sim


def _counted(arrival, horizon, params):
    """(frames, events, solves, reallocations) of one cell."""
    metered = _run(arrival, horizon, params, metered=True)
    reallocations = metered.metrics.snapshot()["counters"]["world.realloc"]
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        sim = _run(arrival, horizon, params)
    finally:
        profiler.disable()
    assert sim.events_processed == metered.events_processed
    # Raw per-code-object entries, as in test_packet_budget.py.
    frames = solves = 0
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            continue  # C builtins: not frames
        frames += entry.callcount
        if (code.co_name == "solve_max_min" and code.co_filename.replace(
                "\\", "/").endswith("world/fluid.py")):
            solves += entry.callcount
    return frames, sim.events_processed, solves, reallocations


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_fluid_event_stays_inside_its_budget(cell):
    arrival, horizon, params, frame_budget, solve_budget = CELLS[cell]
    frames, events, solves, reallocations = _counted(arrival, horizon,
                                                     params)
    assert events > 800 and reallocations > 800
    measured = (f"{cell}: {frames / events:.2f} frames per event, "
                f"{solves / reallocations:.3f} solves per reallocation "
                f"({frames} frames, {events} events, {solves} solves, "
                f"{reallocations} reallocations)")
    assert frames / events <= frame_budget, measured
    assert solves / reallocations <= solve_budget, measured
