"""Property and unit tests for the fluid bandwidth-sharing kernel."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.world.fluid
from repro.obs.bus import MemorySink, TraceBus
from repro.obs.metrics import make_metrics
from repro.sim.engine import Simulator
from repro.world import (
    GREEDY,
    ClassKey,
    ClosedLoopUsers,
    FluidNetwork,
    PoissonArrivals,
    make_size_sampler,
    solve_max_min,
)

from tests.conftest import examples

MBPS = 1e6

# ----------------------------------------------------------------------
# Max-min solver properties
# ----------------------------------------------------------------------

#: A random scenario: up to 4 bottlenecks, up to 8 classes routed over
#: a non-empty subset of them, each with a count and a demand (some
#: greedy, some capped).
_bottlenecks = st.lists(st.floats(0.5 * MBPS, 100 * MBPS),
                        min_size=1, max_size=4)


def _demands(classes):
    """Flow count per class key from drawn ``(route, demand, count)``."""
    demands = {}
    for route, desired, count in classes:
        key = ClassKey(route=tuple(route), desired_bw=desired)
        demands[key] = demands.get(key, 0) + count
    return demands


@st.composite
def scenarios(draw):
    capacities = {f"b{i}": c for i, c in enumerate(draw(_bottlenecks))}
    names = sorted(capacities)
    classes = draw(st.lists(
        st.tuples(
            st.lists(st.sampled_from(names), min_size=1, max_size=4,
                     unique=True),
            st.one_of(st.just(GREEDY),
                      st.floats(0.01 * MBPS, 50 * MBPS)),
            st.integers(1, 50)),
        min_size=1, max_size=8))
    return capacities, _demands(classes)


@settings(max_examples=examples(200))
@given(scenarios())
def test_allocations_never_exceed_capacity(scenario):
    """Per bottleneck, summed shares stay within capacity (the core
    fluid invariant), and no class exceeds its own demand."""
    capacities, demands = scenario
    rates = solve_max_min(demands, capacities)
    for hop, capacity in capacities.items():
        allocated = sum(rate * demands[key]
                        for key, rate in rates.items()
                        if hop in key.route)
        assert allocated <= capacity * (1.0 + 1e-9)
    for key, rate in rates.items():
        assert rate >= 0.0
        if key.desired_bw < GREEDY:
            assert rate <= key.desired_bw * (1.0 + 1e-9)


@settings(max_examples=examples(200))
@given(scenarios(), st.randoms(use_true_random=False))
def test_max_min_is_order_independent(scenario, shuffler):
    """The allocation must not depend on dict insertion order."""
    capacities, demands = scenario
    reference = solve_max_min(demands, capacities)
    items = list(demands.items())
    shuffler.shuffle(items)
    cap_items = list(capacities.items())
    shuffler.shuffle(cap_items)
    shuffled = solve_max_min(dict(items), dict(cap_items))
    assert shuffled == reference


@settings(max_examples=examples(150))
@given(scenarios())
def test_greedy_share_is_max_min_fair(scenario):
    """No greedy class can be raised without lowering a class that
    already has an equal-or-smaller share (the max-min criterion):
    every greedy class must cross at least one saturated bottleneck
    where it holds a maximal share."""
    capacities, demands = scenario
    rates = solve_max_min(demands, capacities)
    for key, rate in rates.items():
        if key.desired_bw < GREEDY and \
                rate >= key.desired_bw * (1.0 - 1e-9):
            continue  # demand-limited: satisfied by definition
        bottlenecked = False
        for hop in key.route:
            allocated = sum(r * demands[k] for k, r in rates.items()
                            if hop in k.route)
            if allocated >= capacities[hop] * (1.0 - 1e-9):
                peers = [r for k, r in rates.items() if hop in k.route]
                if rate >= max(peers) * (1.0 - 1e-9):
                    bottlenecked = True
                    break
        assert bottlenecked, (key, rate, rates)


def test_simple_shares():
    """Hand-checked scenario: demands below and above fair level."""
    capacities = {"a": 10 * MBPS}
    demands = {
        ClassKey(("a",), desired_bw=1 * MBPS): 2,   # capped
        ClassKey(("a",)): 2,                        # greedy
    }
    rates = solve_max_min(demands, capacities)
    assert rates[ClassKey(("a",), desired_bw=1 * MBPS)] == 1 * MBPS
    assert rates[ClassKey(("a",))] == 4 * MBPS


def test_multi_bottleneck_flow_limited_by_tightest():
    capacities = {"a": 10 * MBPS, "b": 2 * MBPS}
    demands = {ClassKey(("a", "b")): 1, ClassKey(("a",)): 1}
    rates = solve_max_min(demands, capacities)
    assert rates[ClassKey(("a", "b"))] == 2 * MBPS
    assert rates[ClassKey(("a",))] == 8 * MBPS


def test_unknown_hops_are_uncongested():
    """Routes over undeclared bottlenecks are capped only by demand."""
    rates = solve_max_min(
        {ClassKey(("nowhere",), desired_bw=3 * MBPS): 1},
        {"a": 10 * MBPS})
    assert rates[ClassKey(("nowhere",), desired_bw=3 * MBPS)] == 3 * MBPS


# ----------------------------------------------------------------------
# Event-driven completion tracking
# ----------------------------------------------------------------------

class FakeLink:
    """Records what the network pushes; a Link starts with no load."""

    def __init__(self):
        self.loads = [0.0]

    def set_fluid_load(self, load):
        self.loads.append(load)


def _world(capacity=10 * MBPS):
    sim = Simulator()
    fluid = FluidNetwork(sim)
    fluid.add_bottleneck("dl", capacity)
    return sim, fluid


def test_single_flow_completion_time():
    sim, fluid = _world()
    done = []
    fluid.start_flow(("dl",), 1_250_000, on_complete=done.append)
    sim.run(until=10.0)
    assert len(done) == 1
    # 10 Mbit of data over a 10 Mbit/s link: exactly one second.
    assert abs(done[0].duration - 1.0) < 1e-6
    assert fluid.stats.flows_completed == 1
    assert fluid._live == 0


def test_processor_sharing_closed_loop():
    """N equal greedy users on one link each get 1/N: fct = N * solo."""
    sim, fluid = _world()
    rng = random.Random(1)
    loop = ClosedLoopUsers(sim, fluid, rng, [("dl",)],
                           lambda rng: 125_000,
                           users=4, think_mean=0.0)
    loop.start()
    sim.run(until=10.0)
    stats = fluid.stats
    assert stats.peak_concurrent == 4
    assert abs(stats.mean_fct - 0.4) < 1e-6
    assert abs(stats.jain_index - 1.0) < 1e-9
    assert stats.flows_completed >= 90


def test_rate_change_mid_flight():
    """A second flow arriving halves the first flow's rate; the first
    finishes at 0.5s (full rate) + 0.5s-worth at half rate."""
    sim, fluid = _world()
    done = []
    fluid.start_flow(("dl",), 1_250_000, on_complete=done.append)
    sim.schedule(0.5, lambda: fluid.start_flow(
        ("dl",), 1_250_000, on_complete=done.append))
    sim.run(until=10.0)
    assert len(done) == 2
    # Flow 1: 5 Mbit alone in .5s, then 5 Mbit at 5 Mbit/s -> t=1.5.
    assert abs(done[0].duration - 1.5) < 1e-6
    # Flow 2: shares until 1.5 (5 Mbit moved), then full rate.
    assert abs(done[1].duration - 1.5) < 1e-6


def test_desired_bw_caps_rate():
    sim, fluid = _world()
    done = []
    fluid.start_flow(("dl",), 1_250_000, desired_bw=2 * MBPS,
                     on_complete=done.append)
    sim.run(until=10.0)
    assert abs(done[0].duration - 5.0) < 1e-6


def test_residual_pushed_to_link():
    """Background load lands on the bound Link as reduced capacity."""

    sim = Simulator()
    fluid = FluidNetwork(sim)
    link = FakeLink()
    fluid.add_bottleneck("dl", 10 * MBPS, link=link)
    fluid.start_flow(("dl",), 1_250_000)
    assert link.loads[-1] == 10 * MBPS
    sim.run(until=10.0)
    # After the flow drains the residual returns to the full link.
    assert link.loads[-1] == 0.0


def test_packet_flow_reserves_share_but_claims_no_load():
    """A pinned packet-level flow halves the background share yet its
    own (packet-carried) traffic is never pushed as fluid load."""

    sim = Simulator()
    fluid = FluidNetwork(sim)
    link = FakeLink()
    fluid.add_bottleneck("dl", 10 * MBPS, link=link)
    key = fluid.attach_packet_flow(("dl",))
    assert link.loads[-1] == 0.0
    done = []
    fluid.start_flow(("dl",), 1_250_000, on_complete=done.append)
    assert link.loads[-1] == 5 * MBPS  # bg gets half, fg keeps half
    sim.run(until=10.0)
    assert abs(done[0].duration - 2.0) < 1e-6
    fluid.detach_packet_flow(key)
    assert fluid._live == 0


def test_zero_background_world_schedules_nothing():
    """The byte-identity precondition: topology + a pinned foreground
    flow must neither schedule events nor consume engine sequence
    numbers beyond the packet stack's own."""
    sim = Simulator()
    before = sim.events_scheduled
    fluid = FluidNetwork(sim)
    fluid.add_bottleneck("dl", 10 * MBPS)
    key = fluid.attach_packet_flow(("dl",))
    fluid.detach_packet_flow(key)
    assert sim.events_scheduled == before
    assert sim.pending() == 0


def test_poisson_arrivals_stop_when():
    """The stop predicate halts generation and lets the world drain."""
    sim = Simulator()
    fluid = FluidNetwork(sim)
    fluid.add_bottleneck("dl", 10 * MBPS)
    rng = random.Random(3)
    flag = {"stop": False}
    arrivals = PoissonArrivals(
        sim, fluid, rng, [("dl",)],
        lambda rng: 65_536, rate=50.0,
        stop_when=lambda: flag["stop"])
    arrivals.start()
    sim.schedule(1.0, lambda: flag.update(stop=True))
    sim.run(until=60.0)
    # Generation stopped shortly after t=1, everything drained well
    # before the horizon, and nothing is left in the event queue.
    assert arrivals.stopped
    assert fluid._live == 0
    assert sim.pending() == 0
    assert fluid.stats.last_completion_at < 10.0
    assert fluid.stats.flows_started == fluid.stats.flows_completed


def test_fluid_determinism_same_seed_same_story():
    def story(seed):
        sim = Simulator()
        fluid = FluidNetwork(sim)
        fluid.add_bottleneck("dl", 10 * MBPS)
        rng = random.Random(seed)
        PoissonArrivals(sim, fluid, rng, [("dl",)],
                        make_size_sampler("paper-split"),
                        rate=5.0).start()
        sim.run(until=20.0)
        return (fluid.stats.flows_started, fluid.stats.flows_completed,
                fluid.stats.bytes_completed, fluid.stats.sum_fct)

    assert story(11) == story(11)
    assert story(11) != story(12)


# ----------------------------------------------------------------------
# Component independence: the lemma incremental reallocation rests on
# ----------------------------------------------------------------------

@st.composite
def sparse_scenarios(draw):
    """Scenarios built to fall apart into several components and to
    tie: capacities and demands from small sets, one- or two-hop
    routes, and a hop no bottleneck declares."""
    capacities = {f"b{i}": c for i, c in enumerate(draw(st.lists(
        st.sampled_from([5 * MBPS, 10 * MBPS, 20 * MBPS]),
        min_size=1, max_size=5)))}
    hops = sorted(capacities) + ["undeclared"]
    classes = draw(st.lists(
        st.tuples(
            st.lists(st.sampled_from(hops), min_size=1, max_size=2,
                     unique=True),
            st.sampled_from([GREEDY, 1 * MBPS, 2.5 * MBPS, 5 * MBPS]),
            st.integers(1, 4)),
        min_size=1, max_size=8))
    return capacities, _demands(classes)


def _components(capacities, demands):
    """Partition a scenario into (bottlenecks, classes) groups joined
    by shared declared hops; a class with none is a group of its own."""
    groups = []
    for key in demands:
        hops = {hop for hop in key.route if hop in capacities}
        keys = [key]
        for group in [g for g in groups if g[0] & hops]:
            groups.remove(group)
            hops |= group[0]
            keys += group[1]
        groups.append((hops, keys))
    return groups


@settings(max_examples=examples(300))
@given(st.one_of(scenarios(), sparse_scenarios()))
def test_joint_solve_is_union_of_component_solves(scenario):
    """Water-filling over disjoint bottleneck components is independent
    bit for bit: solving each component alone gives exactly (``==`` on
    floats) what the joint solve gives."""
    capacities, demands = scenario
    union = {}
    for hops, keys in _components(capacities, demands):
        union.update(solve_max_min(
            {key: demands[key] for key in keys},
            {hop: capacities[hop] for hop in hops}))
    assert union == solve_max_min(demands, capacities)


# ----------------------------------------------------------------------
# Differential oracle: the solver against its loop-only reference
# ----------------------------------------------------------------------

def _reference_solve_max_min(demands, capacities):
    """``solve_max_min`` as it stood before the last class froze in
    closed form: every class, the last one included, leaves through a
    full water-filling round.  Kept verbatim as the reference."""
    remaining = dict(capacities)
    unfrozen = {key: count for key, count in demands.items() if count > 0}
    rates = dict.fromkeys(unfrozen, 0.0)

    while unfrozen:
        population = {}
        floor = GREEDY
        for key, count in unfrozen.items():
            if key.desired_bw < floor:
                floor = key.desired_bw
            for hop in key.route:
                if hop in remaining:
                    population[hop] = population.get(hop, 0) + count
        if not population:
            for key in unfrozen:
                rates[key] = key.desired_bw if key.desired_bw < GREEDY \
                    else 0.0
            break

        level = GREEDY
        for hop, count in population.items():
            share = remaining[hop] / count
            if share < level:
                level = share

        demand_limited = floor <= level
        if demand_limited:
            frozen = [key for key in unfrozen if key.desired_bw <= floor]
        else:
            tight = {hop for hop, count in population.items()
                     if remaining[hop] / count <= level}
            frozen = [key for key in unfrozen
                      if not tight.isdisjoint(key.route)]

        if len(frozen) > 1:
            frozen.sort()
        for key in frozen:
            rate = key.desired_bw if demand_limited else level
            rates[key] = rate
            claimed = rate * unfrozen.pop(key)
            for hop in key.route:
                if hop in remaining:
                    left = remaining[hop] - claimed
                    remaining[hop] = left if left > 0.0 else 0.0
    return rates


@st.composite
def edge_scenarios(draw):
    """The corners the closed-form last class must get right: few
    classes (often one), zero and infinite capacities, undeclared hops,
    zero counts, zero and capped demands, multi-hop routes."""
    capacities = {f"b{i}": c for i, c in enumerate(draw(st.lists(
        st.sampled_from([0.0, 1 * MBPS, 5 * MBPS, 12.5 * MBPS, GREEDY]),
        min_size=1, max_size=3)))}
    hops = sorted(capacities) + ["undeclared"]
    classes = draw(st.lists(
        st.tuples(
            st.lists(st.sampled_from(hops), min_size=1, max_size=3,
                     unique=True),
            st.sampled_from([GREEDY, 0.0, 1 * MBPS, 5 * MBPS, 20 * MBPS]),
            st.integers(0, 4)),
        min_size=1, max_size=4))
    return capacities, _demands(classes)


@settings(max_examples=examples(400))
@given(st.one_of(scenarios(), sparse_scenarios(), edge_scenarios()))
def test_solver_matches_the_loop_only_reference(scenario):
    """Same rates (``==`` on floats) in the same dict order."""
    capacities, demands = scenario
    expected = _reference_solve_max_min(demands, capacities)
    assert list(solve_max_min(demands, capacities).items()) == \
        list(expected.items())


@pytest.mark.parametrize("capacities, route, desired, rate", [
    ({"a": GREEDY}, ("a",), GREEDY, GREEDY),        # bounded by inf: inf
    ({"a": 10 * MBPS}, ("nowhere",), GREEDY, 0.0),  # unbounded: 0
    ({"a": 10 * MBPS}, ("nowhere",), 3 * MBPS, 3 * MBPS),
    ({"a": 0.0}, ("a",), GREEDY, 0.0),
    ({"a": 10 * MBPS, "b": 4 * MBPS}, ("a", "b", "c"), GREEDY, 2 * MBPS),
    ({"a": 10 * MBPS}, ("a",), 5 * MBPS, 5 * MBPS),  # demand == share
])
def test_last_class_edges(capacities, route, desired, rate):
    demands = {ClassKey(route, desired): 2}
    assert solve_max_min(demands, capacities) == \
        _reference_solve_max_min(demands, capacities) == \
        {ClassKey(route, desired): rate}


# ----------------------------------------------------------------------
# Differential oracle: incremental reallocation == from scratch
# ----------------------------------------------------------------------

def _reference_allocation(fluid):
    """A from-scratch global reallocation over everything live: one
    ``solve_max_min`` over all classes and capacities, loads summed in
    class insertion order.  The reference model the incremental
    ``FluidNetwork._reallocate`` must reproduce exactly."""
    classes = list(fluid._classes.values())
    rates = solve_max_min({cls.key: cls.count for cls in classes},
                          fluid._capacities)
    load = {name: 0.0 for name in fluid._links}
    for cls in classes:
        fluid_flows = len(cls.heap)
        if fluid_flows:
            claimed = rates.get(cls.key, 0.0) * fluid_flows
            for hop in cls.key.route:
                if hop in load:
                    load[hop] += claimed
    return rates, load


def _assert_matches_reference(fluid):
    rates, load = _reference_allocation(fluid)
    for cls in fluid._classes.values():
        assert cls.rate_bps == rates.get(cls.key, 0.0), cls.key
    for name, link in fluid._links.items():
        assert link.loads[-1] == load[name], name


_HOPS = ("b0", "b1", "b2", "b3")
_routes = st.lists(st.sampled_from(_HOPS), min_size=1, max_size=3,
                   unique=True).map(tuple)
_capacity = st.sampled_from([2 * MBPS, 5 * MBPS, 5 * MBPS, 12.5 * MBPS])
_start = st.tuples(
    _routes,
    st.integers(2_000, 400_000),                        # bytes
    st.sampled_from([GREEDY, GREEDY, 0.5 * MBPS, 1.5 * MBPS]),
    st.integers(0, 2))                                  # closed-loop restarts
#: Think-0 users sharing one class: distinct sizes, so they complete
#: one at a time and each restart lands in a class that kept its count.
_loop = st.tuples(
    _routes,
    st.sampled_from([GREEDY, 0.5 * MBPS]),
    st.lists(st.integers(2_000, 400_000), min_size=2, max_size=3,
             unique=True),
    st.integers(1, 3))                                  # restarts per user
_operation = st.one_of(
    st.tuples(st.just("start"), _start),
    st.tuples(st.just("batch"), st.lists(_start, min_size=0, max_size=4)),
    st.tuples(st.just("loop"), _loop),
    st.tuples(st.just("attach"), _routes),
    st.tuples(st.just("detach"), st.integers(0, 7)),
    st.tuples(st.just("handover"), st.integers(0, 7)),
    st.tuples(st.just("advance"), st.floats(0.001, 1.5)),
    st.tuples(st.just("declare"),
              st.tuples(st.sampled_from(_HOPS), _capacity)),
)


@settings(max_examples=examples(150))
@given(st.lists(_capacity, min_size=1, max_size=3),
       st.lists(_operation, min_size=1, max_size=30))
def test_incremental_reallocation_equals_from_scratch(initial, operations):
    """After every reallocation -- arrivals, departures, closed-loop
    restarts from completion callbacks (including into the class that
    just lost the flow, where the solve is skipped), batches,
    packet-flow attach and detach, late ``add_bottleneck`` -- every
    live class's rate and every link's last pushed load equal a fresh
    global solve, exactly."""
    sim = Simulator()
    fluid = FluidNetwork(sim)
    for hop, capacity in zip(_HOPS, initial):
        fluid.add_bottleneck(hop, capacity, link=FakeLink())

    reallocate = fluid._reallocate
    # A new capacity (or a hop declared late) takes effect at the next
    # reallocation, as it always has: nothing to compare until then.
    pending_topology = [False]

    def checked_reallocate():
        reallocate()
        pending_topology[0] = False
        _assert_matches_reference(fluid)

    fluid._reallocate = checked_reallocate

    def start(spec):
        route, size, desired, restarts = spec

        def restart(flow):
            if restarts:
                # Nested batch: the closed-loop restart path.
                with fluid.batch():
                    start((route, size, desired, restarts - 1))

        fluid.start_flow(route, size, desired_bw=desired,
                         on_complete=restart)

    def user(route, size, desired, restarts):
        def again(flow):
            if restarts:
                # Straight from the callback, no batch: the think-0
                # ClosedLoopUsers path.
                user(route, size, desired, restarts - 1)

        fluid.start_flow(route, size, desired_bw=desired,
                         on_complete=again)

    attached = []
    for kind, arg in operations:
        if kind == "start":
            start(arg)
        elif kind == "batch":
            with fluid.batch():
                for spec in arg:
                    start(spec)
        elif kind == "loop":
            route, desired, sizes, restarts = arg
            with fluid.batch():
                for size in sizes:
                    user(route, size, desired, restarts)
        elif kind == "attach":
            attached.append(fluid.attach_packet_flow(arg))
        elif kind == "detach":
            if attached:
                fluid.detach_packet_flow(
                    attached.pop(arg % len(attached)))
        elif kind == "handover":
            # A packet flow's share passes to a fluid flow in one
            # event: the class count holds, its fluid load does not.
            if attached:
                key = attached.pop(arg % len(attached))
                with fluid.batch():
                    fluid.detach_packet_flow(key)
                    fluid.start_flow(key.route, 100_000)
        elif kind == "advance":
            sim.run(until=sim.now + arg)
        else:
            hop, capacity = arg
            fluid.add_bottleneck(hop, capacity, link=FakeLink())
            pending_topology[0] = True
        if not pending_topology[0]:
            _assert_matches_reference(fluid)
    sim.run(until=sim.now + 30.0)
    if not pending_topology[0]:
        _assert_matches_reference(fluid)


# ----------------------------------------------------------------------
# The fluid tier pinned inside tier-1, floats included
# ----------------------------------------------------------------------

_PIN_SIZES = "lognormal:mu=9.6,sigma=1.0,cap=1048576"
_PIN_CAPACITIES = {"wifi:down": 20 * MBPS, "cell:down": 13 * MBPS}

#: (flows_started, flows_completed, bytes_completed, peak_concurrent,
#: sim.events_scheduled, repr(sum_fct), repr(jain_index)) per cell,
#: recorded at commit 89a3a26 -- the last one whose ``_reallocate``
#: re-solved the whole world on every event.
PIN_CLOSED_THINK0 = (1095, 1055, 23616448, 40, 1056,
                     "288.4733433276875", "0.4144326719482014")
PIN_CLOSED_THINK = (1078, 1069, 25910925, 19, 3173,
                    "49.85758561752698", "0.6615365585794685")
PIN_POISSON = (463, 463, 11394512, 19, 1274,
               "17.105613256067592", "0.7479819710093852")
PIN_MULTI_HOP = (501, 491, 10935718, 14, 1483,
                 "27.826543349301275", "0.9519035522378142")


def _pinned_cell(arrival, horizon, routes=None, desired_bw=GREEDY,
                 **params):
    """One small pure-fluid world on two bottlenecks; returns what the
    perfbench oracle pins for the big cells plus two float aggregates
    that move if a single rate or completion time moves by an ulp."""
    sim = Simulator()
    fluid = FluidNetwork(sim)
    for name, capacity in _PIN_CAPACITIES.items():
        fluid.add_bottleneck(name, capacity)
    if routes is None:
        routes = [(name,) for name in _PIN_CAPACITIES]
    arrival(sim, fluid, random.Random(2013), routes,
            make_size_sampler(_PIN_SIZES), desired_bw=desired_bw,
            **params).start()
    sim.run(until=horizon)
    stats = fluid.stats
    return (stats.flows_started, stats.flows_completed,
            stats.bytes_completed, stats.peak_concurrent,
            sim.events_scheduled, repr(stats.sum_fct),
            repr(stats.jain_index))


def test_pinned_closed_loop_think0_through_batch():
    assert _pinned_cell(ClosedLoopUsers, 8.0, users=40,
                        think_mean=0.0) == PIN_CLOSED_THINK0


def test_pinned_closed_loop_with_think_time():
    assert _pinned_cell(ClosedLoopUsers, 10.0, users=60,
                        think_mean=0.5) == PIN_CLOSED_THINK


def test_pinned_poisson():
    assert _pinned_cell(PoissonArrivals, 6.0, rate=80.0) == PIN_POISSON


def test_pinned_poisson_multi_hop_capped():
    """The shape no perfbench cell has: a route crossing both
    bottlenecks (one component, multi-round water-filling) and a
    per-flow demand cap."""
    routes = [("wifi:down",), ("cell:down",), ("wifi:down", "cell:down")]
    assert _pinned_cell(PoissonArrivals, 6.0, routes=routes,
                        desired_bw=4 * MBPS, rate=80.0) == PIN_MULTI_HOP


# ----------------------------------------------------------------------
# What an event costs: machine-independent gates on the mechanism
# ----------------------------------------------------------------------

@pytest.fixture
def solver_calls(monkeypatch):
    """Every ``demands`` dict the network hands ``solve_max_min``."""
    calls = []
    solve = repro.world.fluid.solve_max_min

    def counting(demands, capacities):
        calls.append(dict(demands))
        return solve(demands, capacities)

    monkeypatch.setattr(repro.world.fluid, "solve_max_min", counting)
    return calls


def test_arrival_resolves_only_its_own_bottleneck(solver_calls):
    sim = Simulator()
    fluid = FluidNetwork(sim)
    for name, capacity in _PIN_CAPACITIES.items():
        fluid.add_bottleneck(name, capacity)
    fluid.start_flow(("wifi:down",), 10_000_000)
    fluid.start_flow(("cell:down",), 10_000_000, desired_bw=1 * MBPS)
    del solver_calls[:]
    fluid.start_flow(("cell:down",), 10_000_000)
    assert solver_calls == [{ClassKey(("cell:down",), 1 * MBPS): 1,
                             ClassKey(("cell:down",)): 1}]
    # A route crossing both joins them: one component from here on.
    fluid.start_flow(("wifi:down", "cell:down"), 10_000_000)
    assert len(solver_calls) == 2 and len(solver_calls[1]) == 4


@pytest.mark.parametrize("arrival, params", [
    (ClosedLoopUsers, {"users": 30, "think_mean": 0.0}),
    (ClosedLoopUsers, {"users": 30, "think_mean": 0.3}),
    (PoissonArrivals, {"rate": 60.0}),
])
def test_at_most_one_solve_per_engine_event(solver_calls, arrival, params):
    sim = Simulator()
    fluid = FluidNetwork(sim)
    for name, capacity in _PIN_CAPACITIES.items():
        fluid.add_bottleneck(name, capacity)
    arrival(sim, fluid, random.Random(5),
            [(name,) for name in _PIN_CAPACITIES],
            make_size_sampler(_PIN_SIZES), **params).start()
    seen = len(solver_calls)
    assert seen <= 1                    # closed think 0: one batch()
    events = 0
    while sim.now < 3.0 and sim.step():
        events += 1
        assert len(solver_calls) - seen <= 1
        seen = len(solver_calls)
    assert events > 100 and fluid.stats.flows_completed > 50


def test_batch_reallocates_when_its_body_raises():
    """Flows pushed before the failure are live: they must get a rate
    and a timer, and the guard must not stay set."""
    sim, fluid = _world()
    done = []
    with pytest.raises(RuntimeError):
        with fluid.batch():
            fluid.start_flow(("dl",), 1_250_000, on_complete=done.append)
            raise RuntimeError("generator failed mid-batch")
    sim.run(until=10.0)
    assert len(done) == 1 and abs(done[0].duration - 1.0) < 1e-6
    assert fluid._live == 0
    # Not left inside the batch: the next arrival solves on its own.
    fluid.start_flow(("dl",), 1_250_000, on_complete=done.append)
    sim.run(until=20.0)
    assert len(done) == 2


def test_nested_batch_in_completion_callback_defers_to_the_event(
        solver_calls):
    """A batch opened inside ``on_complete`` must neither solve on its
    own nor clear the enclosing timer event's guard."""
    sim, fluid = _world()

    def restart(flow):
        with fluid.batch():
            fluid.start_flow(("dl",), 125_000)
        fluid.start_flow(("dl",), 125_000, desired_bw=1 * MBPS)

    fluid.start_flow(("dl",), 125_000, on_complete=restart)
    del solver_calls[:]
    assert sim.step()                   # completion + both restarts
    assert fluid._live == 2
    assert len(solver_calls) == 1 and len(solver_calls[0]) == 2


def test_same_class_restart_neither_solves_nor_pushes_load(solver_calls):
    """A think-0 restart into the class that just lost the flow leaves
    every count where the last solve saw it: no solve, no link load
    pushed.  A restart into another class re-solves once."""
    sim = Simulator()
    fluid = FluidNetwork(sim)
    links = {name: FakeLink() for name in _PIN_CAPACITIES}
    for name, capacity in _PIN_CAPACITIES.items():
        fluid.add_bottleneck(name, capacity, link=links[name])
    target = [("wifi:down",)]

    def restart(flow):
        fluid.start_flow(target[0], flow.size_bytes, on_complete=restart)

    with fluid.batch():
        fluid.start_flow(("wifi:down",), 100_000, on_complete=restart)
        fluid.start_flow(("wifi:down",), 300_000, on_complete=restart)
        fluid.start_flow(("cell:down",), 10_000_000)
    del solver_calls[:]
    pushed = [len(link.loads) for link in links.values()]

    assert sim.step()                   # 100 kB done, restarted in place
    assert fluid.stats.flows_completed == 1 and fluid._live == 3
    assert solver_calls == []
    assert [len(link.loads) for link in links.values()] == pushed
    assert sim.pending() == 1           # the timer is still re-armed

    target[0] = ("cell:down",)
    assert sim.step()                   # 100 kB done again, moves over
    assert fluid.stats.flows_completed == 2
    assert solver_calls == [{ClassKey(("wifi:down",)): 1,
                             ClassKey(("cell:down",)): 2}]


def test_flows_of_a_class_share_one_key_that_survives_pickling():
    sim, fluid = _world()
    first = fluid.start_flow(["dl"], 1_000)
    second = fluid.start_flow(("dl",), 2_000)
    assert first.key is second.key == ClassKey(("dl",))
    clone = pickle.loads(pickle.dumps(first.key))
    assert type(clone) is ClassKey
    assert clone == first.key and hash(clone) == hash(first.key)
    assert clone.route == ("dl",) and clone.desired_bw == GREEDY


def test_reallocation_counters_keep_their_meaning():
    """``world.realloc`` counts reallocations with live flows (not
    solver calls, not re-solved classes) and ``world.realloc.classes``
    observes every live class (not the touched component's) -- the
    meaning ``obs/metrics.py`` documents and perfbench reads."""
    sim = Simulator()
    sim.metrics = make_metrics("on")
    sim.trace = TraceBus(MemorySink())
    fluid = FluidNetwork(sim)
    for name, capacity in _PIN_CAPACITIES.items():
        fluid.add_bottleneck(name, capacity)
    fluid.start_flow(("wifi:down",), 250_000)            # done at 0.1 s
    fluid.start_flow(("cell:down",), 1_625_000)          # done at 1.0 s
    fluid.start_flow(("elsewhere",), 250_000, desired_bw=1 * MBPS)
    sim.run(until=5.0)
    snapshot = sim.metrics.snapshot()
    # Three arrivals and the first two departures; the last departure
    # leaves nothing live and is not counted.
    assert snapshot["counters"]["world.realloc"] == 5
    classes = snapshot["histograms"]["world.realloc.classes"]
    assert (classes["count"], classes["sum"]) == (5, 1 + 2 + 3 + 2 + 1)
    assert [event.data for event in sim.trace.events("world.alloc")] == [
        {"live": 1, "classes": 1}, {"live": 2, "classes": 2},
        {"live": 3, "classes": 3}, {"live": 2, "classes": 2},
        {"live": 1, "classes": 1}]
    assert [event.data for event in sim.trace.events("world.flow")] == [
        {"flow_id": 0, "size": 250_000, "duration": 0.1,
         "route": "wifi:down"},
        {"flow_id": 1, "size": 1_625_000, "duration": 1.0,
         "route": "cell:down"},
        {"flow_id": 2, "size": 250_000, "duration": 2.0,
         "route": "elsewhere"}]
