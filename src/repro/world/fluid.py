"""Fluid-model bandwidth sharing for background flows.

The shared-world kernel hosts thousands of concurrent flows in one
event engine.  Simulating every one at packet level would melt the
calendar queue, so background flows are *fluid*: each is a pure
(route, size, desired-bandwidth) triple whose transfer rate is the
max-min fair share of the bottlenecks it crosses, recomputed only on
flow arrival, departure, or rate-change events -- the desired/available
bandwidth bookkeeping of the fg-inet dt-simulator design.

Three ideas keep a flow event's cost independent of how many flows
are live:

* **Flow classes.**  Max-min fairness gives identical rates to flows
  with the same route and demand, so flows are grouped into classes
  keyed by ``(route, desired_bw)``.  The water-filling solver runs over
  classes (a handful) instead of flows (thousands).
* **Virtual-time completion tracking.**  Within a class every flow
  drains at the same rate, so a per-class virtual clock ``V`` -- bits
  served *per flow* since the class was created -- orders completions.
  A flow arriving at virtual time ``V`` with ``size_bits`` to move
  finishes when ``V`` reaches ``V + size_bits``: a constant computed on
  arrival and kept in a min-heap.  Rate changes only alter the speed at
  which ``V`` advances; they never reorder the heap.
* **Component-local reallocation.**  Water-filling over bottlenecks
  that share no class is independent *bit for bit* (property-tested),
  so an event re-solves only the connected component of the bottlenecks
  whose population it changed; every other class keeps its rate and
  every other :class:`Link` its load.

Per flow event that leaves: one O(log n) heap operation on the flow's
class; one solve over the classes of the touched component, skipped
when the event leaves every count where the last solve saw it (a
think-0 user restarting into its own class); and two O(live classes)
sweeps that cannot be localised without changing float results --
advancing every class's virtual clock to *now* and taking the minimum
next completion for the one timer.  Nothing is per flow.

Packet-level foreground flows participate as *greedy* classes: they
occupy a fair share in the solver (so background flows do not starve
them) but their computed rate is never applied to packets -- instead
the summed background shares are pushed to each :class:`Link` as
residual-capacity load (:meth:`Link.set_fluid_load`).
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Set, Tuple)

from repro.obs.metrics import COUNT_EDGES
from repro.sim.engine import Simulator

#: Demand value marking a greedy flow (wants every bit it can get).
GREEDY = float("inf")

#: A flow whose remaining service time falls below this is considered
#: finished -- absorbs float error from advancing virtual clocks.
_COMPLETION_EPS_S = 1e-9


class ClassKey(NamedTuple):
    """Identity of a flow class: same route, same per-flow demand."""

    route: Tuple[str, ...]
    desired_bw: float = GREEDY


@dataclass(slots=True)
class FluidFlow:
    """One background transfer tracked by the fluid model."""

    flow_id: int
    key: ClassKey
    size_bytes: int
    started_at: float
    #: Class virtual time (bits per flow) at which this flow completes.
    finish_v: float = 0.0
    finished_at: Optional[float] = None
    on_complete: Optional[Callable[["FluidFlow"], None]] = None

    @property
    def duration(self) -> float:
        """Flow completion time, or -1.0 while still in flight."""
        if self.finished_at is None:
            return -1.0
        return self.finished_at - self.started_at


class FlowClass:
    """All live fluid flows sharing one :class:`ClassKey`.

    ``virtual_bits`` is the per-flow service accumulated since the
    class was created; ``heap`` orders member flows by the virtual time
    at which they finish.  Packet-level participants use ``pinned``
    membership instead of the heap (they never "complete" in fluid
    terms -- the packet stack decides that).  ``hops`` are the hops of
    the route that are declared bottlenecks, resolved by the network.
    ``solved`` is the ``(len(heap), pinned)`` its last solve saw.
    """

    __slots__ = ("key", "hops", "heap", "virtual_bits", "rate_bps",
                 "pinned", "solved")

    def __init__(self, key: ClassKey) -> None:
        self.key = key
        self.hops: Tuple[str, ...] = ()
        self.heap: List[Tuple[float, int, FluidFlow]] = []
        self.virtual_bits = 0.0
        self.rate_bps = 0.0
        #: Packet-level flows attached to this class (greedy demand,
        #: no fluid completion tracking).
        self.pinned = 0
        self.solved = (0, 0)

    @property
    def count(self) -> int:
        return len(self.heap) + self.pinned


def solve_max_min(demands: Dict[ClassKey, int],
                  capacities: Dict[str, float]) -> Dict[ClassKey, float]:
    """Water-filling max-min fair allocation over flow classes.

    Args:
        demands: live flow count per class; a class's route names the
            bottlenecks it crosses (each once), its ``desired_bw``
            caps the per-flow rate (``GREEDY`` = uncapped).
        capacities: capacity in bits/s per bottleneck name.  Routes may
            reference unknown names; those hops are ignored (treated as
            uncongested).

    Returns:
        Per-flow rate for every class with a positive count.  The
        result is independent of dict insertion order: each round
        freezes a *set* of classes chosen by value, and ties are
        resolved over the whole set at once.

    Invariant (property-tested): for every bottleneck, the summed
    allocation of classes crossing it never exceeds its capacity.

    Classes that share no declared bottleneck do not influence each
    other, bit for bit (property-tested): solving each connected
    component alone returns exactly what one joint solve returns.
    :class:`FluidNetwork` relies on that to re-solve only what an
    event touched.
    """
    remaining = dict(capacities)
    unfrozen = {key: count for key, count in demands.items() if count > 0}
    rates: Dict[ClassKey, float] = dict.fromkeys(unfrozen, 0.0)

    while len(unfrozen) > 1:
        # Unfrozen flow population per bottleneck, and the smallest
        # unfrozen demand on the way past.
        population: Dict[str, int] = {}
        floor = GREEDY
        for key, count in unfrozen.items():
            if key.desired_bw < floor:
                floor = key.desired_bw
            for hop in key.route:
                if hop in remaining:
                    population[hop] = population.get(hop, 0) + count
        if not population:
            # Every route runs over unknown hops: grant demands
            # outright (greedy classes get 0 -- nothing bounds them).
            for key in unfrozen:
                rates[key] = key.desired_bw if key.desired_bw < GREEDY \
                    else 0.0
            return rates

        # The water level: the smallest fair share of what is left.
        level = GREEDY
        for hop, count in population.items():
            share = remaining[hop] / count
            if share < level:
                level = share

        demand_limited = floor <= level
        if demand_limited:
            # Demand-limited classes saturate below the water level:
            # freeze all of them at their demand.
            frozen = [key for key in unfrozen if key.desired_bw <= floor]
        else:
            # Capacity-limited round: every class crossing a bottleneck
            # at the water level freezes at the fair share.
            tight = {hop for hop, count in population.items()
                     if remaining[hop] / count <= level}
            frozen = [key for key in unfrozen
                      if not tight.isdisjoint(key.route)]

        # Subtract in sorted-key order: float subtraction is not
        # associative, so a dict-order walk would make the remaining
        # capacities -- and hence later rounds -- depend on insertion
        # order (the order-independence property test catches this).
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
    if unfrozen:
        # The last class freezes with the float operations of a final
        # round: at its demand if that fits under its tightest share
        # (inf on infinite capacity), else at that share.
        (key, count), = unfrozen.items()
        desired = key.desired_bw
        level = GREEDY
        bounded = False
        for hop in key.route:
            if hop in remaining:
                bounded = True
                share = remaining[hop] / count
                if share < level:
                    level = share
        if not bounded:
            rates[key] = desired if desired < GREEDY else 0.0
        else:
            rates[key] = desired if desired <= level else level
    return rates


@dataclass
class FluidStats:
    """Streaming aggregates over completed background flows.

    Jain's fairness index over per-flow average throughput is kept as
    running sums, so memory stays O(1) no matter how many flows pass
    through the world.
    """

    flows_started: int = 0
    flows_completed: int = 0
    bytes_completed: int = 0
    peak_concurrent: int = 0
    sum_fct: float = 0.0
    first_start_at: Optional[float] = None
    last_completion_at: Optional[float] = None
    _sum_rate: float = 0.0
    _sum_rate_sq: float = 0.0
    #: A bounded sample of completion records for reports/tests.
    records: List[Tuple[float, int, float]] = field(default_factory=list)
    max_records: int = 256

    def note_start(self, concurrent: int, now: float = 0.0) -> None:
        self.flows_started += 1
        if self.first_start_at is None:
            self.first_start_at = now
        if concurrent > self.peak_concurrent:
            self.peak_concurrent = concurrent

    def note_completion(self, flow: FluidFlow) -> None:
        self.flows_completed += 1
        self.bytes_completed += flow.size_bytes
        self.last_completion_at = flow.finished_at
        duration = flow.duration
        self.sum_fct += duration
        if duration > 0.0:
            rate = flow.size_bytes * 8.0 / duration
            self._sum_rate += rate
            self._sum_rate_sq += rate * rate
        if len(self.records) < self.max_records:
            self.records.append(
                (flow.started_at, flow.size_bytes, duration))

    @property
    def mean_fct(self) -> float:
        if not self.flows_completed:
            return 0.0
        return self.sum_fct / self.flows_completed

    @property
    def jain_index(self) -> float:
        """Jain's fairness index of per-flow throughput; 1.0 = equal."""
        if not self.flows_completed or self._sum_rate_sq <= 0.0:
            return 1.0
        return (self._sum_rate * self._sum_rate
                / (self.flows_completed * self._sum_rate_sq))


class FluidNetwork:
    """The fluid half of a hybrid world: bottlenecks, classes, timer.

    One instance per :class:`Simulator`.  Background flows enter via
    :meth:`start_flow`; packet-level flows register their routes via
    :meth:`attach_packet_flow` so the solver reserves them a fair
    share.  After every reallocation the summed background load of each
    re-solved bottleneck is pushed to its backing :class:`Link` (when
    one is bound) as residual-capacity load.

    Reallocation is incremental: an event records the classes it
    touched, and :meth:`_reallocate` re-solves only the classes
    connected to those whose population differs from what their last
    solve saw (see :func:`solve_max_min` for why that is exact).
    Classes elsewhere keep their rate, links elsewhere their load.

    Determinism: the kernel draws no randomness and, while no fluid
    flow is live, schedules no events -- a world with zero background
    flows leaves the engine's event/seq stream untouched, which is what
    keeps single-flow runs byte-identical (the fig02-oracle test).
    """

    def __init__(self, sim: Simulator, name: str = "world") -> None:
        self.sim = sim
        self.name = name
        self.stats = FluidStats()
        self.on_complete: Optional[Callable[[FluidFlow], None]] = None
        self._capacities: Dict[str, float] = {}
        self._links: Dict[str, object] = {}
        #: Live classes by key, in creation order.  Each owns the one
        #: :class:`ClassKey` its flows share.
        self._classes: Dict[ClassKey, FlowClass] = {}
        #: Bottleneck -> live classes crossing it, in creation order:
        #: the order a bottleneck's load is summed in.
        self._members: Dict[str, List[FlowClass]] = {}
        #: Classes whose population the current event may have changed.
        self._touched: List[FlowClass] = []
        #: Bottlenecks whose population or capacity changed since the
        #: last solve.
        self._dirty: Set[str] = set()
        self._live = 0
        self._next_id = 0
        self._timer = None
        self._last_advance = sim.now
        self._processing = False

    # -- topology ------------------------------------------------------

    def add_bottleneck(self, name: str, capacity_bps: float,
                       link=None) -> None:
        """Declare a shared bottleneck, optionally backed by a Link.

        Capacity is the *nominal* link rate: the fluid model must not
        consult ``Link.current_rate()`` (that would step the modulation
        RNG at fluid-event times and break packet-level determinism).
        It takes effect at the next reallocation.
        """
        self._capacities[name] = capacity_bps
        if link is not None:
            self._links[name] = link
        # A hop live classes already name may just have become real.
        self._members = {hop: [] for hop in self._capacities}
        for cls in self._classes.values():
            self._index(cls)
        self._dirty.add(name)

    @property
    def bottlenecks(self) -> Dict[str, float]:
        return dict(self._capacities)

    # -- participants --------------------------------------------------

    def attach_packet_flow(self, route: Tuple[str, ...]) -> ClassKey:
        """Reserve a greedy fair share for a packet-level flow."""
        cls = self._class_for(route, GREEDY)
        cls.pinned += 1
        self._population_changed(cls)
        return cls.key

    def detach_packet_flow(self, key: ClassKey) -> None:
        cls = self._classes.get(key)
        if cls is None or cls.pinned <= 0:
            return
        cls.pinned -= 1
        if not cls.count:
            self._retire(cls)
        self._population_changed(cls)

    def start_flow(self, route: Tuple[str, ...], size_bytes: int,
                   desired_bw: float = GREEDY,
                   on_complete: Optional[Callable[[FluidFlow], None]]
                   = None) -> FluidFlow:
        """Begin a fluid background transfer; completion is announced
        through ``on_complete`` (per flow) or :attr:`on_complete`.

        Inside a completion callback or a :meth:`batch` the
        reallocation is left to the enclosing event, so each engine
        event triggers at most one solver pass.
        """
        nested = self._processing
        if not nested:
            self._advance()
        cls = self._class_for(route, desired_bw)
        now = self.sim.now
        flow = FluidFlow(self._next_id, cls.key, size_bytes, now,
                         cls.virtual_bits + size_bytes * 8.0,
                         None, on_complete)
        heapq.heappush(cls.heap, (flow.finish_v, flow.flow_id, flow))
        self._next_id += 1
        self._live += 1
        self.stats.note_start(self._live, now=now)
        self._touched.append(cls)
        if not nested:
            self._reallocate()
        return flow

    # -- classes -------------------------------------------------------

    def _class_for(self, route: Tuple[str, ...],
                   desired_bw: float) -> FlowClass:
        """The live class for a route and demand, created on first use."""
        spec = (tuple(route), desired_bw)
        cls = self._classes.get(spec)
        if cls is None:
            key = ClassKey(*spec)
            cls = self._classes[key] = FlowClass(key)
            self._index(cls)
            if not cls.hops and desired_bw < GREEDY:
                # No declared bottleneck bounds it: it runs at its
                # demand and no solve ever needs to look at it.
                cls.rate_bps = desired_bw
        return cls

    def _index(self, cls: FlowClass) -> None:
        """Resolve ``cls``'s declared hops and list it under each."""
        members = self._members
        cls.hops = tuple(hop for hop in cls.key.route if hop in members)
        for hop in cls.hops:
            members[hop].append(cls)

    def _retire(self, cls: FlowClass) -> None:
        del self._classes[cls.key]
        for hop in cls.hops:
            self._members[hop].remove(cls)

    def _population_changed(self, cls: FlowClass) -> None:
        """Reallocate for ``cls``: now, or at the end of the enclosing
        event or batch."""
        self._touched.append(cls)
        if not self._processing:
            self._advance()
            self._reallocate()

    # -- event machinery -----------------------------------------------

    @contextmanager
    def batch(self) -> Iterator["FluidNetwork"]:
        """Context manager coalescing many mutations into one solve.

        Nests (inside another batch or a completion callback the solve
        is left to the outermost guard) and reallocates even when the
        body raises: whatever it started before failing is live.
        """
        outer = self._processing
        self._advance()
        self._processing = True
        try:
            yield self
        finally:
            self._processing = outer
            if not outer:
                self._reallocate()

    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_advance
        if dt > 0.0:
            for cls in self._classes.values():
                if cls.heap:
                    cls.virtual_bits += cls.rate_bps * dt
        self._last_advance = now

    def _reallocate(self) -> None:
        touched = self._touched
        if touched:
            # Counts back where the last solve saw them dirty nothing:
            # the solve is a pure function of counts and capacities.
            dirty = self._dirty
            for cls in touched:
                if cls.solved != (len(cls.heap), cls.pinned):
                    dirty.update(cls.hops)
            touched.clear()
        if self._dirty:
            self._solve_dirty()
        trace = self.sim.trace
        if trace.enabled and self._live:
            trace.emit(self.sim.now, "world.alloc", live=self._live,
                       classes=len(self._classes))
        metrics = self.sim.metrics
        if metrics.enabled and self._live:
            # Reallocation churn: how often the max-min solve reruns
            # and how many flow classes are live each time.
            metrics.counter("world.realloc").inc()
            metrics.histogram("world.realloc.classes",
                              COUNT_EDGES).observe(float(len(self._classes)))
        self._schedule_timer()

    def _solve_dirty(self) -> None:
        """Re-solve the classes connected to the dirty bottlenecks.

        Walks bottleneck -> classes -> their other bottlenecks until
        the component(s) close, hands :func:`solve_max_min` exactly
        that sub-problem (one call, however many components an event
        dirtied), and pushes the new load of those bottlenecks only.
        """
        members = self._members
        capacities = self._capacities
        hops = self._dirty
        self._dirty = set()
        classes: List[FlowClass] = []
        demands: Dict[ClassKey, int] = {}
        component: Dict[str, float] = {}
        stack = list(hops)
        while stack:
            hop = stack.pop()
            component[hop] = capacities[hop]
            for cls in members[hop]:
                if cls.key not in demands:
                    cls.solved = state = (len(cls.heap), cls.pinned)
                    demands[cls.key] = state[0] + state[1]
                    classes.append(cls)
                    for other in cls.hops:
                        if other not in hops:
                            hops.add(other)
                            stack.append(other)
        if classes:
            rates = solve_max_min(demands, component)
            for cls in classes:
                cls.rate_bps = rates.get(cls.key, 0.0)
        links = self._links
        if links:
            for hop in hops:
                link = links.get(hop)
                if link is not None:
                    # Summed in class creation order, as a global pass
                    # over the classes would: float addition is not
                    # associative and packet-level digests see the sum.
                    load = 0.0
                    for cls in members[hop]:
                        fluid = len(cls.heap)
                        if fluid:
                            load += cls.rate_bps * fluid
                    link.set_fluid_load(load)

    def _schedule_timer(self) -> None:
        horizon = GREEDY
        for cls in self._classes.values():
            # Seconds until the class's earliest member finishes.
            if cls.heap and cls.rate_bps > 0.0:
                remaining = cls.heap[0][0] - cls.virtual_bits
                dt = remaining / cls.rate_bps if remaining > 0.0 else 0.0
                if dt < horizon:
                    horizon = dt
        if horizon == GREEDY:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            return
        when = self.sim.now + horizon
        if self._timer is None:
            self._timer = self.sim.schedule_at(when, self._on_timer)
        else:
            self.sim.reschedule(self._timer, horizon)

    def _on_timer(self) -> None:
        self._timer = None
        self._processing = True
        completed: List[FluidFlow] = []
        try:
            now = self.sim.now
            dt = now - self._last_advance
            self._last_advance = now
            touched = self._touched
            drained: List[FlowClass] = []
            for cls in self._classes.values():
                heap = cls.heap
                if not heap:
                    continue
                rate = cls.rate_bps
                if dt > 0.0:                    # _advance(), folded in
                    cls.virtual_bits += rate * dt
                virtual = cls.virtual_bits
                slack = rate * _COMPLETION_EPS_S
                if rate <= 0.0 or heap[0][0] - virtual > slack:
                    continue
                while heap and heap[0][0] - virtual <= slack:
                    flow = heapq.heappop(heap)[2]
                    flow.finished_at = now
                    completed.append(flow)
                touched.append(cls)
                if not heap and not cls.pinned:
                    drained.append(cls)
            # Before the callbacks: a closed-loop restart on a drained
            # class opens a fresh one (virtual clock back at zero).
            for cls in drained:
                self._retire(cls)
            self._live -= len(completed)
            trace = self.sim.trace
            for flow in completed:
                self.stats.note_completion(flow)
                if trace.enabled:
                    trace.emit(now, "world.flow",
                               flow_id=flow.flow_id,
                               size=flow.size_bytes,
                               duration=flow.duration,
                               route=",".join(flow.key.route))
                if flow.on_complete is not None:
                    flow.on_complete(flow)
                elif self.on_complete is not None:
                    self.on_complete(flow)
        finally:
            self._processing = False
        self._reallocate()
