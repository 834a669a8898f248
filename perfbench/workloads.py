"""The six benchmark workloads: fixed cell lists over the public API.

A workload is a fixed list of cells; one *round* runs every cell once,
closed loop (the next cell starts when the previous one returns).  Cell
lists never change to fit a time budget -- the harness lowers the round
count instead.  ``--seed`` reaches the product only through the per-cell
seeds derived here.

Every ``run_round`` returns ``[(cell id, payload)]`` where the payload
is a ``RunResult`` (packet and campaign cells) or a plain dict of
counters (fluid cells); the harness digests payloads *after* it stops
the clock.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from contextlib import ExitStack
from typing import Dict, List, Sequence, Tuple

from repro.cache import RunCache
from repro.experiments import (
    Campaign,
    CampaignSpec,
    FlowSpec,
    Measurement,
    ResultJournal,
    RunResult,
    execute_plan,
    load_results,
    save_results,
    write_csv,
)
from repro.experiments.report import format_bytes
from repro.experiments.scenarios import (
    download_time_rows,
    path_characteristics_rows,
    small_flows_campaign,
    traffic_share_rows,
)
from repro.experiments.storage import result_to_dict
from repro.obs.metrics import make_metrics
from repro.sim.engine import Simulator
from repro.sim.rng import derive_seed
from repro.wireless.profiles import TimeOfDay
from repro.world import (
    ClosedLoopUsers,
    FluidNetwork,
    PoissonArrivals,
    make_size_sampler,
)

KB = 1024
MB = 1024 * KB
PERIOD = TimeOfDay.AFTERNOON
SMALL_SIZES = (8 * KB, 64 * KB, 512 * KB)
#: Pool / distributed worker count of ``campaign_cold`` (= ``nproc`` of
#: the sizing box, so no workload has more than 2 busy processes).
POOL_JOBS = 2

Outcome = Tuple[str, object]


def cell_id(spec: FlowSpec, size: int) -> str:
    """Short readable name of a packet cell, unique within a workload."""
    parts = [spec.label.replace(" ", ""), spec.carrier, spec.wifi,
             format_bytes(size).replace(" ", "")]
    for extra in (spec.world, spec.failure, spec.middlebox):
        if extra != "none":
            parts.append(extra.partition(":")[0])
    return "/".join(parts)


def digest(payload) -> str:
    """sha256 of the payload's canonical JSON.

    ``obs_metrics`` is blanked so that a traced cell (``metrics="on"``)
    must digest exactly like the untraced one: observation is passive.
    """
    if isinstance(payload, RunResult):
        payload = result_to_dict(payload, max_samples=None)
        payload["obs_metrics"] = None
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def completed(payload) -> bool:
    if isinstance(payload, RunResult):
        return payload.completed
    return payload["flows_completed"] > 0


class Workload:
    """Base: a named, seeded cell list with a ``run_round``."""

    name = ""
    #: The campaign plan, for the workloads that execute one.
    plan: Sequence = ()

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def prepare(self, tracer) -> None:
        """Untimed one-off work before the warm-up round."""

    def run_round(self, tracer) -> List[Outcome]:
        raise NotImplementedError

    def after_round(self) -> None:
        """Benchmark-side cleanup, outside the timed region."""

    def distributed_pass(self, tracer) -> List[Outcome]:
        """The traced run's one distributed-backend pass, if any."""
        return []


# ----------------------------------------------------------------------
# Packet-level flow workloads
# ----------------------------------------------------------------------

class FlowWorkload(Workload):
    """``Measurement(...).run()`` over a fixed (spec, size) list."""

    def cell_list(self) -> List[Tuple[FlowSpec, int]]:
        raise NotImplementedError

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        cells = self.cell_list()
        if smoke:
            cells = [min(cells, key=lambda cell: cell[1])]
        self.cells = [
            (cell_id(spec, size), spec, size,
             derive_seed(seed, f"perfbench:{spec.identity}:{size}"))
            for spec, size in cells]
        if len({cell[0] for cell in self.cells}) != len(self.cells):
            raise ValueError(f"{self.name}: cell ids collide")

    def run_round(self, tracer) -> List[Outcome]:
        outcomes = []
        for name, spec, size, seed in self.cells:
            with tracer.span("cell", cell=name):
                measurement = Measurement(spec, size, seed=seed,
                                          period=PERIOD,
                                          metrics=tracer.metrics_mode)
                outcomes.append(
                    (name, measurement.run(instrumentation=tracer.inst)))
        return outcomes


class ShortFlows(FlowWorkload):
    """fig04/fig06 traffic: handshake, RRC promotion, slow start and
    per-cell fixed costs dominate; bursts never reach the vectorized
    link path, so numpy call overhead shows here if anywhere."""

    name = "short_flows"

    def cell_list(self):
        cells = []
        for wifi in ("home", "public"):
            for spec in (
                    FlowSpec.single_path("wifi", wifi=wifi),
                    FlowSpec.single_path("cell", carrier="att", wifi=wifi),
                    FlowSpec.mptcp("att", "coupled", 2, wifi=wifi),
                    FlowSpec.mptcp("att", "olia", 4, wifi=wifi)):
                cells.extend((spec, size) for size in SMALL_SIZES)
        return cells


class BulkFlows(FlowWorkload):
    """fig09 steady state: link batching, the array scoreboard, in-order
    reassembly and streaming capture do most of the work."""

    name = "bulk_flows"

    def cell_list(self):
        return [(FlowSpec.mptcp("att", "coupled", 2), 16 * MB),
                (FlowSpec.mptcp("att", "olia", 4), 8 * MB),
                (FlowSpec.single_path("wifi"), 16 * MB)]


class SlowpathFlows(FlowWorkload):
    """The per-packet layers off the fast path: random loss and SACK
    recovery, 3G jitter, outage + reinjection, hybrid world, middlebox.
    A gain bought on the batched path at their cost shows here."""

    name = "slowpath_flows"

    def cell_list(self):
        return [
            (FlowSpec.mptcp("att", "reno", 4, wifi="public"), 4 * MB),
            (FlowSpec.mptcp("sprint", "coupled", 2), 4 * MB),
            (FlowSpec.mptcp("att", "coupled", 2,
                            failure="outage:down=2,up=6"), 8 * MB),
            (FlowSpec.mptcp("att", "coupled", 2, world="closed-32"),
             2 * MB),
            (FlowSpec.mptcp("att", "coupled", 2, middlebox="strip-join",
                            middlebox_path="cell"), 2 * MB),
        ]


# ----------------------------------------------------------------------
# Pure fluid tier
# ----------------------------------------------------------------------

class FluidWorld(Workload):
    """``world.fluid`` solver + ``world.arrivals`` + engine timer churn
    with no packet stack; packet-layer changes must not move it."""

    name = "fluid_world"

    SIZES = "lognormal:mu=9.6,sigma=1.0,cap=1048576"
    CAPACITIES = {"wifi:down": 20e6, "cell:down": 13e6}
    HORIZON_S = 100.0
    #: (cell id, closed-loop users or None, think mean, Poisson rate)
    CELLS = (("closed-1000/think0", 1000, 0.0, None),
             ("closed-1000/think2", 1000, 2.0, None),
             ("closed-5000/think0", 5000, 0.0, None),
             ("poisson-150", None, 0.0, 150.0))

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        # closed-1000/think2 offers the least load: the smoke cell.
        self.cells = self.CELLS[1:2] if smoke else self.CELLS

    def run_round(self, tracer) -> List[Outcome]:
        outcomes = []
        routes = [(name,) for name in self.CAPACITIES]
        for name, users, think, rate in self.cells:
            with tracer.span("cell", cell=name):
                sim = Simulator()
                if tracer.enabled:
                    sim.metrics = make_metrics("on")
                fluid = FluidNetwork(sim)
                for bottleneck, capacity in self.CAPACITIES.items():
                    fluid.add_bottleneck(bottleneck, capacity)
                rng = random.Random(
                    derive_seed(self.seed, f"perfbench:fluid:{name}"))
                sampler = make_size_sampler(self.SIZES)
                if users is not None:
                    arrivals = ClosedLoopUsers(sim, fluid, rng, routes,
                                               sampler, users=users,
                                               think_mean=think)
                else:
                    arrivals = PoissonArrivals(sim, fluid, rng, routes,
                                               sampler, rate=rate)
                with tracer.span("world.fluid.run"):
                    arrivals.start()
                    sim.run(until=self.HORIZON_S)
            stats = fluid.stats
            outcomes.append((name, {
                "flows_started": stats.flows_started,
                "flows_completed": stats.flows_completed,
                "bytes_completed": stats.bytes_completed,
                "peak_concurrent": stats.peak_concurrent,
                "events_scheduled": sim.events_scheduled,
            }))
            if tracer.enabled:
                tracer.inst.observe_simulator(sim)
                counters = sim.metrics.snapshot().get("counters", {})
                tracer.note("world.realloc",
                            counters.get("world.realloc", 0))
        return outcomes


# ----------------------------------------------------------------------
# Execution layer: campaign write side and read side
# ----------------------------------------------------------------------

def campaign_plan(seed: int, smoke: bool):
    """The 24-cell plan both campaign workloads execute."""
    specs = small_flows_campaign().specs
    spec = CampaignSpec(
        name="perfbench",
        specs=specs[:2] if smoke else specs,
        sizes=SMALL_SIZES[:1] if smoke else SMALL_SIZES,
        repetitions=1, periods=(PERIOD,), base_seed=seed)
    return Campaign(spec).plan()


def plan_outcomes(plan: Sequence, results: Sequence[RunResult]
                  ) -> List[Outcome]:
    return [(cell_id(descriptor.spec, descriptor.size), result)
            for descriptor, result in zip(plan, results)]


def run_plan(plan, store_dir: str, tracer, span: str, journal: bool = True,
             **execute_kwargs) -> List[RunResult]:
    """One ``execute_plan`` pass against the stores in ``store_dir``."""
    os.makedirs(store_dir, exist_ok=True)
    execute_kwargs.setdefault("instrumentation", tracer.inst)
    with ExitStack() as stack, tracer.span(span):
        with tracer.span("cache.store.open"):
            cache = stack.enter_context(
                RunCache(os.path.join(store_dir, "cache")))
        execute_kwargs["cache"] = tracer.timed(
            cache, "cache.store", ("get", "put"))
        if journal:
            execute_kwargs["journal"] = tracer.timed(
                stack.enter_context(ResultJournal(
                    os.path.join(store_dir, "journal.jsonl"))),
                "experiments.storage.journal", ("record",))
        results = execute_plan(plan, **execute_kwargs)
        tracer.note("cache.hits", cache.hits)
        tracer.note("cache.lookups", cache.hits + cache.misses)
    return results


def note_cache_bytes(tracer, store_dir: str) -> None:
    for root, _, files in os.walk(os.path.join(store_dir, "cache",
                                               "objects")):
        for name in files:
            tracer.note("cache.objects", 1)
            tracer.note("cache.bytes",
                        os.path.getsize(os.path.join(root, name)))


class CampaignCold(Workload):
    """Write side of the execution layer -- dispatch, pickling, cache put
    + fsync, journal append -- on cells cheap enough (~15 ms) that the
    overhead is visible."""

    name = "campaign_cold"

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        self.plan = campaign_plan(seed, smoke)
        self._dirs = [os.path.join(workdir, name)
                      for name in ("serial", "pool", "distributed")]

    def run_round(self, tracer) -> List[Outcome]:
        serial_dir, pool_dir, _ = self._dirs
        serial = run_plan(self.plan, serial_dir, tracer,
                          "experiments.parallel.serial", jobs=1)
        pool = run_plan(self.plan, pool_dir, tracer,
                        "experiments.parallel.pool",
                        jobs=POOL_JOBS, chunk=4)
        if tracer.enabled:
            note_cache_bytes(tracer, serial_dir)
        return (plan_outcomes(self.plan, serial)
                + plan_outcomes(self.plan, pool))

    def after_round(self) -> None:
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)

    def distributed_pass(self, tracer) -> List[Outcome]:
        """One ``backend="subprocess"`` two-worker pass (traced only)."""
        # instrumentation=None: worker reports do not travel the wire.
        results = run_plan(self.plan, self._dirs[2], tracer,
                           "experiments.distributed.pass",
                           jobs=POOL_JOBS, backend="subprocess",
                           instrumentation=None)
        self.after_round()
        return plan_outcomes(self.plan, results)


class CampaignWarm(Workload):
    """Read side -- index load, JSON decode, row building -- which every
    ``repro all`` rerun pays; beside ``campaign_cold`` it exposes a
    storage change that trades writes against reads."""

    name = "campaign_warm"

    PASSES = 10

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        self.plan = campaign_plan(seed, smoke)
        self.store_dir = os.path.join(workdir, "warm")
        self.results_path = os.path.join(self.store_dir, "results.jsonl")

    def prepare(self, tracer) -> None:
        results = run_plan(self.plan, self.store_dir, tracer,
                           "experiments.parallel.serial", jobs=1)
        with tracer.span("experiments.storage.save"):
            save_results(self.results_path, results)

    def run_round(self, tracer) -> List[Outcome]:
        outcomes = []
        for _ in range(self.PASSES):
            # Cache only: with a journal every cell would be restored
            # from its in-memory map and the object store never read.
            restored = run_plan(self.plan, self.store_dir, tracer,
                                "experiments.parallel.warm",
                                journal=False, jobs=1)
            outcomes.extend(plan_outcomes(self.plan, restored))
        with tracer.span("experiments.storage.load"):
            loaded = load_results(self.results_path)
        outcomes.extend(plan_outcomes(self.plan, loaded))
        with tracer.span("experiments.scenarios.rows"):
            tables = {"download_time": download_time_rows(loaded),
                      "traffic_share": traffic_share_rows(loaded),
                      "path_characteristics":
                          path_characteristics_rows(loaded)}
        for name, (headers, rows) in tables.items():
            write_csv(os.path.join(self.workdir, f"{name}.csv"),
                      headers, rows)
        if tracer.enabled:
            note_cache_bytes(tracer, self.store_dir)
        return outcomes


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (ShortFlows, BulkFlows, SlowpathFlows,
                              FluidWorld, CampaignCold, CampaignWarm)}
