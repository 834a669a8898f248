"""Per-layer metrics of the traced run: derivation from spans and counts.

Names are ``<repro module>.<metric>``.  A layer a workload never enters
reads 0 there (``world.fluid.*`` on ``bulk_flows``, ``cache.store.*`` on
``fluid_world``): the zero is the measurement.  Units say which clock a
number uses -- ``s``/``ms``/``us`` are host-normalised host time,
``sim_s`` is simulated time and repeats exactly like every ``count``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments import RunResult

from workloads import POOL_JOBS

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pool_overhead_ms_per_cell(parallel_s: float, serial_s: float,
                              cells: int) -> float:
    """What a parallel pass costs per cell beyond a perfect split of the
    serial pass over ``POOL_JOBS`` workers; 0 when the pass did not run."""
    if not parallel_s:
        return 0.0
    return 1e3 * (parallel_s - serial_s / POOL_JOBS) / cells


def span_round_metrics(totals: Dict[str, Tuple[int, float]], inst,
                       facts: Dict[str, float], payloads: List[object],
                       cells: int, factor: float) -> Dict[str, float]:
    """The span and count metrics one traced round can give (the two
    measured once per run, ``save_ms_per_result`` and the
    distributed pass, are filled in by the harness).

    ``totals`` are the round's span sums and ``factor`` turns their host
    seconds into reference-host seconds.  Counts come from the round's
    ``Instrumentation``, the results' ``obs_metrics`` snapshots and the
    fluid payloads, all of which repeat exactly.
    """
    def seconds(name: str) -> float:
        return totals.get(name, (0, 0.0))[1] * factor

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    def per_call_ms(name: str) -> float:
        return 1e3 * _ratio(seconds(name), calls(name))

    counters = inst.counters
    phases = {name: value * factor for name, value in inst.phases.items()}
    events = counters.get("events_processed", 0)
    # Pure-fluid cells have no runner phases; their engine time is the
    # span around ``sim.run``.
    engine_s = phases.get("simulate", 0.0) + seconds("world.fluid.run")

    obs: Dict[str, float] = {}
    stall_s = 0.0
    fluid = {"flows_started": 0, "flows_completed": 0, "peak_concurrent": 0}
    subflows = ofo = 0
    for payload in payloads:
        if isinstance(payload, RunResult):
            snapshot = payload.obs_metrics or {}
            for name, value in snapshot.get("counters", {}).items():
                obs[name] = obs.get(name, 0) + value
            stall_s += snapshot.get("histograms", {}).get(
                "tcp.rto.stall_s", {}).get("sum", 0.0)
            subflows += payload.subflow_count
            ofo += len(payload.metrics.ofo_delays)
            payload = payload.world or {}
        for name in ("flows_started", "flows_completed"):
            fluid[name] += payload.get(name, 0)
        fluid["peak_concurrent"] = max(fluid["peak_concurrent"],
                                       payload.get("peak_concurrent", 0))
    pure_fluid_flows = sum(payload["flows_completed"] for payload in payloads
                           if not isinstance(payload, RunResult))

    serial_s = seconds("experiments.parallel.serial")
    pool_s = seconds("experiments.parallel.pool")
    return {
        "experiments.runner.setup_s": phases.get("setup", 0.0),
        "experiments.runner.simulate_s": phases.get("simulate", 0.0),
        "experiments.runner.extract_s": phases.get("extract", 0.0),
        "sim.engine.events_processed": events,
        "sim.engine.events_scheduled": counters.get("events_scheduled", 0),
        "sim.engine.batch_inline_frac": _ratio(
            counters.get("batch_inline", 0), events),
        "sim.engine.peak_heap": counters.get("peak_heap", 0),
        "sim.engine.heap_compactions": counters.get("heap_compactions", 0),
        "sim.engine.pool_reuses": counters.get("pool_reuses", 0),
        "sim.engine.us_per_event": 1e6 * _ratio(engine_s, events),
        "sim.arena.arena_peak": counters.get("arena_peak", 0),
        "netsim.link.mean_burst": _ratio(
            counters.get("batch_entries", 0),
            counters.get("batches_posted", 0)),
        "netsim.link.batches_posted": counters.get("batches_posted", 0),
        "netsim.link.drops": sum(
            value for name, value in obs.items()
            if name.startswith("link.drops.")),
        "tcp.endpoint.rto_fired": obs.get("tcp.rto.fired", 0),
        "tcp.endpoint.fast_retransmits": obs.get("tcp.fast_retransmit", 0),
        "tcp.endpoint.rto_stall_s": stall_s,
        "core.connection.reinject_bytes": obs.get(
            "mptcp.reinject.bytes", 0),
        "core.connection.subflows": subflows,
        "core.receive_buffer.ofo_samples": ofo,
        "world.fluid.flows_completed": fluid["flows_completed"],
        "world.fluid.reallocations": (
            facts.get("world.realloc", 0) + obs.get("world.realloc", 0)),
        "world.fluid.peak_concurrent": fluid["peak_concurrent"],
        "world.fluid.us_per_flow": 1e6 * _ratio(
            seconds("world.fluid.run"), pure_fluid_flows),
        "world.arrivals.flows_started": fluid["flows_started"],
        "cache.store.put_ms": per_call_ms("cache.store.put"),
        "cache.store.get_ms": per_call_ms("cache.store.get"),
        "cache.store.open_ms": per_call_ms("cache.store.open"),
        "cache.store.hit_rate": _ratio(
            facts.get("cache.hits", 0), facts.get("cache.lookups", 0)),
        "cache.store.bytes_per_result": _ratio(
            facts.get("cache.bytes", 0), facts.get("cache.objects", 0)),
        "experiments.storage.journal_record_ms": per_call_ms(
            "experiments.storage.journal.record"),
        "experiments.storage.load_ms_per_result": 1e3 * _ratio(
            seconds("experiments.storage.load"),
            cells * calls("experiments.storage.load")),
        "experiments.scenarios.rows_ms": 1e3 * seconds(
            "experiments.scenarios.rows"),
        "experiments.parallel.serial_s": serial_s,
        "experiments.parallel.pool_s": pool_s,
        "experiments.parallel.pool_speedup": _ratio(serial_s, pool_s),
        "experiments.parallel.overhead_ms_per_cell":
            pool_overhead_ms_per_cell(pool_s, serial_s, cells),
    }
