"""Parallel, resumable, cache-warmed campaign execution.

The paper's methodology (Section 3.2) is a large measurement matrix —
configurations x file sizes x repetitions x day periods — and every
cell builds a fresh, independently seeded :class:`Testbed` that shares
no state with any other.  That makes a campaign embarrassingly
parallel: :func:`execute_plan` runs the cells of a
:meth:`Campaign.plan` in-process, or leases them to worker processes
through the one coordinator of :mod:`repro.experiments.distributed`,
and reassembles the results in serial order.

Three properties are guaranteed:

* **Determinism** — each run is a pure function of its
  :class:`RunDescriptor` (spec, size, seed, period), so the
  reassembled results list is bit-for-bit equal to what the serial
  loop produces, whatever the worker count, backend, dispatch order,
  chunking or cache state.
* **Resumability** — with a :class:`ResultJournal`, every completed
  run is streamed to disk before the next progress tick, and cells
  already journaled are restored instead of recomputed.  Killing a
  campaign after k runs and re-invoking it executes exactly the
  remaining ``total - k`` cells.
* **Cache warm-starts** — with a :class:`repro.cache.RunCache`, cells
  stored by *any* previous campaign (same descriptor key and storage
  format version) are restored instead of recomputed, so campaigns
  that share configuration cells — fig2/fig3/tab2 all run the same
  "baseline" matrix — compute each unique cell exactly once.

Dispatch is cost-aware: pending cells are leased longest-job-first
(a :class:`repro.cache.CostModel` calibrated from the wall time of
every executed cell, falling back to a size x config heuristic) so
the workers never end tail-bound on a straggler, and tiny cells are
batched into chunks to amortize the per-lease round trips.  Nothing is
handed out ahead of a worker asking for it.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.experiments.runner import RunDescriptor, RunResult
from repro.experiments.storage import ResultJournal
from repro.perf.instrumentation import Instrumentation

#: ``progress(completed_count, total, result)`` — the same callback
#: signature :class:`Campaign` has always used; under parallel
#: execution results arrive in completion order, not plan order.
ProgressFn = Callable[[int, int, RunResult], None]


def default_jobs() -> int:
    """Worker count when the caller asks for 'all cores' (``jobs=0``).

    Respects CPU affinity where the platform exposes it: in a
    container or cgroup pinned to a subset of the machine,
    ``os.cpu_count()`` still reports every installed core and would
    oversubscribe the pool.

    ``--jobs`` counts *campaign cells*, never flows: one cell is one
    worker process running one event engine, and a shared-world cell
    simulates its thousands of background flows inside that single
    engine.  A world campaign at ``--jobs 8`` therefore runs 8
    concurrent worlds -- the fluid kernel is O(log n) per flow event,
    so a many-flow world stays a one-core job and the affinity-derived
    default needs no scaling down.  The ``REPRO_JOBS`` environment
    variable caps the default for the exception: worlds so large that
    per-process memory, not CPU, is the binding resource.
    """
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = 0
    jobs = affinity or os.cpu_count() or 1
    cap = os.environ.get("REPRO_JOBS", "")
    try:
        capped = int(cap)
    except ValueError:
        return jobs
    if capped > 0:
        jobs = min(jobs, capped)
    return jobs


def run_cell(descriptor: RunDescriptor, telemetry=None
             ) -> Tuple[RunResult, dict, float]:
    """Run one campaign cell: the only place a descriptor is executed,
    in the in-process loop and in every worker alike.

    Returns ``(result, report, wall_s)``: ``report`` is the run's
    :meth:`Instrumentation.report` for merging into the campaign's
    profile and ``wall_s`` its wall time, the cost model's calibration
    sample.  ``telemetry`` (a
    :class:`repro.obs.telemetry.WorkerTelemetry`) gets the run's
    lifecycle; a run that raises leaves a ``fail`` record -- naming
    the seed and FlowSpec identity -- before the exception propagates.
    """
    inst = Instrumentation()
    started = time.perf_counter()
    if telemetry is not None:
        telemetry.run_started(descriptor)
    try:
        result = descriptor.run(instrumentation=inst)
    except BaseException as error:
        if telemetry is not None:
            telemetry.run_failed(descriptor,
                                 time.perf_counter() - started, error)
        raise
    wall = time.perf_counter() - started
    if telemetry is not None:
        events = int(inst.counters.get("events_processed", 0))
        telemetry.run_finished(descriptor, result, wall, events)
    return result, inst.report(), wall


def execute_plan(plan: Sequence[RunDescriptor],
                 jobs: Optional[int] = 1,
                 progress: Optional[ProgressFn] = None,
                 journal: Union[None, str, Path, ResultJournal] = None,
                 run_log: Optional[str] = None,
                 heartbeat_dir: Optional[str] = None,
                 instrumentation=None,
                 cache=None,
                 cost_model=None,
                 chunk: int = 1,
                 backend: str = "pool",
                 hosts: Optional[Sequence[str]] = None,
                 bind: str = "127.0.0.1:0",
                 advertise: Optional[str] = None,
                 lease_timeout: float = 60.0,
                 worker_cache: Optional[str] = None,
                 drain_timeout: Optional[float] = None,
                 ) -> List[RunResult]:
    """Execute campaign cells, in-process or across worker processes.

    ``jobs`` <= 1 runs in-process in plan order (the historical serial
    behaviour); ``jobs`` = 0 or None means one worker per available
    CPU (affinity-aware).  ``journal`` may be a path (opened and
    closed here) or an existing :class:`ResultJournal`.  ``cache`` may
    be a directory path (opened and closed here) or an existing
    :class:`repro.cache.RunCache`; cells found in either store are
    restored instead of recomputed, cache hits are mirrored into the
    journal (so crash-resume still sees a complete record) and journal
    hits are mirrored into the cache (so old journals warm the shared
    store).  The returned list is always in plan order, bit-identical
    to serial execution regardless of any of these knobs.

    Every multi-worker campaign is one
    :class:`~repro.experiments.distributed.Coordinator` leasing chunks
    to workers that ask for them: cells are ordered longest-job-first
    by ``cost_model`` (a :class:`repro.cache.CostModel`, fed the wall
    time of every cell executed here; default: a fresh one), ``chunk``
    > 1 batches tiny cells into
    one lease.  ``backend`` only chooses how workers are spawned:
    ``"pool"`` (the default) starts ``jobs`` local worker processes —
    and runs in-process instead when one worker would do —
    ``"subprocess"`` launches ``jobs`` ``repro worker`` commands,
    ``"ssh"`` launches one per entry in ``hosts``, ``"tcp"`` spawns
    none and waits for workers attached by hand.  Whatever process
    runs whatever cell, results are reassembled by plan position and
    stay byte-identical to serial execution; a cell that raises on a
    worker surfaces as a
    :class:`~repro.experiments.distributed.DistributedExecutionError`
    naming it, after every chunk published before it was journaled and
    cached.  Both stores and ``progress`` are only ever entered from
    the calling thread.

    ``run_log`` (a path) streams lifecycle records for every run;
    ``heartbeat_dir`` publishes live per-worker heartbeat files for a
    :class:`repro.obs.telemetry.ProgressRenderer`;
    ``instrumentation`` (a parent-process :class:`Instrumentation`)
    receives every worker's merged phase timers and counters, which is
    what makes ``--profile`` meaningful under ``--jobs N``.
    """
    plan = list(plan)
    total = len(plan)
    if jobs is None or jobs == 0:
        jobs = default_jobs()
    owns_journal = isinstance(journal, (str, Path))
    if owns_journal:
        journal = ResultJournal(journal)
    owns_cache = isinstance(cache, (str, Path))
    if owns_cache:
        from repro.cache import RunCache
        cache = RunCache(cache)
    try:
        slots: List[Optional[RunResult]] = [None] * total
        pending: List[int] = []
        done = 0
        for position, descriptor in enumerate(plan):
            key = descriptor.key
            restored = journal.get(key) if journal is not None else None
            if restored is not None and cache is not None:
                cache.put(restored)   # old journals warm the cache
            elif restored is None and cache is not None:
                restored = cache.get(key)
                if restored is not None and journal is not None:
                    journal.record(restored)   # keep resume complete
            if restored is not None:
                slots[position] = restored
                done += 1
                if progress is not None:
                    progress(done, total, restored)
            else:
                pending.append(position)

        if cost_model is None:
            from repro.cache import CostModel
            cost_model = CostModel()

        def deliver(position: int, result: RunResult,
                    report: Optional[dict],
                    wall_s: Optional[float]) -> None:
            """Account for one computed cell; ``report`` / ``wall_s``
            are ``None`` when a worker served it from its own cache."""
            nonlocal done
            if instrumentation is not None and report:
                instrumentation.merge_report(report)
            if wall_s is not None:
                cost_model.observe(plan[position], wall_s)
            if journal is not None:
                journal.record(result)
            if cache is not None:
                cache.put(result)
            slots[position] = result
            done += 1
            if progress is not None:
                progress(done, total, result)

        workers = max(1, min(jobs, len(pending)))
        if backend == "pool" and workers == 1:
            telemetry = None
            if run_log is not None or heartbeat_dir is not None:
                from repro.obs.telemetry import WorkerTelemetry
                telemetry = WorkerTelemetry(run_log, heartbeat_dir,
                                            total=total)
            try:
                for position in pending:
                    deliver(position, *run_cell(plan[position], telemetry))
            finally:
                if telemetry is not None:
                    telemetry.close()
        elif pending:
            from repro.cache import build_tasks
            from repro.experiments.distributed import (
                Coordinator, reap, spawn_workers)
            tasks = build_tasks(
                pending, plan, cost_model, chunk,
                max(1, len(hosts or ())) if backend == "ssh" else workers)
            coordinator = Coordinator(
                plan, tasks, total=total,
                is_filled=lambda position: slots[position] is not None,
                deliver=deliver, lease_timeout=lease_timeout, bind=bind,
                run_log=run_log, heartbeat_dir=heartbeat_dir)
            spawned: list = []
            try:
                # Spawn before serving: the listener is already bound,
                # and no process may fork while coordinator threads run.
                spawned = spawn_workers(
                    backend, coordinator.address, jobs=workers,
                    hosts=hosts, advertise=advertise,
                    cache_dir=worker_cache)
                coordinator.start()
                coordinator.wait(timeout=drain_timeout, spawned=spawned)
            finally:
                coordinator.close()
                reap(spawned)

        missing = [position for position, result in enumerate(slots)
                   if result is None]
        if missing:
            # Not an assert: this must fail fast even under python -O,
            # e.g. if a journal key ever collided with a different cell.
            raise RuntimeError(
                f"execute_plan left {len(missing)} of {total} cells "
                f"unfilled (first at plan position {missing[0]})")
        return slots
    finally:
        if owns_journal:
            journal.close()
        if owns_cache:
            cache.close()
