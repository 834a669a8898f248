"""Parallel, resumable, cache-warmed campaign execution.

The paper's methodology (Section 3.2) is a large measurement matrix —
configurations x file sizes x repetitions x day periods — and every
cell builds a fresh, independently seeded :class:`Testbed` that shares
no state with any other.  That makes a campaign embarrassingly
parallel: :func:`execute_plan` fans the cells of a
:meth:`Campaign.plan` out over a :class:`ProcessPoolExecutor` and
reassembles the results in serial order.

Three properties are guaranteed:

* **Determinism** — each run is a pure function of its picklable
  :class:`RunDescriptor` (spec, size, seed, period, profiles), so the
  reassembled results list is bit-for-bit equal to what the serial
  loop produces, whatever the worker count, dispatch order, chunking
  or cache state.
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

Dispatch is cost-aware: pending cells are submitted longest-job-first
(a :class:`repro.cache.CostModel` calibrated from run-log wall times,
falling back to a size x config heuristic) so the pool never ends
tail-bound on a straggler, tiny cells are batched into chunks to
amortize pickling/IPC overhead, and submission is streamed through a
bounded in-flight window (``jobs x _WINDOW`` futures) instead of
materializing every pickled descriptor and future upfront.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.runner import RunDescriptor, RunResult
from repro.experiments.storage import ResultJournal

#: ``progress(completed_count, total, result)`` — the same callback
#: signature :class:`Campaign` has always used; under parallel
#: execution results arrive in completion order, not plan order.
ProgressFn = Callable[[int, int, RunResult], None]

#: Pool construction hook; tests swap in an instrumented executor to
#: assert submission-window bounds without real worker processes.
_pool_factory = ProcessPoolExecutor

#: Submitted-but-unfinished tasks allowed per worker: one running, one
#: queued behind it so a worker never idles waiting on the parent.
_WINDOW = 2


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


def execute_descriptor(descriptor: RunDescriptor) -> RunResult:
    """Worker entry point; must be a module-level name to pickle."""
    return descriptor.run()


def execute_chunk(descriptors: Sequence[RunDescriptor]
                  ) -> List[RunResult]:
    """Worker entry point for a batched task of tiny cells.

    One submission, one pickle round-trip, ``len(descriptors)`` runs;
    results come back in task order.
    """
    return [descriptor.run() for descriptor in descriptors]


# ----------------------------------------------------------------------
# Telemetry-carrying execution (the ``--progress`` / ``--profile`` path)
# ----------------------------------------------------------------------
#
# Worker processes cannot share objects with the parent, so telemetry
# state is per-process module globals seeded by the pool initializer.
# The same pair of functions also serves the serial path, so one code
# path produces run logs, heartbeats and instrumentation everywhere.

_WORKER_TELEMETRY = None
_WORKER_PROFILED = False


def _init_worker(run_log_path: Optional[str],
                 heartbeat_dir: Optional[str],
                 total: int, profiled: bool) -> None:
    """Pool initializer: build this process's telemetry state."""
    global _WORKER_TELEMETRY, _WORKER_PROFILED
    if run_log_path is not None or heartbeat_dir is not None:
        from repro.obs.telemetry import WorkerTelemetry
        _WORKER_TELEMETRY = WorkerTelemetry(run_log_path, heartbeat_dir,
                                            total=total)
    _WORKER_PROFILED = profiled


def _reset_worker() -> None:
    """Tear down telemetry state (serial path runs in the parent)."""
    global _WORKER_TELEMETRY, _WORKER_PROFILED
    if _WORKER_TELEMETRY is not None:
        _WORKER_TELEMETRY.close()
    _WORKER_TELEMETRY = None
    _WORKER_PROFILED = False


def execute_descriptor_ex(descriptor: RunDescriptor
                          ) -> Tuple[RunResult, Optional[dict], float]:
    """Worker entry point with telemetry and instrumentation.

    Returns ``(result, report, wall_s)``: ``report`` is the run's
    :meth:`Instrumentation.report` for parent-side merging (``None``
    unless profiling was requested) and ``wall_s`` is the run's wall
    time, surfaced to the parent as a live cost-model calibration
    sample.  A run that raises leaves a ``fail`` record -- naming the
    seed and FlowSpec identity -- in the shared run log before the
    exception propagates to the parent.
    """
    from repro.perf.instrumentation import Instrumentation
    telemetry = _WORKER_TELEMETRY
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
    return result, (inst.report() if _WORKER_PROFILED else None), wall


def execute_chunk_ex(descriptors: Sequence[RunDescriptor]
                     ) -> List[Tuple[RunResult, Optional[dict], float]]:
    """Telemetry-carrying variant of :func:`execute_chunk`."""
    return [execute_descriptor_ex(descriptor)
            for descriptor in descriptors]


def _default_cost_model(run_log: Optional[str]):
    """A cost model for one campaign: run-log calibrated when a
    previous invocation left finish records, heuristic otherwise."""
    from repro.cache import CostModel
    if run_log is not None and os.path.exists(run_log):
        return CostModel.from_run_log(run_log)
    return CostModel()


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
    """Execute campaign cells, serially or across worker processes.

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

    Dispatch under ``jobs > 1`` is cost-aware: cells are submitted
    longest-job-first, ``cost_model`` (a :class:`repro.cache.CostModel`;
    default: calibrated from ``run_log`` if one exists) supplies the
    estimates, ``chunk`` > 1 batches tiny cells into one task, and at
    most ``jobs x _WINDOW`` submitted tasks are in flight at once — the
    rest of the plan stays unsubmitted until a slot frees, capping
    parent-side memory.

    ``run_log`` (a path) streams start/finish/fail records for every
    run; ``heartbeat_dir`` makes each worker publish live heartbeat
    files for a :class:`repro.obs.telemetry.ProgressRenderer`;
    ``instrumentation`` (a parent-process :class:`Instrumentation`)
    receives every worker's merged phase timers and counters, which is
    what makes ``--profile`` meaningful under ``--jobs N``.

    ``backend`` selects *where* workers run: ``"pool"`` (the default
    single-host process pool), or a distributed backend served by a
    TCP coordinator (:mod:`repro.experiments.distributed`) —
    ``"subprocess"`` spawns ``jobs`` localhost ``repro worker``
    processes, ``"ssh"`` spawns one per entry in ``hosts``, ``"tcp"``
    only listens so workers can be attached by hand.  Whatever host
    runs whatever cell, results are reassembled by plan position and
    stay byte-identical to serial execution; journal, cache, run log
    and progress plumbing are shared with the pool path.
    """
    plan = list(plan)
    total = len(plan)
    if jobs is None or jobs == 0:
        jobs = default_jobs()
    telemetered = (run_log is not None or heartbeat_dir is not None
                   or instrumentation is not None)
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

        def finish(position: int, result: RunResult) -> None:
            nonlocal done
            if journal is not None:
                journal.record(result)
            if cache is not None:
                cache.put(result)
            slots[position] = result
            done += 1
            if progress is not None:
                progress(done, total, result)

        def merge(report: Optional[dict]) -> None:
            if instrumentation is not None and report:
                instrumentation.merge_report(report)

        if cost_model is None:
            cost_model = _default_cost_model(run_log)

        if backend != "pool":
            if instrumentation is not None:
                raise ValueError(
                    "--profile is not supported under distributed "
                    "backends: worker instrumentation does not travel "
                    "over the wire")
            if pending:
                from repro.experiments.distributed import \
                    execute_distributed
                execute_distributed(
                    plan, pending, total=total,
                    is_filled=lambda position: slots[position] is not None,
                    finish=finish,
                    observe=lambda position, wall:
                        cost_model.observe(plan[position], wall),
                    cost_model=cost_model,
                    chunk=chunk, jobs=jobs, backend=backend,
                    hosts=hosts, bind=bind, advertise=advertise,
                    lease_timeout=lease_timeout,
                    worker_cache=worker_cache,
                    run_log=run_log, heartbeat_dir=heartbeat_dir,
                    drain_timeout=drain_timeout)
        elif jobs <= 1 or len(pending) <= 1:
            if telemetered:
                _init_worker(run_log, heartbeat_dir, total,
                             instrumentation is not None)
                try:
                    for position in pending:
                        result, report, wall = execute_descriptor_ex(
                            plan[position])
                        merge(report)
                        cost_model.observe(plan[position], wall)
                        finish(position, result)
                finally:
                    _reset_worker()
            else:
                for position in pending:
                    finish(position, plan[position].run())
        else:
            from repro.cache import build_tasks
            workers = min(jobs, len(pending))
            tasks = deque(build_tasks(pending, plan, cost_model,
                                      chunk, workers))
            max_inflight = workers * _WINDOW
            inflight: Dict[object, List[int]] = {}
            entry = (execute_chunk_ex if telemetered else execute_chunk)
            pool_kwargs = {}
            if telemetered:
                pool_kwargs = dict(
                    initializer=_init_worker,
                    initargs=(run_log, heartbeat_dir, total,
                              instrumentation is not None))

            try:
                with _pool_factory(max_workers=workers,
                                   **pool_kwargs) as pool:

                    def top_up() -> None:
                        while tasks and len(inflight) < max_inflight:
                            positions = tasks.popleft()
                            future = pool.submit(
                                entry,
                                [plan[position] for position in positions])
                            inflight[future] = positions

                    top_up()
                    while inflight:
                        completed, _ = wait(inflight,
                                            return_when=FIRST_COMPLETED)
                        for future in completed:
                            positions = inflight.pop(future)
                            payloads = future.result()
                            for position, payload in zip(positions,
                                                         payloads):
                                if telemetered:
                                    result, report, wall = payload
                                    merge(report)
                                    cost_model.observe(plan[position],
                                                       wall)
                                else:
                                    result = payload
                                finish(position, result)
                        top_up()
            except BaseException:
                # Pool shutdown has drained the siblings by now; runs
                # that finished but were never consumed from their
                # futures must still reach the journal (and cache), or
                # a failed worker throws away their completed work on
                # resume.  (Cells that finished *inside* a failing
                # chunk are lost with it — the chunk's future carries
                # only the exception.)
                if journal is not None or cache is not None:
                    for future, positions in inflight.items():
                        if not (future.done() and not future.cancelled()
                                and future.exception() is None):
                            continue
                        for position, payload in zip(positions,
                                                     future.result()):
                            if slots[position] is not None:
                                continue
                            result = (payload[0] if telemetered
                                      else payload)
                            if journal is not None:
                                journal.record(result)
                            if cache is not None:
                                cache.put(result)
                raise

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
