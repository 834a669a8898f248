"""The one campaign executor: a coordinator leasing cells to workers.

The run cache made campaign cells location-independent — a cell is a
pure function of its :class:`RunDescriptor` and its result is a
content-addressed object — so every multi-worker campaign, on one
machine or many, is the same thing:
:func:`repro.experiments.parallel.execute_plan` binds a
:class:`Coordinator`, workers lease descriptor chunks from it, run
them, and publish the result objects back; the plan is reassembled in
serial order, byte-identical to in-process execution.  The backend
name only chooses how workers are spawned (:func:`spawn_workers`).

Topology
--------

::

    execute_plan(jobs > 1, backend=...)
        └── Coordinator (TCP server, one thread per worker connection)
              ├── LeaseQueue   crash-safe chunk leases with expiry
              ├── inbox        decoded results awaiting the caller
              └── run_log      lifecycle + failover records
    run_worker                 (forked, Popen'd, ssh-spawned or manual)
        └── leases a chunk → runs cells → offers digests → publishes
            only the objects the coordinator does not already have

Threads
-------

Handler threads only speak the protocol: they grant leases, decode
published objects and put them in the inbox.  Delivery — journal
record, cache put, progress, cost-model and profile merging — happens
in :meth:`Coordinator.wait`, on the thread that called
``execute_plan``, so the stores are single-writer on every backend.  A
publish is acknowledged once it is in the inbox: the worker does not
wait out the parent's fsyncs before its next lease.

Lease semantics
---------------

A lease is one dispatch task (a chunk of plan positions from the
cost-model LJF pipeline) granted to one worker with a deadline.
Workers renew between cells; a worker that dies (SIGKILL, network
partition, host loss) drops its connection or simply stops renewing,
the coordinator logs a ``lease_expired`` failover record to the run
log and *refronts* the chunk so the next idle worker re-runs it.
Results are delivered idempotently by plan position — a presumed-dead
worker that comes back and publishes anyway is harmless, because a
filled slot is never overwritten and never re-counted.

Crash safety is layered: worker death is handled here (lease expiry);
coordinator death is handled by the existing persistence layers — the
journal and the run cache already hold every delivered cell, so a
re-invoked campaign restores them before leasing anything.

Determinism
-----------

The oracle is the determinism guard: whichever process runs whichever
cell, results travel at full fidelity
(:func:`repro.experiments.protocol.result_wrapper`: the cache's
``{key, format_version, result}`` envelope, but with sample lists as
plain JSON floats where a cache object packs them as base64 doubles),
are reassembled by plan position once their ``key`` matches that
position's cell, and must be byte-identical to serial execution.
Nothing in this module can reorder, rescale or re-thin a row.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    descriptor_from_dict,
    descriptor_to_dict,
    parse_address,
    recv_message,
    result_from_wrapper,
    result_wrapper,
    send_message,
)
from repro.experiments import storage as _storage
from repro.obs.telemetry import (
    RunLog,
    fail_record,
    finish_record,
    write_heartbeat,
)

#: Default lease lifetime.  Workers renew between cells, so the timeout
#: only has to exceed the *longest single cell* plus network slack, not
#: the whole chunk.
DEFAULT_LEASE_TIMEOUT_S = 60.0

#: How long a lease request may block in the coordinator while every
#: chunk is leased out but not delivered; well under the worker's
#: socket timeout.  The worker just asks again.
_LEASE_BLOCK_S = 5.0

#: Test hook: a worker SIGKILLs itself after executing this many cells
#: (before publishing them), simulating mid-chunk host death.
_KILL_AFTER_ENV = "REPRO_WORKER_KILL_AFTER"


class DistributedExecutionError(RuntimeError):
    """A worker reported a failed cell, or the backend misbehaved."""


# ----------------------------------------------------------------------
# The lease queue
# ----------------------------------------------------------------------

class Lease:
    """One granted chunk: worker, plan positions, renewal deadline."""

    __slots__ = ("lease_id", "worker", "positions", "deadline")

    def __init__(self, lease_id: int, worker: str,
                 positions: List[int], deadline: float) -> None:
        self.lease_id = lease_id
        self.worker = worker
        self.positions = positions
        self.deadline = deadline


class LeaseQueue:
    """Crash-safe bookkeeping over a campaign's dispatch tasks.

    Purely in-memory and single-locked by the coordinator: durability
    of *results* lives in the journal/cache, so the queue only has to
    guarantee that no pending chunk is ever lost — a lease either
    completes (released) or expires (refronted for reassignment).
    """

    def __init__(self, tasks: Sequence[Sequence[int]],
                 lease_timeout: float) -> None:
        self._pending = deque(list(task) for task in tasks)
        self._timeout = lease_timeout
        self._leases: Dict[int, Lease] = {}
        self._next_id = 1
        #: Chunks reassigned after their worker stopped renewing.
        self.expired = 0

    def lease(self, worker: str, now: float,
              skip: Callable[[int], bool]) -> Optional[Lease]:
        """Grant the next chunk to ``worker``, dropping positions that
        were filled since the task was built (late duplicate
        deliveries, cache restores)."""
        while self._pending:
            positions = [position for position in self._pending.popleft()
                         if not skip(position)]
            if not positions:
                continue
            lease = Lease(self._next_id, worker, positions,
                          now + self._timeout)
            self._next_id += 1
            self._leases[lease.lease_id] = lease
            return lease
        return None

    def renew(self, lease_id: int, now: float) -> bool:
        """Extend a lease's deadline; ``False`` if it already expired
        (the chunk is being re-run elsewhere — the renewing worker may
        still publish, idempotently)."""
        lease = self._leases.get(lease_id)
        if lease is None:
            return False
        lease.deadline = now + self._timeout
        return True

    def release(self, lease_id: int) -> Optional[Lease]:
        """Complete a lease (after its results were delivered)."""
        return self._leases.pop(lease_id, None)

    def expire(self, now: float) -> List[Lease]:
        """Expire overdue leases, refronting their chunks so the
        oldest (most-delayed) work is re-granted first."""
        overdue = [lease for lease in self._leases.values()
                   if lease.deadline <= now]
        for lease in overdue:
            del self._leases[lease.lease_id]
            self._pending.appendleft(list(lease.positions))
            self.expired += 1
        return overdue

    def abandon(self, worker: str) -> List[Lease]:
        """Release every lease held by a disconnected worker at once
        (faster than waiting out the timeout)."""
        dropped = [lease for lease in self._leases.values()
                   if lease.worker == worker]
        for lease in dropped:
            del self._leases[lease.lease_id]
            self._pending.appendleft(list(lease.positions))
            self.expired += 1
        return dropped

    @property
    def outstanding(self) -> int:
        return len(self._leases)

    @property
    def drained(self) -> bool:
        return not self._pending and not self._leases


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------

class Coordinator:
    """TCP work server for one campaign's pending cells.

    Owns the lease queue, accepts worker connections (one handler
    thread each), hands published results to the ``deliver`` callback
    provided by :func:`execute_plan` (which journals, caches and fires
    the progress callback) from whichever thread calls :meth:`wait`,
    and records worker lifecycle — joins, departures, lease failovers —
    in the campaign run log.  The listener is bound on construction, so
    workers may be spawned against :attr:`address` before :meth:`start`
    creates the first thread.
    """

    def __init__(self, plan: Sequence, tasks: Sequence[Sequence[int]],
                 *, total: int,
                 is_filled: Callable[[int], bool],
                 deliver: Callable[..., None],
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT_S,
                 bind: str = "127.0.0.1:0",
                 run_log: Optional[str] = None,
                 heartbeat_dir: Optional[str] = None) -> None:
        self._plan = plan
        self._total = total
        self._is_filled = is_filled
        self._deliver = deliver
        self._queue = LeaseQueue(tasks, lease_timeout)
        self._lease_timeout = lease_timeout
        self._cond = threading.Condition()
        #: Published ``(worker, row, result)`` awaiting :meth:`wait`.
        self._inbox: List[Tuple[str, dict, object]] = []
        #: What the first ``failed`` report said; raised by :meth:`wait`.
        self._failure: Optional[str] = None
        self._closing = False
        self._accept_thread: Optional[threading.Thread] = None
        self._handlers: List[Tuple[threading.Thread, socket.socket]] = []
        self._heartbeat_dir = heartbeat_dir
        self._run_log = RunLog(run_log) if run_log is not None else None
        if heartbeat_dir:
            os.makedirs(heartbeat_dir, exist_ok=True)
        self._listener = socket.create_server(parse_address(bind))
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "Coordinator":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-coordinator-accept",
            daemon=True)
        self._accept_thread.start()
        return self

    def wait(self, timeout: Optional[float] = None,
             spawned: Sequence = ()) -> None:
        """Deliver published results until every pending cell is in.

        Runs ``deliver`` on the calling thread, and doubles as the
        lease watchdog: each tick expires overdue leases, logs the
        failover, and refronts their chunks.  Raises
        :class:`DistributedExecutionError` if a worker reported a
        failed cell — once the chunks its siblings still hold have been
        published or given up, so no finished work is thrown away — if
        every one of the ``spawned`` workers has exited with cells
        still undelivered and nobody else is connected (failover needs
        a survivor), or if ``timeout`` elapses first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        tick = max(0.05, min(1.0, self._lease_timeout / 4.0))
        while True:
            with self._cond:
                overdue = self._queue.expire(time.monotonic())
                if overdue:
                    self._cond.notify_all()   # refronted: wake lessees
                if not self._inbox:
                    if self._failure is not None \
                            and not self._queue.outstanding:
                        raise DistributedExecutionError(self._failure)
                    if self._queue.drained:
                        return
                    if deadline is not None \
                            and time.monotonic() >= deadline:
                        raise DistributedExecutionError(
                            f"campaign did not drain within {timeout}s "
                            f"({self._queue.outstanding} leases "
                            f"outstanding)")
                    if spawned and all(_exited(worker, 0.0)
                                       for worker in spawned) \
                            and not any(thread.is_alive()
                                        for thread, _ in self._handlers):
                        raise DistributedExecutionError(
                            f"all {len(spawned)} spawned workers exited "
                            f"with cells still undelivered")
                    self._cond.wait(tick)
                inbox, self._inbox = self._inbox, []
            for lease in overdue:
                self._log_expired(lease)
            for worker, row, result in inbox:
                self._deliver_row(worker, row, result)

    def close(self) -> None:
        """Stop serving: no thread, listener or connection survives."""
        with self._cond:
            self._closing = True
            graceful = self._failure is None and self._queue.drained
            self._cond.notify_all()
        if self._accept_thread is not None:
            # accept() only returns for a connection, so make one.
            try:
                socket.create_connection(self.address, timeout=1.0).close()
            except OSError:
                pass
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None
        self._listener.close()
        # After a drain every worker is one "drained" reply from done;
        # otherwise cut the connections and let the spawner reap.
        deadline = time.monotonic() + (2.0 if graceful else 0.0)
        for thread, conn in self._handlers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                thread.join(timeout=1.0)
        self._handlers = []
        if self._run_log is not None:
            self._run_log.close()
            self._run_log = None

    # -- internals ------------------------------------------------------

    def _log(self, event: str, **fields) -> None:
        if self._run_log is not None:
            self._run_log.log(event, **fields)

    def _log_expired(self, lease: Lease, **fields) -> None:
        self._log("lease_expired", worker=lease.worker,
                  lease=lease.lease_id,
                  cells=[self._plan[position].key
                         for position in lease.positions], **fields)

    def _beat(self, worker: str, message: dict,
              current: Optional[str]) -> None:
        if self._heartbeat_dir:
            write_heartbeat(self._heartbeat_dir, worker,
                            total=self._total,
                            done=message.get("done", 0),
                            events_per_sec=message.get("events_per_sec"),
                            current=current)

    def _position(self, value) -> int:
        """A plan position off the wire, or :class:`ProtocolError`."""
        if type(value) is not int or not 0 <= value < len(self._plan):
            raise ProtocolError(f"no plan position {value!r}")
        return value

    def _decode_row(self, row: dict):
        """One published row's result, checked against the plan: a row
        whose key is not its position's cell (a worker with another
        identity formula, a swapped row) is refused."""
        key = self._plan[self._position(row["position"])].key
        wrapper = row.pop("object")
        if row["key"] != key or wrapper["key"] != key:
            raise ProtocolError(f"row for position {row['position']} "
                                f"does not carry its cell {key!r}")
        return result_from_wrapper(wrapper)

    def _deliver_row(self, worker: str, row: dict, result) -> None:
        """One published cell, on the thread that called :meth:`wait`."""
        position = row["position"]
        if self._is_filled(position):
            return  # duplicate delivery after reassignment
        self._deliver(position, result, row.get("report"),
                      row.get("wall_s"))
        if self._run_log is not None:
            self._log("finish", **finish_record(
                self._plan[position], result, row.get("wall_s"),
                row.get("events", 0), worker))

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, addr = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._cond:
                closing = self._closing
            if closing:
                conn.close()
                return
            handler = threading.Thread(
                target=self._serve, args=(conn, addr),
                name=f"repro-coordinator-{addr[0]}:{addr[1]}",
                daemon=True)
            self._handlers.append((handler, conn))
            handler.start()

    def _serve(self, conn: socket.socket, addr) -> None:
        worker = f"{addr[0]}:{addr[1]}"
        joined = False
        try:
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                hello = recv_message(conn)
                if hello is None or hello.get("type") != "hello":
                    return
                if hello.get("protocol") != PROTOCOL_VERSION or \
                        hello.get("format_version") != \
                        _storage.FORMAT_VERSION:
                    send_message(conn, {
                        "type": "error",
                        "error": f"version mismatch: coordinator speaks "
                                 f"protocol {PROTOCOL_VERSION} / format "
                                 f"{_storage.FORMAT_VERSION}, worker "
                                 f"offered {hello.get('protocol')!r} / "
                                 f"{hello.get('format_version')!r}"})
                    return
                worker = str(hello.get("worker") or worker)
                joined = True
                self._log("worker_joined", worker=worker,
                          jobs=hello.get("jobs"), addr=addr[0])
                self._beat(worker, hello, None)
                send_message(conn, {"type": "welcome",
                                    "protocol": PROTOCOL_VERSION,
                                    "format_version":
                                        _storage.FORMAT_VERSION,
                                    "total": self._total})
                while True:
                    message = recv_message(conn)
                    if message is None:
                        return
                    reply = self._handle(worker, message)
                    send_message(conn, reply)
                    if reply["type"] in ("drained", "abort", "error"):
                        return
        except (ProtocolError, OSError) as error:
            self._log("worker_error", worker=worker, error=repr(error))
        finally:
            with self._cond:
                dropped = self._queue.abandon(worker)
                self._cond.notify_all()
            if joined:
                for lease in dropped:
                    self._log_expired(lease, reason="disconnect")
                self._log("worker_left", worker=worker,
                          leases_dropped=len(dropped))

    def _handle(self, worker: str, message: dict) -> dict:
        """Answer one message.  A malformed one (missing field, wrong
        type, a result ``result_from_dict`` rejects) is a
        :class:`ProtocolError`: :meth:`_serve` logs it, drops the
        worker and refronts its leases."""
        kind = message.get("type")
        try:
            if kind == "lease":
                return self._handle_lease(worker, message)
            if kind == "renew":
                return self._handle_renew(worker, message)
            if kind == "offer":
                return self._handle_offer(worker, message)
            if kind == "publish":
                return self._handle_publish(worker, message)
            if kind == "failed":
                return self._handle_failed(worker, message)
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise ProtocolError(
                f"malformed {kind!r} message: {error!r}") from error
        if kind == "bye":
            return {"type": "drained"}
        raise ProtocolError(f"unknown message type {kind!r}")

    def _handle_lease(self, worker: str, message: dict) -> dict:
        """Grant the next chunk, blocking (bounded) while every chunk
        is leased out but not yet delivered — one of them may still be
        refronted by an expiry or a disconnect."""
        give_up = time.monotonic() + _LEASE_BLOCK_S
        with self._cond:
            while True:
                if self._failure is not None:
                    return {"type": "abort"}
                if not self._closing:
                    lease = self._queue.lease(worker, time.monotonic(),
                                              skip=self._is_filled)
                    if lease is not None:
                        break
                if self._queue.drained:
                    # Checked before _closing: a worker that asks for
                    # more work while the coordinator is shutting down
                    # after a successful drain should exit 0, not abort.
                    return {"type": "drained"}
                if self._closing:
                    return {"type": "abort"}
                remaining = give_up - time.monotonic()
                if remaining <= 0.0:
                    return {"type": "wait", "seconds": 0.0}
                self._cond.wait(remaining)
        cells = [self._plan[position] for position in lease.positions]
        self._log("lease", worker=worker, lease=lease.lease_id,
                  cells=len(cells))
        self._beat(worker, message,
                   f"{cells[0].spec.identity}:{cells[0].size}")
        return {"type": "work", "lease": lease.lease_id,
                "positions": lease.positions,
                "cells": [descriptor_to_dict(cell) for cell in cells]}

    def _handle_renew(self, worker: str, message: dict) -> dict:
        with self._cond:
            valid = self._queue.renew(int(message.get("lease", -1)),
                                      time.monotonic())
        self._beat(worker, message, message.get("current"))
        return {"type": "ok", "valid": valid}

    def _handle_offer(self, worker: str, message: dict) -> dict:
        """Content negotiation: of the digests the worker holds, name
        the ones the coordinator still needs (hash-keyed, so a warm
        worker-local cache or a duplicate re-run transfers nothing)."""
        with self._cond:
            self._queue.renew(int(message.get("lease", -1)),
                              time.monotonic())
        return {"type": "want",
                "digests": [row["digest"] for row in message.get("rows", ())
                            if not self._is_filled(
                                self._position(row["position"]))]}

    def _handle_publish(self, worker: str, message: dict) -> dict:
        """Check, decode and enqueue; :meth:`wait` delivers.  The lease
        is done as soon as its results are in the inbox."""
        lease = int(message.get("lease", -1))
        decoded = [(worker, row, self._decode_row(row))
                   for row in message.get("rows", ())]
        with self._cond:
            self._inbox.extend(decoded)
            self._queue.release(lease)
            self._cond.notify_all()
        self._beat(worker, message, None)
        return {"type": "ok"}

    def _handle_failed(self, worker: str, message: dict) -> dict:
        error = message.get("error", "unknown worker failure")
        what = "a cell"
        if message.get("position") is not None:
            descriptor = self._plan[self._position(message["position"])]
            # The key is identity|size|seed|period: it names all three.
            what = f"cell {descriptor.key}"
            if self._run_log is not None:
                self._log("fail", **fail_record(descriptor, error, worker))
        with self._cond:
            if self._failure is None:
                self._failure = f"worker {worker} failed {what}: {error}"
            self._queue.release(int(message.get("lease", -1)))
            self._cond.notify_all()
        return {"type": "abort"}


# ----------------------------------------------------------------------
# The worker
# ----------------------------------------------------------------------

def _connect(address: Tuple[str, int], retry_s: float,
             interval: float = 0.2) -> socket.socket:
    """Dial the coordinator, retrying briefly: an ssh-spawned worker
    can win the race against the coordinator's listener."""
    deadline = time.monotonic() + retry_s
    while True:
        try:
            sock = socket.create_connection(address, timeout=30.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(interval)


def _request(sock, message: dict) -> dict:
    """One round trip to the coordinator."""
    send_message(sock, message)
    reply = recv_message(sock)
    if reply is None:
        raise ProtocolError("coordinator vanished")
    return reply


def run_worker(connect: str, jobs: int = 1,
               cache_dir: Optional[str] = None,
               label: Optional[str] = None,
               retry_s: float = 10.0,
               stream=None) -> int:
    """The worker loop: lease, execute, publish, repeat.

    The same loop serves every backend — forked by the ``pool``
    spawner, started as ``repro worker`` by ``subprocess`` / ``ssh``,
    or attached by hand.  Returns a shell exit status: 0 when the
    coordinator drained its plan, 1 on abort/failure.  ``jobs`` > 1 is
    that many worker loops, each in its own process (0 = affinity-aware
    core count, the same
    :func:`~repro.experiments.parallel.default_jobs` the executor
    uses); ``cache_dir`` opens a worker-local run cache so previously
    computed cells are served — and offered to the coordinator by
    digest — without re-execution.
    """
    from repro.cache import RunCache
    from repro.cache.store import cache_digest
    from repro.experiments.parallel import default_jobs, run_cell

    stream = stream if stream is not None else sys.stderr
    label = label or f"{socket.gethostname()}-{os.getpid()}"
    if jobs is None or jobs <= 0:
        jobs = default_jobs()
    if jobs > 1:
        loops = _start_worker_loops(connect, jobs, cache_dir, label,
                                    retry_s)
        for loop in loops:
            loop.join()
        return int(any(loop.exitcode != 0 for loop in loops))

    def say(text: str) -> None:
        print(f"[worker {label}] {text}", file=stream, flush=True)

    kill_after = int(os.environ.get(_KILL_AFTER_ENV, "0") or 0)
    cache = RunCache(cache_dir) if cache_dir else None
    sock = _connect(parse_address(connect), retry_s)
    done = executed = events = 0
    busy_s = 0.0

    def status(**fields) -> dict:
        """What the coordinator shows for this worker in heartbeats."""
        return dict(fields, done=done,
                    events_per_sec=(round(events / busy_s)
                                    if busy_s > 0 else None))

    try:
        welcome = _request(sock, {
            "type": "hello", "worker": label, "jobs": jobs,
            "protocol": PROTOCOL_VERSION,
            "format_version": _storage.FORMAT_VERSION})
        if welcome.get("type") != "welcome":
            say(welcome.get("error", "handshake rejected"))
            return 1
        while True:
            grant = _request(sock, status(type="lease"))
            kind = grant.get("type")
            if kind == "wait":
                time.sleep(float(grant.get("seconds", 0.0)))
                continue
            if kind == "drained":
                return 0
            if kind != "work":
                say(grant.get("error", kind))
                return 1

            lease_id = grant["lease"]
            rows: List[dict] = []
            for position, data in zip(grant["positions"], grant["cells"]):
                descriptor = descriptor_from_dict(data)
                key = descriptor.key
                row = {"position": position, "key": key,
                       "digest": cache_digest(key, _storage.FORMAT_VERSION)}
                rows.append(row)
                result = cache.get(key) if cache is not None else None
                if result is None:
                    if len(rows) > 1:
                        # Renew between cells, so a slow chunk never
                        # expires under a live worker.  An invalid lease
                        # (expired, reassigned) is *not* fatal: results
                        # stay deliverable idempotently.
                        _request(sock, status(
                            type="renew", lease=lease_id,
                            current=f"{descriptor.spec.identity}:"
                                    f"{descriptor.size}"))
                    try:
                        result, report, wall = run_cell(descriptor)
                    except Exception as error:
                        text = f"{type(error).__name__}: {error}"
                        say(f"cell failed: {text}")
                        _request(sock, {"type": "failed",
                                        "lease": lease_id,
                                        "position": position,
                                        "error": text})
                        return 1
                    executed += 1
                    busy_s += wall
                    row["wall_s"] = round(wall, 6)
                    row["events"] = int(report["counters"].get(
                        "events_processed", 0))
                    events += row["events"]
                    row["report"] = report
                    if cache is not None:
                        cache.put(result)
                    if kill_after and executed >= kill_after:
                        os.kill(os.getpid(), signal.SIGKILL)
                row["object"] = result_wrapper(key, result)
            done += len(rows)

            # Offer digests first: the coordinator names what it still
            # needs, so duplicates and warm worker-cache hits ship
            # nothing but a hash.
            want = _request(sock, {
                "type": "offer", "lease": lease_id,
                "rows": [{"position": row["position"], "key": row["key"],
                          "digest": row["digest"]} for row in rows]})
            if want.get("type") != "want":
                return 1
            wanted = set(want.get("digests", ()))
            ack = _request(sock, status(
                type="publish", lease=lease_id,
                rows=[row for row in rows if row["digest"] in wanted]))
            if ack.get("type") == "abort":
                return 1
    except (ProtocolError, OSError) as error:
        say(str(error))
        return 1
    finally:
        sock.close()
        if cache is not None:
            cache.close()


def _worker_process(connect: str, cache_dir: Optional[str], label: str,
                    retry_s: float) -> None:
    """``multiprocessing`` target: one worker loop, exit status kept."""
    sys.exit(run_worker(connect, cache_dir=cache_dir, label=label,
                        retry_s=retry_s))


def _start_worker_loops(connect: str, count: int,
                        cache_dir: Optional[str], label: str,
                        retry_s: float = 10.0
                        ) -> List[multiprocessing.Process]:
    """``count`` local processes, each running one worker loop."""
    loops = [multiprocessing.Process(
        target=_worker_process, daemon=True,
        args=(connect, cache_dir, f"{label}.{index}", retry_s))
        for index in range(count)]
    for loop in loops:
        loop.start()
    return loops


# ----------------------------------------------------------------------
# Worker spawners: all a backend name chooses
# ----------------------------------------------------------------------

def _repro_pythonpath() -> str:
    """PYTHONPATH that lets a spawned ``python -m repro.cli`` find this
    checkout, prepended to whatever the environment already has."""
    import repro
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    existing = os.environ.get("PYTHONPATH", "")
    return src + (os.pathsep + existing if existing else "")


def spawn_workers(backend: str, address: Tuple[str, int], jobs: int = 1,
                  hosts: Optional[Sequence[str]] = None,
                  advertise: Optional[str] = None,
                  cache_dir: Optional[str] = None) -> list:
    """Start ``backend``'s workers against a bound coordinator.

    ``"pool"`` forks ``jobs`` local processes straight into
    :func:`run_worker`; ``"subprocess"`` launches ``jobs`` ``repro
    worker`` commands on this machine; ``"ssh"`` launches the same
    command behind an ``ssh HOST`` prefix, one per entry in ``hosts``,
    each using every core of its host; ``"tcp"`` spawns nothing —
    attach workers by hand with ``repro worker --connect host:port``.
    ``advertise`` is the coordinator host as *remote* machines reach it
    (default: this machine's hostname — a coordinator bound to
    127.0.0.1 must pass an externally visible bind/advertise pair), and
    ``repro`` must be on the remote PATH.  Returns the started
    processes for :func:`reap`.
    """
    host, port = address
    if backend == "tcp":
        return []
    if backend == "pool":
        return _start_worker_loops(
            f"{host}:{port}", jobs, cache_dir,
            f"{socket.gethostname()}-{os.getpid()}")

    def command(program: List[str], connect_host: str,
                worker_jobs: int) -> List[str]:
        return program + ["worker", "--connect", f"{connect_host}:{port}",
                          "--jobs", str(worker_jobs)] \
            + (["--cache", cache_dir] if cache_dir else [])

    if backend == "subprocess":
        env = dict(os.environ, PYTHONPATH=_repro_pythonpath())
        local = command([sys.executable, "-m", "repro.cli"], host, 1)
        return [subprocess.Popen(local, env=env) for _ in range(jobs)]
    if backend == "ssh":
        if not hosts:
            raise ValueError(
                "backend 'ssh' needs at least one --hosts entry")
        remote = command(["repro"], advertise or socket.gethostname(), 0)
        return [subprocess.Popen(
            ["ssh", "-o", "BatchMode=yes", target] + remote)
            for target in hosts]
    raise ValueError(f"unknown backend {backend!r}; expected 'pool', "
                     f"'subprocess', 'ssh' or 'tcp'")


def _exited(worker, timeout: float) -> bool:
    """Has this spawned worker (``Popen`` or ``Process``) exited,
    waiting up to ``timeout`` seconds for it?"""
    if isinstance(worker, subprocess.Popen):
        try:
            worker.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return False
        return True
    worker.join(timeout=timeout)
    return not worker.is_alive()


def reap(workers: Sequence) -> None:
    """Leave no spawned worker behind: terminate whatever has not
    exited (after a drain that is a worker still starting up or on its
    way out), then — five seconds on — kill."""
    stubborn = [worker for worker in workers if not _exited(worker, 0.0)]
    for worker in stubborn:
        worker.terminate()
    deadline = time.monotonic() + 5.0
    for worker in stubborn:
        if not _exited(worker, max(0.1, deadline - time.monotonic())):
            worker.kill()
            _exited(worker, 5.0)
