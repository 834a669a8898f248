"""Distributed campaign execution: a coordinator/worker backend.

The run cache made campaign cells location-independent — a cell is a
pure function of its :class:`RunDescriptor` and its result is a
content-addressed object — so scaling beyond one machine needs only an
execution backend: this module extends
:func:`repro.experiments.parallel.execute_plan` with a TCP
coordinator that leases descriptor chunks to ``repro worker``
processes anywhere, collects the published result objects into the
shared store, and reassembles the plan in serial order, byte-identical
to single-host execution.

Topology
--------

::

    execute_plan(backend="subprocess" | "ssh" | "tcp")
        └── Coordinator (TCP server, one thread per worker connection)
              ├── LeaseQueue   crash-safe chunk leases with expiry
              ├── run cache    content-addressed objects/ store
              └── run_log      lifecycle + failover records
    repro worker --connect host:port      (local, ssh-spawned, or manual)
        └── leases a chunk → runs cells → offers digests → publishes
            only the objects the coordinator does not already have

Lease semantics
---------------

A lease is one dispatch task (a chunk of plan positions, built by the
same cost-model LJF pipeline the pool backend uses) granted to one
worker with a deadline.  Workers renew after every completed cell;
a worker that dies (SIGKILL, network partition, host loss) simply
stops renewing, the coordinator expires the lease, logs a
``lease_expired`` failover record to the run log, and *refronts* the
chunk so the next idle worker re-runs it.  Results are delivered
idempotently by plan position — a presumed-dead worker that comes
back and publishes anyway is harmless, because a filled slot is never
overwritten and never re-counted.

Crash safety is layered: worker death is handled here (lease expiry);
coordinator death is handled by the existing persistence layers — the
journal and the run cache already hold every delivered cell, so a
re-invoked campaign restores them before leasing anything.

Determinism
-----------

The oracle is the determinism guard: whichever host runs whichever
cell, results travel as the cache's full-fidelity object format
(:func:`repro.experiments.protocol.result_wrapper`), are reassembled
by plan position, and must be byte-identical to serial execution.
Nothing in this module can reorder, rescale or re-thin a row.
"""

from __future__ import annotations

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

#: Default lease lifetime.  Workers renew after every completed cell,
#: so the timeout only has to exceed the *longest single cell* plus
#: network slack, not the whole chunk.
DEFAULT_LEASE_TIMEOUT_S = 60.0

#: How long a worker sleeps when told to wait (all work leased out).
_WAIT_S = 0.25

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
    thread each), restores/imports published results through the
    ``finish`` callback provided by :func:`execute_plan` (which
    journals, caches and fires the progress callback), and records
    worker lifecycle — joins, departures, lease failovers — in the
    campaign run log.
    """

    def __init__(self, plan: Sequence, tasks: Sequence[Sequence[int]],
                 *, total: int,
                 is_filled: Callable[[int], bool],
                 finish: Callable[[int, object], None],
                 observe: Optional[Callable[[int, float], None]] = None,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT_S,
                 bind: str = "127.0.0.1:0",
                 run_log: Optional[str] = None,
                 heartbeat_dir: Optional[str] = None) -> None:
        self._plan = plan
        self._total = total
        self._is_filled = is_filled
        self._finish = finish
        self._observe = observe
        self._queue = LeaseQueue(tasks, lease_timeout)
        self._lease_timeout = lease_timeout
        self._cond = threading.Condition()
        self._failure: Optional[BaseException] = None
        self._closing = False
        self._threads: List[threading.Thread] = []
        self._workers_seen = 0
        self._heartbeat_dir = heartbeat_dir
        self._run_log = None
        if run_log is not None:
            from repro.obs.telemetry import RunLog
            self._run_log = RunLog(run_log)
        if heartbeat_dir:
            os.makedirs(heartbeat_dir, exist_ok=True)

        host, port = parse_address(bind)
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "Coordinator":
        accept = threading.Thread(target=self._accept_loop,
                                  name="repro-coordinator-accept",
                                  daemon=True)
        accept.start()
        self._threads.append(accept)
        return self

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until every pending cell is delivered.

        Doubles as the lease watchdog: each tick expires overdue
        leases, logs the failover, and refronts their chunks.
        Raises :class:`DistributedExecutionError` if a worker reported
        a failed cell or ``timeout`` elapses first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        tick = max(0.05, min(1.0, self._lease_timeout / 4.0))
        with self._cond:
            while True:
                for lease in self._queue.expire(time.monotonic()):
                    self._log("lease_expired", worker=lease.worker,
                              lease=lease.lease_id,
                              cells=[self._plan[position].key
                                     for position in lease.positions])
                if self._failure is not None:
                    raise DistributedExecutionError(
                        str(self._failure)) from self._failure
                if self._queue.drained:
                    return
                if deadline is not None and time.monotonic() >= deadline:
                    raise DistributedExecutionError(
                        f"campaign did not drain within {timeout}s "
                        f"({self._queue.outstanding} leases outstanding)")
                self._cond.wait(tick)

    def close(self) -> None:
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        try:
            self._listener.close()
        except OSError:
            pass
        for thread in self._threads:
            thread.join(timeout=2.0)
        if self._run_log is not None:
            self._run_log.close()
            self._run_log = None

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ------------------------------------------------------

    def _log(self, event: str, **fields) -> None:
        if self._run_log is not None:
            self._run_log.log(event, **fields)

    def _beat(self, worker: str, **fields) -> None:
        if self._heartbeat_dir:
            from repro.obs.telemetry import write_heartbeat
            write_heartbeat(self._heartbeat_dir, worker,
                            total=self._total, **fields)

    def _accept_loop(self) -> None:
        while True:
            with self._cond:
                if self._closing:
                    return
            try:
                conn, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            handler = threading.Thread(
                target=self._serve, args=(conn, addr),
                name=f"repro-coordinator-{addr[0]}:{addr[1]}",
                daemon=True)
            handler.start()
            self._threads.append(handler)

    def _serve(self, conn: socket.socket, addr) -> None:
        worker = f"{addr[0]}:{addr[1]}"
        joined = False
        try:
            with conn:
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
                with self._cond:
                    self._workers_seen += 1
                self._log("worker_joined", worker=worker,
                          jobs=hello.get("jobs"), addr=addr[0])
                self._beat(worker, done=0, current=None)
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
            dropped: List[Lease] = []
            with self._cond:
                dropped = self._queue.abandon(worker)
                self._cond.notify_all()
            if joined:
                for lease in dropped:
                    self._log("lease_expired", worker=worker,
                              lease=lease.lease_id, reason="disconnect",
                              cells=[self._plan[position].key
                                     for position in lease.positions])
                self._log("worker_left", worker=worker,
                          leases_dropped=len(dropped))

    def _handle(self, worker: str, message: dict) -> dict:
        kind = message.get("type")
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
        if kind == "bye":
            return {"type": "drained"}
        raise ProtocolError(f"unknown message type {kind!r}")

    def _handle_lease(self, worker: str, message: dict) -> dict:
        with self._cond:
            if self._failure is not None:
                return {"type": "abort"}
            if self._queue.drained:
                # Checked before _closing: a worker that asks for more
                # work while the coordinator is shutting down after a
                # successful drain should exit 0, not abort.
                return {"type": "drained"}
            if self._closing:
                return {"type": "abort"}
            lease = self._queue.lease(worker, time.monotonic(),
                                      skip=self._is_filled)
            if lease is not None:
                cells = [descriptor_to_dict(self._plan[position])
                         for position in lease.positions]
                positions = list(lease.positions)
                lease_id = lease.lease_id
            elif self._queue.drained:
                return {"type": "drained"}
            else:
                return {"type": "wait", "seconds": _WAIT_S}
        self._log("lease", worker=worker, lease=lease_id,
                  cells=len(positions))
        return {"type": "work", "lease": lease_id,
                "positions": positions, "cells": cells}

    def _handle_renew(self, worker: str, message: dict) -> dict:
        with self._cond:
            valid = self._queue.renew(int(message.get("lease", -1)),
                                      time.monotonic())
        self._beat(worker, done=message.get("done", 0),
                   current=message.get("current"),
                   events_per_sec=message.get("events_per_sec"))
        return {"type": "ok", "valid": valid}

    def _handle_offer(self, worker: str, message: dict) -> dict:
        """Content negotiation: of the digests the worker holds, name
        the ones the coordinator still needs (hash-keyed, so a warm
        worker-local cache or a duplicate re-run transfers nothing)."""
        want = []
        with self._cond:
            self._queue.renew(int(message.get("lease", -1)),
                              time.monotonic())
            for row in message.get("rows", ()):
                if not self._is_filled(int(row["position"])):
                    want.append(row["digest"])
        return {"type": "want", "digests": want}

    def _handle_publish(self, worker: str, message: dict) -> dict:
        imported = 0
        with self._cond:
            for row in message.get("rows", ()):
                position = int(row["position"])
                if self._is_filled(position):
                    continue  # duplicate delivery after reassignment
                result = result_from_wrapper(row["object"])
                descriptor = self._plan[position]
                if self._observe is not None and "wall_s" in row:
                    self._observe(position, float(row["wall_s"]))
                self._finish(position, result)
                imported += 1
                self._log("finish", key=descriptor.key,
                          seed=descriptor.seed,
                          spec=descriptor.spec.identity,
                          size=descriptor.size,
                          duration_s=row.get("wall_s"),
                          events=row.get("events", 0),
                          completed=result.completed,
                          download_time=result.download_time,
                          worker=worker)
            self._queue.release(int(message.get("lease", -1)))
            self._cond.notify_all()
        self._beat(worker, done=message.get("done", 0), current=None)
        return {"type": "ok", "imported": imported}

    def _handle_failed(self, worker: str, message: dict) -> dict:
        position = message.get("position")
        error = message.get("error", "unknown worker failure")
        descriptor = (self._plan[int(position)]
                      if position is not None else None)
        if descriptor is not None:
            self._log("fail", key=descriptor.key, seed=descriptor.seed,
                      spec=descriptor.spec.identity,
                      size=descriptor.size, error=error, worker=worker)
        with self._cond:
            self._failure = DistributedExecutionError(
                f"worker {worker} failed "
                f"{'cell ' + descriptor.key if descriptor else 'a cell'}"
                f": {error}")
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
            return socket.create_connection(address, timeout=30.0)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(interval)


def run_worker(connect: str, jobs: int = 1,
               cache_dir: Optional[str] = None,
               label: Optional[str] = None,
               retry_s: float = 10.0,
               stream=None) -> int:
    """The ``repro worker`` daemon: lease, execute, publish, repeat.

    Returns a shell exit status: 0 when the coordinator drained its
    plan, 1 on abort/failure.  ``jobs`` > 1 fans a leased chunk out
    over a local process pool (0 = affinity-aware core count, the
    same :func:`~repro.experiments.parallel.default_jobs` the pool
    backend uses); ``cache_dir`` opens a worker-local run cache so
    previously computed cells are served — and offered to the
    coordinator by digest — without re-execution.
    """
    from repro.cache import RunCache
    from repro.experiments.parallel import default_jobs

    stream = stream if stream is not None else sys.stderr
    label = label or f"{socket.gethostname()}-{os.getpid()}"
    if jobs is None or jobs <= 0:
        jobs = default_jobs()
    kill_after = int(os.environ.get(_KILL_AFTER_ENV, "0") or 0)
    cache = RunCache(cache_dir) if cache_dir else None
    sock = _connect(parse_address(connect), retry_s)
    done = 0
    executed = 0
    try:
        send_message(sock, {"type": "hello", "worker": label,
                            "jobs": jobs,
                            "protocol": PROTOCOL_VERSION,
                            "format_version": _storage.FORMAT_VERSION})
        welcome = recv_message(sock)
        if welcome is None or welcome.get("type") != "welcome":
            error = (welcome or {}).get("error", "handshake rejected")
            print(f"[worker {label}] {error}", file=stream, flush=True)
            return 1
        while True:
            send_message(sock, {"type": "lease"})
            grant = recv_message(sock)
            if grant is None:
                print(f"[worker {label}] coordinator vanished",
                      file=stream, flush=True)
                return 1
            kind = grant.get("type")
            if kind == "wait":
                time.sleep(float(grant.get("seconds", _WAIT_S)))
                continue
            if kind == "drained":
                return 0
            if kind != "work":
                print(f"[worker {label}] {grant.get('error', kind)}",
                      file=stream, flush=True)
                return 1

            lease_id = grant["lease"]
            cells = list(zip(grant["positions"],
                             (descriptor_from_dict(data)
                              for data in grant["cells"])))
            rows = _execute_chunk(sock, lease_id, label, cells, jobs,
                                  cache, kill_after, executed, stream)
            if rows is None:
                return 1  # a cell failed; coordinator told us to abort
            executed += sum(1 for row in rows if not row["cached"])
            done += len(rows)

            # Offer digests first: the coordinator names what it still
            # needs, so duplicates and warm worker-cache hits ship
            # nothing but a hash.
            send_message(sock, {
                "type": "offer", "lease": lease_id,
                "rows": [{"position": row["position"],
                          "key": row["key"],
                          "digest": row["digest"]} for row in rows]})
            want = recv_message(sock)
            if want is None or want.get("type") != "want":
                return 1
            wanted = set(want.get("digests", ()))
            send_message(sock, {
                "type": "publish", "lease": lease_id, "done": done,
                "rows": [{"position": row["position"],
                          "digest": row["digest"],
                          "wall_s": row["wall_s"],
                          "events": row["events"],
                          "object": row["object"]}
                         for row in rows if row["digest"] in wanted]})
            ack = recv_message(sock)
            if ack is None or ack.get("type") == "abort":
                return 1
    finally:
        try:
            sock.close()
        except OSError:
            pass
        if cache is not None:
            cache.close()


def _execute_chunk(sock, lease_id: int, label: str,
                   cells: Sequence[Tuple[int, object]], jobs: int,
                   cache, kill_after: int, executed_before: int,
                   stream) -> Optional[List[dict]]:
    """Run one leased chunk; returns publishable rows or ``None`` if a
    cell failed (after reporting it).  Renews the lease after every
    completed cell so slow chunks never expire under a live worker."""
    from repro.cache.store import cache_digest
    from repro.experiments.parallel import execute_descriptor_ex

    def renew(current: Optional[str]) -> None:
        send_message(sock, {"type": "renew", "lease": lease_id,
                            "done": executed_before, "current": current})
        reply = recv_message(sock)
        if reply is None:
            raise ProtocolError("coordinator vanished during renewal")
        # An invalid lease (expired, reassigned) is *not* fatal: the
        # results remain deliverable idempotently.

    rows: List[dict] = []
    executed = executed_before

    def row_for(position: int, descriptor, result, wall: float,
                events: int, cached: bool) -> dict:
        key = descriptor.key
        return {"position": position, "key": key,
                "digest": cache_digest(key, _storage.FORMAT_VERSION),
                "wall_s": round(wall, 6), "events": events,
                "cached": cached,
                "object": result_wrapper(key, result)}

    pending: List[Tuple[int, object]] = []
    for position, descriptor in cells:
        hit = cache.get(descriptor.key) if cache is not None else None
        if hit is not None:
            rows.append(row_for(position, descriptor, hit, 0.0, 0, True))
        else:
            pending.append((position, descriptor))

    #: The cell whose run is being awaited: what a failure is blamed on.
    position: Optional[int] = None
    try:
        if jobs > 1 and len(pending) > 1:
            from concurrent.futures import ProcessPoolExecutor, \
                as_completed
            with ProcessPoolExecutor(
                    max_workers=min(jobs, len(pending))) as pool:
                futures = {pool.submit(execute_descriptor_ex, descriptor):
                           (position, descriptor)
                           for position, descriptor in pending}
                for future in as_completed(futures):
                    position, descriptor = futures[future]
                    result, _report, wall = future.result()
                    executed += 1
                    if cache is not None:
                        cache.put(result)
                    rows.append(row_for(position, descriptor, result,
                                        wall, 0, False))
                    if kill_after and executed >= kill_after:
                        os.kill(os.getpid(), signal.SIGKILL)
                    renew(f"{descriptor.spec.identity}:{descriptor.size}")
        else:
            for position, descriptor in pending:
                result, _report, wall = execute_descriptor_ex(descriptor)
                executed += 1
                if cache is not None:
                    cache.put(result)
                rows.append(row_for(position, descriptor, result,
                                    wall, 0, False))
                if kill_after and executed >= kill_after:
                    os.kill(os.getpid(), signal.SIGKILL)
                renew(f"{descriptor.spec.identity}:{descriptor.size}")
    except ProtocolError:
        raise
    except BaseException as error:
        print(f"[worker {label}] cell failed: {error!r}",
              file=stream, flush=True)
        try:
            send_message(sock, {"type": "failed", "lease": lease_id,
                                "position": position,
                                "error": repr(error)})
            recv_message(sock)
        except (ProtocolError, OSError):
            pass
        return None
    rows.sort(key=lambda row: row["position"])
    return rows


# ----------------------------------------------------------------------
# Worker spawners (the subprocess / ssh backends)
# ----------------------------------------------------------------------

def _repro_pythonpath() -> str:
    """PYTHONPATH that lets a spawned ``python -m repro.cli`` find this
    checkout, prepended to whatever the environment already has."""
    import repro
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    existing = os.environ.get("PYTHONPATH", "")
    return src + (os.pathsep + existing if existing else "")


def spawn_subprocess_workers(address: Tuple[str, int], count: int,
                             jobs_per_worker: int = 1,
                             cache_dir: Optional[str] = None,
                             extra_env: Optional[dict] = None,
                             ) -> List[subprocess.Popen]:
    """Launch ``count`` localhost ``repro worker`` processes."""
    host, port = address
    env = dict(os.environ)
    env["PYTHONPATH"] = _repro_pythonpath()
    if extra_env:
        env.update(extra_env)
    command = [sys.executable, "-m", "repro.cli", "worker",
               "--connect", f"{host}:{port}",
               "--jobs", str(jobs_per_worker)]
    if cache_dir:
        command += ["--cache", cache_dir]
    return [subprocess.Popen(command, env=env) for _ in range(count)]


def spawn_ssh_workers(address: Tuple[str, int],
                      hosts: Sequence[str],
                      jobs_per_worker: int = 0,
                      remote_command: str = "repro",
                      advertise: Optional[str] = None,
                      ) -> List[subprocess.Popen]:
    """Launch one ``repro worker`` per ssh host.

    ``advertise`` is the coordinator address as *remote* hosts reach
    it (defaults to this machine's hostname — a coordinator bound to
    127.0.0.1 must pass an externally visible bind/advertise pair).
    ``remote_command`` is the repro entry point on the remote host
    (e.g. ``"cd ~/repro && PYTHONPATH=src python -m repro.cli"``).
    """
    host = advertise or socket.gethostname()
    port = address[1]
    workers = []
    for target in hosts:
        remote = (f"{remote_command} worker "
                  f"--connect {host}:{port} "
                  f"--jobs {jobs_per_worker}")
        workers.append(subprocess.Popen(
            ["ssh", "-o", "BatchMode=yes", target, remote]))
    return workers


def _reap(workers: Sequence[subprocess.Popen],
          grace_s: float = 5.0) -> None:
    """Terminate any spawned worker that outlived the campaign."""
    for worker in workers:
        if worker.poll() is None:
            worker.terminate()
    deadline = time.monotonic() + grace_s
    for worker in workers:
        remaining = max(0.1, deadline - time.monotonic())
        try:
            worker.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()


# ----------------------------------------------------------------------
# The execute_plan backend entry point
# ----------------------------------------------------------------------

def execute_distributed(plan: Sequence, pending: Sequence[int], *,
                        total: int,
                        is_filled: Callable[[int], bool],
                        finish: Callable[[int, object], None],
                        observe: Optional[Callable] = None,
                        cost_model=None,
                        chunk: int = 1, jobs: int = 2,
                        backend: str = "subprocess",
                        hosts: Optional[Sequence[str]] = None,
                        bind: str = "127.0.0.1:0",
                        advertise: Optional[str] = None,
                        lease_timeout: float = DEFAULT_LEASE_TIMEOUT_S,
                        worker_cache: Optional[str] = None,
                        run_log: Optional[str] = None,
                        heartbeat_dir: Optional[str] = None,
                        drain_timeout: Optional[float] = None,
                        announce=None) -> None:
    """Run ``pending`` plan positions through a coordinator + workers.

    ``backend`` picks where workers come from: ``"subprocess"`` spawns
    ``jobs`` localhost worker processes, ``"ssh"`` spawns one per host
    in ``hosts``, and ``"tcp"`` only listens — attach workers by hand
    with ``repro worker --connect host:port``.  Results flow through
    ``finish`` exactly as pool execution does, so journal, cache,
    progress and plan-order reassembly are untouched.
    """
    if backend not in ("subprocess", "ssh", "tcp"):
        raise ValueError(f"unknown distributed backend {backend!r}; "
                         f"expected 'subprocess', 'ssh' or 'tcp'")
    if backend == "ssh" and not hosts:
        raise ValueError("backend 'ssh' needs at least one --hosts entry")

    from repro.cache import CostModel, build_tasks
    if cost_model is None:
        cost_model = CostModel()
    slots = len(hosts) if backend == "ssh" else max(1, jobs)
    tasks = build_tasks(list(pending), plan, cost_model, chunk, slots)

    def observe_position(position: int, wall_s: float) -> None:
        if observe is not None:
            observe(position, wall_s)

    coordinator = Coordinator(
        plan, tasks, total=total, is_filled=is_filled, finish=finish,
        observe=observe_position, lease_timeout=lease_timeout,
        bind=bind, run_log=run_log, heartbeat_dir=heartbeat_dir)
    workers: List[subprocess.Popen] = []
    try:
        coordinator.start()
        if announce is not None:
            announce(coordinator.address)
        if backend == "subprocess":
            workers = spawn_subprocess_workers(
                coordinator.address, count=max(1, jobs),
                cache_dir=worker_cache)
        elif backend == "ssh":
            workers = spawn_ssh_workers(
                coordinator.address, hosts,
                advertise=advertise)
        coordinator.wait(timeout=drain_timeout)
    finally:
        coordinator.close()
        _reap(workers)
