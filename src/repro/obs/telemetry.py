"""Live campaign telemetry: heartbeats, the run log, and a renderer.

Three cooperating pieces, all file-based so they work unchanged across
process boundaries (campaign workers are separate processes):

* :class:`RunLog` -- an append-only JSONL log of run lifecycle records
  (``start`` / ``finish`` / ``fail``), one line per record.  Appends
  are a single ``O_APPEND`` write, which POSIX keeps atomic for short
  lines, so every worker can share one log without interleaving.
* :class:`Heartbeat` writing/reading -- each worker periodically
  replaces ``<dir>/<worker>.json`` (temp file + ``os.replace``, so a
  reader never sees a torn write) with its runs-done count, events/sec
  and the FlowSpec it is currently executing.
* :class:`ProgressRenderer` -- a parent-side background thread that
  polls the heartbeat directory and renders one status block per
  interval: global progress + ETA, then a line per worker.

Wall-clock time is fine here: telemetry never feeds back into the
simulation, so determinism is untouched.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Any, Dict, List, Optional


class RunLog:
    """Append-only JSONL record of campaign run lifecycles."""

    def __init__(self, path) -> None:
        self.path = str(path)
        self._fd: Optional[int] = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def log(self, event: str, **fields: Any) -> None:
        """Append one record; ``event`` is start/finish/fail/etc."""
        if self._fd is None:
            raise ValueError("run log is closed")
        record = {"event": event, "wall": round(time.time(), 3), **fields}
        line = json.dumps(record, separators=(",", ":"), default=str) + "\n"
        os.write(self._fd, line.encode("utf-8"))

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "RunLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def read(path) -> List[dict]:
        """Load a run log; tolerates a truncated trailing line (a
        worker killed mid-write), mirroring the results-file scanner."""
        records: List[dict] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    break
        return records


def run_log_failovers(path) -> List[dict]:
    """Distributed-execution failover records from a run log.

    The coordinator (:class:`repro.experiments.distributed.Coordinator`)
    logs ``worker_joined`` / ``worker_left`` / ``lease_expired`` records
    next to the usual run lifecycle; this returns the ``lease_expired``
    ones — each names the worker that stopped renewing and the cell
    keys that were refronted for reassignment — so tests and post-hoc
    analysis can assert that a died worker's cells were re-run
    elsewhere.
    """
    return [record for record in RunLog.read(path)
            if record.get("event") == "lease_expired"]


def _cell_record(descriptor, duration: Optional[float],
                 worker: str) -> Dict[str, Any]:
    """What ``finish`` and ``fail`` records say about their cell."""
    return {"key": descriptor.key, "seed": descriptor.seed,
            "spec": descriptor.spec.identity, "size": descriptor.size,
            "duration_s": None if duration is None else round(duration, 6),
            "worker": worker}


def finish_record(descriptor, result, duration: Optional[float],
                  events: int, worker: str) -> Dict[str, Any]:
    """The fields of a ``finish`` record, whoever writes it (the
    in-process loop's :class:`WorkerTelemetry` or the coordinator on a
    worker's behalf).  ``size`` + ``duration_s`` make finish records
    readable as wall-time samples without parsing the key; ``duration``
    is ``None`` for a cell a worker served from its local cache."""
    record = dict(_cell_record(descriptor, duration, worker),
                  events=events, completed=result.completed,
                  download_time=result.download_time)
    world = getattr(result, "world", None)
    if world is not None:
        # Shared-world cells carry the background summary so analytics
        # can join foreground SLA against background load straight
        # from the run log.
        record["world"] = {
            "flows_started": world.get("flows_started"),
            "flows_completed": world.get("flows_completed"),
            "peak_concurrent": world.get("peak_concurrent"),
            "bg_goodput_bps": world.get("bg_goodput_bps"),
        }
    return record


def fail_record(descriptor, error: str, worker: str,
                duration: Optional[float] = None) -> Dict[str, Any]:
    """The fields of a ``fail`` record: the cell's key, seed and
    FlowSpec identity next to the error text."""
    return dict(_cell_record(descriptor, duration, worker),
                period=descriptor.period.value, error=error)


# ----------------------------------------------------------------------
# Heartbeats
# ----------------------------------------------------------------------

def write_heartbeat(directory: str, worker: str, **fields: Any) -> None:
    """Atomically replace ``<directory>/<worker>.json`` with fields."""
    payload = {"worker": worker, "wall": round(time.time(), 3), **fields}
    path = os.path.join(directory, f"{worker}.json")
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"), default=str)
    os.replace(tmp, path)


def read_heartbeats(directory: str) -> Dict[str, dict]:
    """All current worker heartbeats, keyed by worker label."""
    beats: Dict[str, dict] = {}
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return beats
    for name in names:
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(directory, name),
                      encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue  # mid-replace or removed; next poll catches up
        beats[payload.get("worker", name[:-5])] = payload
    return beats


class Heartbeat:
    """Typed view over one worker's heartbeat payload (reader side)."""

    __slots__ = ("worker", "done", "total", "events_per_sec", "current",
                 "wall")

    def __init__(self, payload: dict) -> None:
        self.worker = payload.get("worker", "?")
        self.done = payload.get("done", 0)
        self.total = payload.get("total", 0)
        self.events_per_sec = payload.get("events_per_sec")
        self.current = payload.get("current")
        self.wall = payload.get("wall", 0.0)


class WorkerTelemetry:
    """Worker-side aggregation: run-log records plus heartbeat state.

    One instance lives in each campaign worker process (or in the
    parent, for serial execution).  Pass ``None`` paths to disable the
    corresponding output -- every method is then (almost) free.
    """

    def __init__(self, run_log_path: Optional[str] = None,
                 heartbeat_dir: Optional[str] = None,
                 total: int = 0, label: Optional[str] = None) -> None:
        self.run_log = RunLog(run_log_path) if run_log_path else None
        self.heartbeat_dir = heartbeat_dir
        self.total = total
        self.label = label or f"w{os.getpid()}"
        self.done = 0
        self.events = 0
        self.busy_s = 0.0
        self.current: Optional[str] = None
        if heartbeat_dir:
            os.makedirs(heartbeat_dir, exist_ok=True)

    @property
    def enabled(self) -> bool:
        return self.run_log is not None or self.heartbeat_dir is not None

    def run_started(self, descriptor) -> None:
        self.current = f"{descriptor.spec.identity}:{descriptor.size}"
        if self.run_log is not None:
            self.run_log.log("start", key=descriptor.key,
                             seed=descriptor.seed,
                             spec=descriptor.spec.identity,
                             size=descriptor.size,
                             period=descriptor.period.value,
                             worker=self.label)
        self._beat()

    def run_finished(self, descriptor, result, duration: float,
                     events: int) -> None:
        self.done += 1
        self.events += events
        self.busy_s += duration
        self.current = None
        if self.run_log is not None:
            self.run_log.log("finish", **finish_record(
                descriptor, result, duration, events, self.label))
        self._beat()

    def run_failed(self, descriptor, duration: float,
                   error: BaseException) -> None:
        """A run raised: leave a fail record naming seed and identity."""
        self.current = None
        if self.run_log is not None:
            self.run_log.log("fail", **fail_record(
                descriptor, repr(error), self.label, duration))
        self._beat()

    def _beat(self) -> None:
        if not self.heartbeat_dir:
            return
        events_per_sec = (round(self.events / self.busy_s)
                          if self.busy_s > 0 else None)
        write_heartbeat(self.heartbeat_dir, self.label,
                        done=self.done, total=self.total,
                        events=self.events,
                        events_per_sec=events_per_sec,
                        busy_s=round(self.busy_s, 3),
                        current=self.current)

    def close(self) -> None:
        if self.run_log is not None:
            self.run_log.close()


class ProgressRenderer:
    """Parent-side heartbeat renderer (the ``--progress`` view).

    A daemon thread polls the heartbeat directory every ``interval``
    seconds and prints a compact status block: one global line (runs
    done/total across every worker plus journal restores, aggregate
    events/sec, ETA from the observed completion rate), then one line
    per worker.  :meth:`note_done` feeds the authoritative global
    completion count in from the campaign progress callback (heartbeats
    alone miss journal-restored cells).
    """

    def __init__(self, heartbeat_dir: str, total: int,
                 interval: float = 2.0, stream=None) -> None:
        self.heartbeat_dir = heartbeat_dir
        self.total = total
        self.interval = interval
        self.stream = stream if stream is not None else sys.stderr
        self._done = 0
        self._started_at = time.monotonic()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        os.makedirs(heartbeat_dir, exist_ok=True)

    def note_done(self, done: int) -> None:
        """Record the campaign-level completion count (thread-safe:
        a plain int store)."""
        self._done = done

    def start(self) -> "ProgressRenderer":
        self._started_at = time.monotonic()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="progress-renderer")
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval + 1.0)
            self._thread = None
        self._render()  # final snapshot

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._render()

    def _render(self) -> None:
        beats = [Heartbeat(payload)
                 for payload in read_heartbeats(self.heartbeat_dir).values()]
        done = max(self._done, sum(beat.done for beat in beats))
        remaining = self.total - done
        if remaining <= 0:
            # Everything accounted for -- including the degenerate
            # warm-cache/journal case where every cell was restored
            # before a single live run (or the campaign was empty).
            # The observed-rate extrapolation below would divide the
            # near-zero elapsed time into a nonsense ETA.
            eta_text = "done"
        else:
            elapsed = time.monotonic() - self._started_at
            rate = done / elapsed if elapsed > 0.0 and done > 0 else 0.0
            eta_text = (f"ETA {remaining / rate:.0f}s" if rate > 0.0
                        else "ETA ?")
        total_eps = sum(beat.events_per_sec or 0 for beat in beats)
        lines = [f"[progress] {done}/{self.total} runs"
                 f" | {len(beats)} worker(s)"
                 f" | {total_eps:,} ev/s | {eta_text}"]
        for beat in sorted(beats, key=lambda item: item.worker):
            current = beat.current or "idle"
            eps = (f"{beat.events_per_sec:,} ev/s"
                   if beat.events_per_sec else "- ev/s")
            lines.append(f"  {beat.worker}: {beat.done} runs"
                         f" | {eps} | {current}")
        print("\n".join(lines), file=self.stream, flush=True)
