"""Persisting measurement results.

A measurement study accumulates runs over days (the paper's campaigns
span March 20 - May 7); this module serializes :class:`RunResult`
objects as JSON lines so campaigns can be saved, reloaded, merged
across sessions, and re-aggregated by the same row extractors that
consume fresh results.

RTT sample lists can be large (tens of thousands of packets for a
32 MB transfer); ``max_samples`` thins them to evenly spaced quantiles
so stored files stay manageable while CCDF shapes — including the
exact minimum and maximum — survive.  Since format version 2, thinned
sample lists are *sorted quantile sketches*, not time series: temporal
order is deliberately traded for exact min/max retention.  (Version-1
files, whose thinned lists were time-ordered stride subsamples missing
the maximum, are still readable; every shipped consumer — CCDF,
quantile, mean — is order-insensitive.)

:class:`ResultJournal` is the resume cache behind parallel campaigns:
completed runs are streamed to a JSON-lines file keyed by
``(spec, size, seed, period)``, and an interrupted or re-invoked
campaign skips cells already recorded there.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import warnings

try:
    import fcntl
except ImportError:  # non-POSIX platform: advisory locking disabled
    fcntl = None
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.experiments.config import FlowSpec
from repro.experiments.runner import RunResult, descriptor_key
from repro.trace.analyzer import FlowAnalysis
from repro.trace.metrics import ConnectionMetrics
from repro.wireless.profiles import TimeOfDay

FORMAT_VERSION = 2

#: Version 1 differs only in thinning semantics (time-ordered stride
#: subsamples instead of sorted quantile sketches); structurally the
#: rows are identical, so old files stay loadable.
_READABLE_VERSIONS = frozenset({1, FORMAT_VERSION})


def _thin(samples: List[float], max_samples: Optional[int]) -> List[float]:
    """Thin a sample list to ``max_samples`` evenly spaced quantiles.

    Sorting first turns stride selection into a quantile sketch whose
    first and last picks are exactly the minimum and the maximum.  A
    naive ``samples[int(i * stride)]`` stride starts at index 0 and
    never visits the final index, silently dropping the largest sample
    — which is precisely the CCDF tail the paper plots in Figures
    12/13.
    """
    if max_samples is None or len(samples) <= max_samples:
        return list(samples)
    ordered = sorted(samples)
    last = len(ordered) - 1
    if max_samples == 1:
        return [ordered[last]]
    step = last / (max_samples - 1)
    return [ordered[min(last, round(index * step))]
            for index in range(max_samples)]


def _analysis_to_dict(analysis: FlowAnalysis,
                      max_samples: Optional[int]) -> dict:
    return {
        "local": list(analysis.local),
        "remote": list(analysis.remote),
        "data_packets_sent": analysis.data_packets_sent,
        "retransmitted_packets": analysis.retransmitted_packets,
        "payload_bytes": analysis.payload_bytes,
        "rtt_samples": _thin(analysis.rtt_samples, max_samples),
        "first_packet_time": analysis.first_packet_time,
        "last_packet_time": analysis.last_packet_time,
        "handshake_rtt": analysis.handshake_rtt,
    }


def _analysis_from_dict(data: dict) -> FlowAnalysis:
    analysis = FlowAnalysis(local=tuple(data["local"]),
                            remote=tuple(data["remote"]))
    analysis.data_packets_sent = data["data_packets_sent"]
    analysis.retransmitted_packets = data["retransmitted_packets"]
    analysis.payload_bytes = data["payload_bytes"]
    analysis.rtt_samples = list(data["rtt_samples"])
    analysis.first_packet_time = data["first_packet_time"]
    analysis.last_packet_time = data["last_packet_time"]
    analysis.handshake_rtt = data["handshake_rtt"]
    return analysis


def result_to_dict(result: RunResult,
                   max_samples: Optional[int] = 2000) -> dict:
    """Serialize one run (thinning long sample lists)."""
    metrics = result.metrics
    return {
        "version": FORMAT_VERSION,
        "spec": dataclasses.asdict(result.spec),
        "size": result.size,
        "seed": result.seed,
        "period": result.period.value,
        "completed": result.completed,
        "download_time": result.download_time,
        "established_at": result.established_at,
        "subflow_count": result.subflow_count,
        "world": result.world,
        "obs_metrics": result.obs_metrics,
        "metrics": {
            "download_time": metrics.download_time,
            "bytes_received": metrics.bytes_received,
            "cellular_fraction": metrics.cellular_fraction,
            "ofo_delays": _thin(metrics.ofo_delays, max_samples),
            "fallback": metrics.fallback,
            "per_path": {
                path: _analysis_to_dict(analysis, max_samples)
                for path, analysis in metrics.per_path.items()},
        },
    }


def result_from_dict(data: dict) -> RunResult:
    """Rebuild a run from its serialized form."""
    if data.get("version") not in _READABLE_VERSIONS:
        raise ValueError(
            f"unsupported result format version {data.get('version')!r}")
    metrics_data = data["metrics"]
    metrics = ConnectionMetrics(
        download_time=metrics_data["download_time"],
        bytes_received=metrics_data["bytes_received"],
        cellular_fraction=metrics_data["cellular_fraction"],
        per_path={path: _analysis_from_dict(analysis)
                  for path, analysis in metrics_data["per_path"].items()},
        ofo_delays=list(metrics_data["ofo_delays"]),
        fallback=metrics_data.get("fallback"),  # absent in old files
    )
    return RunResult(
        spec=FlowSpec(**data["spec"]),
        size=data["size"],
        seed=data["seed"],
        period=TimeOfDay(data["period"]),
        completed=data["completed"],
        download_time=data["download_time"],
        metrics=metrics,
        established_at=data["established_at"],
        subflow_count=data["subflow_count"],
        world=data.get("world"),  # absent in pre-world files
        obs_metrics=data.get("obs_metrics"),  # absent in pre-metrics files
    )


def _write_lines(handle, results: Iterable[RunResult],
                 max_samples: Optional[int]) -> int:
    count = 0
    for result in results:
        json.dump(result_to_dict(result, max_samples), handle,
                  separators=(",", ":"))
        handle.write("\n")
        count += 1
    return count


def save_results(path: Union[str, Path], results: Iterable[RunResult],
                 max_samples: Optional[int] = 2000,
                 append: bool = False) -> int:
    """Write results as JSON lines; returns the count written.

    Full (non-append) saves go through a temp file and ``os.replace``
    so a crash mid-write leaves the previous file intact instead of a
    truncated one that loses every prior row.
    """
    path = Path(path)
    if append:
        with open(path, "a") as handle:
            count = _write_lines(handle, results, max_samples)
            handle.flush()
        return count
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or Path("."),
                                    prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            count = _write_lines(handle, results, max_samples)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return count


def _scan_results(path: Union[str, Path]) -> Tuple[List[RunResult], int]:
    """Parse a JSON-lines results file, tolerating a truncated tail.

    Returns ``(results, good_bytes)`` where ``good_bytes`` is the byte
    offset just past the last fully parsed line — the safe point to
    truncate to before appending more records.  A malformed *final*
    line — the signature of a writer killed mid-append — is skipped
    with a warning so the intact rows before it survive; corruption
    anywhere else still raises.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    lines = raw.splitlines(keepends=True)
    results: List[RunResult] = []
    offset = 0
    good = 0
    for lineno, line in enumerate(lines):
        offset += len(line)
        stripped = line.strip()
        if not stripped:
            good = offset
            continue
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError:
            trailing = all(not later.strip()
                           for later in lines[lineno + 1:])
            if trailing:
                warnings.warn(
                    f"{path}: skipping truncated trailing line "
                    f"{lineno + 1} (interrupted write)", RuntimeWarning)
                break
            raise
        results.append(result_from_dict(data))
        good = offset
    return results, good


def load_results(path: Union[str, Path]) -> List[RunResult]:
    """Read a JSON-lines results file back into RunResult objects.

    A malformed *final* line — the signature of a writer killed
    mid-append — is skipped with a warning so the intact rows before it
    survive; corruption anywhere else still raises.
    """
    results, _ = _scan_results(path)
    return results


def merge_results(*paths: Union[str, Path]) -> List[RunResult]:
    """Concatenate several results files (multi-day campaigns)."""
    merged: List[RunResult] = []
    for path in paths:
        merged.extend(load_results(path))
    return merged


class JournalLockedError(RuntimeError):
    """Another live writer holds the journal's advisory lock."""


class ResultJournal:
    """Append-only resume cache of completed campaign cells.

    Each completed run is streamed to a JSON-lines file keyed by
    :func:`repro.experiments.runner.descriptor_key` — ``(spec, size,
    seed, period)`` — and flushed to disk immediately, so an
    interrupted campaign loses at most the run in flight.

    The journal is the *per-campaign crash-resume* layer; the
    *cross-campaign* layer is :class:`repro.cache.RunCache`.  Both are
    thin adapters over the same :func:`descriptor_key` function (see
    :meth:`key_of`), so a journal-resumed cell and a cache-hit cell can
    never disagree about which plan position they restore.  Re-opening
    the journal restores every completed cell; a partial trailing line
    left by a mid-write crash is truncated away on open, so subsequent
    appends land on a clean line boundary and the file stays loadable.

    Rows are stored at full fidelity (``max_samples=None``) by default:
    a resumed campaign must hand back *exactly* what a fresh run would
    compute, or the serial-equals-parallel determinism guarantee breaks.
    """

    def __init__(self, path: Union[str, Path],
                 max_samples: Optional[int] = None) -> None:
        self.path = Path(path)
        self.max_samples = max_samples
        self._results: Dict[str, RunResult] = {}
        # Open (and lock) eagerly, *before* the recovery scan: an
        # unwritable journal path must fail before any simulation work
        # is spent, and a second live appender must be rejected before
        # either process can truncate or append under the other.
        self._handle = open(self.path, "a")
        self._take_lock()
        unterminated = False
        if self.path.stat().st_size > 0:
            results, good = _scan_results(self.path)
            for result in results:
                self._results[self.key_of(result)] = result
            # A truncated tail must be cut off before appending — the
            # next record would otherwise concatenate onto the partial
            # line, corrupting the journal for every later load.
            if good < self.path.stat().st_size:
                os.truncate(self.path, good)
            # A valid last line missing its newline (crash between the
            # JSON text and the "\n") needs the newline restored, or
            # the first append glues onto it.
            if good > 0:
                with open(self.path, "rb") as handle:
                    handle.seek(good - 1)
                    unterminated = handle.read(1) != b"\n"
        #: Cells restored from a previous invocation.
        self.restored = len(self._results)
        if unterminated:
            self._handle.write("\n")
            self._handle.flush()

    def _take_lock(self) -> None:
        """Exclusive advisory ``flock`` for the journal's lifetime.

        Multi-host resume can point two campaign invocations at the
        same journal on a shared results directory; two live
        appenders would interleave partial lines and race the
        recovery truncation.  The lock is tied to the append handle
        (released automatically by :meth:`close` or process death —
        a SIGKILLed holder never wedges the file) and is skipped on
        platforms without ``fcntl``.
        """
        if fcntl is None:
            return
        try:
            fcntl.flock(self._handle.fileno(),
                        fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            self._handle.close()
            self._handle = None
            raise JournalLockedError(
                f"journal {self.path} is held by another live writer; "
                f"concurrent appenders would corrupt it — wait for the "
                f"other campaign or point --resume elsewhere") from None

    @staticmethod
    def key_of(result: RunResult) -> str:
        """The journal key of a completed run — by construction the
        same string the run cache keys on."""
        return descriptor_key(result.spec, result.size,
                              result.seed, result.period)

    def get(self, key: str) -> Optional[RunResult]:
        return self._results.get(key)

    def record(self, result: RunResult) -> None:
        """Persist one completed run (idempotent per key)."""
        key = self.key_of(result)
        if key in self._results:
            return
        if self._handle is None:
            raise ValueError(f"journal {self.path} is closed")
        json.dump(result_to_dict(result, self.max_samples), self._handle,
                  separators=(",", ":"))
        self._handle.write("\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._results[key] = result

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
