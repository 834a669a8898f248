"""Time-series instrumentation: cwnd / RTT / queue evolution.

The paper reasons about mechanisms -- slow-start overshoot, window
growth into deep buffers, coupled controllers shifting load -- that
only show up in *trajectories*, not end-of-run aggregates.  A
:class:`TimeSeriesProbe` samples arbitrary getters on a fixed period
and the result renders as CSV or a quick ASCII sparkline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.engine import Event, Simulator


@dataclass
class Series:
    """One sampled quantity over simulated time."""

    name: str
    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def append(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    # An empty series has no extrema: both return NaN (0.0 would make a
    # legitimate all-zero series indistinguishable from no data).

    def maximum(self) -> float:
        return max(self.values) if self.values else float("nan")

    def minimum(self) -> float:
        return min(self.values) if self.values else float("nan")

    def to_rows(self) -> List[Tuple[float, float]]:
        """The series as ``(time, value)`` rows, CSV-ready."""
        return list(zip(self.times, self.values))

    def at(self, time: float) -> Optional[float]:
        """Last sampled value at or before ``time`` (step semantics)."""
        result = None
        for sample_time, value in zip(self.times, self.values):
            if sample_time > time:
                break
            result = value
        return result


class TimeSeriesProbe:
    """Samples named getters every ``period`` seconds of simulated time.

    Getters are zero-argument callables; exceptions are not caught --
    a getter must stay valid for the probe's lifetime (use
    ``lambda: endpoint.cwnd if endpoint else 0``-style guards if not).
    """

    def __init__(self, sim: Simulator, period: float = 0.1) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.sim = sim
        self.period = period
        self.series: Dict[str, Series] = {}
        self._getters: Dict[str, Callable[[], float]] = {}
        self._timer: Optional[Event] = None
        self._running = False

    def track(self, name: str, getter: Callable[[], float]
              ) -> "TimeSeriesProbe":
        """Register a quantity; chainable."""
        if name in self._getters:
            raise ValueError(f"already tracking {name!r}")
        self._getters[name] = getter
        self.series[name] = Series(name)
        return self

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._sample()

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _sample(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        trace = self.sim.trace  # probes share the protocol timeline
        for name, getter in self._getters.items():
            value = float(getter())
            self.series[name].append(now, value)
            if trace.enabled:
                trace.emit(now, "probe.sample", name=name, value=value)
        self._timer = self.sim.schedule(self.period, self._sample,
                                        name="probe.sample")

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def to_rows(self) -> Tuple[List[str], List[List[float]]]:
        """(headers, rows) with one row per sample instant."""
        names = sorted(self.series)
        headers = ["time"] + names
        length = min((len(self.series[name]) for name in names),
                     default=0)
        rows = []
        for index in range(length):
            time = self.series[names[0]].times[index] if names else 0.0
            rows.append([time] + [self.series[name].values[index]
                                  for name in names])
        return headers, rows

    def sparkline(self, name: str, width: int = 60) -> str:
        """A one-line ASCII rendering of one series."""
        series = self.series[name]
        if not series.values:
            return f"{name}: (no samples)"
        glyphs = " .:-=+*#%@"
        low, high = series.minimum(), series.maximum()
        span = (high - low) or 1.0
        step = max(len(series.values) // width, 1)
        chars = []
        for index in range(0, len(series.values), step):
            value = series.values[index]
            level = int((value - low) / span * (len(glyphs) - 1))
            chars.append(glyphs[level])
        return (f"{name}: [{''.join(chars[:width])}] "
                f"min={low:.3g} max={high:.3g}")
