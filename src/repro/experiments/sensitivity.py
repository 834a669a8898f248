"""One-factor sensitivity sweeps.

The reproduction's calibration (docs/calibration.md) pins parameters
the paper only partially constrains; this harness answers "does the
conclusion survive if that parameter is off?"  A sweep varies one
factor -- a :class:`FlowSpec` field, or a path-profile field via the
testbed's override hook -- and measures a metric across seeds at each
value.

Example: how does MPTCP's advantage over the best single path depend
on the WiFi loss rate?  (`sweep_wifi_loss` below.)  The sweeps run
``Measurement`` directly, outside ``execute_plan`` and the run cache;
no ``repro`` artifact selects them yet.
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.config import FlowSpec
from repro.experiments.runner import Measurement, RunResult
from repro.wireless.profiles import HOME_WIFI, PathProfile

Metric = Callable[[RunResult], float]


@dataclass
class SweepPoint:
    """All seeds' measurements at one parameter value."""

    value: object
    samples: List[float]

    @property
    def mean(self) -> float:
        return statistics.mean(self.samples)

    @property
    def median(self) -> float:
        return statistics.median(self.samples)


def _measure(spec: FlowSpec, size: int, seeds: Sequence[int],
             metric: Metric,
             wifi_profile: Optional[PathProfile] = None,
             cell_profile: Optional[PathProfile] = None) -> List[float]:
    samples = []
    for seed in seeds:
        result = Measurement(spec, size, seed=seed,
                             wifi_profile=wifi_profile,
                             cell_profile=cell_profile).run()
        if result.completed:
            samples.append(metric(result))
    return samples


def sweep_spec_field(base: FlowSpec, field: str, values: Sequence,
                     size: int, seeds: Sequence[int],
                     metric: Metric = lambda r: r.download_time,
                     ) -> List[SweepPoint]:
    """Vary one FlowSpec field (ssthresh, rcv_buffer, scheduler, ...)."""
    points = []
    for value in values:
        spec = base.with_(**{field: value})
        points.append(SweepPoint(value, _measure(spec, size, seeds,
                                                 metric)))
    return points


def sweep_profile_field(base: FlowSpec, profile: PathProfile,
                        which: str, field: str, values: Sequence,
                        size: int, seeds: Sequence[int],
                        metric: Metric = lambda r: r.download_time,
                        ) -> List[SweepPoint]:
    """Vary one field of a path profile (``which`` is 'wifi'/'cell')."""
    if which not in ("wifi", "cell"):
        raise ValueError("which must be 'wifi' or 'cell'")
    points = []
    for value in values:
        patched = dataclasses.replace(profile, **{field: value})
        kwargs = ({"wifi_profile": patched} if which == "wifi"
                  else {"cell_profile": patched})
        points.append(SweepPoint(value, _measure(
            base, size, seeds, metric, **kwargs)))
    return points


def sweep_wifi_loss(loss_rates: Sequence[float], size: int,
                    seeds: Sequence[int],
                    ) -> Dict[str, List[SweepPoint]]:
    """The headline sensitivity: MPTCP vs single paths as the WiFi
    degrades from pristine to hotspot-bad.

    Returns median download times per transport at each loss rate.
    """
    transports = {
        "SP-WiFi": FlowSpec.single_path("wifi"),
        "SP-LTE": FlowSpec.single_path("cell", carrier="att"),
        "MPTCP": FlowSpec.mptcp(carrier="att"),
    }
    curves: Dict[str, List[SweepPoint]] = {name: [] for name in transports}
    for loss in loss_rates:
        wifi = dataclasses.replace(HOME_WIFI, down_loss=loss)
        for name, spec in transports.items():
            samples = _measure(spec, size, seeds,
                               lambda r: r.download_time,
                               wifi_profile=wifi)
            curves[name].append(SweepPoint(loss, samples))
    return curves
