"""Observability off costs a guard, never a call.

Every probe site checks ``trace.enabled`` / ``metrics.enabled`` before
it builds a payload, so with the null bus and null registry installed
no probe may ever reach ``emit`` / ``inc`` / ``set`` / ``observe``.  A
call count is exact and machine-independent: a probe doing work before
its guard fails here on the first packet, where a wall-clock overhead
gate would need a quiet machine to notice.
"""

import pytest

from repro.experiments.config import FlowSpec
from repro.experiments.runner import Measurement
from repro.obs.bus import NullTraceBus
from repro.obs.metrics import _NullInstrument
from repro.wireless.profiles import TimeOfDay

KB = 1024

#: One cell per probed code path: coupled-controller MP-4, the 3G
#: single path (RRC promotion, jitter, RTO stalls), an outage with
#: reinjection and failover, and a packet flow inside a fluid world.
CELLS = {
    "mp4-olia": FlowSpec.mptcp(carrier="att", controller="olia", paths=4),
    "sp-sprint": FlowSpec.single_path("cell", carrier="sprint"),
    "outage": FlowSpec.mptcp(carrier="att", controller="coupled",
                             failure="outage:down=0.3,up=0.8"),
    "closed-32": FlowSpec.mptcp(carrier="att", controller="coupled",
                                world="closed-32"),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_disabled_observability_is_never_called(cell, monkeypatch):
    calls = []

    def counted(name):
        def probe(self, *args, **kwargs):
            calls.append(name)
        return probe

    monkeypatch.setattr(NullTraceBus, "emit", counted("emit"))
    for method in ("inc", "set", "observe"):
        monkeypatch.setattr(_NullInstrument, method, counted(method))

    result = Measurement(CELLS[cell], 256 * KB, seed=7,
                         period=TimeOfDay.NIGHT).run()
    assert result.completed
    assert calls == []
