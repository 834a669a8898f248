"""Tests for the analytical models, plus model-vs-simulator validation."""

import math

import pytest

from .tcp_model import (
    mptcp_aggregate_bound,
    pftk_throughput,
    slow_start_latency,
    slow_start_rounds,
    sqrt_throughput,
)

MSS = 1448


def test_sqrt_law_values():
    # MSS/RTT * sqrt(1.5/p): 1448*8/0.1 * sqrt(150) ~ 1.42 Mbit/s.
    rate = sqrt_throughput(MSS, 0.1, 0.01)
    assert rate == pytest.approx((MSS * 8 / 0.1) * math.sqrt(150), rel=1e-9)


def test_sqrt_law_lossless_is_unbounded():
    assert math.isinf(sqrt_throughput(MSS, 0.05, 0.0))


def test_sqrt_law_scaling():
    base = sqrt_throughput(MSS, 0.1, 0.01)
    assert sqrt_throughput(MSS, 0.2, 0.01) == pytest.approx(base / 2)
    assert sqrt_throughput(MSS, 0.1, 0.04) == pytest.approx(base / 2)


def test_pftk_below_sqrt_law():
    """Timeout term only ever reduces throughput."""
    for p in (0.001, 0.01, 0.05, 0.2):
        assert pftk_throughput(MSS, 0.1, p) <= \
            sqrt_throughput(MSS, 0.1, p) + 1e-9


def test_pftk_monotone_in_loss():
    rates = [pftk_throughput(MSS, 0.05, p)
             for p in (0.002, 0.01, 0.05, 0.2)]
    assert rates == sorted(rates, reverse=True)


def test_pftk_validates_inputs():
    with pytest.raises(ValueError):
        pftk_throughput(MSS, 0.0, 0.01)
    with pytest.raises(ValueError):
        pftk_throughput(MSS, 0.1, 1.5)
    assert math.isinf(pftk_throughput(MSS, 0.1, 0.0))


def test_slow_start_rounds():
    # IW 10: rounds deliver 10, 30, 70, 150... segments cumulatively.
    assert slow_start_rounds(0, MSS) == 0
    assert slow_start_rounds(5 * MSS, MSS) == 1
    assert slow_start_rounds(10 * MSS, MSS) == 1
    assert slow_start_rounds(11 * MSS, MSS) == 2
    assert slow_start_rounds(30 * MSS, MSS) == 2
    assert slow_start_rounds(31 * MSS, MSS) == 3


def test_slow_start_latency_grows_with_size():
    small = slow_start_latency(8 * 1024, MSS, 0.03)
    large = slow_start_latency(512 * 1024, MSS, 0.03)
    assert small < large


def test_mptcp_aggregate_bound():
    assert mptcp_aggregate_bound([10e6, 5e6]) == 15e6
    with pytest.raises(ValueError):
        mptcp_aggregate_bound([-1.0])


# ----------------------------------------------------------------------
# Model-vs-simulator validation: the simulator's TCP must live on the
# curves the literature predicts, within modeling slack.
# ----------------------------------------------------------------------

def test_simulated_wifi_throughput_matches_pftk():
    from repro.experiments.config import FlowSpec
    from repro.experiments.runner import Measurement

    result = Measurement(FlowSpec.single_path("wifi"),
                         8 * 1024 * 1024, seed=13).run()
    assert result.completed
    analysis = result.metrics.per_path["wifi"]
    measured_bps = analysis.throughput_bps
    predicted = pftk_throughput(MSS, analysis.mean_rtt,
                                max(analysis.loss_rate, 1e-4))
    # Within 3x either way: PFTK assumes steady state and ignores the
    # bottleneck cap; the run includes slow start.
    assert predicted / 3 < measured_bps < predicted * 3


def test_simulated_small_flow_latency_matches_slow_start_model():
    from repro.experiments.config import FlowSpec
    from repro.experiments.runner import Measurement

    size = 64 * 1024
    result = Measurement(FlowSpec.single_path("cell", carrier="att"),
                         size, seed=13).run()
    assert result.completed
    rtt = result.metrics.per_path["att"].mean_rtt
    predicted = slow_start_latency(size, MSS, max(rtt, 0.05))
    assert predicted / 2.5 < result.download_time < predicted * 2.5


def test_mptcp_never_exceeds_aggregate_bound():
    from repro.experiments.config import FlowSpec
    from repro.experiments.runner import Measurement
    from repro.wireless.profiles import ATT_LTE, HOME_WIFI

    size = 8 * 1024 * 1024
    result = Measurement(FlowSpec.mptcp(carrier="att"), size,
                         seed=13).run()
    assert result.completed
    achieved = size * 8.0 / result.download_time
    # Generous headroom for environment jitter raising the rates.
    bound = mptcp_aggregate_bound(
        [HOME_WIFI.down_rate, ATT_LTE.down_rate]) * 1.8
    assert achieved < bound
