"""Tests for the reno / coupled / olia congestion controllers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.coupling import (
    CoupledController,
    OliaController,
    RenoController,
    make_controller,
)

MSS = 1448


class FakeFlow:
    """Minimal WindowedFlow for controller math tests."""

    def __init__(self, cwnd_packets: float, rtt: float,
                 ssthresh_packets: float = 0.0):
        self.mss = MSS
        self.cwnd = cwnd_packets * MSS
        self.ssthresh = ssthresh_packets * MSS
        self._rtt = rtt

    def smoothed_rtt(self, default: float = 0.5) -> float:
        return self._rtt

    @property
    def cwnd_packets(self) -> float:
        return self.cwnd / MSS


def test_make_controller_by_name():
    assert isinstance(make_controller("reno"), RenoController)
    assert isinstance(make_controller("coupled"), CoupledController)
    assert isinstance(make_controller("olia"), OliaController)


def test_make_controller_unknown_name():
    with pytest.raises(ValueError):
        make_controller("cubic")


def test_slow_start_grows_one_mss_per_mss_acked():
    controller = RenoController()
    flow = FakeFlow(cwnd_packets=10, rtt=0.05, ssthresh_packets=44)
    controller.attach(flow)
    controller.on_ack(flow, MSS)
    assert flow.cwnd == 11 * MSS


def test_slow_start_is_byte_counted():
    controller = RenoController()
    flow = FakeFlow(cwnd_packets=10, rtt=0.05, ssthresh_packets=44)
    controller.attach(flow)
    controller.on_ack(flow, 3 * MSS)  # stretch ACK: still at most 1 MSS
    assert flow.cwnd == 11 * MSS


def test_reno_congestion_avoidance_increase():
    controller = RenoController()
    flow = FakeFlow(cwnd_packets=20, rtt=0.05)  # ssthresh 0: always CA
    controller.attach(flow)
    before = flow.cwnd
    controller.on_ack(flow, MSS)
    # w += 1/w packets per packet acked.
    assert flow.cwnd == pytest.approx(before + MSS / 20)


def test_reno_full_window_of_acks_adds_about_one_mss():
    controller = RenoController()
    flow = FakeFlow(cwnd_packets=20, rtt=0.05)
    controller.attach(flow)
    before = flow.cwnd
    for _ in range(20):
        controller.on_ack(flow, MSS)
    assert flow.cwnd == pytest.approx(before + MSS, rel=0.05)


def test_coupled_single_flow_behaves_like_reno():
    """With one subflow, LIA's min() term reduces to 1/w."""
    coupled = CoupledController()
    reno = RenoController()
    flow_c = FakeFlow(cwnd_packets=20, rtt=0.05)
    flow_r = FakeFlow(cwnd_packets=20, rtt=0.05)
    coupled.attach(flow_c)
    reno.attach(flow_r)
    coupled.on_ack(flow_c, MSS)
    reno.on_ack(flow_r, MSS)
    assert flow_c.cwnd == pytest.approx(flow_r.cwnd)


def test_coupled_increase_never_exceeds_reno():
    """LIA is capped by the uncoupled increase on every path."""
    for rtts in ((0.03, 0.2), (0.1, 0.1), (0.02, 0.5)):
        for windows in ((10, 40), (25, 25), (5, 100)):
            coupled = CoupledController()
            flows = [FakeFlow(w, rtt) for w, rtt in zip(windows, rtts)]
            for flow in flows:
                coupled.attach(flow)
            for flow in flows:
                before = flow.cwnd
                coupled.on_ack(flow, MSS)
                uncoupled_increase = MSS * MSS / before
                assert flow.cwnd - before <= uncoupled_increase + 1e-9


def test_coupled_two_flows_grow_slower_than_two_renos():
    coupled = CoupledController()
    a = FakeFlow(20, 0.05)
    b = FakeFlow(20, 0.05)
    coupled.attach(a)
    coupled.attach(b)
    before = a.cwnd + b.cwnd
    for _ in range(40):
        coupled.on_ack(a, MSS)
        coupled.on_ack(b, MSS)
    coupled_growth = (a.cwnd + b.cwnd) - before
    reno = RenoController()
    c = FakeFlow(20, 0.05)
    reno.attach(c)
    single_before = c.cwnd
    for _ in range(40):
        reno.on_ack(c, MSS)
    single_growth = c.cwnd - single_before
    # Two coupled flows together grow about like ONE TCP, so their
    # total growth must be well below two independent Renos'.
    assert coupled_growth < 1.5 * single_growth


def test_olia_increase_is_nonnegative():
    olia = OliaController()
    fast = FakeFlow(30, 0.03)
    slow = FakeFlow(10, 0.3)
    olia.attach(fast)
    olia.attach(slow)
    olia.on_sent(fast, 50 * MSS)
    olia.on_sent(slow, 5 * MSS)
    olia.on_loss(fast)
    for flow in (fast, slow):
        before = flow.cwnd
        olia.on_ack(flow, MSS)
        assert flow.cwnd >= before


def test_olia_favors_best_path_not_largest_window():
    """alpha > 0 for best paths not holding the largest window."""
    olia = OliaController()
    large_window = FakeFlow(40, 0.1)
    good_but_small = FakeFlow(10, 0.1)
    olia.attach(large_window)
    olia.attach(good_but_small)
    # The small-window path transfers more between losses: best path.
    olia.on_sent(good_but_small, 1000 * MSS)
    olia.on_loss(good_but_small)
    olia.on_sent(good_but_small, 1000 * MSS)
    olia.on_sent(large_window, 10 * MSS)
    olia.on_loss(large_window)
    olia.on_sent(large_window, 10 * MSS)
    _, alpha_small = olia._coupling(good_but_small)
    _, alpha_large = olia._coupling(large_window)
    assert alpha_small > 0
    assert alpha_large < 0
    assert alpha_small + alpha_large == pytest.approx(0.0)


def test_olia_single_flow_alpha_zero():
    olia = OliaController()
    flow = FakeFlow(20, 0.05)
    olia.attach(flow)
    assert olia._coupling(flow)[1] == 0.0


def test_detach_removes_flow_from_coupling():
    coupled = CoupledController()
    a = FakeFlow(20, 0.05)
    b = FakeFlow(20, 0.05)
    coupled.attach(a)
    coupled.attach(b)
    coupled.detach(b)
    assert coupled.flows == [a]
    # Behaves like a single flow again.
    reno_flow = FakeFlow(20, 0.05)
    reno = RenoController()
    reno.attach(reno_flow)
    coupled.on_ack(a, MSS)
    reno.on_ack(reno_flow, MSS)
    assert a.cwnd == pytest.approx(reno_flow.cwnd)


def test_attach_is_idempotent():
    controller = RenoController()
    flow = FakeFlow(10, 0.1)
    controller.attach(flow)
    controller.attach(flow)
    assert controller.flows == [flow]


def test_olia_detach_cleans_path_state():
    olia = OliaController()
    flow = FakeFlow(10, 0.1)
    olia.attach(flow)
    olia.on_sent(flow, MSS)
    olia.detach(flow)
    assert olia._paths == {}


# ----------------------------------------------------------------------
# One-pass increases vs the formulas as first written (reference)
# ----------------------------------------------------------------------
#
# Production walks the coupled flows once per ACK.  The references below
# are the multi-pass formulas that code replaced, kept verbatim: every
# simulated result is pinned to their floats, so the one-pass versions
# must agree bit for bit, not approximately.

def _window_packets(flow):
    return max(flow.cwnd / flow.mss, 1.0)


def _reference_lia_increase(flows, flow, acked_bytes):
    window = _window_packets(flow)
    total = sum(_window_packets(peer) for peer in flows)
    if total <= 0.0:
        total = window
    alpha_total = best = denominator = 0.0
    for peer in flows:
        peer_window = _window_packets(peer)
        rtt = max(peer.smoothed_rtt(), 1e-4)
        alpha_total += peer_window
        best = max(best, peer_window / (rtt * rtt))
        denominator += peer_window / rtt
    alpha = (1.0 if denominator <= 0.0
             else alpha_total * best / (denominator * denominator))
    acked_packets = acked_bytes / flow.mss
    increase_packets = min(alpha / total, 1.0 / window) * acked_packets
    return increase_packets * flow.mss


def _reference_olia_alphas(flows, lhat):
    alphas = {id(flow): 0.0 for flow in flows}
    if len(flows) < 2:
        return alphas
    quality = {id(flow): (lhat[id(flow)] ** 2)
               / max(flow.smoothed_rtt(), 1e-4) for flow in flows}
    best_quality = max(quality.values())
    best = {key for key, value in quality.items()
            if value >= best_quality * (1 - 1e-9)}
    max_window = max(_window_packets(flow) for flow in flows)
    largest = {id(flow) for flow in flows
               if _window_packets(flow) >= max_window * (1 - 1e-9)}
    collected = best - largest
    if not collected:
        return alphas
    for key in collected:
        alphas[key] = 1.0 / (len(flows) * len(collected))
    for key in largest:
        alphas[key] = -1.0 / (len(flows) * len(largest))
    return alphas


def _reference_olia_increase(flows, lhat, flow, acked_bytes):
    window = _window_packets(flow)
    rtt = max(flow.smoothed_rtt(), 1e-4)
    denominator = sum(
        _window_packets(peer) / max(peer.smoothed_rtt(), 1e-4)
        for peer in flows)
    if denominator <= 0.0:
        denominator = window / rtt
    alpha = _reference_olia_alphas(flows, lhat).get(id(flow), 0.0)
    acked_packets = acked_bytes / flow.mss
    increase_packets = ((window / (rtt * rtt)) / (denominator ** 2)
                        + alpha / window) * acked_packets
    return max(increase_packets, 0.0) * flow.mss


_FLOWS = st.lists(
    st.tuples(st.floats(0.2, 400.0),              # cwnd, packets
              st.sampled_from([536, 1200, MSS]),  # mss
              st.floats(1e-5, 2.0),               # srtt, below the clamp too
              st.integers(0, 3),                  # l-hat, previous interval
              st.integers(0, 3)),                 # l-hat, current interval
    min_size=1, max_size=4)


def _drawn_flows(drawn):
    flows = []
    for cwnd_packets, mss, rtt, _, _ in drawn:
        flow = FakeFlow(cwnd_packets, rtt)
        flow.mss = mss
        flow.cwnd = cwnd_packets * mss
        flows.append(flow)
    return flows


@given(drawn=_FLOWS, acked=st.integers(1, 3 * MSS))
def test_one_pass_lia_increase_is_bit_identical(drawn, acked):
    flows = _drawn_flows(drawn)
    coupled = CoupledController()
    for flow in flows:
        coupled.attach(flow)
    for flow in flows:
        expected = flow.cwnd + _reference_lia_increase(flows, flow, acked)
        coupled.on_ack(flow, acked)
        assert flow.cwnd == expected


@given(drawn=_FLOWS, acked=st.integers(1, 3 * MSS))
def test_one_pass_olia_increase_is_bit_identical(drawn, acked):
    """Small integer l-hats force ties, so the best / largest-window
    sets overlap, split and empty in every combination."""
    flows = _drawn_flows(drawn)
    olia = OliaController()
    lhat = {}
    for flow, (_, _, _, previous, current) in zip(flows, drawn):
        olia.attach(flow)
        olia.on_sent(flow, previous * 10_000)
        olia.on_loss(flow)
        olia.on_sent(flow, current * 10_000)
        lhat[id(flow)] = float(max(previous, current) * 10_000)
    for flow in flows:
        expected = flow.cwnd + _reference_olia_increase(
            flows, lhat, flow, acked)
        olia.on_ack(flow, acked)
        assert flow.cwnd == expected
