"""The three MPTCP congestion controllers the paper compares.

Section 2.2.2, verbatim in window units (``w_i`` = window of subflow
``i``, ``rtt_i`` its round-trip time, ``w`` the total window):

* **reno** (uncoupled New Reno, the baseline): per ACK on flow *i*,
  ``w_i += 1 / w_i``; per loss, ``w_i /= 2``.
* **coupled** (LIA, RFC 6356, the Linux MPTCP default): per ACK,
  ``w_i += min(a / w, 1 / w_i)`` where
  ``a = w * max_i(w_i / rtt_i^2) / (sum_i w_i / rtt_i)^2``;
  per loss, unmodified TCP halving.
* **olia** (Khalili et al., CoNEXT'12): per ACK,
  ``w_i += (w_i / rtt_i^2) / (sum_p w_p / rtt_p)^2 + alpha_i / w_i``
  where ``alpha_i`` shifts window between the *best* paths (largest
  inter-loss transfer ``l_i^2 / rtt_i``) and the largest-window paths;
  per loss, unmodified TCP halving.

All three use standard slow start below ``ssthresh`` and identical
halving on loss -- the endpoint performs the decrease; controllers only
own the congestion-avoidance *increase* (plus OLIA's inter-loss-bytes
bookkeeping).  Windows are maintained in bytes by the endpoints; the
formulas are evaluated in packet (MSS) units as in the kernel.
"""

from __future__ import annotations

from typing import Dict, List, Protocol, Tuple


class WindowedFlow(Protocol):
    """What a controller needs to see of a TCP endpoint."""

    cwnd: float          # congestion window, bytes
    ssthresh: float      # slow-start threshold, bytes
    mss: int             # maximum segment size, bytes

    def smoothed_rtt(self) -> float:  # pragma: no cover - protocol
        """Current SRTT estimate in seconds."""
        ...


class CongestionController:
    """Base class: slow start plus per-flow registration.

    Subclasses implement :meth:`_increase`, the congestion-avoidance
    additive increase applied per ACK.
    """

    name = "base"

    def __init__(self) -> None:
        self.flows: List[WindowedFlow] = []

    # -- membership ----------------------------------------------------

    def attach(self, flow: WindowedFlow) -> None:
        """Register a flow (subflow establishment)."""
        if flow not in self.flows:
            self.flows.append(flow)

    def detach(self, flow: WindowedFlow) -> None:
        """Unregister a flow (subflow close)."""
        if flow in self.flows:
            self.flows.remove(flow)

    # -- events from the endpoint ---------------------------------------

    def on_ack(self, flow: WindowedFlow, acked_bytes: int) -> None:
        """Grow the window for ``acked_bytes`` newly acknowledged."""
        if flow.cwnd < flow.ssthresh:
            # Slow start, byte-counted (at most one MSS per ACK).
            flow.cwnd += min(acked_bytes, flow.mss)
        else:
            self._increase(flow, acked_bytes)

    def on_loss(self, flow: WindowedFlow) -> None:
        """Bookkeeping hook; the *decrease* itself is done by the flow."""

    def on_sent(self, flow: WindowedFlow, nbytes: int) -> None:
        """Bookkeeping hook for transmitted bytes (OLIA uses this)."""

    def _increase(self, flow: WindowedFlow, acked_bytes: int) -> None:
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _window_packets(flow: WindowedFlow) -> float:
        return max(flow.cwnd / flow.mss, 1.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} flows={len(self.flows)}>"


class RenoController(CongestionController):
    """Uncoupled New Reno on every subflow (the paper's baseline).

    Also serves as the controller for plain single-path TCP.
    """

    name = "reno"

    def _increase(self, flow: WindowedFlow, acked_bytes: int) -> None:
        # w += 1/w per ACK, byte-counted: MSS^2/w per MSS acked.
        flow.cwnd += flow.mss * flow.mss * (acked_bytes / flow.mss) / flow.cwnd


class CoupledController(CongestionController):
    """The LIA 'coupled' controller (RFC 6356), Linux MPTCP's default."""

    name = "coupled"

    def _increase(self, flow: WindowedFlow, acked_bytes: int) -> None:
        # RFC 6356 in packet units, from one pass over the coupled
        # flows: w, max_i(w_i / rtt_i^2) and sum_i(w_i / rtt_i).  The
        # window and RTT clamps (``_window_packets``, a 0.1 ms floor)
        # are written out: this runs per flow per ACK.
        total = best = denominator = 0.0
        for peer in self.flows:
            peer_window = peer.cwnd / peer.mss
            if peer_window < 1.0:
                peer_window = 1.0
            rtt = peer.smoothed_rtt()
            if rtt < 1e-4:
                rtt = 1e-4
            total += peer_window
            ratio = peer_window / (rtt * rtt)
            if ratio > best:
                best = ratio
            denominator += peer_window / rtt
        alpha = (total * best / (denominator * denominator)
                 if denominator > 0.0 else 1.0)
        window = self._window_packets(flow)
        if total <= 0.0:
            total = window
        acked_packets = acked_bytes / flow.mss
        increase_packets = min(alpha / total, 1.0 / window) * acked_packets
        flow.cwnd += increase_packets * flow.mss


class _OliaPathState:
    """Per-flow inter-loss byte counters for OLIA's alpha computation."""

    __slots__ = ("bytes_current_interval", "bytes_previous_interval")

    def __init__(self) -> None:
        self.bytes_current_interval = 0.0
        self.bytes_previous_interval = 0.0

    @property
    def smoothed(self) -> float:
        """l-hat: max of the current and previous inter-loss intervals."""
        return max(self.bytes_current_interval,
                   self.bytes_previous_interval)


class OliaController(CongestionController):
    """The opportunistic linked-increases algorithm (OLIA)."""

    name = "olia"

    def __init__(self) -> None:
        super().__init__()
        self._paths: Dict[int, _OliaPathState] = {}

    def attach(self, flow: WindowedFlow) -> None:
        super().attach(flow)
        self._paths.setdefault(id(flow), _OliaPathState())

    def detach(self, flow: WindowedFlow) -> None:
        super().detach(flow)
        self._paths.pop(id(flow), None)

    def on_sent(self, flow: WindowedFlow, nbytes: int) -> None:
        state = self._paths.get(id(flow))
        if state is not None:
            state.bytes_current_interval += nbytes

    def on_loss(self, flow: WindowedFlow) -> None:
        state = self._paths.get(id(flow))
        if state is not None:
            state.bytes_previous_interval = state.bytes_current_interval
            state.bytes_current_interval = 0.0

    def _coupling(self, flow: WindowedFlow) -> Tuple[float, float]:
        """``(sum_p w_p / rtt_p, alpha of flow)`` from one pass over
        the coupled flows.

        alpha shifts window toward the *collected* paths -- best
        quality (largest l-hat^2 / rtt) but not the largest window --
        and away from the largest-window paths.
        """
        flows = self.flows
        denominator = 0.0
        windows: List[float] = []
        qualities: List[float] = []
        for peer in flows:
            window = peer.cwnd / peer.mss
            if window < 1.0:
                window = 1.0
            rtt = peer.smoothed_rtt()
            if rtt < 1e-4:
                rtt = 1e-4
            denominator += window / rtt
            windows.append(window)
            qualities.append((self._paths[id(peer)].smoothed ** 2) / rtt)
        if len(flows) < 2:
            return denominator, 0.0
        quality_floor = max(qualities) * (1 - 1e-9)
        window_floor = max(windows) * (1 - 1e-9)
        collected = largest = 0
        side = 0  # of ``flow``: +1 collected, -1 largest, 0 neither
        for peer, window, quality in zip(flows, windows, qualities):
            if window >= window_floor:
                largest += 1
                if peer is flow:
                    side = -1
            elif quality >= quality_floor:
                collected += 1
                if peer is flow:
                    side = 1
        if not collected or not side:
            return denominator, 0.0
        if side > 0:
            return denominator, 1.0 / (len(flows) * collected)
        return denominator, -1.0 / (len(flows) * largest)

    def _increase(self, flow: WindowedFlow, acked_bytes: int) -> None:
        window = self._window_packets(flow)
        rtt = max(flow.smoothed_rtt(), 1e-4)
        denominator, alpha = self._coupling(flow)
        if denominator <= 0.0:
            denominator = window / rtt
        acked_packets = acked_bytes / flow.mss
        increase_packets = ((window / (rtt * rtt)) / (denominator ** 2)
                            + alpha / window) * acked_packets
        # OLIA's negative alpha term may shrink the increase below zero;
        # the kernel clamps so a path never decreases without a loss.
        flow.cwnd += max(increase_packets, 0.0) * flow.mss


_CONTROLLERS = {
    "reno": RenoController,
    "coupled": CoupledController,
    "olia": OliaController,
}


def make_controller(name: str) -> CongestionController:
    """Instantiate a controller by its paper name: reno/coupled/olia."""
    try:
        return _CONTROLLERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown congestion controller {name!r}; "
            f"expected one of {sorted(_CONTROLLERS)}") from None
