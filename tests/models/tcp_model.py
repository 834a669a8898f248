"""Closed-form TCP performance models.

These are the standard results the measurement literature uses to
reason about what a TCP flow *should* achieve given path parameters:

* the square-root law and the PFTK steady-state throughput formula
  [Padhye et al., SIGCOMM'98] for loss-limited bulk transfers;
* a slow-start latency model in the spirit of Cardwell et al. for
  short flows (the regime that dominates the paper's small-file
  measurements);
* the aggregate bound for a multipath connection (sum of per-path
  capacities under its controller).

Nothing in the simulator reads them: they are the reference
``test_tcp_model.py`` holds simulated transfers against.

All rates are bits per second, times seconds, sizes bytes.
"""

import math
from typing import Optional, Sequence


def sqrt_throughput(mss: int, rtt: float, loss_rate: float) -> float:
    """The square-root law: ``B = (MSS/RTT) * sqrt(3/2) / sqrt(p)``.

    Valid for small loss rates where timeouts are rare.  Returns
    ``inf`` for a loss-free path (the law does not bound it).
    """
    if mss <= 0 or rtt <= 0:
        raise ValueError("mss and rtt must be positive")
    if loss_rate <= 0:
        return math.inf
    return (mss * 8.0 / rtt) * math.sqrt(1.5 / loss_rate)


def pftk_throughput(mss: int, rtt: float, loss_rate: float,
                    rto: Optional[float] = None,
                    b: int = 1) -> float:
    """The full PFTK formula [Padhye et al. 1998], timeouts included.

    ``b`` is the number of segments acknowledged per ACK (1 without
    delayed ACKs, 2 with).  ``rto`` defaults to ``max(4 * rtt, 0.2)``
    (the Linux floor the simulator uses).
    """
    if mss <= 0 or rtt <= 0:
        raise ValueError("mss and rtt must be positive")
    if loss_rate <= 0:
        return math.inf
    if not 0 < loss_rate < 1:
        raise ValueError("loss_rate must be in (0, 1)")
    if rto is None:
        rto = max(4.0 * rtt, 0.2)
    p = loss_rate
    congestion_term = rtt * math.sqrt(2.0 * b * p / 3.0)
    timeout_term = (min(1.0, 3.0 * math.sqrt(3.0 * b * p / 8.0))
                    * rto * p * (1.0 + 32.0 * p * p))
    return mss * 8.0 / (congestion_term + timeout_term)


def slow_start_rounds(size: int, mss: int,
                      initial_window_segments: int = 10) -> int:
    """RTT rounds to deliver ``size`` bytes in pure slow start.

    The window doubles each round starting at the initial window, so
    the bytes delivered after ``r`` rounds are
    ``iw * mss * (2^r - 1)``.
    """
    if size <= 0:
        return 0
    segments = math.ceil(size / mss)
    rounds = 0
    delivered = 0
    window = initial_window_segments
    while delivered < segments:
        delivered += window
        window *= 2
        rounds += 1
    return rounds


def slow_start_latency(size: int, mss: int, rtt: float,
                       initial_window_segments: int = 10,
                       handshake_rtts: float = 2.0) -> float:
    """Expected download time of a short flow that never leaves slow
    start: handshake plus request plus one RTT per doubling round.

    ``handshake_rtts`` counts the SYN exchange plus the HTTP request
    round (2 RTTs total for TCP+request before first data arrives).
    """
    rounds = slow_start_rounds(size, mss, initial_window_segments)
    return (handshake_rtts + max(rounds - 1, 0)) * rtt + rtt / 2.0


def mptcp_aggregate_bound(path_rates: Sequence[float]) -> float:
    """Upper bound on MPTCP throughput: the sum of path capacities.

    Any controller (coupled or not) is bounded by full utilization of
    every path; the coupled controllers intentionally achieve *less*
    than this on shared bottlenecks.
    """
    if any(rate < 0 for rate in path_rates):
        raise ValueError("path rates must be non-negative")
    return float(sum(path_rates))
