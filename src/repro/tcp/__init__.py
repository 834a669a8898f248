"""Single-path TCP: the per-subflow transport the paper builds on.

Section 2.2.2: "each MPTCP subflow behaves as a legacy New Reno TCP
flow except for the congestion control algorithms".  This subpackage
implements that legacy flow:

* :mod:`repro.tcp.segment` -- the TCP segment (header fields, flags,
  SACK blocks, and a slot for MPTCP options).
* :mod:`repro.tcp.rto` -- the RFC 6298 retransmission-timeout
  estimator with Karn's algorithm applied by the endpoint.
* :mod:`repro.tcp.reassembly` -- receiver-side sequence-space
  reassembly (out-of-order queue, SACK block generation).
* :mod:`repro.tcp.endpoint` -- the endpoint state machine: the 3-way
  handshake, slow start (IW = 10, configurable initial ssthresh),
  congestion avoidance via a pluggable congestion controller, fast
  retransmit / New Reno fast recovery with SACK-based hole selection,
  RTO with exponential backoff, and FIN teardown.

The same endpoint class serves standalone single-path connections and
MPTCP subflows; MPTCP behaviour is injected through a small delegate
interface (:class:`repro.tcp.endpoint.TcpDelegate`).
"""

from repro.tcp.segment import Flags, Segment
from repro.tcp.rto import RtoEstimator
from repro.tcp.reassembly import ReassemblyQueue
from repro.tcp.endpoint import TcpConfig, TcpEndpoint, TcpListener

__all__ = [
    "Flags",
    "Segment",
    "RtoEstimator",
    "ReassemblyQueue",
    "TcpConfig",
    "TcpEndpoint",
    "TcpListener",
]
