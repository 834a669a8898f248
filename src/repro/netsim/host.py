"""Hosts and interfaces.

A :class:`Host` owns one or more :class:`Interface` objects (the paper's
client has a WiFi interface plus a cellular modem; the server has two
Ethernet NICs).  Hosts demultiplex inbound packets to bound protocol
endpoints (TCP connections and listeners) and expose capture hooks that
the tracing layer (:mod:`repro.trace`) uses the way the paper uses
tcpdump on both machines.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol, Tuple

from repro.netsim.packet import Packet
from repro.sim.engine import Simulator

#: A TCP 4-tuple from the receiving host's point of view:
#: (local_addr, local_port, remote_addr, remote_port).
FourTuple = Tuple[str, int, str, int]

#: Capture hook signature: (direction, time, packet) where direction is
#: ``"send"`` or ``"recv"``.
CaptureHook = Callable[[str, float, Packet], None]


class PacketSink(Protocol):
    """Anything that can consume a packet addressed to it."""

    def handle_packet(self, packet: Packet) -> None:  # pragma: no cover
        ...


class Listener(Protocol):
    """A passive endpoint that accepts new connections on a port."""

    def handle_syn(self, packet: Packet,
                   host: "Host") -> None:  # pragma: no cover
        ...


class Interface:
    """A network attachment point with its own address and access links.

    ``up_link`` carries traffic from this interface toward the network
    core; ``down_link`` carries traffic from the core to this interface.
    An optional ``radio`` (cellular RRC state machine) gates uplink
    transmissions with a promotion delay, and an optional ``nat``
    filters inbound packets.
    """

    def __init__(self, name: str, address: str) -> None:
        self.name = name
        self.address = address
        self.host: Optional["Host"] = None
        self.up_link = None  # set by Network wiring
        self.down_link = None  # set by Network wiring
        self.radio = None  # Optional[RadioStateMachine]
        self.nat = None  # Optional[Nat]

    def transmit(self, packet: Packet) -> None:
        """Send a packet out of this interface, honoring the radio gate."""
        if self.up_link is None:
            raise RuntimeError(f"interface {self.name} is not wired")
        if self.radio is not None:
            # Arg-carrying form: no closure allocated per packet.
            self.radio.request(self.up_link.send, packet)
        else:
            self.up_link.send(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Interface {self.name} addr={self.address}>"


class Host:
    """A multi-homed endpoint: interfaces plus a TCP demultiplexer."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.interfaces: Dict[str, Interface] = {}
        self._endpoints: Dict[FourTuple, PacketSink] = {}
        self._listeners: Dict[int, Listener] = {}
        self._capture_hooks: list[CaptureHook] = []
        self.packets_sent = 0
        self.packets_received = 0
        self.packets_refused = 0
        self._next_ephemeral_port = 40000

    def ephemeral_port(self) -> int:
        """Allocate a fresh local port for an outgoing connection."""
        port = self._next_ephemeral_port
        self._next_ephemeral_port += 1
        return port

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def add_interface(self, interface: Interface) -> Interface:
        """Attach an interface; its address must be unique on this host."""
        if interface.address in self.interfaces:
            raise ValueError(f"duplicate address {interface.address!r}")
        interface.host = self
        self.interfaces[interface.address] = interface
        return interface

    # ------------------------------------------------------------------
    # Endpoint binding
    # ------------------------------------------------------------------

    def bind_listener(self, port: int, listener: Listener) -> None:
        """Accept inbound SYNs to ``port`` on any local address."""
        if port in self._listeners:
            raise ValueError(f"port {port} already has a listener")
        self._listeners[port] = listener

    def register_endpoint(self, four_tuple: FourTuple,
                          endpoint: PacketSink) -> None:
        """Bind a connected endpoint to its exact 4-tuple."""
        if four_tuple in self._endpoints:
            raise ValueError(f"4-tuple {four_tuple} already bound")
        self._endpoints[four_tuple] = endpoint

    def unregister_endpoint(self, four_tuple: FourTuple) -> None:
        self._endpoints.pop(four_tuple, None)

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------

    def add_capture_hook(self, hook: CaptureHook) -> None:
        """Register a tcpdump-style observer of this host's traffic."""
        self._capture_hooks.append(hook)

    def remove_capture_hook(self, hook: CaptureHook) -> None:
        self._capture_hooks.remove(hook)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Transmit a packet out of the interface owning ``packet.src``."""
        interface = self.interfaces.get(packet.src)
        if interface is None:
            raise ValueError(
                f"{self.name} has no interface with address {packet.src!r}")
        now = self.sim.now
        packet.sent_at = now
        self.packets_sent += 1
        for hook in self._capture_hooks:
            hook("send", now, packet)
        if interface.nat is not None:
            interface.nat.note_outbound(packet)
        interface.transmit(packet)

    def receive(self, packet: Packet, interface: Interface) -> None:
        """Deliver an inbound packet to the bound endpoint or listener."""
        if interface.nat is not None and not interface.nat.allows(packet):
            self.packets_refused += 1
            return
        if interface.radio is not None:
            interface.radio.touch()
        self.packets_received += 1
        if self._capture_hooks:
            now = self.sim.now
            for hook in self._capture_hooks:
                hook("recv", now, packet)
        segment = packet.segment
        key: FourTuple = (packet.dst, segment.dst_port,
                          packet.src, segment.src_port)
        endpoint = self._endpoints.get(key)
        if endpoint is not None:
            endpoint.handle_packet(packet)
            return
        if segment.flags.syn and not segment.flags.ack:
            listener = self._listeners.get(segment.dst_port)
            if listener is not None:
                listener.handle_syn(packet, self)
                return
        self.packets_refused += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name} interfaces={sorted(self.interfaces)}>"
