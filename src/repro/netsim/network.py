"""Address-based routing between interfaces.

The topology of Figure 1 collapses to: every interface has an access
link pair (up toward the core, down from the core), and the core itself
is instantaneous -- the Internet backbone between UMass and the carrier
gateways contributes only a small fixed delay already folded into the
access links' propagation delay.  A packet from ``client.wifi`` to
``server.eth0`` therefore traverses the WiFi uplink in series with the
server-LAN downlink; the reverse direction traverses the server-LAN
uplink then the WiFi downlink (where the deep cellular/WiFi buffers
live).

Two MPTCP subflows that share an interface (the 4-path scenarios)
automatically share that interface's access links, and hence compete
for the same bottleneck -- exactly the resource-pooling situation the
coupled controllers are designed for.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.netsim.host import Host, Interface
from repro.netsim.link import Link, LinkConfig
from repro.netsim.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


class Network:
    """Wires hosts' interfaces together through their access links."""

    def __init__(self, sim: Simulator, rng: RngRegistry) -> None:
        self.sim = sim
        self.rng = rng
        self._interfaces: Dict[str, Interface] = {}

    def attach(self, host: Host, interface: Interface,
               up: LinkConfig, down: LinkConfig) -> Interface:
        """Attach ``interface`` of ``host`` with the given access links."""
        host.add_interface(interface)
        if interface.address in self._interfaces:
            raise ValueError(
                f"address {interface.address!r} already on the network")
        up_link = Link(self.sim, up,
                       self.rng.stream(f"{interface.address}.up"),
                       name=f"{interface.address}.up")
        down_link = Link(self.sim, down,
                         self.rng.stream(f"{interface.address}.down"),
                         name=f"{interface.address}.down")
        up_link.deliver = self._route_to_destination
        down_link.deliver = lambda packet, iface=interface: (
            iface.host.receive(packet, iface))
        interface.up_link = up_link
        interface.down_link = down_link
        self._interfaces[interface.address] = interface
        return interface

    def links_for(self, address: str) -> Tuple[Link, Link]:
        """Return (up_link, down_link) of the interface at ``address``."""
        interface = self._interfaces[address]
        return interface.up_link, interface.down_link

    def _route_to_destination(self, packet: Packet) -> None:
        """Core forwarding: hand the packet to the destination's downlink."""
        interface = self._interfaces.get(packet.dst)
        if interface is None:
            return  # black-hole unroutable packets, as the Internet does
        interface.down_link.send(packet)
