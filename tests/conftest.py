"""Shared test fixtures: small deterministic networks and transfers."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

import pytest
from hypothesis import settings

from repro.core.coupling import RenoController
from repro.middlebox.base import Middlebox
from repro.netsim.host import Host, Interface
from repro.netsim.link import LinkConfig
from repro.netsim.network import Network
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.tcp.endpoint import TcpConfig, TcpEndpoint, TcpListener


# Hypothesis profiles.  ``tier1`` is loaded here, so it is what a plain
# ``pytest`` runs: derandomized, a red run reproduces from the commit
# alone.  ``deep`` is the search: fresh random draws, ten times the
# examples, and the blob to replay a failure; select it with the
# hypothesis pytest plugin's own flag --
# ``pytest --hypothesis-profile deep tests/tcp tests/core tests/netsim``
# -- and pin whatever it finds as an ``@example``.
_TIER1_EXAMPLES = 100
settings.register_profile("tier1", max_examples=_TIER1_EXAMPLES,
                          derandomize=True, deadline=None)
settings.register_profile("deep", max_examples=10 * _TIER1_EXAMPLES,
                          print_blob=True, deadline=None)
settings.load_profile("tier1")


def examples(count: int) -> int:
    """``max_examples`` of a property that runs ``count`` examples in
    tier-1, scaled by the loaded profile (ten times under ``deep``)."""
    return count * settings.default.max_examples // _TIER1_EXAMPLES


class DropEveryNth(Middlebox):
    """An on-path box that swallows every ``n``-th packet it sees."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n

    def process(self, packet, direction, now):
        return [] if self.stats.packets_seen % self.n == 0 else [packet]


@dataclass
class MiniNet:
    """Two hosts joined by symmetric configurable access links."""

    sim: Simulator
    network: Network
    client: Host
    server: Host

    def run(self, until: float = 60.0) -> float:
        return self.sim.run(until=until)


def build_mininet(rate_bps: float = 10e6, prop_delay: float = 0.01,
                  buffer_bytes: int = 256 * 1024, loss_rate: float = 0.0,
                  seed: int = 1) -> MiniNet:
    """A clean two-host topology for protocol-level tests.

    The loss, if any, applies to the server's *egress* access link
    (data direction); ACKs travel lossless.
    """
    sim = Simulator()
    rng = RngRegistry(seed)
    network = Network(sim, rng)
    client = Host(sim, "client")
    server = Host(sim, "server")
    clean = LinkConfig(rate_bps=rate_bps, prop_delay=prop_delay,
                       buffer_bytes=buffer_bytes)
    lossy = LinkConfig(rate_bps=rate_bps, prop_delay=prop_delay,
                       buffer_bytes=buffer_bytes, loss_rate=loss_rate)
    network.attach(client, Interface("client.wifi", "client.wifi"),
                   up=clean, down=clean)
    network.attach(server, Interface("server.eth0", "server.eth0"),
                   up=lossy, down=clean)
    return MiniNet(sim=sim, network=network, client=client, server=server)


@dataclass
class TransferHarness:
    """A plain-TCP echo-less transfer: server sends, client receives."""

    net: MiniNet
    client_ep: TcpEndpoint
    server_ep: Optional[TcpEndpoint]
    received: list

    def server(self) -> TcpEndpoint:
        assert self.server_ep is not None, "handshake has not completed"
        return self.server_ep


def start_transfer(net: MiniNet, size: int,
                   config: Optional[TcpConfig] = None,
                   client_config: Optional[TcpConfig] = None,
                   on_server: Optional[Callable[[TcpEndpoint], None]] = None,
                   ) -> TransferHarness:
    """Open a TCP connection; the server pushes ``size`` bytes on accept."""
    config = config or TcpConfig()
    harness = TransferHarness(net=net, client_ep=None, server_ep=None,
                              received=[])

    def accept(packet, host):
        segment = packet.segment
        endpoint = TcpEndpoint(
            net.sim, host, packet.dst, segment.dst_port,
            packet.src, segment.src_port, config, RenoController(),
            name="srv")
        harness.server_ep = endpoint

        def established():
            if on_server is not None:
                on_server(endpoint)
            if size:
                endpoint.send(size)
                endpoint.close()

        endpoint.on_established = established
        endpoint.accept(packet)

    net.server.bind_listener(80, TcpListener(accept))
    client_ep = TcpEndpoint(
        net.sim, net.client, "client.wifi", net.client.ephemeral_port(),
        "server.eth0", 80, client_config or config, RenoController(),
        name="cli")
    client_ep.on_receive = harness.received.append
    harness.client_ep = client_ep
    client_ep.connect()
    return harness


@pytest.fixture
def mininet() -> MiniNet:
    return build_mininet()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


class HookHost:
    """The slice of ``Host`` a ``PacketCapture`` uses: it keeps the
    capture's hook so a test can play packets into it."""

    name = "hook-host"

    def add_capture_hook(self, hook) -> None:
        self.hook = hook


def capture_of(packets, **capture_kwargs):
    """A real ``PacketCapture`` that saw ``packets``, an iterable of
    ``(time, direction, packet)``."""
    from repro.trace.capture import PacketCapture
    host = HookHost()
    capture = PacketCapture(host, **capture_kwargs)
    for time, direction, packet in packets:
        host.hook(direction, time, packet)
    return capture
