"""Assembles the paper's Figure 1 testbed in the simulator.

One :class:`Testbed` is one measurement environment: a fresh simulator,
a multi-homed UMass-style server (one or two GigE interfaces), and a
mobile client with a WiFi interface plus one cellular interface (AT&T /
Verizon / Sprint), behind a NAT, with the cellular RRC state machine
optionally pre-warmed the way the paper pings before each run.

Every run of the experiment harness builds a new Testbed from a seed,
so runs are independent and reproducible; the per-run environment
jitter (time-of-day WiFi load, per-location signal lottery) is drawn
here from named RNG streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.netsim.host import Host, Interface
from repro.netsim.nat import Nat
from repro.netsim.network import Network
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.wireless.profiles import (
    CARRIER_PROFILES,
    SERVER_ETHERNET,
    WIFI_PROFILES,
    PathProfile,
    TimeOfDay,
    environment_factor,
)
from repro.wireless.rrc import RadioStateMachine

CLIENT_WIFI = "client.wifi"
SERVER_PRIMARY = "server.eth0"
SERVER_SECONDARY = "server.eth1"


@dataclass(frozen=True)
class TestbedConfig:
    """Which environment to instantiate."""

    __test__ = False  # not a pytest class, despite the name

    carrier: str = "att"              # att | verizon | sprint
    wifi: str = "home"                # home | public
    server_interfaces: int = 1        # 1 (2-path) or 2 (4-path)
    period: TimeOfDay = TimeOfDay.AFTERNOON
    seed: int = 0
    environment_jitter: bool = True   # per-run rate/loss lottery
    warm_radio: bool = True           # the paper's pre-measurement pings
    nat: bool = True
    #: Direct profile overrides (sensitivity sweeps); when set they
    #: replace the named catalog entries for this testbed.
    wifi_profile: Optional[PathProfile] = None
    cell_profile: Optional[PathProfile] = None

    def __post_init__(self) -> None:
        if self.carrier not in CARRIER_PROFILES:
            raise ValueError(f"unknown carrier {self.carrier!r}")
        if self.wifi not in WIFI_PROFILES:
            raise ValueError(f"unknown wifi profile {self.wifi!r}")
        if self.server_interfaces not in (1, 2):
            raise ValueError("server_interfaces must be 1 or 2")


class Testbed:
    """The instantiated topology for one measurement."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, config: TestbedConfig) -> None:
        self.config = config
        self.sim = Simulator()
        self.rng = RngRegistry(config.seed)
        self.network = Network(self.sim, self.rng)
        self.server = Host(self.sim, "server")
        self.client = Host(self.sim, "client")
        self.cellular_addr = f"client.{config.carrier}"
        self.applied_profiles: Dict[str, PathProfile] = {}

        self._build_server()
        self._build_client()

    # ------------------------------------------------------------------

    @property
    def server_addrs(self) -> List[str]:
        addrs = [SERVER_PRIMARY]
        if self.config.server_interfaces == 2:
            addrs.append(SERVER_SECONDARY)
        return addrs

    @property
    def client_addrs(self) -> List[str]:
        """Client interface addresses, default (WiFi) path first."""
        return [CLIENT_WIFI, self.cellular_addr]

    def _effective(self, profile: PathProfile, stream: str) -> PathProfile:
        if not self.config.environment_jitter:
            return profile
        env = environment_factor(self.rng.stream(stream), profile,
                                 self.config.period)
        return profile.with_environment(env)

    def _build_server(self) -> None:
        for address in self.server_addrs:
            profile = SERVER_ETHERNET
            up, down = profile.link_configs()
            self.network.attach(self.server, Interface(address, address),
                                up=up, down=down)
            self.applied_profiles[address] = profile

    def _build_client(self) -> None:
        config = self.config
        wifi_base = (config.wifi_profile if config.wifi_profile is not None
                     else WIFI_PROFILES[config.wifi])
        wifi_profile = self._effective(wifi_base, "env.wifi")
        up, down = wifi_profile.link_configs()
        wifi = self.network.attach(self.client,
                                   Interface(CLIENT_WIFI, CLIENT_WIFI),
                                   up=up, down=down)
        self.applied_profiles[CLIENT_WIFI] = wifi_profile

        cell_base = (config.cell_profile if config.cell_profile is not None
                     else CARRIER_PROFILES[config.carrier])
        cell_profile = self._effective(cell_base, "env.cell")
        up, down = cell_profile.link_configs()
        cell = self.network.attach(self.client,
                                   Interface(self.cellular_addr,
                                             self.cellular_addr),
                                   up=up, down=down)
        self.applied_profiles[self.cellular_addr] = cell_profile

        if config.nat:
            wifi.nat = Nat()
            cell.nat = Nat()

        cell.radio = RadioStateMachine(
            self.sim, promotion_delay=cell_profile.promotion_delay)
        if config.warm_radio:
            cell.radio.warm_up()

    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Convenience passthrough to the simulator's run loop."""
        return self.sim.run(until=until, max_events=max_events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Testbed carrier={self.config.carrier} "
                f"wifi={self.config.wifi} "
                f"paths={1 + self.config.server_interfaces}>")
