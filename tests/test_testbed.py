"""Tests for the testbed assembler."""

import pytest

from repro.netsim.packet import Packet
from repro.tcp.segment import Segment
from repro.testbed import (
    CLIENT_WIFI,
    SERVER_PRIMARY,
    SERVER_SECONDARY,
    Testbed,
    TestbedConfig,
)
from repro.wireless.profiles import TimeOfDay
from repro.wireless.rrc import RadioState


def test_default_testbed_layout():
    testbed = Testbed(TestbedConfig(seed=1))
    assert testbed.server_addrs == [SERVER_PRIMARY]
    assert testbed.client_addrs == [CLIENT_WIFI, "client.att"]
    assert set(testbed.client.interfaces) == {CLIENT_WIFI, "client.att"}
    assert set(testbed.server.interfaces) == {SERVER_PRIMARY}


def test_two_server_interfaces_for_four_paths():
    testbed = Testbed(TestbedConfig(seed=1, server_interfaces=2))
    assert testbed.server_addrs == [SERVER_PRIMARY, SERVER_SECONDARY]
    assert SERVER_SECONDARY in testbed.server.interfaces


def test_carrier_selects_cellular_interface():
    testbed = Testbed(TestbedConfig(seed=1, carrier="sprint"))
    assert testbed.cellular_addr == "client.sprint"
    assert "client.sprint" in testbed.client.interfaces


def test_config_validation():
    with pytest.raises(ValueError):
        TestbedConfig(carrier="tmobile")
    with pytest.raises(ValueError):
        TestbedConfig(wifi="mesh")
    with pytest.raises(ValueError):
        TestbedConfig(server_interfaces=3)


def test_radio_warm_by_default():
    testbed = Testbed(TestbedConfig(seed=1))
    radio = testbed.client.interfaces["client.att"].radio
    assert radio is not None
    assert radio.state is RadioState.CONNECTED


def test_cold_radio_when_requested():
    testbed = Testbed(TestbedConfig(seed=1, warm_radio=False))
    radio = testbed.client.interfaces["client.att"].radio
    assert radio.state is RadioState.IDLE


def test_nat_present_on_client_interfaces():
    testbed = Testbed(TestbedConfig(seed=1))
    assert testbed.client.interfaces[CLIENT_WIFI].nat is not None
    assert testbed.client.interfaces["client.att"].nat is not None
    assert testbed.server.interfaces[SERVER_PRIMARY].nat is None


def test_nat_disabled_when_requested():
    testbed = Testbed(TestbedConfig(seed=1, nat=False))
    assert testbed.client.interfaces[CLIENT_WIFI].nat is None


def test_environment_jitter_changes_profiles():
    plain = Testbed(TestbedConfig(seed=1, environment_jitter=False))
    jittered = Testbed(TestbedConfig(seed=1, environment_jitter=True))
    base = plain.applied_profiles[CLIENT_WIFI]
    shifted = jittered.applied_profiles[CLIENT_WIFI]
    assert shifted.down_rate != base.down_rate


def test_environment_jitter_deterministic_per_seed():
    a = Testbed(TestbedConfig(seed=4)).applied_profiles[CLIENT_WIFI]
    b = Testbed(TestbedConfig(seed=4)).applied_profiles[CLIENT_WIFI]
    assert a == b


def test_period_affects_wifi_environment():
    night = Testbed(TestbedConfig(seed=4, period=TimeOfDay.NIGHT))
    evening = Testbed(TestbedConfig(seed=4, period=TimeOfDay.EVENING))
    assert night.applied_profiles[CLIENT_WIFI] != \
        evening.applied_profiles[CLIENT_WIFI]


def test_wifi_flavor_applied():
    public = Testbed(TestbedConfig(seed=1, wifi="public",
                                   environment_jitter=False))
    home = Testbed(TestbedConfig(seed=1, wifi="home",
                                 environment_jitter=False))
    assert public.applied_profiles[CLIENT_WIFI].down_loss > \
        home.applied_profiles[CLIENT_WIFI].down_loss


def test_run_passthrough_advances_clock():
    testbed = Testbed(TestbedConfig(seed=1))
    testbed.sim.schedule(1.0, lambda: None)
    assert testbed.run(until=2.0) == 2.0


def test_nat_default_has_no_idle_timeout():
    """A testbed NAT binding outlives any simulated silence, and no
    config field can give it a timeout."""
    with pytest.raises(TypeError):
        TestbedConfig(seed=1, nat_idle_timeout=30.0)
    testbed = Testbed(TestbedConfig(seed=1))
    nat = testbed.client.interfaces[CLIENT_WIFI].nat
    segment = Segment(src_port=40000, dst_port=80)
    nat.note_outbound(Packet(CLIENT_WIFI, SERVER_PRIMARY, segment))
    assert testbed.run(until=1e6) == 1e6
    reply = Segment(src_port=80, dst_port=40000)
    assert nat.allows(Packet(SERVER_PRIMARY, CLIENT_WIFI, reply))
