"""Unit tests for the full-mesh path manager."""

import pytest

from repro.core.path_manager import PathManager
from repro.experiments.config import FlowSpec


class FakeConnection:
    def __init__(self):
        self.opened = []

    def open_subflow(self, local, remote):
        self.opened.append((local, remote))


def test_start_opens_initial_on_default_path():
    connection = FakeConnection()
    manager = PathManager(connection, ["client.wifi", "client.att"],
                          "server.eth0")
    manager.start()
    assert connection.opened == [("client.wifi", "server.eth0")]


def test_joins_open_after_initial_established():
    connection = FakeConnection()
    manager = PathManager(connection, ["client.wifi", "client.att"],
                          "server.eth0")
    manager.start()
    manager.on_initial_established()
    assert connection.opened == [
        ("client.wifi", "server.eth0"), ("client.att", "server.eth0")]


def test_simultaneous_syn_opens_joins_at_start():
    connection = FakeConnection()
    manager = PathManager(connection, ["client.wifi", "client.att"],
                          "server.eth0", simultaneous_syn=True)
    manager.start()
    assert len(connection.opened) == 2


def test_add_addr_expands_to_cross_product():
    connection = FakeConnection()
    manager = PathManager(connection, ["client.wifi", "client.att"],
                          "server.eth0")
    manager.start()
    manager.on_initial_established()
    manager.on_add_addr(("server.eth1",))
    assert set(connection.opened) == {
        ("client.wifi", "server.eth0"), ("client.att", "server.eth0"),
        ("client.wifi", "server.eth1"), ("client.att", "server.eth1")}


def test_pairs_are_deduplicated():
    connection = FakeConnection()
    manager = PathManager(connection, ["client.wifi", "client.att"],
                          "server.eth0")
    manager.start()
    manager.on_initial_established()
    manager.on_initial_established()
    manager.on_add_addr(("server.eth0",))
    assert len(connection.opened) == 2


def test_max_subflows_cap():
    connection = FakeConnection()
    manager = PathManager(connection, ["client.wifi", "client.att"],
                          "server.eth0", max_subflows=3)
    manager.start()
    manager.on_initial_established()
    manager.on_add_addr(("server.eth1",))
    assert len(connection.opened) == 3


def test_requires_local_addresses():
    with pytest.raises(ValueError):
        PathManager(FakeConnection(), [], "server.eth0")


def test_duplicate_add_addr_remote_tracked_once():
    connection = FakeConnection()
    manager = PathManager(connection, ["client.wifi"], "server.eth0")
    manager.start()
    manager.on_add_addr(("server.eth1",))
    manager.on_add_addr(("server.eth1",))
    assert connection.opened == [
        ("client.wifi", "server.eth0"), ("client.wifi", "server.eth1")]


def test_make_path_manager_rejects_unknown():
    """Full mesh is the one path manager: a spec naming any other, or
    parameterizing it, is refused."""
    for name in ("mesh-of-meshes", "ndiffports", "fullmesh:ports=2"):
        with pytest.raises(ValueError, match="path manager"):
            FlowSpec.mptcp(path_manager=name)


# ----------------------------------------------------------------------
# End to end over the testbed
# ----------------------------------------------------------------------

def _transfer(config, size=256 * 1024, seed=5, until=60.0):
    from repro.app.http import HTTP_PORT, HttpClient, HttpServerSession
    from repro.core.connection import MptcpConnection, MptcpListener
    from repro.testbed import Testbed, TestbedConfig

    testbed = Testbed(TestbedConfig(seed=seed))
    MptcpListener(testbed.sim, testbed.server, HTTP_PORT, config,
                  server_addrs=testbed.server_addrs,
                  on_connection=lambda c: HttpServerSession.fixed(c, size))
    connection = MptcpConnection.client(
        testbed.sim, testbed.client, testbed.client_addrs,
        testbed.server_addrs[0], HTTP_PORT, config)
    client = HttpClient(testbed.sim, connection, size)
    client.start()
    connection.connect()
    testbed.run(until=until)
    return connection, client


def test_primary_backup_opens_joins_in_backup_mode():
    """Primary-backup is ``backup_paths`` naming every extra path: the
    initial subflow stays regular, the join carries the B-bit."""
    from repro.core.connection import MptcpConfig
    connection, client = _transfer(MptcpConfig(backup_paths=("att",)))
    initial, join = connection.subflows
    assert initial.is_initial and not initial.backup
    assert join.path_name == "att" and join.backup


def test_primary_backup_keeps_cellular_idle_end_to_end():
    from repro.core.connection import MptcpConfig
    connection, client = _transfer(MptcpConfig(backup_paths=("att",)))
    assert client.record.complete
    cellular = [s for s in connection.subflows if s.path_name == "att"][0]
    assert cellular.backup
    shares = connection.receive_buffer.metrics.bytes_by_path
    assert shares.get("att", 0) == 0
