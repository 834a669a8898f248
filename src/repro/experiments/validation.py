"""Self-consistency validation: traces vs. protocol internals.

The measurement layer (captures + tcptrace analysis) and the protocol
layer (endpoint counters, receive-buffer accounting) observe the same
run independently.  If the simulator is healthy they must agree; after
modifying protocol code, running :func:`validate_transfer` is a quick
way to prove the observation pipeline still tells the truth.

Checks performed on one instrumented MPTCP download:

* download time from the client capture equals the application record;
* per-subflow retransmission counts from the server capture equal the
  sending endpoints' own counters (the loss-rate pipeline);
* data-packet counts agree between capture and endpoints;
* every payload byte is delivered exactly once (stream conservation);
* per-path byte shares agree between the client capture and the
  receive buffer's ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.app.http import HTTP_PORT, HttpClient, HttpServerSession
from repro.core.connection import MptcpConnection, \
    MptcpListener
from repro.experiments.config import FlowSpec
from repro.testbed import Testbed, TestbedConfig
from repro.trace.capture import PacketCapture
from repro.trace.metrics import bytes_by_client_path, \
    connection_metrics


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def validate_transfer(spec: FlowSpec = None, size: int = 1024 * 1024,
                      seed: int = 7) -> List[Check]:
    """Run one instrumented download and cross-check every ledger."""
    spec = spec or FlowSpec.mptcp(carrier="att")
    if spec.mode != "mp":
        raise ValueError("validation instruments an MPTCP transfer")
    testbed = Testbed(TestbedConfig(
        carrier=spec.carrier, wifi=spec.wifi,
        server_interfaces=spec.server_interfaces, seed=seed))
    server_capture = PacketCapture(testbed.server)
    client_capture = PacketCapture(testbed.client, analyze_senders=False)
    config = spec.mptcp_config()
    server_side = {}

    def on_connection(server_conn):
        server_side["conn"] = server_conn
        HttpServerSession.fixed(server_conn, size)

    MptcpListener(testbed.sim, testbed.server, HTTP_PORT, config,
                  server_addrs=testbed.server_addrs,
                  on_connection=on_connection)
    connection = MptcpConnection.client(
        testbed.sim, testbed.client, testbed.client_addrs,
        testbed.server_addrs[0], HTTP_PORT, config)
    client = HttpClient(testbed.sim, connection, size)
    client.start()
    connection.connect()
    testbed.run(until=120.0 + size / 12_500.0)

    checks: List[Check] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append(Check(name, ok, detail))

    record = client.record
    check("completed", record.complete,
          f"bytes_received={record.bytes_received}/{size}")
    if not record.complete:
        return checks

    metrics = connection_metrics(server_capture, client_capture,
                                 ofo_delays=connection.receive_buffer
                                 .metrics.delays())
    capture_time = metrics.download_time
    app_time = record.download_time
    check("download-time",
          abs(capture_time - app_time) < 1e-6,
          f"capture {capture_time:.6f}s vs app {app_time:.6f}s")

    server_conn = server_side["conn"]
    for subflow in server_conn.subflows:
        endpoint = subflow.endpoint
        analysis = metrics.per_path.get(subflow.path_name)
        if analysis is None:
            check(f"path-{subflow.path_name}",
                  endpoint.stats.data_packets_sent == 0,
                  "no capture flow, endpoint must be silent")
            continue
        check(f"retransmits-{subflow.path_name}",
              analysis.retransmitted_packets
              == endpoint.stats.retransmitted_packets,
              f"capture {analysis.retransmitted_packets} vs endpoint "
              f"{endpoint.stats.retransmitted_packets}")
        check(f"data-packets-{subflow.path_name}",
              analysis.data_packets_sent
              == endpoint.stats.data_packets_sent,
              f"capture {analysis.data_packets_sent} vs endpoint "
              f"{endpoint.stats.data_packets_sent}")

    delivered = connection.receive_buffer.metrics.delivered_bytes
    check("stream-conservation", delivered == size,
          f"delivered {delivered} of {size} exactly once")

    ledger = connection.receive_buffer.metrics.bytes_by_path
    capture_split = bytes_by_client_path(client_capture)
    for path, ledger_bytes in sorted(ledger.items()):
        seen = capture_split.get(path, 0)
        # The capture counts every arriving payload byte including
        # duplicates; the ledger counts unique accepted bytes.
        check(f"share-{path}", seen >= ledger_bytes,
              f"capture {seen} >= unique {ledger_bytes}")
    return checks


def render_checks(checks: List[Check]) -> str:
    lines = []
    for check in checks:
        status = "ok " if check.ok else "FAIL"
        lines.append(f"[{status}] {check.name}: {check.detail}")
    passed = sum(1 for check in checks if check.ok)
    lines.append(f"{passed}/{len(checks)} consistency checks passed")
    return "\n".join(lines)
