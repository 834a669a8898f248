#!/usr/bin/env python3
"""Working with traces: the tcpdump/tcptrace workflow, simulated.

The paper's methodology (Section 3.2): capture packets at both ends,
analyze per-subflow RTT and loss with tcptrace.  This example runs one
MPTCP download with captures attached, then walks the same pipeline:

* a tcpdump-style excerpt of the handshake (MPTCP options visible);
* per-subflow tcptrace summaries from the server capture;
* a cwnd/RTT time-series probe on the WiFi subflow;
* the connection-level roll-up (download time, split, reorder delay).

Run:  python examples/trace_analysis.py
"""

from repro.app.http import HTTP_PORT, HttpClient, HttpServerSession
from repro.core.connection import MptcpConfig, MptcpConnection, \
    MptcpListener
from repro.testbed import Testbed, TestbedConfig
from repro.trace.analyzer import analyze_flow, flows_in
from repro.trace.capture import PacketCapture
from repro.trace.dump import dump, flow_summary
from repro.trace.metrics import connection_metrics
from repro.trace.timeseries import TimeSeriesProbe

MB = 1024 * 1024
SIZE = 2 * MB


def main():
    testbed = Testbed(TestbedConfig(carrier="att", seed=12))
    server_capture = PacketCapture(testbed.server, keep_records=True)
    client_capture = PacketCapture(testbed.client, keep_records=True)
    config = MptcpConfig()
    server_side = {}

    def on_connection(server_conn):
        server_side["conn"] = server_conn
        HttpServerSession.fixed(server_conn, SIZE)

    MptcpListener(testbed.sim, testbed.server, HTTP_PORT, config,
                  server_addrs=testbed.server_addrs,
                  on_connection=on_connection)
    connection = MptcpConnection.client(
        testbed.sim, testbed.client, testbed.client_addrs,
        testbed.server_addrs[0], HTTP_PORT, config)
    probe = TimeSeriesProbe(testbed.sim, period=0.05)
    client = HttpClient(testbed.sim, connection, SIZE,
                        on_complete=lambda record: probe.stop())

    def on_established():
        client._on_established()  # keep the HTTP flow going
        wifi = server_side["conn"].subflows[0].endpoint
        probe.track("cwnd (KB)", lambda: wifi.cwnd / 1024)
        probe.track("srtt (ms)",
                    lambda: wifi.smoothed_rtt() * 1000)
        probe.start()

    connection.on_established = on_established
    client.start()
    connection.connect()
    testbed.run(until=120.0)

    print("=== tcpdump excerpt (client, first 8 packets) ===")
    print(dump(client_capture, limit=8))

    print("\n=== tcptrace per-subflow summaries (server capture) ===")
    for key, records in sorted(flows_in(server_capture).items()):
        senders = {record.src for record in records
                   if record.direction == "send"
                   and record.payload_len > 0}
        server_addr = next((addr for addr in senders
                            if addr.startswith("server.")), None)
        if server_addr is None:
            continue
        print()
        print(flow_summary(analyze_flow(records, server_addr)))

    print("\n=== WiFi subflow trajectory ===")
    for name in ("cwnd (KB)", "srtt (ms)"):
        print("  " + probe.sparkline(name))

    print("\n=== connection roll-up ===")
    metrics = connection_metrics(
        server_capture, client_capture,
        ofo_delays=connection.receive_buffer.metrics.delays())
    print(f"  download time    : {metrics.download_time:.3f} s")
    print(f"  cellular fraction: {metrics.cellular_fraction:.0%}")
    in_order = connection.receive_buffer.metrics.in_order_fraction()
    print(f"  in-order packets : {in_order:.0%}")


if __name__ == "__main__":
    main()
