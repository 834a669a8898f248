"""Tests for the canned campaigns and row extractors."""

from repro.experiments.config import FlowSpec
from repro.experiments.runner import RunResult
from repro.experiments.scenarios import (
    KB,
    MB,
    backlog_campaign,
    baseline_campaign,
    coffee_shop_campaign,
    download_time_rows,
    large_flows_campaign,
    latency_campaign,
    mptcp_rtt_ofo_rows,
    ofo_ccdf_rows,
    path_characteristics_rows,
    rtt_ccdf_rows,
    simultaneous_syn_campaign,
    small_flows_campaign,
    syn_comparison_rows,
    traffic_share_rows,
)
from repro.trace.metrics import ConnectionMetrics
from repro.trace.analyzer import FlowAnalysis
from repro.wireless.profiles import TimeOfDay


def test_baseline_campaign_matches_figure2_matrix():
    spec = baseline_campaign()
    labels = [s.label for s in spec.specs]
    assert labels.count("SP-WiFi") == 1
    assert "SP-ATT" in labels and "SP-VZW" in labels and "SP-Sprint" in labels
    assert sum(1 for s in spec.specs if s.mode == "mp") == 3
    assert spec.sizes == (64 * KB, 512 * KB, 2 * MB, 16 * MB)


def test_small_flows_campaign_matches_figure4_matrix():
    spec = small_flows_campaign()
    assert spec.sizes == (8 * KB, 64 * KB, 512 * KB, 4 * MB)
    mp = [s for s in spec.specs if s.mode == "mp"]
    assert {(s.paths, s.controller) for s in mp} == {
        (p, c) for p in (2, 4) for c in ("coupled", "olia", "reno")}
    assert all(s.carrier == "att" for s in mp)


def test_coffee_shop_campaign_uses_public_wifi_and_no_olia():
    spec = coffee_shop_campaign()
    assert all(s.wifi == "public" for s in spec.specs)
    assert not any(s.controller == "olia" for s in spec.specs)


def test_simultaneous_syn_campaign_pairs_modes():
    spec = simultaneous_syn_campaign()
    assert {s.simultaneous_syn for s in spec.specs} == {True, False}
    assert spec.sizes == (64 * KB, 512 * KB, 2 * MB)


def test_large_flows_campaign_sizes():
    spec = large_flows_campaign()
    assert spec.sizes == (4 * MB, 8 * MB, 16 * MB, 32 * MB)


def test_backlog_campaign_default_scaled_down():
    spec = backlog_campaign()
    assert spec.sizes == (32 * MB,)
    full = backlog_campaign(size=512 * MB)
    assert full.sizes == (512 * MB,)
    assert {(s.paths, s.controller) for s in spec.specs} == {
        (2, "coupled"), (2, "reno"), (4, "coupled"), (4, "reno")}


def test_latency_campaign_covers_all_carriers():
    spec = latency_campaign()
    assert {s.carrier for s in spec.specs} == {"att", "verizon", "sprint"}


def make_result(spec, size, download_time=1.0, cell_fraction=0.5,
                per_path=None, ofo=(), completed=True):
    metrics = ConnectionMetrics(
        download_time=download_time,
        cellular_fraction=cell_fraction,
        per_path=per_path or {},
        ofo_delays=list(ofo))
    return RunResult(spec=spec, size=size, seed=0,
                     period=TimeOfDay.NIGHT, completed=completed,
                     download_time=download_time if completed else None,
                     metrics=metrics)


def test_download_time_rows_summarize_five_numbers():
    spec = FlowSpec.single_path("wifi")
    results = [make_result(spec, 64 * KB, download_time=t)
               for t in (1.0, 2.0, 3.0)]
    headers, rows = download_time_rows(results)
    assert headers[:2] == ["size", "config"]
    assert rows == [["64 KB", "SP-WiFi", "3",
                     "1.000", "1.500", "2.000", "2.500", "3.000"]]


def test_study_configs_are_labelled_by_the_knob_they_vary():
    """The paper's own configs keep their labels; an ablation's shows
    the knob it moved off the paper's setting."""
    sprint = FlowSpec.mptcp(carrier="sprint")
    results = [make_result(spec, 4 * MB) for spec in (
        sprint, sprint.with_(rcv_buffer=64 * KB),
        sprint.with_(penalization=True), FlowSpec.single_path("wifi"))]
    _, rows = download_time_rows(results, label_by_carrier=True)
    assert sorted(row[1] for row in rows) == [
        "MP-Sprint", "MP-Sprint penalized", "MP-Sprint rcvbuf 64 KB",
        "SP-WiFi"]


def test_traffic_share_rows_skip_single_path():
    sp = FlowSpec.single_path("wifi")
    mp = FlowSpec.mptcp(carrier="att")
    results = [make_result(sp, 64 * KB),
               make_result(mp, 64 * KB, cell_fraction=0.25),
               make_result(mp, 64 * KB, cell_fraction=0.75)]
    headers, rows = traffic_share_rows(results)
    assert len(rows) == 1
    assert rows[0][0] == "64 KB"
    assert rows[0][3].startswith("0.500")


def test_path_characteristics_rows_use_sp_runs():
    spec = FlowSpec.single_path("cell", carrier="att")
    analysis = FlowAnalysis(local=("server.eth0", 8080),
                            remote=("client.att", 4000))
    analysis.data_packets_sent = 100
    analysis.retransmitted_packets = 2
    analysis.rtt_samples = [0.1, 0.12]
    results = [make_result(spec, 64 * KB, per_path={"att": analysis})]
    headers, rows = path_characteristics_rows(results)
    assert rows[0][1] == "ATT"
    assert rows[0][3].startswith("2.00")   # 2% loss
    assert rows[0][4].startswith("110.0")  # 110 ms mean RTT


def test_rtt_ccdf_rows_pool_samples_by_carrier_and_size():
    spec = FlowSpec.mptcp(carrier="att")
    wifi = FlowAnalysis(local=("server.eth0", 1), remote=("client.wifi", 2))
    wifi.rtt_samples = [0.02, 0.03]
    cell = FlowAnalysis(local=("server.eth0", 1), remote=("client.att", 3))
    cell.rtt_samples = [0.06, 0.3]
    results = [make_result(spec, 4 * MB,
                           per_path={"wifi": wifi, "att": cell})]
    headers, rows = rtt_ccdf_rows(results)
    keys = {(row[0], row[1]) for row in rows}
    assert keys == {("att", "wifi"), ("att", "att")}


def test_ofo_ccdf_rows_report_in_order_percentage():
    spec = FlowSpec.mptcp(carrier="sprint")
    results = [make_result(spec, 4 * MB, ofo=[0.0, 0.0, 0.2, 0.4])]
    headers, rows = ofo_ccdf_rows(results)
    assert rows[0][0] == "sprint"
    assert rows[0][3] == "50.0"


def test_mptcp_rtt_ofo_rows_shape():
    spec = FlowSpec.mptcp(carrier="att")
    wifi = FlowAnalysis(local=("s", 1), remote=("client.wifi", 2))
    wifi.rtt_samples = [0.03]
    cell = FlowAnalysis(local=("s", 1), remote=("client.att", 3))
    cell.rtt_samples = [0.1]
    results = [make_result(spec, 4 * MB, ofo=[0.01],
                           per_path={"wifi": wifi, "att": cell})]
    headers, rows = mptcp_rtt_ofo_rows(results)
    assert rows[0][1] == "ATT"
    assert rows[0][2].startswith("100.0")
    assert rows[0][4].startswith("10.0")


def test_syn_comparison_rows_compute_reduction():
    delayed = FlowSpec.mptcp(carrier="att")
    simultaneous = delayed.with_(simultaneous_syn=True)
    results = [make_result(delayed, 512 * KB, download_time=1.0),
               make_result(simultaneous, 512 * KB, download_time=0.86)]
    headers, rows = syn_comparison_rows(results)
    reduction = [row for row in rows if row[1] == "reduction"]
    assert reduction and reduction[0][3] == "14.0%"


def test_incomplete_runs_are_excluded():
    spec = FlowSpec.mptcp(carrier="att")
    results = [make_result(spec, 64 * KB, completed=False)]
    _, rows = download_time_rows(results)
    assert rows == []
    _, share_rows = traffic_share_rows(results)
    assert share_rows == []
