"""Canned campaigns and row extractors: one per paper table/figure.

Each ``*_campaign`` function builds the measurement matrix of one
evaluation artifact; each ``*_rows`` function turns campaign results
into exactly the rows/series that artifact reports.  The CLI's
artifacts (``repro fig2`` ... ``repro tab6``) run a campaign and
print/export these rows.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.config import FlowSpec
from repro.experiments.runner import Campaign, CampaignSpec, RunResult
from repro.experiments.stats import (
    ccdf_at_fractions,
    five_number,
    mean_stderr,
)
from repro.experiments.report import (
    format_bytes,
    format_mean_stderr,
    format_pct,
)
from repro.wireless.profiles import TimeOfDay

KB = 1024
MB = 1024 * 1024

CARRIERS = ("att", "verizon", "sprint")

#: Reduced period set for quick runs; full campaigns use all four.
QUICK_PERIODS = (TimeOfDay.AFTERNOON,)


# ----------------------------------------------------------------------
# Campaign builders
# ----------------------------------------------------------------------

def baseline_campaign(repetitions: int = 3,
                      periods: Tuple[TimeOfDay, ...] = QUICK_PERIODS,
                      base_seed: int = 2013) -> CampaignSpec:
    """Figures 2/3 and Table 2: every carrier, SP vs MP, 4 sizes."""
    specs: List[FlowSpec] = [FlowSpec.single_path("wifi")]
    for carrier in CARRIERS:
        specs.append(FlowSpec.single_path("cell", carrier=carrier))
    for carrier in CARRIERS:
        specs.append(FlowSpec.mptcp(carrier=carrier, controller="coupled"))
    return CampaignSpec(
        name="baseline", specs=tuple(specs),
        sizes=(64 * KB, 512 * KB, 2 * MB, 16 * MB),
        repetitions=repetitions, periods=periods, base_seed=base_seed)


def small_flows_campaign(repetitions: int = 3,
                         periods: Tuple[TimeOfDay, ...] = QUICK_PERIODS,
                         base_seed: int = 2013) -> CampaignSpec:
    """Figures 4/5 and Table 3: AT&T, all controllers, 2 vs 4 paths."""
    specs: List[FlowSpec] = [
        FlowSpec.single_path("wifi"),
        FlowSpec.single_path("cell", carrier="att"),
    ]
    for paths in (2, 4):
        for controller in ("coupled", "olia", "reno"):
            specs.append(FlowSpec.mptcp(carrier="att",
                                        controller=controller, paths=paths))
    return CampaignSpec(
        name="small-flows", specs=tuple(specs),
        sizes=(8 * KB, 64 * KB, 512 * KB, 4 * MB),
        repetitions=repetitions, periods=periods, base_seed=base_seed)


def coffee_shop_campaign(repetitions: int = 3,
                         periods: Tuple[TimeOfDay, ...] = (
                             TimeOfDay.AFTERNOON,),
                         base_seed: int = 2013) -> CampaignSpec:
    """Figures 6/7 and Table 4: busy public hotspot (no olia, as in
    the paper: 'for the sake of time, we did not measure olia')."""
    specs: List[FlowSpec] = [
        FlowSpec.single_path("wifi", wifi="public"),
        FlowSpec.single_path("cell", carrier="att", wifi="public"),
    ]
    for paths in (2, 4):
        for controller in ("coupled", "reno"):
            specs.append(FlowSpec.mptcp(carrier="att", wifi="public",
                                        controller=controller, paths=paths))
    return CampaignSpec(
        name="coffee-shop", specs=tuple(specs),
        sizes=(8 * KB, 64 * KB, 512 * KB, 4 * MB),
        repetitions=repetitions, periods=periods, base_seed=base_seed)


def simultaneous_syn_campaign(repetitions: int = 6,
                              periods: Tuple[TimeOfDay, ...] = QUICK_PERIODS,
                              base_seed: int = 2013) -> CampaignSpec:
    """Figure 8: delayed vs simultaneous SYN, MP-2 coupled on AT&T."""
    specs = (
        FlowSpec.mptcp(carrier="att", controller="coupled"),
        FlowSpec.mptcp(carrier="att", controller="coupled",
                       simultaneous_syn=True),
    )
    return CampaignSpec(
        name="simultaneous-syn", specs=specs,
        sizes=(64 * KB, 512 * KB, 2 * MB),
        repetitions=repetitions, periods=periods, base_seed=base_seed)


def large_flows_campaign(repetitions: int = 2,
                         periods: Tuple[TimeOfDay, ...] = QUICK_PERIODS,
                         base_seed: int = 2013) -> CampaignSpec:
    """Figures 9/10 and Table 5: 4-32 MB, all controllers, 2/4 paths."""
    specs: List[FlowSpec] = [
        FlowSpec.single_path("wifi"),
        FlowSpec.single_path("cell", carrier="att"),
    ]
    for paths in (2, 4):
        for controller in ("coupled", "olia", "reno"):
            specs.append(FlowSpec.mptcp(carrier="att",
                                        controller=controller, paths=paths))
    return CampaignSpec(
        name="large-flows", specs=tuple(specs),
        sizes=(4 * MB, 8 * MB, 16 * MB, 32 * MB),
        repetitions=repetitions, periods=periods, base_seed=base_seed)


def backlog_campaign(size: int = 32 * MB, repetitions: int = 3,
                     base_seed: int = 2013) -> CampaignSpec:
    """Figure 11: ~infinite backlog, MP-2/MP-4 x coupled/reno.

    The paper transfers 512 MB ("approximate infinite backlog", 10
    iterations); the default here scales to 32 MB so the suite stays
    minutes-scale -- pass ``size=512 * MB`` for the full experiment.
    """
    specs = tuple(
        FlowSpec.mptcp(carrier="att", controller=controller, paths=paths)
        for paths in (2, 4) for controller in ("coupled", "reno"))
    return CampaignSpec(
        name="backlog", specs=specs, sizes=(size,),
        repetitions=repetitions, periods=(TimeOfDay.NIGHT,),
        base_seed=base_seed)


#: Middlebox profiles the fallback study sweeps, from "drops every
#: MPTCP option" down to "only breaks the data-plane mappings".
FALLBACK_PROFILES = ("strip-all", "strip-capable", "strip-join",
                     "strip-dss", "rewrite-seq", "proxy")


def fallback_campaign(repetitions: int = 3,
                      periods: Tuple[TimeOfDay, ...] = QUICK_PERIODS,
                      base_seed: int = 2013,
                      profiles: Tuple[str, ...] = FALLBACK_PROFILES,
                      ) -> CampaignSpec:
    """Middlebox interference: MP-2 behind each interfering box.

    The paper measures MPTCP where it actually worked; RFC 6824's
    fallback machinery exists for the networks where it would not
    have.  This campaign puts each middlebox profile on the WiFi
    access links (the coffee-shop topology of Section 4.3) plus a
    clean control run, so the rows show what each class of
    interference costs relative to undisturbed MPTCP.
    """
    specs: List[FlowSpec] = [FlowSpec.mptcp(carrier="att",
                                            controller="coupled")]
    for profile in profiles:
        # MP_JOIN travels over the *cellular* path (the join targets
        # the second interface), so a join-stripping box only matters
        # there; everything else interferes at the WiFi access links.
        path = "cell" if profile == "strip-join" else "wifi"
        specs.append(FlowSpec.mptcp(carrier="att", controller="coupled",
                                    middlebox=profile,
                                    middlebox_path=path))
    return CampaignSpec(
        name="fallback", specs=tuple(specs),
        sizes=(64 * KB, 512 * KB, 2 * MB),
        repetitions=repetitions, periods=periods, base_seed=base_seed)


#: The scheduler policies the lab sweeps (registry specs; see
#: :mod:`repro.core.scheduler`).  The weighted entry targets the
#: testbed's path names -- note both access slots keep their
#: address-derived names ("wifi"/"att") even under a non-default
#: path pair.
LAB_SCHEDULERS = ("minrtt", "roundrobin", "redundant",
                  "weighted:wifi=2,att=1", "blest", "cheapest", "qoe")

#: Access-network pairs the lab sweeps: the paper's WiFi+LTE testbed
#: and the dual-LTE pair of PATH_PAIRS.
LAB_PATH_PAIRS = ("default", "dual-lte")


def scheduler_lab_campaign(repetitions: int = 2,
                           periods: Tuple[TimeOfDay, ...] = QUICK_PERIODS,
                           base_seed: int = 2013,
                           schedulers: Tuple[str, ...] = LAB_SCHEDULERS,
                           workloads: Optional[Tuple[str, ...]] = None,
                           path_pairs: Tuple[str, ...] = LAB_PATH_PAIRS,
                           ) -> CampaignSpec:
    """Scheduler lab: every policy x workload x path pair, MP-2 coupled.

    The paper fixes the scheduler to minRTT (its Section 2 describes
    the default policy); this campaign asks how much that choice
    matters by sweeping the registry's policies over the workload
    shapes the paper discusses and over two access-network pairs.
    :func:`scheduler_regret_rows` reduces the matrix to regret vs the
    per-(workload, pair) oracle.
    """
    if workloads is None:
        from repro.experiments.workloads import WORKLOADS
        workloads = WORKLOADS
    specs: List[FlowSpec] = []
    for pair in path_pairs:
        for workload in workloads:
            for scheduler in schedulers:
                specs.append(FlowSpec.mptcp(
                    carrier="att", controller="coupled",
                    scheduler=scheduler, workload=workload,
                    path_pair=pair))
    return CampaignSpec(
        name="scheduler-lab", specs=tuple(specs),
        sizes=(512 * KB,),
        repetitions=repetitions, periods=periods, base_seed=base_seed)


#: Background-traffic levels the world campaign sweeps, light to heavy.
WORLD_LEVELS = ("bg-none", "bg-light", "bg-medium", "bg-heavy")


def world_campaign(repetitions: int = 2,
                   periods: Tuple[TimeOfDay, ...] = QUICK_PERIODS,
                   base_seed: int = 2013,
                   worlds: Tuple[str, ...] = WORLD_LEVELS,
                   size: int = 2 * MB) -> CampaignSpec:
    """Shared-bottleneck fairness: foreground vs fluid background.

    The paper measures MPTCP against real cross-traffic on shared
    WiFi/LTE access links; this campaign reproduces that contention
    with the :mod:`repro.world` kernel.  For each background level a
    single-path WiFi flow and an MP-2 flow download the same object
    through the same populated world; :func:`world_fairness_rows`
    reports foreground slowdown and background-population fairness
    side by side.
    """
    specs: List[FlowSpec] = []
    for world in worlds:
        specs.append(FlowSpec.single_path("wifi", world=world))
        specs.append(FlowSpec.mptcp(carrier="att", controller="coupled",
                                    world=world))
    return CampaignSpec(
        name="world", specs=tuple(specs), sizes=(size,),
        repetitions=repetitions, periods=periods, base_seed=base_seed)


#: The bench_ext_handover outage window: WiFi drops at t=2s, returns
#: at t=6s -- long enough to force MP_FAIL handover and SP-WiFi RTO
#: stalls, short enough that every flow can still complete.
SLA_OUTAGE = "outage:down=2,up=6"


def sla_report_campaign(repetitions: int = 2,
                        periods: Tuple[TimeOfDay, ...] = QUICK_PERIODS,
                        base_seed: int = 2013,
                        size: int = 8 * MB) -> CampaignSpec:
    """The ``repro report`` matrix: SLA cohorts with and without a
    mid-transfer WiFi outage.

    Fig. 2-style baselines (SP-WiFi, SP-ATT, MP-2) run undisturbed and
    again through :data:`SLA_OUTAGE`; at 8 MB every transfer is still
    in flight when WiFi drops at t=2s, so the failure cohort exercises
    handover (MP) and RTO stall-and-recover (SP).  Runs execute with
    the metrics registry on; :class:`repro.obs.analytics.AnalyticsStore`
    turns the results into percentile ladders, stall distributions,
    path shares and survival curves.
    """
    specs: List[FlowSpec] = [
        FlowSpec.single_path("wifi"),
        FlowSpec.single_path("cell", carrier="att"),
        FlowSpec.mptcp(carrier="att", controller="coupled"),
        FlowSpec.single_path("wifi", failure=SLA_OUTAGE),
        FlowSpec.mptcp(carrier="att", controller="coupled",
                       failure=SLA_OUTAGE),
    ]
    return CampaignSpec(
        name="sla-report", specs=tuple(specs), sizes=(size,),
        repetitions=repetitions, periods=periods, base_seed=base_seed)


def latency_campaign(repetitions: int = 2,
                     periods: Tuple[TimeOfDay, ...] = QUICK_PERIODS,
                     base_seed: int = 2013) -> CampaignSpec:
    """Figures 12/13 and Table 6: MPTCP RTT / OFO tails, 4-32 MB."""
    specs = tuple(FlowSpec.mptcp(carrier=carrier, controller="coupled")
                  for carrier in CARRIERS)
    return CampaignSpec(
        name="latency", specs=specs,
        sizes=(4 * MB, 8 * MB, 16 * MB, 32 * MB),
        repetitions=repetitions, periods=periods, base_seed=base_seed)


# ----------------------------------------------------------------------
# Row extractors
# ----------------------------------------------------------------------

def _group(results: Iterable[RunResult]
           ) -> Dict[Tuple[FlowSpec, int], List[RunResult]]:
    groups: Dict[Tuple[FlowSpec, int], List[RunResult]] = {}
    for result in results:
        groups.setdefault((result.spec, result.size), []).append(result)
    return groups


def _spec_column_label(spec: FlowSpec) -> str:
    """Disambiguate per-carrier MPTCP columns, like 'MP-ATT'."""
    if spec.mode == "mp":
        return f"MP-{spec.carrier_label}" if spec.paths == 2 else spec.label
    return spec.label


def download_time_rows(results: Sequence[RunResult],
                       label_by_carrier: bool = False
                       ) -> Tuple[List[str], List[List[str]]]:
    """Box-plot figure as rows: one row per (size, config)."""
    groups = _group(results)
    headers = ["size", "config", "n",
               "min", "q1", "median", "q3", "max"]
    rows: List[List[str]] = []
    for (spec, size), bucket in sorted(
            groups.items(), key=lambda item: (item[0][1],
                                              item[0][0].label)):
        times = [result.download_time for result in bucket
                 if result.download_time is not None]
        if not times:
            continue
        summary = five_number(times)
        label = (_spec_column_label(spec) if label_by_carrier
                 else spec.label)
        rows.append([format_bytes(size), label, str(summary.count)]
                    + [f"{value:.3f}" for value in summary.as_tuple()])
    return headers, rows


def traffic_share_rows(results: Sequence[RunResult],
                       label_by_carrier: bool = False
                       ) -> Tuple[List[str], List[List[str]]]:
    """Figures 3/5/7/10: mean cellular fraction per (size, config)."""
    groups = _group(results)
    headers = ["size", "config", "n", "cellular fraction"]
    rows: List[List[str]] = []
    for (spec, size), bucket in sorted(
            groups.items(), key=lambda item: (item[0][1],
                                              item[0][0].label)):
        if spec.mode != "mp":
            continue
        fractions = [result.metrics.cellular_fraction for result in bucket
                     if result.completed]
        if not fractions:
            continue
        mean, stderr = mean_stderr(fractions)
        label = (_spec_column_label(spec) if label_by_carrier
                 else spec.label)
        rows.append([format_bytes(size), label, str(len(fractions)),
                     format_mean_stderr(mean, stderr, digits=3)])
    return headers, rows


def path_characteristics_rows(results: Sequence[RunResult],
                              ) -> Tuple[List[str], List[List[str]]]:
    """Tables 2/3/4/5: per-connection loss % and RTT, SP runs only.

    Loss and RTT are per-connection values (connection loss rate,
    connection mean RTT), summarized mean +- stderr across runs -- the
    tables' stated methodology.
    """
    groups = _group(results)
    headers = ["size", "path", "n", "loss (%)", "RTT (ms)"]
    rows: List[List[str]] = []
    for (spec, size), bucket in sorted(
            groups.items(), key=lambda item: (item[0][1],
                                              item[0][0].label)):
        if spec.mode != "sp":
            continue
        path = "wifi" if spec.interface == "wifi" else spec.carrier
        losses, rtts = [], []
        for result in bucket:
            if not result.completed:
                continue
            analysis = result.metrics.per_path.get(path)
            if analysis is None:
                continue
            losses.append(analysis.loss_rate)
            if analysis.rtt_samples:
                rtts.append(analysis.mean_rtt)
        if not losses:
            continue
        loss_mean, loss_stderr = mean_stderr(losses)
        label = "WiFi" if spec.interface == "wifi" else spec.carrier_label
        loss_text = ("~" if loss_mean < 0.0003 else
                     format_mean_stderr(loss_mean, loss_stderr, scale=100))
        rtt_text = "-"
        if rtts:
            rtt_mean, rtt_stderr = mean_stderr(rtts)
            rtt_text = format_mean_stderr(rtt_mean, rtt_stderr, scale=1000)
        rows.append([format_bytes(size), label, str(len(losses)),
                     loss_text, rtt_text])
    return headers, rows


#: Survival fractions at which the CCDF figures are tabulated.
CCDF_FRACTIONS = (0.9, 0.75, 0.5, 0.25, 0.1, 0.02)


def rtt_ccdf_rows(results: Sequence[RunResult]
                  ) -> Tuple[List[str], List[List[str]]]:
    """Figure 12: packet-RTT CCDF per (carrier path, size), in ms.

    Columns give the RTT below which (1 - fraction) of packets fall,
    i.e. the value at survival probability ``f``.
    """
    headers = (["carrier", "path", "size", "samples"]
               + [f"P>{fraction:g}" for fraction in CCDF_FRACTIONS])
    pooled: Dict[Tuple[str, str, int], List[float]] = {}
    for result in results:
        if result.spec.mode != "mp" or not result.completed:
            continue
        for path in ("wifi", result.spec.carrier):
            samples = result.metrics.rtt_samples(path)
            if samples:
                key = (result.spec.carrier, path, result.size)
                pooled.setdefault(key, []).extend(samples)
    rows: List[List[str]] = []
    for (carrier, path, size), samples in sorted(pooled.items()):
        points = ccdf_at_fractions(samples, CCDF_FRACTIONS)
        rows.append([carrier, path, format_bytes(size), str(len(samples))]
                    + [f"{value * 1000:.1f}" for _, value in points])
    return headers, rows


def ofo_ccdf_rows(results: Sequence[RunResult]
                  ) -> Tuple[List[str], List[List[str]]]:
    """Figure 13: out-of-order delay CCDF per (carrier, size), in ms."""
    headers = (["carrier", "size", "samples", "in-order %"]
               + [f"P>{fraction:g}" for fraction in CCDF_FRACTIONS])
    pooled: Dict[Tuple[str, int], List[float]] = {}
    for result in results:
        if result.spec.mode != "mp" or not result.completed:
            continue
        key = (result.spec.carrier, result.size)
        pooled.setdefault(key, []).extend(result.metrics.ofo_delays)
    rows: List[List[str]] = []
    for (carrier, size), delays in sorted(pooled.items()):
        in_order = sum(1 for delay in delays if delay <= 1e-9)
        points = ccdf_at_fractions(delays, CCDF_FRACTIONS)
        rows.append([carrier, format_bytes(size), str(len(delays)),
                     f"{100 * in_order / len(delays):.1f}"]
                    + [f"{value * 1000:.1f}" for _, value in points])
    return headers, rows


def mptcp_rtt_ofo_rows(results: Sequence[RunResult]
                       ) -> Tuple[List[str], List[List[str]]]:
    """Table 6: MPTCP per-path RTT and OFO delay, mean +- stderr."""
    headers = ["size", "carrier", "path RTT (ms)", "WiFi RTT (ms)",
               "OFO (ms)"]
    groups = _group(results)
    rows: List[List[str]] = []
    for (spec, size), bucket in sorted(
            groups.items(), key=lambda item: (item[0][1],
                                              item[0][0].carrier)):
        if spec.mode != "mp":
            continue
        cell_rtts, wifi_rtts, ofo_means = [], [], []
        for result in bucket:
            if not result.completed:
                continue
            cell_samples = result.metrics.rtt_samples(spec.carrier)
            if cell_samples:
                cell_rtts.append(sum(cell_samples) / len(cell_samples))
            wifi_samples = result.metrics.rtt_samples("wifi")
            if wifi_samples:
                wifi_rtts.append(sum(wifi_samples) / len(wifi_samples))
            if result.metrics.ofo_delays:
                ofo_means.append(sum(result.metrics.ofo_delays)
                                 / len(result.metrics.ofo_delays))
        def text(values: List[float]) -> str:
            if not values:
                return "-"
            mean, stderr = mean_stderr(values)
            return format_mean_stderr(mean, stderr, scale=1000, digits=1)
        rows.append([format_bytes(size), spec.carrier_label,
                     text(cell_rtts), text(wifi_rtts), text(ofo_means)])
    return headers, rows


def fallback_rows(results: Sequence[RunResult]
                  ) -> Tuple[List[str], List[List[str]]]:
    """Fallback study: completion, fallback rate, and goodput per
    (size, middlebox profile).

    ``fallback rate`` is the fraction of connections that abandoned
    MPTCP (plain-TCP fallback or infinite mapping); ``goodput`` is the
    application-level mean over completed runs.  A profile that breaks
    MPTCP must still show 100% completion — that is the whole point of
    RFC 6824 Section 3.6.
    """
    groups = _group(results)
    headers = ["size", "middlebox", "n", "completed", "fallback rate",
               "plain", "infinite", "mean time (s)", "goodput (Mbit/s)"]
    rows: List[List[str]] = []
    for (spec, size), bucket in sorted(
            groups.items(), key=lambda item: (item[0][1],
                                              item[0][0].middlebox)):
        if spec.mode != "mp":
            continue
        modes = [result.metrics.fallback for result in bucket]
        plain = sum(1 for mode in modes if mode == "plain")
        infinite = sum(1 for mode in modes if mode == "infinite")
        completed = sum(1 for result in bucket if result.completed)
        times = [result.download_time for result in bucket
                 if result.download_time is not None]
        time_text = goodput_text = "-"
        if times:
            mean_time = sum(times) / len(times)
            time_text = f"{mean_time:.3f}"
            goodput = sum(size * 8 / time for time in times) / len(times)
            goodput_text = f"{goodput / 1e6:.3f}"
        rows.append([format_bytes(size), spec.middlebox, str(len(bucket)),
                     f"{completed / len(bucket):.2f}",
                     f"{(plain + infinite) / len(bucket):.2f}",
                     str(plain), str(infinite), time_text, goodput_text])
    return headers, rows


def scheduler_regret_rows(results: Sequence[RunResult]
                          ) -> Tuple[List[str], List[List[str]]]:
    """Scheduler lab: per-policy regret vs the per-cell oracle.

    Every (workload, path pair) cell defines an *oracle*: the lowest
    mean quality metric any swept scheduler achieved there (download
    time, page-load time, mean block time or mean frame latency --
    lower is always better).  A policy's regret is how far above the
    oracle its own mean lands, as a percentage; the oracle row itself
    shows 0.0.  ``completion`` is the fraction of runs that finished,
    reported separately because an incomplete run contributes no
    metric sample.
    """
    headers = ["workload", "path pair", "scheduler", "n",
               "mean metric (s)", "oracle (s)", "regret (%)",
               "completion"]
    cells: Dict[Tuple[str, str], Dict[str, List[RunResult]]] = {}
    for result in results:
        spec = result.spec
        if spec.mode != "mp":
            continue
        cell = cells.setdefault((spec.workload, spec.path_pair), {})
        cell.setdefault(spec.scheduler, []).append(result)
    rows: List[List[str]] = []
    for (workload, pair), by_scheduler in sorted(cells.items()):
        means: Dict[str, float] = {}
        for scheduler, bucket in by_scheduler.items():
            times = [result.download_time for result in bucket
                     if result.download_time is not None]
            if times:
                means[scheduler] = sum(times) / len(times)
        oracle = min(means.values()) if means else None
        for scheduler, bucket in sorted(by_scheduler.items()):
            completed = sum(1 for result in bucket if result.completed)
            completion = f"{completed / len(bucket):.2f}"
            mean = means.get(scheduler)
            if mean is None or oracle is None:
                rows.append([workload, pair, scheduler, "0",
                             "-", "-", "-", completion])
                continue
            regret = mean / oracle - 1.0
            count = sum(1 for result in bucket
                        if result.download_time is not None)
            rows.append([workload, pair, scheduler, str(count),
                         f"{mean:.3f}", f"{oracle:.3f}",
                         f"{100 * regret:.1f}", completion])
    return headers, rows


def world_fairness_rows(results: Sequence[RunResult]
                        ) -> Tuple[List[str], List[List[str]]]:
    """Shared-bottleneck fairness: foreground cost of a busy world.

    One row per (world, config): the foreground download time against
    the background population it shared the access links with --
    completed flows, aggregate goodput, mean flow-completion time,
    peak concurrency, and Jain's fairness index over per-flow
    throughput.  Slowdown is each config's mean download time over its
    own ``bg-none`` mean, isolating contention from protocol effects.
    """
    headers = ["world", "config", "n", "download time (s)", "slowdown",
               "bg flows", "bg goodput (Mbit/s)", "bg mean fct (s)",
               "peak bg", "jain"]
    cells: Dict[Tuple[str, str], List[RunResult]] = {}
    for result in results:
        cells.setdefault((result.spec.world, result.spec.label),
                         []).append(result)
    baselines: Dict[str, float] = {}
    for (world, label), bucket in cells.items():
        if world != "bg-none":
            continue
        times = [result.download_time for result in bucket
                 if result.download_time is not None]
        if times:
            baselines[label] = sum(times) / len(times)
    rows: List[List[str]] = []
    for (world, label), bucket in sorted(cells.items()):
        times = [result.download_time for result in bucket
                 if result.download_time is not None]
        mean = sum(times) / len(times) if times else None
        baseline = baselines.get(label)
        if mean is None:
            time_text, slowdown = "-", "-"
        else:
            time_text = f"{mean:.3f}"
            slowdown = (f"{mean / baseline:.2f}x"
                        if baseline else "-")
        worlds = [result.world for result in bucket
                  if result.world is not None]
        if worlds:
            count = len(worlds)
            flows = sum(w["flows_completed"] for w in worlds) / count
            goodput = sum(w["bg_goodput_bps"] for w in worlds) / count
            fct = sum(w["mean_fct"] for w in worlds) / count
            peak = max(w["peak_concurrent"] for w in worlds)
            jain = sum(w["jain"] for w in worlds) / count
            tail = [f"{flows:.1f}", f"{goodput / 1e6:.3f}",
                    f"{fct:.3f}", str(peak), f"{jain:.3f}"]
        else:
            tail = ["-", "-", "-", "-", "-"]
        rows.append([world, label, str(len(bucket)), time_text,
                     slowdown] + tail)
    return headers, rows


def download_time_plot(results: Sequence[RunResult],
                       label_by_carrier: bool = False) -> str:
    """ASCII box plots of download times, one chart per file size."""
    from repro.experiments.plots import boxplot_from_samples
    groups = _group(results)
    by_size: Dict[int, List[Tuple[str, List[float]]]] = {}
    for (spec, size), bucket in sorted(
            groups.items(), key=lambda item: (item[0][1],
                                              item[0][0].label)):
        times = [result.download_time for result in bucket
                 if result.download_time is not None]
        if not times:
            continue
        label = (_spec_column_label(spec) if label_by_carrier
                 else spec.label)
        by_size.setdefault(size, []).append((label, times))
    sections = []
    for size, labelled in sorted(by_size.items()):
        sections.append(f"--- {format_bytes(size)} ---")
        sections.append(boxplot_from_samples(labelled))
    return "\n".join(sections)


def rtt_ccdf_plot(results: Sequence[RunResult],
                  size: Optional[int] = None) -> str:
    """ASCII CCDF chart of packet RTTs (ms) per carrier path."""
    from repro.experiments.plots import render_ccdf
    from repro.experiments.stats import ccdf
    pooled: Dict[str, List[float]] = {}
    sizes = {result.size for result in results if result.completed}
    target = size if size is not None else max(sizes, default=0)
    for result in results:
        if (result.spec.mode != "mp" or not result.completed
                or result.size != target):
            continue
        for path in ("wifi", result.spec.carrier):
            samples = result.metrics.rtt_samples(path)
            if samples:
                pooled.setdefault(path, []).extend(
                    [value * 1000 for value in samples])
    series = {label: ccdf(samples) for label, samples in pooled.items()}
    title = f"packet RTT CCDF at {format_bytes(target)}"
    return f"{title}\n{render_ccdf(series)}"


def ofo_ccdf_plot(results: Sequence[RunResult],
                  size: Optional[int] = None) -> str:
    """ASCII CCDF chart of OFO delays (ms) per carrier."""
    from repro.experiments.plots import render_ccdf
    from repro.experiments.stats import ccdf
    pooled: Dict[str, List[float]] = {}
    sizes = {result.size for result in results if result.completed}
    target = size if size is not None else max(sizes, default=0)
    for result in results:
        if (result.spec.mode != "mp" or not result.completed
                or result.size != target):
            continue
        delays = [value * 1000 for value in result.metrics.ofo_delays
                  if value > 0]
        if delays:
            pooled.setdefault(result.spec.carrier, []).extend(delays)
    series = {label: ccdf(samples) for label, samples in pooled.items()}
    title = f"out-of-order delay CCDF at {format_bytes(target)} (>0 only)"
    return f"{title}\n{render_ccdf(series)}"


def syn_comparison_rows(results: Sequence[RunResult]
                        ) -> Tuple[List[str], List[List[str]]]:
    """Figure 8: mean download time, delayed vs simultaneous SYN."""
    groups = _group(results)
    headers = ["size", "mode", "n", "mean (s)", "stderr (s)"]
    by_size: Dict[int, Dict[bool, Tuple[float, float, int]]] = {}
    rows: List[List[str]] = []
    for (spec, size), bucket in sorted(
            groups.items(),
            key=lambda item: (item[0][1], item[0][0].simultaneous_syn)):
        times = [result.download_time for result in bucket
                 if result.download_time is not None]
        if not times:
            continue
        mean, stderr = mean_stderr(times)
        by_size.setdefault(size, {})[spec.simultaneous_syn] = (
            mean, stderr, len(times))
        mode = "simultaneous" if spec.simultaneous_syn else "delayed"
        rows.append([format_bytes(size), mode, str(len(times)),
                     f"{mean:.3f}", f"{stderr:.3f}"])
    for size, modes in sorted(by_size.items()):
        if True in modes and False in modes:
            delayed_mean = modes[False][0]
            simultaneous_mean = modes[True][0]
            if delayed_mean > 0:
                gain = 1.0 - simultaneous_mean / delayed_mean
                rows.append([format_bytes(size), "reduction", "",
                             format_pct(gain, digits=1) + "%", ""])
    return headers, rows
