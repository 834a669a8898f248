"""Command-line interface: regenerate any paper artifact.

Examples::

    repro list                  # what can be regenerated
    repro fig2 --reps 3         # Figure 2 rows to stdout
    repro tab6 --csv out/       # Table 6, also exported as CSV
    repro fig11 --full          # the true 512 MB backlog experiment
    repro all --reps 1          # everything, quick pass
    repro fig2 --jobs 4         # fan runs out over 4 worker processes
    repro fig9 --jobs 0 --resume fig9.journal
                                # all cores; interrupt + re-run resumes

Each command runs the corresponding measurement campaign (fresh
simulations -- expect seconds to minutes depending on repetitions),
prints the same rows/series the paper reports, and grades the
artifact's rows of the claims table (exit 1 when one fails).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.experiments.report import render_table, write_csv
from repro.experiments.runner import Campaign, CampaignSpec, RunResult
from repro.experiments import scenarios
from repro.wireless.profiles import TimeOfDay

RowBuilder = Callable[[List[RunResult]], Tuple[List[str], List[List[str]]]]


class Artifact(NamedTuple):
    """One regenerable table/figure: a campaign plus row extractors."""

    name: str
    title: str
    campaign: Callable[..., CampaignSpec]
    rows: Dict[str, RowBuilder]
    plot: Optional[Callable[[List[RunResult]], str]] = None


def _artifacts() -> Dict[str, Artifact]:
    s = scenarios
    times = {"download time": s.download_time_rows}
    shares = {"cellular share": s.traffic_share_rows}
    paths = {"path characteristics": s.path_characteristics_rows}
    # Per-carrier MPTCP columns, and each study's varied knob.
    by_config = {"download time": lambda r: s.download_time_rows(
        r, label_by_carrier=True)}
    artifacts = [Artifact(*entry) for entry in (
        ("fig2", "Figure 2: baseline download times", s.baseline_campaign,
         by_config, lambda r: s.download_time_plot(r, label_by_carrier=True)),
        ("fig3", "Figure 3: baseline cellular traffic share",
         s.baseline_campaign, {"cellular share": lambda r: (
             s.traffic_share_rows(r, label_by_carrier=True))}),
        ("tab2", "Table 2: baseline path characteristics",
         s.baseline_campaign, paths),
        ("fig4", "Figure 4: small-flow download times",
         s.small_flows_campaign, times, s.download_time_plot),
        ("fig5", "Figure 5: small-flow cellular share",
         s.small_flows_campaign, shares),
        ("tab3", "Table 3: small-flow path characteristics",
         s.small_flows_campaign, paths),
        ("fig6", "Figure 6: coffee-shop download times",
         s.coffee_shop_campaign, times),
        ("fig7", "Figure 7: coffee-shop cellular share",
         s.coffee_shop_campaign, shares),
        ("tab4", "Table 4: coffee-shop path characteristics",
         s.coffee_shop_campaign, paths),
        ("fig8", "Figure 8: simultaneous vs delayed SYN",
         s.simultaneous_syn_campaign,
         {"download time": s.syn_comparison_rows}),
        ("fig9", "Figure 9: large-flow download times",
         s.large_flows_campaign, times, s.download_time_plot),
        ("fig10", "Figure 10: large-flow cellular share",
         s.large_flows_campaign, shares),
        ("tab5", "Table 5: large-flow path characteristics",
         s.large_flows_campaign, paths),
        ("fig11", "Figure 11: ~infinite backlog", s.backlog_campaign, times),
        ("fig12", "Figure 12: packet RTT CCDFs", s.latency_campaign,
         {"rtt ccdf": s.rtt_ccdf_rows}, s.rtt_ccdf_plot),
        ("fig13", "Figure 13: out-of-order delay CCDFs", s.latency_campaign,
         {"ofo ccdf": s.ofo_ccdf_rows}, s.ofo_ccdf_plot),
        ("tab6", "Table 6: MPTCP RTT and OFO delay", s.latency_campaign,
         {"rtt and ofo": s.mptcp_rtt_ofo_rows}),
        ("sched", "Scheduler lab: policy regret vs oracle",
         s.scheduler_lab_campaign,
         {"scheduler regret": s.scheduler_regret_rows}),
        ("world", "Shared-bottleneck fairness vs background load",
         s.world_campaign, {"world fairness": s.world_fairness_rows}),
        # The ablation and extension studies.
        ("abl_rcvbuf", "Ablation: shared receive buffer size (MP-Sprint, "
         "4 MB)", s.rcvbuf_campaign, by_config),
        ("abl_ssthresh", "Ablation: initial ssthresh (SP-Verizon, 8 MB)",
         s.ssthresh_campaign, paths),
        ("abl_penalty", "Ablation: subflow penalization (8 MB buffer)",
         s.penalty_campaign, by_config),
        ("ext_crossover", "Extension: the WiFi/LTE crossover and MPTCP's "
         "win", s.crossover_campaign, by_config),
        ("ext_fallback", "Extension: middlebox interference and fallback",
         s.fallback_campaign, {"fallback": s.fallback_rows}),
        ("ext_handover", "Extension: 8 MB download through a WiFi outage",
         s.handover_campaign, by_config),
        ("ext_realtime", "Extension: interactive frames over a loaded "
         "hotspot (time: mean frame latency)", s.realtime_campaign,
         by_config))]
    return {artifact.name: artifact for artifact in artifacts}


def _build_campaign(artifact: Artifact, args: argparse.Namespace
                    ) -> CampaignSpec:
    kwargs = {"base_seed": args.seed}
    if artifact.name == "fig11":
        if args.full:
            kwargs["size"] = 512 * scenarios.MB
    else:
        kwargs["periods"] = (tuple(TimeOfDay) if args.full
                             else scenarios.QUICK_PERIODS)
    return artifact.campaign(repetitions=args.reps, **kwargs)


def _render_instrumentation(instrumentation) -> str:
    """Worker phase timers/counters aggregated across all processes
    (cProfile only sees the parent; this is the measurement-side view)."""
    report = instrumentation.report()
    if not report.get("phases_s") and not report.get("counters"):
        return "no worker instrumentation collected"
    lines = ["measurement phases (all workers):"]
    for name, seconds in sorted(report.get("phases_s", {}).items()):
        lines.append(f"  {name:10s} {seconds:10.3f}s")
    counters = report.get("counters", {})
    if counters:
        lines.append("engine counters (all workers):")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:18s} {value:,.0f}")
    if "events_per_sec" in report:
        lines.append(f"events/sec (simulate): {report['events_per_sec']:,}")
    return "\n".join(lines)


class _open_cache:
    """The CLI's shared cache session: one :class:`RunCache` and one
    :class:`CostModel` spanning every campaign of the invocation
    (``--no-cache`` yields a null session; the cost model survives
    either way so dispatch still learns across campaigns)."""

    def __init__(self, args: argparse.Namespace) -> None:
        from repro.cache import CostModel, RunCache
        self.store = None if args.no_cache else RunCache(args.cache)
        #: The ``execute_plan`` keywords every campaign shares.
        self.execution = dict(
            jobs=args.jobs, journal=args.resume, cache=self.store,
            cost_model=CostModel(), chunk=args.chunk, backend=args.backend,
            hosts=(tuple(args.hosts) if args.hosts else None),
            bind=args.bind, lease_timeout=args.lease_timeout,
            worker_cache=args.worker_cache)

    def __enter__(self) -> "_open_cache":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.store is not None:
            self.store.close()


def _export_csv(args: argparse.Namespace, stem: str, headers: List[str],
                rows: List[List[str]]) -> None:
    """``--csv DIR``: write one table to ``DIR/<stem>.csv``."""
    if args.csv:
        path = Path(args.csv) / f"{stem}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        write_csv(path, headers, rows)
        print(f"wrote {path}")


def _grade_artifact(artifact: Artifact, spec: CampaignSpec,
                    results: List[RunResult]) -> bool:
    """Print the grades of the claim rows stated on this campaign's
    cells (``fig11 --full`` runs none of its 32 MB cells); ``False``
    when a gated one fails."""
    from repro.experiments.scorecard import CLAIMS, grade_claims, \
        render_grades
    cells = {(flow, size) for flow in spec.specs for size in spec.sizes}
    claims = [claim for claim in CLAIMS if claim.artifact == artifact.name
              and all((flow, size) in cells
                      for _, flow, size in claim.quantities.values())]
    if not claims:
        return True
    graded = grade_claims(claims, (), results)
    print(render_grades(graded))
    print()
    return all(result.status != "FAIL" for result in graded)


def _run_artifact(artifact: Artifact, args: argparse.Namespace,
                  session: _open_cache) -> bool:
    """Run one artifact's campaign, print (and export) its tables, and
    grade its claim rows: ``False`` when one fails."""
    spec = _build_campaign(artifact, args)
    total = spec.total_runs()
    print(f"\n{artifact.title}")
    print(f"running {total} measurements "
          f"({len(spec.specs)} configs x {len(spec.sizes)} sizes x "
          f"{spec.repetitions} reps x {len(spec.periods)} periods)...",
          flush=True)
    started = time.time()

    # Observability plumbing: one output directory holds per-run
    # traces, flight-recorder dumps, the run log and heartbeats.
    obs_dir = None
    if args.trace != "off" or args.progress or args.trace_out:
        obs_dir = Path(args.trace_out or f"obs-{artifact.name}")
        obs_dir.mkdir(parents=True, exist_ok=True)
    run_log = str(obs_dir / "run_log.jsonl") if obs_dir else None
    trace_dir = str(obs_dir) if args.trace != "off" else None
    heartbeat_dir = str(obs_dir / "heartbeats") if args.progress else None

    renderer = None
    if heartbeat_dir is not None:
        from repro.obs.telemetry import ProgressRenderer
        renderer = ProgressRenderer(heartbeat_dir, total)

    def progress(index, count, result):
        if renderer is not None:
            renderer.note_done(index)
        if args.verbose:
            status = "ok" if result.completed else "INCOMPLETE"
            print(f"  [{index}/{count}] {result.spec.label} "
                  f"{result.size} B: {status}", flush=True)

    instrumentation = None
    if args.profile:
        from repro.perf import Instrumentation
        instrumentation = Instrumentation()

    cache = session.store
    hits_before = cache.hits if cache is not None else 0
    campaign = Campaign(spec, progress=progress,
                        trace=args.trace, trace_dir=trace_dir,
                        run_log=run_log, heartbeat_dir=heartbeat_dir,
                        instrumentation=instrumentation,
                        **session.execution)
    if renderer is not None:
        renderer.start()
    try:
        if args.profile:
            from repro.perf import profile_to, render_profile
            with profile_to(args.profile):
                results = campaign.run()
            print(f"profile written to {args.profile}")
            print(render_profile(args.profile))
            print(_render_instrumentation(instrumentation))
        else:
            results = campaign.run()
    finally:
        if renderer is not None:
            renderer.stop()
    if run_log is not None:
        print(f"run log: {run_log}")
    elapsed = time.time() - started
    cache_note = ""
    if cache is not None:
        hits = cache.hits - hits_before
        if hits:
            cache_note = f", {hits}/{total} from run cache"
    print(f"done in {elapsed:.1f}s "
          f"({campaign.completed_fraction():.0%} completed{cache_note})\n")
    for label, builder in artifact.rows.items():
        headers, rows = builder(results)
        print(render_table(headers, rows, title=label))
        print()
        _export_csv(args, f"{artifact.name}_{label.replace(' ', '_')}",
                    headers, rows)
    passed = _grade_artifact(artifact, spec, results)
    if args.plot and artifact.plot is not None:
        print(artifact.plot(results))
        print()
    if args.save:
        from repro.experiments.storage import save_results
        written = save_results(args.save, results, append=True)
        print(f"appended {written} results to {args.save}")
    return passed


def _report_cell(value) -> str:
    """Stable cell text for SLA tables: the determinism guard pins the
    CSV digest, so formatting must never drift."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


def _report_tables(store) -> List[Tuple[str, List[str], List[List[str]]]]:
    """Render the analytics queries as (name, headers, rows) triples —
    shared by ``repro report`` and the determinism guard."""
    sla_headers = ["label", "failure", "size", "n", "p50", "p90", "p99",
                   "p999", "stalled", "p99_stall_s", "crossed_failure",
                   "survived_failure"]
    sla_rows = [[_report_cell(row[name]) for name in sla_headers]
                for row in store.sla_table()]
    share_headers = ["label", "failure", "size", "path", "n", "mean_share"]
    share_rows = [[_report_cell(row[name]) for name in share_headers]
                  for row in store.path_shares()]
    survival_rows = [[_report_cell(t), _report_cell(s)]
                     for t, s in store.survival_curve().to_rows()]
    return [
        ("sla", sla_headers, sla_rows),
        ("path_shares", share_headers, share_rows),
        ("survival", ["t_after_failure_s", "fraction_still_transferring"],
         survival_rows),
    ]


def _run_report(args: argparse.Namespace, session: _open_cache) -> None:
    """The ``repro report`` artifact: run the SLA campaign with the
    metrics registry on, ingest everything into an analytics database,
    and render/export the SLA tables."""
    from repro.experiments.storage import save_results
    from repro.obs.analytics import AnalyticsStore

    out_dir = Path(args.trace_out or "obs-report")
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = scenarios.sla_report_campaign(
        repetitions=args.reps,
        periods=(tuple(TimeOfDay) if args.full
                 else scenarios.QUICK_PERIODS),
        base_seed=args.seed)
    total = spec.total_runs()
    print("\nSLA report: percentile ladders, stalls and failure survival")
    print(f"running {total} measurements with metrics on...", flush=True)
    started = time.time()
    run_log = str(out_dir / "run_log.jsonl")
    campaign = Campaign(spec, trace=args.trace,
                        trace_dir=(str(out_dir) if args.trace != "off"
                                   else None),
                        run_log=run_log, metrics="on",
                        **session.execution)
    results = campaign.run()
    save_results(out_dir / "report-results.jsonl", results)
    print(f"done in {time.time() - started:.1f}s "
          f"({campaign.completed_fraction():.0%} completed)\n")

    db_path = out_dir / "analytics.sqlite"
    with AnalyticsStore(str(db_path)) as store:
        counts = store.ingest_directory(str(out_dir))
        tables = _report_tables(store)
    print(f"analytics db: {db_path} "
          f"({counts['results']} results, "
          f"{counts['run_log_records']} run-log records)")
    for name, headers, rows in tables:
        print()
        print(render_table(headers, rows, title=name.replace("_", " ")))
        path = out_dir / f"report_{name}.csv"
        write_csv(path, headers, rows)
        print(f"wrote {path}")


def _worker_main(argv: List[str]) -> int:
    """``repro worker``: the distributed-campaign worker daemon.

    Connects to a coordinator (``repro <artifact> --backend tcp`` or
    any multi-worker ``execute_plan``), leases campaign cells, runs
    them through the one cell runner, and publishes content-addressed
    result objects back — skipping anything the coordinator already
    has.  Exits 0 when the coordinator's plan drains.
    """
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description="Lease and execute campaign cells from a "
                    "campaign coordinator.")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator endpoint to lease work from")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run N worker loops, each in its own "
                             "process and leasing on its own (0 = one "
                             "per available core, CPU-affinity aware; "
                             "default 1)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="worker-local run cache: leased cells "
                             "already stored there are served (and "
                             "offered to the coordinator by digest) "
                             "without re-execution")
    parser.add_argument("--label", metavar="NAME", default=None,
                        help="worker label in the coordinator's run "
                             "log and heartbeats (default: "
                             "hostname-pid)")
    parser.add_argument("--retry-s", type=float, default=10.0,
                        metavar="S",
                        help="keep retrying the initial connection for "
                             "S seconds (an ssh-spawned worker can "
                             "beat the coordinator's listener; "
                             "default 10)")
    args = parser.parse_args(argv)
    from repro.experiments.distributed import run_worker
    return run_worker(args.connect, jobs=args.jobs,
                      cache_dir=args.cache, label=args.label,
                      retry_s=args.retry_s)


def _cache_main(argv: List[str]) -> int:
    """``repro cache``: maintenance commands for the run-cache store."""
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect and maintain the content-addressed run "
                    "cache.")
    parser.add_argument("command", choices=["gc", "stats"],
                        help="gc prunes orphaned temp files, "
                             "unreferenced objects and (with "
                             "--older-than) stale entries; stats "
                             "prints entry counts")
    parser.add_argument("--cache", metavar="DIR", default=".repro-cache",
                        help="cache directory (default .repro-cache)")
    parser.add_argument("--dry-run", action="store_true",
                        help="report what gc would remove without "
                             "touching the store")
    parser.add_argument("--older-than", type=float, default=None,
                        metavar="DAYS",
                        help="also prune entries whose objects were "
                             "written more than DAYS days ago "
                             "(removed from the index too)")
    args = parser.parse_args(argv)
    from repro.cache import RunCache
    with RunCache(args.cache) as store:
        if args.command == "stats":
            stats = store.stats()
            print(f"run cache {args.cache}: {stats['entries']} entries")
            return 0
        older_than_s = (args.older_than * 86400.0
                        if args.older_than is not None else None)
        stats = store.gc(dry_run=args.dry_run,
                         older_than_s=older_than_s)
    verb = "would remove" if args.dry_run else "removed"
    print(f"run cache {args.cache}: {verb} "
          f"{stats['tmp_files']} temp file(s), "
          f"{stats['unreferenced_objects']} unreferenced object(s), "
          f"{stats['stale_entries']} stale entr(ies), "
          f"{stats['dangling_index_lines']} dangling index line(s) "
          f"({stats['bytes_reclaimed']} bytes); "
          f"{stats['entries_kept']} entries kept")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Output piped into `head` etc.; exit quietly like any CLI tool.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return 0


def _main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Subcommand routing ahead of the artifact parser: `repro worker`
    # and `repro cache` have their own flag sets and never run a
    # campaign themselves.
    if argv and argv[0] == "worker":
        return _worker_main(argv[1:])
    if argv and argv[0] == "cache":
        return _cache_main(argv[1:])
    artifacts = _artifacts()
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Regenerate the tables and figures of 'A "
                     "Measurement-based Study of MultiPath TCP "
                     "Performance over Wireless Networks' (IMC 2013) "
                     "from the packet-level simulation."))
    parser.add_argument("artifact",
                        choices=sorted(artifacts) + ["all", "list",
                                                     "report",
                                                     "scorecard",
                                                     "validate",
                                                     "run-campaign"],
                        help="which table/figure to regenerate; "
                             "'report' runs the SLA campaign and "
                             "renders analytics tables, "
                             "'scorecard' grades the claims, "
                             "'validate' cross-checks traces against "
                             "protocol internals, 'run-campaign' runs "
                             "a JSON campaign definition (--file)")
    parser.add_argument("--file", metavar="JSON",
                        help="campaign definition for run-campaign")
    parser.add_argument("--reps", type=int, default=2,
                        help="repetitions per configuration cell "
                             "(paper: 20 per period; default: 2)")
    parser.add_argument("--full", action="store_true",
                        help="full experiment: all four day periods; "
                             "512 MB objects for fig11")
    parser.add_argument("--seed", type=int, default=2013,
                        help="campaign base seed (default 2013)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run measurements across N worker "
                             "processes (0 = one per CPU core); "
                             "results are bit-identical to a serial "
                             "run (default 1)")
    parser.add_argument("--resume", metavar="FILE",
                        help="journal completed runs to FILE and, on "
                             "re-invocation, skip cells already "
                             "recorded there instead of recomputing")
    parser.add_argument("--cache", metavar="DIR", default=".repro-cache",
                        help="cross-campaign run cache directory: "
                             "completed cells are stored keyed by "
                             "(config, size, seed, period, format "
                             "version) and restored by any later "
                             "campaign that needs the identical cell "
                             "— results stay byte-identical (default: "
                             ".repro-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the run cache: recompute every "
                             "cell even if a stored result exists")
    parser.add_argument("--backend", default="pool",
                        choices=["pool", "subprocess", "ssh", "tcp"],
                        help="how workers are spawned once --jobs > 1 "
                             "(every backend leases cells from the "
                             "same coordinator): 'pool' forks --jobs "
                             "local worker processes (default); "
                             "'subprocess' launches --jobs local "
                             "`repro worker` commands; 'ssh' launches "
                             "one `repro worker` per --hosts entry; "
                             "'tcp' spawns none and waits for workers "
                             "started by hand (`repro worker --connect "
                             "HOST:PORT`). All backends produce "
                             "byte-identical results")
    parser.add_argument("--hosts", metavar="HOST", nargs="+",
                        default=None,
                        help="ssh backend: hosts to spawn one worker "
                             "on each (passwordless ssh; `repro` must "
                             "be on the remote PATH)")
    parser.add_argument("--bind", metavar="HOST:PORT",
                        default="127.0.0.1:0",
                        help="coordinator listen address (port 0 "
                             "picks a free port; default 127.0.0.1:0 "
                             "— use 0.0.0.0:PORT for ssh/tcp workers "
                             "on other hosts)")
    parser.add_argument("--lease-timeout", type=float, default=60.0,
                        metavar="S",
                        help="reassign a worker's leased cells after "
                             "S seconds without a renewal; a worker "
                             "whose connection drops is failed over "
                             "at once (default 60)")
    parser.add_argument("--worker-cache", metavar="DIR", default=None,
                        help="run cache directory opened by each "
                             "spawned worker, on its own host (warm "
                             "cells are served by digest without "
                             "re-execution)")
    parser.add_argument("--chunk", type=int, default=4, metavar="N",
                        help="batch up to N tiny cells per lease to "
                             "amortize the per-lease round trips "
                             "(expensive cells always travel alone; "
                             "1 disables batching; default 4)")
    parser.add_argument("--csv", metavar="DIR",
                        help="also export rows as CSV into DIR")
    parser.add_argument("--plot", action="store_true",
                        help="render ASCII box plots / CCDF charts")
    parser.add_argument("--save", metavar="FILE",
                        help="append raw results as JSON lines to FILE")
    parser.add_argument("--profile", metavar="FILE",
                        help="run under cProfile and dump pstats "
                             "data to FILE (printed top functions, "
                             "inspectable later with python -m pstats); "
                             "under --jobs N, on every backend, worker "
                             "phase timers and engine counters travel "
                             "back with the results and are aggregated "
                             "into the parent's summary")
    parser.add_argument("--trace", choices=["off", "ring", "jsonl"],
                        default="off",
                        help="protocol-event tracing per run: 'ring' "
                             "keeps an in-memory flight recorder "
                             "(dumped to --trace-out when a run "
                             "raises), 'jsonl' streams every event to "
                             "a per-run file under --trace-out "
                             "(default: off; tracing never changes "
                             "results)")
    parser.add_argument("--trace-out", metavar="DIR",
                        help="directory for observability output: "
                             "per-run traces, flight-recorder dumps "
                             "and the campaign run_log.jsonl "
                             "(default: obs-<artifact>)")
    parser.add_argument("--progress", action="store_true",
                        help="render live per-worker heartbeats "
                             "(runs done, events/sec, current config, "
                             "ETA) while the campaign executes")
    parser.add_argument("--verbose", action="store_true",
                        help="print per-measurement progress")
    args = parser.parse_args(argv)

    if args.resume:
        directory = Path(args.resume).resolve().parent
        if not directory.is_dir():
            parser.error(f"--resume: directory {directory} does not exist")
    if args.artifact == "list":
        for name in sorted(artifacts):
            print(f"{name:13s} {artifacts[name].title}")
        print("report        SLA tables + survival curves from metrics")
        print("scorecard     grade every headline claim (PASS/FAIL)")
        print("validate      cross-check traces vs protocol internals")
        print("run-campaign  run a JSON campaign definition (--file)")
        return 0
    if args.artifact == "report":
        with _open_cache(args) as session:
            _run_report(args, session)
        return 0
    if args.artifact == "run-campaign":
        if not args.file:
            parser.error("run-campaign requires --file JSON")
        from repro.experiments.campaign_file import load_campaign
        spec = load_campaign(args.file)
        artifact = Artifact(
            spec.name, f"Custom campaign: {spec.name}",
            lambda **kwargs: spec,
            {"download time": scenarios.download_time_rows,
             "cellular share": scenarios.traffic_share_rows},
            plot=scenarios.download_time_plot)
        with _open_cache(args) as session:
            return 0 if _run_artifact(artifact, args, session) else 1
    if args.artifact == "scorecard":
        from repro.experiments.scorecard import render_scorecard, \
            run_scorecard, scorecard_rows
        seeds = tuple(range(args.seed, args.seed + max(args.reps, 3)))
        with _open_cache(args) as session:
            results = run_scorecard(seeds=seeds, **session.execution)
        print(render_scorecard(results))
        _export_csv(args, "scorecard", *scorecard_rows(results))
        return 0 if all(result.passed for result in results) else 1
    if args.artifact == "validate":
        from repro.experiments.validation import render_checks, \
            validate_transfer
        checks = validate_transfer(seed=args.seed)
        print(render_checks(checks))
        return 0 if all(check.ok for check in checks) else 1
    selected = (sorted(artifacts) if args.artifact == "all"
                else [args.artifact])
    # One cache and one cost model span every selected artifact, so
    # `repro all` computes each unique cell exactly once — fig2, fig3
    # and tab2 share the whole "baseline" matrix — and later campaigns
    # dispatch with wall times calibrated by the earlier ones.
    with _open_cache(args) as session:
        passed = [_run_artifact(artifacts[name], args, session)
                  for name in selected]
        if args.artifact == "all":
            # The SLA report rides along at the end of `repro all`: its
            # cells carry distinct seeds (campaign name feeds seed
            # derivation), so it shares the cache session but never
            # collides with metrics-off cells from the artifacts above.
            _run_report(args, session)
        if session.store is not None and session.store.hits:
            stats = session.store.stats()
            print(f"run cache {args.cache}: {stats['hits']} hits / "
                  f"{stats['misses']} misses "
                  f"({stats['entries']} entries)")
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
