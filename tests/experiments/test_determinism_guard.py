"""Determinism guard: no optimization may move a single byte of
campaign output.

Runs one small campaign under every execution configuration that is
switchable -- run cache off / cold / warm, worker pool with and without
chunked submission, the distributed backend, tracing and metrics on --
and asserts the rendered CSVs are byte-identical to the serial run and
to the digests pinned across PRs."""

import hashlib

import pytest

from repro.cache import RunCache
from repro.experiments.config import FlowSpec
from repro.experiments.report import csv_text
from repro.experiments.runner import Campaign, CampaignSpec
from repro.experiments.scenarios import (
    download_time_rows,
    scheduler_regret_rows,
    traffic_share_rows,
)
from repro.wireless.profiles import TimeOfDay

KB = 1024

#: SHA-256 of the guard campaign's CSVs, captured before the scheduler
#: lab landed.  Any change to these bytes means a pre-existing
#: campaign output moved — exactly what this module exists to forbid.
PINNED_DOWNLOADS = \
    "37c30a33edf3a36807dc6efb4a19bab8fc20089aa30d6f893b4e794ea5810d27"
PINNED_SHARES = \
    "f314d7f725c10b129153f3c93c7e69782c44576bf99a87b8a5c6b0d0141591aa"


def _campaign_csvs(trace: str = "off", trace_dir=None, jobs: int = 1,
                   cache=None, chunk: int = 1, backend: str = "pool"):
    """Run the guard campaign; return its figure CSVs as bytes."""
    spec = CampaignSpec(
        name="guard",
        specs=(FlowSpec.single_path("wifi"),
               FlowSpec.mptcp(carrier="att", controller="coupled")),
        sizes=(64 * KB,), repetitions=1,
        periods=(TimeOfDay.NIGHT,), base_seed=7)
    campaign = Campaign(spec, trace=trace, trace_dir=trace_dir, jobs=jobs,
                        cache=cache, chunk=chunk, backend=backend)
    results = campaign.run()
    assert all(result.completed for result in results)
    downloads = csv_text(*download_time_rows(results))
    shares = csv_text(*traffic_share_rows(results))
    return (downloads.encode(), shares.encode())


@pytest.fixture(scope="module")
def reference_csvs():
    """The configuration campaigns actually run with."""
    return _campaign_csvs()


def test_cache_cold_warm_and_off_agree_byte_for_byte(reference_csvs,
                                                     tmp_path):
    """The run cache's three states — off (the reference), cold
    (computing and storing) and warm (serving every cell from disk) —
    must all yield the same campaign bytes."""
    root = tmp_path / "cache"
    cold = _campaign_csvs(cache=str(root))
    assert cold == reference_csvs
    warm_cache = RunCache(root)
    warm = _campaign_csvs(cache=warm_cache)
    assert warm_cache.hits == 2, "warm pass must serve every cell"
    warm_cache.close()
    assert warm == reference_csvs


def test_chunked_submission_matches(reference_csvs):
    assert _campaign_csvs(jobs=2, chunk=2) == reference_csvs


def test_cached_chunked_ljf_combined(reference_csvs, tmp_path):
    """The full production configuration — cache + chunking + LJF
    under worker processes — against the plain serial reference."""
    root = tmp_path / "cache"
    assert _campaign_csvs(jobs=2, cache=str(root),
                          chunk=2) == reference_csvs
    assert _campaign_csvs(jobs=2, cache=str(root),
                          chunk=2) == reference_csvs


def test_distributed_backend_matches(reference_csvs):
    """Cells executed by separate `repro worker` processes over the
    TCP coordinator — the distributed backend — must reproduce the
    serial reference byte for byte."""
    assert _campaign_csvs(backend="subprocess", jobs=2) == reference_csvs


def test_distributed_cached_combined(reference_csvs, tmp_path):
    """Distributed cold pass populates the shared store; the warm pass
    restores every cell without spawning a single worker — both must
    match the serial bytes."""
    root = tmp_path / "cache"
    assert _campaign_csvs(backend="subprocess", jobs=2,
                          cache=str(root)) == reference_csvs
    warm_cache = RunCache(root)
    warm = _campaign_csvs(backend="subprocess", jobs=2,
                          cache=warm_cache)
    assert warm_cache.hits == 2, "warm pass must serve every cell"
    warm_cache.close()
    assert warm == reference_csvs


def test_campaign_bytes_pinned_across_prs(reference_csvs):
    """The guard campaign's bytes, pinned against the digests captured
    before the scheduler-lab changes: a refactor of the scheduler or
    allocator internals must not move any pre-existing campaign CSV."""
    downloads, shares = reference_csvs
    assert hashlib.sha256(downloads).hexdigest() == PINNED_DOWNLOADS
    assert hashlib.sha256(shares).hexdigest() == PINNED_SHARES


# ----------------------------------------------------------------------
# The scheduler-lab campaign under the same guard
# ----------------------------------------------------------------------

def _sched_campaign_csv(trace: str = "off", trace_dir=None,
                        jobs: int = 1) -> bytes:
    """Run a small scheduler-lab matrix; return its regret CSV."""
    specs = tuple(
        FlowSpec.mptcp(carrier="att", controller="coupled",
                       scheduler=scheduler, workload=workload)
        for scheduler in ("blest", "qoe")
        for workload in ("bulk", "realtime"))
    spec = CampaignSpec(
        name="guard-sched", specs=specs, sizes=(64 * KB,),
        repetitions=1, periods=(TimeOfDay.NIGHT,), base_seed=7)
    campaign = Campaign(spec, trace=trace, trace_dir=trace_dir,
                        jobs=jobs)
    results = campaign.run()
    assert all(result.completed for result in results)
    return csv_text(*scheduler_regret_rows(results)).encode()


@pytest.fixture(scope="module")
def sched_reference_csv():
    return _sched_campaign_csv()


def test_scheduler_campaign_is_deterministic(sched_reference_csv):
    assert _sched_campaign_csv() == sched_reference_csv


def test_scheduler_campaign_parallel_matches(sched_reference_csv):
    assert _sched_campaign_csv(jobs=2) == sched_reference_csv


def test_scheduler_campaign_tracing_is_passive(sched_reference_csv,
                                               tmp_path):
    """JSONL tracing shares the bus with the QoE metrics tap; streaming
    every event must not move the campaign's bytes."""
    assert _sched_campaign_csv(trace="jsonl",
                               trace_dir=str(tmp_path)) \
        == sched_reference_csv
    files = sorted(tmp_path.glob("run-*.jsonl"))
    assert len(files) == 4
    assert all(path.stat().st_size > 0 for path in files)


@pytest.mark.parametrize("trace", ["ring", "jsonl"])
def test_tracing_leaves_campaign_bytes_untouched(reference_csvs, trace,
                                                 tmp_path):
    """Protocol-event tracing is passive: running the same campaign
    with the flight recorder or full JSONL streaming enabled must
    leave every figure CSV byte-identical."""
    traced = _campaign_csvs(trace=trace, trace_dir=str(tmp_path))
    assert traced == reference_csvs
    if trace == "jsonl":
        # The trace actually streamed (one file per campaign cell).
        files = sorted(tmp_path.glob("run-*.jsonl"))
        assert len(files) == 2
        assert all(path.stat().st_size > 0 for path in files)


# ----------------------------------------------------------------------
# The many-flow world campaign under the same guard
# ----------------------------------------------------------------------

from repro.experiments.scenarios import world_campaign, \
    world_fairness_rows  # noqa: E402

#: SHA-256 of the world guard campaign's fairness CSV, captured when
#: the shared-world kernel landed.  The fluid solver, arrival
#: processes and residual-capacity coupling all feed these bytes; any
#: drift here means background worlds stopped being reproducible.
PINNED_WORLD_FAIRNESS = \
    "614d4f527921c3d543eb4587d886281431afe7833ec27337b61ac4f288436841"


def _world_campaign_csv(jobs: int = 1, cache=None) -> bytes:
    """Run a small world matrix; return its fairness CSV as bytes."""
    spec = world_campaign(
        repetitions=1, periods=(TimeOfDay.NIGHT,), base_seed=7,
        worlds=("bg-none", "bg-light", "closed-8"), size=256 * KB)
    campaign = Campaign(spec, jobs=jobs, cache=cache)
    results = campaign.run()
    assert all(result.completed for result in results)
    return csv_text(*world_fairness_rows(results)).encode()


@pytest.fixture(scope="module")
def world_reference_csv():
    return _world_campaign_csv()


def test_world_campaign_bytes_pinned(world_reference_csv):
    assert hashlib.sha256(world_reference_csv).hexdigest() == \
        PINNED_WORLD_FAIRNESS


def test_world_campaign_parallel_matches(world_reference_csv):
    """One world == one process: worker-pool dispatch must reproduce
    the serial bytes even though each worker hosts its own engine."""
    assert _world_campaign_csv(jobs=2) == world_reference_csv


def test_world_campaign_cache_cold_and_warm_match(world_reference_csv,
                                                  tmp_path):
    root = tmp_path / "cache"
    assert _world_campaign_csv(cache=str(root)) == world_reference_csv
    warm_cache = RunCache(root)
    warm = _world_campaign_csv(cache=warm_cache)
    assert warm_cache.hits == 6, "warm pass must serve every cell"
    warm_cache.close()
    assert warm == world_reference_csv


def test_world_cells_do_not_disturb_plain_cells(reference_csvs):
    """Running a worldly campaign in the same process must not move
    the plain guard campaign's bytes (no RNG or engine-state leaks
    between cells)."""
    _world_campaign_csv()
    assert _campaign_csvs() == reference_csvs


# ----------------------------------------------------------------------
# The SLA report (metrics registry + analytics store) under the guard
# ----------------------------------------------------------------------

from repro.cli import _report_tables  # noqa: E402
from repro.experiments.storage import save_results  # noqa: E402
from repro.obs.analytics import AnalyticsStore  # noqa: E402

#: SHA-256 of the guard SLA report's CSVs, captured when the metrics
#: registry and analytics store landed.  These bytes flow through the
#: metrics instrumentation, the SQLite ingesters and the percentile /
#: survival queries; any drift means `repro report` stopped being
#: reproducible.
PINNED_SLA = \
    "7c188ca15a05e92fb2fe2b4d2b50fecbcb2590c058e16f04b619588afafe6364"
PINNED_SURVIVAL = \
    "3d3e4ccea54fddc899e85366d3c849c90cf391127f0854675df97042b63671d3"

GUARD_OUTAGE = "outage:down=0.3,up=0.8"


def _sla_guard_results(metrics: str = "on"):
    """Run the guard's miniature SLA matrix: one undisturbed SP flow,
    one MP-2 flow crossing a WiFi outage."""
    spec = CampaignSpec(
        name="guard-sla",
        specs=(FlowSpec.single_path("wifi"),
               FlowSpec.mptcp(carrier="att", controller="coupled",
                              failure=GUARD_OUTAGE)),
        sizes=(512 * KB,), repetitions=1,
        periods=(TimeOfDay.NIGHT,), base_seed=7)
    campaign = Campaign(spec, metrics=metrics)
    results = campaign.run()
    assert all(result.completed for result in results)
    return results


@pytest.fixture(scope="module")
def sla_report_csvs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("guard-sla")
    save_results(directory / "guard-results.jsonl", _sla_guard_results())
    with AnalyticsStore() as store:
        store.ingest_directory(str(directory))
        tables = _report_tables(store)
    return {name: csv_text(headers, rows).encode()
            for name, headers, rows in tables}


def test_sla_report_bytes_pinned(sla_report_csvs):
    assert hashlib.sha256(sla_report_csvs["sla"]).hexdigest() == \
        PINNED_SLA
    assert hashlib.sha256(sla_report_csvs["survival"]).hexdigest() == \
        PINNED_SURVIVAL


def test_metrics_registry_is_passive(reference_csvs):
    """The metrics registry observes, never participates: running the
    identical campaign with metrics on and off must yield byte-identical
    figure output — only the attached snapshot differs.  The metered
    campaign must also leave the plain guard campaign's bytes alone."""
    metered = _sla_guard_results(metrics="on")
    plain = _sla_guard_results(metrics="off")
    assert [result.download_time for result in metered] == \
        [result.download_time for result in plain]
    assert csv_text(*download_time_rows(metered)) == \
        csv_text(*download_time_rows(plain))
    assert all(result.obs_metrics for result in metered)
    assert all(result.obs_metrics is None for result in plain)
    assert _campaign_csvs() == reference_csvs
