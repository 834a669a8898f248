"""Flight-recorder behaviour: a run that raises mid-simulation leaves
its last events on disk, and a failed campaign run leaves a ``fail``
record in the run log naming the seed and FlowSpec."""

import pytest

from repro.experiments.config import FlowSpec
from repro.experiments.parallel import execute_plan
from repro.experiments.runner import Campaign, CampaignSpec, Measurement
from repro.obs.bus import read_jsonl
from repro.obs.telemetry import RunLog
from repro.testbed import Testbed
from repro.wireless.profiles import TimeOfDay

KB = 1024


class Boom(RuntimeError):
    """The injected mid-simulation failure."""


CRASH_AT = 0.05


def _crashing_run(self, until=None, max_events=None):
    """Replacement ``Testbed.run``: simulate a while, then die."""
    self.sim.run(until=CRASH_AT)
    raise Boom("injected mid-simulation failure")


@pytest.fixture
def crash_mid_simulation(monkeypatch):
    monkeypatch.setattr(Testbed, "run", _crashing_run)


def _measurement(trace, trace_path):
    return Measurement(FlowSpec.mptcp(carrier="att", controller="coupled"),
                       256 * KB, seed=17, trace=trace,
                       trace_path=trace_path)


def test_ring_dumped_when_run_raises(crash_mid_simulation, tmp_path):
    dump_path = tmp_path / "flight.jsonl"
    measurement = _measurement("ring", str(dump_path))
    with pytest.raises(Boom):
        measurement.run()
    assert measurement.flight_dump_path == str(dump_path)
    events = read_jsonl(dump_path)
    assert events, "flight recorder dumped no events"
    # Every recorded event precedes the failure's simulated time, and
    # they are in timeline order ending just before the crash.
    times = [event.t for event in events]
    assert times == sorted(times)
    assert times[-1] <= CRASH_AT
    # The window covers the connection bring-up.
    kinds = {event.kind for event in events}
    assert "mptcp.capable" in kinds


def test_no_dump_on_clean_run(tmp_path):
    dump_path = tmp_path / "flight.jsonl"
    measurement = _measurement("ring", str(dump_path))
    result = measurement.run()
    assert result.completed
    assert measurement.flight_dump_path is None
    assert not dump_path.exists()


def test_jsonl_stream_survives_a_raise(crash_mid_simulation, tmp_path):
    """In jsonl mode everything is already on disk: a crash flushes and
    closes the stream instead of dumping a ring."""
    stream_path = tmp_path / "events.jsonl"
    measurement = _measurement("jsonl", str(stream_path))
    with pytest.raises(Boom):
        measurement.run()
    assert measurement.flight_dump_path is None
    events = read_jsonl(stream_path)
    assert events
    assert events[-1].t <= CRASH_AT


def _campaign(trace, trace_dir, run_log, jobs=1):
    spec = CampaignSpec(name="crashy",
                        specs=(FlowSpec.single_path("wifi"),),
                        sizes=(64 * KB,), repetitions=2,
                        periods=(TimeOfDay.NIGHT,), base_seed=7)
    return Campaign(spec, jobs=jobs, trace=trace, trace_dir=trace_dir,
                    run_log=run_log)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_worker_leaves_fail_record(tmp_path, jobs):
    """Force every run to fail inside the worker (jsonl tracing with no
    trace directory -> the bus factory raises): the shared run log must
    record the failure with the seed and FlowSpec identity before the
    exception reaches the parent."""
    log_path = tmp_path / "run_log.jsonl"
    campaign = _campaign("jsonl", None, str(log_path), jobs=jobs)
    # In-process the cell's own exception propagates; from a worker it
    # arrives as the executor's error naming the cell and quoting it.
    with pytest.raises(ValueError if jobs == 1 else RuntimeError,
                       match="jsonl"):
        campaign.run()
    records = RunLog.read(log_path)
    fails = [record for record in records if record["event"] == "fail"]
    assert fails, "no fail record reached the run log"
    descriptors = campaign.plan()
    known_seeds = {descriptor.seed for descriptor in descriptors}
    for fail in fails:
        assert fail["seed"] in known_seeds
        assert fail["spec"] == descriptors[0].spec.identity
        assert "jsonl" in fail["error"]
        assert fail["worker"]


def test_parallel_crash_dump_attributed_and_ingestable(
        crash_mid_simulation, tmp_path):
    """A mid-simulation crash under ``--jobs 2`` leaves a flight-recorder
    dump named after the failing descriptor (``flight-run-NNNN-SEED``),
    the run log records the failure, and the analytics store attributes
    the dumped events to that run.  (Workers are forked, so the parent's
    crash monkeypatch reaches them.)"""
    from repro.obs.analytics import AnalyticsStore

    log_path = tmp_path / "run_log.jsonl"
    spec = CampaignSpec(name="crashy-ring",
                        specs=(FlowSpec.mptcp(carrier="att",
                                              controller="coupled"),),
                        sizes=(256 * KB,), repetitions=2,
                        periods=(TimeOfDay.NIGHT,), base_seed=7)
    campaign = Campaign(spec, jobs=2, trace="ring",
                        trace_dir=str(tmp_path), run_log=str(log_path))
    with pytest.raises(RuntimeError, match="Boom"):
        campaign.run()
    descriptors = {descriptor.seed: descriptor
                   for descriptor in campaign.plan()}
    dumps = sorted(tmp_path.glob("flight-run-*.jsonl"))
    assert dumps, "no flight-recorder dump reached the trace dir"
    failed_seeds = {record["seed"] for record in RunLog.read(log_path)
                    if record["event"] == "fail"}
    for dump in dumps:
        index, seed = dump.stem.rsplit("-", 2)[-2:]
        seed = int(seed)
        # The filename names the failing descriptor, and that failure
        # also reached the shared run log.
        assert seed in descriptors
        assert descriptors[seed].index == int(index)
        assert seed in failed_seeds
        assert read_jsonl(dump), f"{dump.name} dumped no events"
    with AnalyticsStore() as store:
        counts = store.ingest_directory(str(tmp_path))
        assert counts["trace_events"] > 0
        for dump in dumps:
            seed = dump.stem.rsplit("-", 1)[-1]
            row = store._db.execute(
                "SELECT key, status FROM runs WHERE seed = ?",
                (seed,)).fetchone()
            assert row is not None, "dump not attributed to a run"
            key, status = row
            assert status == "fail"
            attributed = store._db.execute(
                "SELECT COUNT(*) FROM events WHERE run_key = ?",
                (key,)).fetchone()[0]
            assert attributed == len(read_jsonl(dump))


def test_serial_failure_still_logs_through_execute_plan(tmp_path):
    """The serial telemetered path shares the worker code, so a crash
    in-process produces the same fail record."""
    log_path = tmp_path / "run_log.jsonl"
    campaign = _campaign("jsonl", None, str(log_path))
    plan = campaign.plan()[:1]
    with pytest.raises(ValueError):
        execute_plan(plan, jobs=1, run_log=str(log_path))
    (start, fail) = RunLog.read(log_path)[-2:]
    assert start["event"] == "start"
    assert fail["event"] == "fail"
    assert fail["seed"] == plan[0].seed
