"""Tests for result persistence."""

import json
import warnings

import pytest

from repro.experiments.config import FlowSpec
from repro.experiments.runner import Measurement, descriptor_key
from repro.experiments.scenarios import download_time_rows, \
    traffic_share_rows
from repro.experiments.storage import (
    FORMAT_VERSION,
    JournalLockedError,
    ResultJournal,
    _thin,
    load_results,
    merge_results,
    result_from_dict,
    result_to_dict,
    save_results,
)
from repro.wireless.profiles import TimeOfDay

KB = 1024


@pytest.fixture(scope="module")
def sample_results():
    return [
        Measurement(FlowSpec.mptcp(carrier="att"), 64 * KB, seed=1).run(),
        Measurement(FlowSpec.single_path("wifi"), 64 * KB, seed=1).run(),
    ]


def test_round_trip_preserves_core_fields(sample_results):
    original = sample_results[0]
    restored = result_from_dict(result_to_dict(original))
    assert restored.spec == original.spec
    assert restored.size == original.size
    assert restored.seed == original.seed
    assert restored.period == original.period
    assert restored.completed == original.completed
    assert restored.download_time == original.download_time
    assert restored.metrics.cellular_fraction == \
        original.metrics.cellular_fraction
    assert set(restored.metrics.per_path) == set(original.metrics.per_path)
    for path in original.metrics.per_path:
        assert restored.metrics.loss_rate(path) == \
            original.metrics.loss_rate(path)


def test_round_trip_preserves_row_extraction(sample_results):
    """Stored results feed the same tables as fresh ones."""
    fresh = download_time_rows(sample_results)
    restored = download_time_rows([
        result_from_dict(result_to_dict(result))
        for result in sample_results])
    assert fresh == restored
    assert traffic_share_rows(sample_results) == traffic_share_rows(
        [result_from_dict(result_to_dict(r)) for r in sample_results])


def test_sample_thinning_preserves_statistics(sample_results):
    original = sample_results[0]
    thinned = result_from_dict(result_to_dict(original, max_samples=10))
    for path, analysis in original.metrics.per_path.items():
        restored = thinned.metrics.per_path[path]
        assert len(restored.rtt_samples) <= 10
        if analysis.rtt_samples:
            assert restored.mean_rtt == pytest.approx(
                analysis.mean_rtt, rel=0.5)


def test_thin_keeps_endpoints_and_size():
    samples = [float(value) for value in range(997)]
    thinned = _thin(samples, 32)
    assert len(thinned) == 32
    assert thinned[0] == min(samples)
    assert thinned[-1] == max(samples)
    assert thinned == sorted(thinned)


def test_thin_single_sample_is_maximum():
    assert _thin([3.0, 9.0, 1.0], 1) == [9.0]


def test_thin_short_list_untouched():
    samples = [5.0, 2.0, 8.0]
    assert _thin(samples, 10) == samples
    assert _thin(samples, None) == samples


def test_thinning_preserves_maximum_sample(sample_results):
    """Regression: the stride used to drop the final (max) sample,
    truncating exactly the CCDF tails of Figures 12/13."""
    original = sample_results[0]
    stored = result_from_dict(result_to_dict(original, max_samples=10))
    for path, analysis in original.metrics.per_path.items():
        restored = stored.metrics.per_path[path]
        if analysis.rtt_samples:
            assert max(restored.rtt_samples) == max(analysis.rtt_samples)
            assert min(restored.rtt_samples) == min(analysis.rtt_samples)
    if original.metrics.ofo_delays:
        assert max(stored.metrics.ofo_delays) == \
            max(original.metrics.ofo_delays)


def test_save_and_load(tmp_path, sample_results):
    path = tmp_path / "results.jsonl"
    written = save_results(path, sample_results)
    assert written == 2
    loaded = load_results(path)
    assert len(loaded) == 2
    assert loaded[0].spec == sample_results[0].spec


def test_append_mode(tmp_path, sample_results):
    path = tmp_path / "results.jsonl"
    save_results(path, sample_results[:1])
    save_results(path, sample_results[1:], append=True)
    assert len(load_results(path)) == 2


def test_merge(tmp_path, sample_results):
    a = tmp_path / "day1.jsonl"
    b = tmp_path / "day2.jsonl"
    save_results(a, sample_results[:1])
    save_results(b, sample_results[1:])
    merged = merge_results(a, b)
    assert len(merged) == 2


def test_unknown_version_rejected(sample_results):
    data = result_to_dict(sample_results[0])
    data["version"] = 99
    with pytest.raises(ValueError):
        result_from_dict(data)


def test_version1_record_still_loads(sample_results):
    """v1 files (time-ordered thinning, pre-quantile-sketch) stay
    readable: all shipped consumers are order-insensitive."""
    data = result_to_dict(sample_results[0])
    data["version"] = 1
    restored = result_from_dict(data)
    assert restored.spec == sample_results[0].spec


def test_file_is_plain_json_lines(tmp_path, sample_results):
    path = tmp_path / "results.jsonl"
    save_results(path, sample_results)
    for line in path.read_text().splitlines():
        record = json.loads(line)
        assert record["version"] == FORMAT_VERSION
        assert "spec" in record and "metrics" in record


def test_save_failure_leaves_previous_file_intact(tmp_path, sample_results):
    """A crash mid-save must not truncate an existing results file."""
    path = tmp_path / "results.jsonl"
    save_results(path, sample_results)

    class NotAResult:
        pass

    with pytest.raises(AttributeError):
        save_results(path, [sample_results[0], NotAResult()])
    assert len(load_results(path)) == 2
    assert list(tmp_path.iterdir()) == [path], "no temp-file litter"


def test_load_skips_truncated_trailing_line(tmp_path, sample_results):
    path = tmp_path / "results.jsonl"
    save_results(path, sample_results)
    with open(path, "a") as handle:
        handle.write('{"version":1,"spec":{"mo')  # writer died here
    with pytest.warns(RuntimeWarning):
        loaded = load_results(path)
    assert len(loaded) == 2


def test_load_raises_on_corrupt_middle_line(tmp_path, sample_results):
    path = tmp_path / "results.jsonl"
    lines = [json.dumps(result_to_dict(result)) for result in sample_results]
    path.write_text(lines[0] + "\n{broken\n" + lines[1] + "\n")
    with pytest.raises(json.JSONDecodeError):
        load_results(path)


def test_run_key_distinguishes_ablation_specs():
    a = FlowSpec.mptcp(carrier="att", scheduler="minrtt")
    b = FlowSpec.mptcp(carrier="att", scheduler="roundrobin")
    assert a.label == b.label  # the ambiguity the key must survive
    assert descriptor_key(a, 8 * KB, 1, TimeOfDay.NIGHT) != \
        descriptor_key(b, 8 * KB, 1, TimeOfDay.NIGHT)


def test_journal_round_trip(tmp_path, sample_results):
    path = tmp_path / "journal.jsonl"
    with ResultJournal(path) as journal:
        for result in sample_results:
            journal.record(result)
        assert all(journal.get(journal.key_of(result)) is result
                   for result in sample_results)
    reloaded = ResultJournal(path)
    assert reloaded.restored == 2
    for result in sample_results:
        key = descriptor_key(result.spec, result.size, result.seed,
                             result.period)
        cached = reloaded.get(key)
        assert result_to_dict(cached, max_samples=None) == \
            result_to_dict(result, max_samples=None)
    # Re-recording an existing key is a no-op, not a duplicate line.
    reloaded.record(sample_results[0])
    reloaded.close()
    assert len(path.read_text().splitlines()) == 2


def test_journal_repairs_truncated_tail_before_append(
        tmp_path, sample_results):
    """Regression: opening a journal with a partial trailing line used
    to append the next record onto that partial line, corrupting the
    file for every later load."""
    path = tmp_path / "journal.jsonl"
    with ResultJournal(path) as journal:
        journal.record(sample_results[0])
    with open(path, "a") as handle:
        handle.write('{"version":2,"spec":{"mode":"sp","carrie')
    with pytest.warns(RuntimeWarning):
        journal = ResultJournal(path)
    assert journal.restored == 1
    journal.record(sample_results[1])
    journal.close()
    # The journal must load back clean — no warning, both records.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reloaded = load_results(path)
    assert len(reloaded) == 2
    assert reloaded[1].spec == sample_results[1].spec
    # And survive yet another open/append cycle.
    assert ResultJournal(path).restored == 2


def test_journal_restores_missing_trailing_newline(
        tmp_path, sample_results):
    """A crash between a record's JSON text and its newline must not
    make the next append glue onto a valid line."""
    path = tmp_path / "journal.jsonl"
    with ResultJournal(path) as journal:
        journal.record(sample_results[0])
    path.write_text(path.read_text().rstrip("\n"))
    journal = ResultJournal(path)
    assert journal.restored == 1
    journal.record(sample_results[1])
    journal.close()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(load_results(path)) == 2


def test_journal_rejects_second_live_writer(tmp_path, sample_results):
    """Two concurrent writers would race the truncation-repair scan and
    interleave appends; the advisory lock turns that into a loud error."""
    path = tmp_path / "journal.jsonl"
    with ResultJournal(path) as journal:
        journal.record(sample_results[0])
        with pytest.raises(JournalLockedError, match="another live"):
            ResultJournal(path)
        # The refused open must not have truncated or corrupted
        # anything the holder wrote.
        journal.record(sample_results[1])
    assert ResultJournal(path).restored == 2


def test_journal_lock_released_by_writer_death(tmp_path, sample_results):
    """The lock dies with the process (flock is tied to the open file
    description), so a SIGKILLed campaign never wedges its journal."""
    import os
    import signal
    import subprocess
    import sys

    path = tmp_path / "journal.jsonl"
    with ResultJournal(path) as journal:
        journal.record(sample_results[0])
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    holder = subprocess.Popen(
        [sys.executable, "-c",
         "import sys, time\n"
         "from repro.experiments.storage import ResultJournal\n"
         f"journal = ResultJournal({str(path)!r})\n"
         "print('LOCKED', flush=True)\n"
         "time.sleep(60)\n"],
        stdout=subprocess.PIPE,
        env={**os.environ,
             "PYTHONPATH": os.path.abspath(src) + os.pathsep
             + os.environ.get("PYTHONPATH", "")})
    try:
        assert holder.stdout.readline().strip() == b"LOCKED"
        with pytest.raises(JournalLockedError):
            ResultJournal(path)
        holder.send_signal(signal.SIGKILL)
        holder.wait(timeout=30)
        journal = ResultJournal(path)     # lock released by death
        assert journal.restored == 1
        journal.record(sample_results[1])
        journal.close()
    finally:
        if holder.poll() is None:
            holder.kill()
            holder.wait()
    assert len(load_results(path)) == 2
