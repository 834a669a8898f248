"""Serial-vs-parallel equivalence and resumable execution."""

import dataclasses
import warnings

import pytest

from repro.cache import CostModel
from repro.experiments import runner as runner_module
from repro.experiments.config import FlowSpec
from repro.experiments.parallel import execute_plan
from repro.experiments.runner import Campaign, CampaignSpec
from repro.experiments.storage import ResultJournal, result_to_dict
from repro.wireless.profiles import TimeOfDay

KB = 1024


def small_campaign(base_seed=7):
    return CampaignSpec(
        name="par",
        specs=(FlowSpec.single_path("wifi"), FlowSpec.mptcp(carrier="att")),
        sizes=(8 * KB, 32 * KB), repetitions=1,
        periods=(TimeOfDay.NIGHT,), base_seed=base_seed)


def full_dicts(results):
    """Every field of every result, with no sample thinning."""
    return [result_to_dict(result, max_samples=None) for result in results]


def test_parallel_equals_serial():
    spec = small_campaign()
    serial = Campaign(spec, jobs=1).run()
    parallel = Campaign(spec, jobs=4).run()
    assert full_dicts(parallel) == full_dicts(serial)


def test_jobs_zero_means_all_cores():
    spec = small_campaign()
    serial = Campaign(spec, jobs=1).run()
    auto = Campaign(spec, jobs=0).run()
    assert full_dicts(auto) == full_dicts(serial)


def test_parallel_progress_reports_every_run():
    calls = []
    spec = small_campaign()
    Campaign(spec, progress=lambda i, n, r: calls.append((i, n)),
             jobs=2).run()
    assert [index for index, _ in calls] == [1, 2, 3, 4]
    assert all(total == 4 for _, total in calls)


def test_plan_matches_serial_run_order():
    spec = small_campaign()
    plan = Campaign(spec).plan()
    results = Campaign(spec).run()
    assert [(d.spec, d.size, d.seed, d.period) for d in plan] == \
        [(r.spec, r.size, r.seed, r.period) for r in results]
    assert [d.index for d in plan] == list(range(spec.total_runs()))


def test_resume_skips_completed_cells(tmp_path, monkeypatch):
    spec = small_campaign()
    plan = Campaign(spec).plan()
    baseline = Campaign(spec).run()
    journal_path = tmp_path / "journal.jsonl"
    # Simulate a campaign killed after the first two runs.
    with ResultJournal(journal_path) as journal:
        for descriptor in plan[:2]:
            journal.record(descriptor.run())

    executed = []
    real_run = runner_module.Measurement.run

    def counting_run(self, instrumentation=None):
        executed.append((self.spec, self.size))
        return real_run(self, instrumentation=instrumentation)

    monkeypatch.setattr(runner_module.Measurement, "run", counting_run)
    resumed = Campaign(spec, jobs=1, journal=journal_path).run()
    assert len(executed) == len(plan) - 2, "completed cells must not rerun"
    assert full_dicts(resumed) == full_dicts(baseline)
    # The journal now holds the whole campaign.
    assert ResultJournal(journal_path).restored == len(plan)


def test_parallel_resume_equals_serial(tmp_path):
    spec = small_campaign(base_seed=11)
    baseline = Campaign(spec).run()
    journal_path = tmp_path / "journal.jsonl"
    plan = Campaign(spec).plan()
    with ResultJournal(journal_path) as journal:
        journal.record(plan[1].run())
    resumed = Campaign(spec, jobs=2, journal=journal_path).run()
    assert full_dicts(resumed) == full_dicts(baseline)


def test_resume_tolerates_truncated_journal(tmp_path):
    spec = small_campaign()
    baseline = Campaign(spec).run()
    plan = Campaign(spec).plan()
    journal_path = tmp_path / "journal.jsonl"
    with ResultJournal(journal_path) as journal:
        journal.record(plan[0].run())
        journal.record(plan[1].run())
    # Chop the second record mid-line, as a crash mid-append would.
    lines = journal_path.read_text().splitlines()
    journal_path.write_text(lines[0] + "\n" + lines[1][:40])
    with pytest.warns(RuntimeWarning):
        resumed = Campaign(spec, journal=journal_path).run()
    assert full_dicts(resumed) == full_dicts(baseline)
    # Crucially, appending over the repaired truncation must leave the
    # journal loadable with every completed cell — no partial line
    # glued to a fresh record, no silently dropped rows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reopened = ResultJournal(journal_path)
    assert reopened.restored == len(plan)
    for descriptor in plan:
        assert reopened.get(descriptor.key) is not None
    reopened.close()


def test_worker_failure_journals_finished_runs(tmp_path):
    """A failed worker must not discard siblings that completed while
    it was failing: their results land in the journal before the error
    propagates, so a re-invocation resumes instead of recomputing."""
    spec = small_campaign()
    plan = Campaign(spec).plan()
    # The cheapest cell is leased last (longest job first); it fails in
    # set-up, through its own fields: its trace directory is missing.
    boom = min(plan, key=CostModel().estimate)
    cells = [dataclasses.replace(cell, trace="jsonl",
                                 trace_dir=str(tmp_path / "boom"))
             if cell is boom else cell for cell in plan]
    journal_path = tmp_path / "journal.jsonl"
    with pytest.raises(RuntimeError, match="boom") as failure:
        execute_plan(cells, jobs=2, journal=journal_path)
    # One failure story: the error names the cell that raised.
    for named in (boom.key, str(boom.seed), boom.spec.identity):
        assert named in str(failure.value)
    # The coordinator lets the sibling finish the chunk it holds; all
    # three healthy cells must be kept.
    journal = ResultJournal(journal_path)
    assert journal.restored == 3
    for descriptor in plan:
        assert (journal.get(descriptor.key) is not None) == \
            (descriptor is not boom)
    journal.close()


def test_execute_plan_empty():
    assert execute_plan([], jobs=4) == []


def test_journal_restores_before_executing(tmp_path):
    """Restored cells are reported through progress before fresh runs."""
    spec = small_campaign()
    plan = Campaign(spec).plan()
    journal_path = tmp_path / "journal.jsonl"
    with ResultJournal(journal_path) as journal:
        journal.record(plan[2].run())
    seen = []
    Campaign(spec, journal=journal_path,
             progress=lambda i, n, r: seen.append(r.seed)).run()
    assert seen[0] == plan[2].seed
    assert len(seen) == len(plan)
