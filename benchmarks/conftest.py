"""Shared infrastructure for the ablation and extension benchmarks.

The paper's campaign artifacts (Figs 2-13, Tabs 2-6) are regenerated
and graded by the CLI (``repro all``).  What lives here are the studies
the CLI does not run: the four ablations of Section 3.1's design
decisions (``bench_abl_*``), the extension studies (``bench_ext_*``)
and Table 7's video sessions (``bench_tab07_video.py``).  Each runs its
workload once (``benchmark.pedantic`` with a single round -- the study
*is* the workload), prints its rows, asserts the study's expected
shape, and writes the rows as CSV under ``benchmarks/output/``.

Environment knobs:

* ``REPRO_BENCH_REPS``  -- repetitions (seeds) per configuration
  (default 2).
* ``REPRO_BENCH_JOBS``  -- worker processes per campaign (default:
  one per CPU core; results are bit-identical to a serial run).
* ``REPRO_BENCH_JOURNAL`` -- path of a resume journal: completed
  runs are streamed there and skipped on re-invocation, so an
  interrupted benchmark session picks up where it left off.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

import pytest

from repro.experiments.report import render_table, write_csv
from repro.experiments.runner import Campaign, CampaignSpec, RunResult

OUTPUT_DIR = Path(__file__).parent / "output"

BENCH_REPS = int(os.environ.get("REPRO_BENCH_REPS", "2"))
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "0"))  # 0 = all cores
BENCH_JOURNAL = os.environ.get("REPRO_BENCH_JOURNAL") or None


def run_campaign(spec: CampaignSpec) -> List[RunResult]:
    """Execute a campaign and sanity-check completion."""
    campaign = Campaign(spec, jobs=BENCH_JOBS, journal=BENCH_JOURNAL)
    results = campaign.run()
    completed = campaign.completed_fraction()
    assert completed > 0.9, (
        f"campaign {spec.name}: only {completed:.0%} of runs completed")
    return results


def emit(name: str, title: str,
         tables: Sequence[Tuple[str, Sequence[str], Sequence[Sequence]]],
         ) -> None:
    """Print each (label, headers, rows) table and export it as CSV."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
    for label, headers, rows in tables:
        print()
        print(render_table(headers, rows, title=label))
        safe = label.lower().replace(" ", "_").replace("/", "-")
        write_csv(OUTPUT_DIR / f"{name}_{safe}.csv", headers, rows)


@pytest.fixture
def campaign_runner(benchmark) -> Callable[[CampaignSpec], List[RunResult]]:
    """Benchmark a campaign exactly once and return its results."""

    def run(spec: CampaignSpec) -> List[RunResult]:
        return benchmark.pedantic(run_campaign, args=(spec,),
                                  rounds=1, iterations=1)

    return run
