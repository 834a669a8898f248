"""Experiment harness: configurations, campaigns, statistics, reports.

* :mod:`repro.experiments.config` -- :class:`FlowSpec` describes one
  transport configuration (SP-WiFi, SP-carrier, MP-2/MP-4 with a
  congestion controller, ...), exactly the labels the paper's figures
  use.
* :mod:`repro.experiments.runner` -- :class:`Measurement` runs one
  download in a fresh testbed and extracts all metrics;
  :class:`Campaign` runs a randomized measurement matrix the way
  Section 3.2 does (shuffled configuration order per round, multiple
  day periods).
* :mod:`repro.experiments.parallel` -- runs campaign cells in-process
  or leases them to worker processes and reassembles them in serial
  order (deterministic), with a resume journal that skips completed
  cells.
* :mod:`repro.experiments.stats` -- five-number (box-and-whisker)
  summaries, mean +- standard error, and CCDFs.
* :mod:`repro.experiments.report` -- ASCII tables / text "figures" and
  CSV export.
* :mod:`repro.experiments.scenarios` -- one canned campaign per paper
  table and figure.
"""

from repro.experiments.config import FlowSpec
from repro.experiments.parallel import execute_plan
from repro.experiments.runner import (
    Campaign,
    CampaignSpec,
    Measurement,
    RunDescriptor,
    RunResult,
    descriptor_key,
)
from repro.experiments.stats import (
    FiveNumber,
    ccdf,
    ccdf_fraction_above,
    confidence_interval_95,
    five_number,
    jain_fairness,
    mean_stderr,
    quantile,
)
from repro.experiments.plots import (
    boxplot_from_samples,
    render_boxplot,
    render_ccdf,
)
from repro.experiments.report import (
    format_bytes,
    format_ms,
    format_pct,
    format_seconds,
    render_table,
    write_csv,
)
from repro.experiments.storage import (
    ResultJournal,
    load_results,
    merge_results,
    save_results,
)

__all__ = [
    "FlowSpec",
    "Measurement",
    "RunResult",
    "RunDescriptor",
    "descriptor_key",
    "Campaign",
    "CampaignSpec",
    "execute_plan",
    "ResultJournal",
    "FiveNumber",
    "five_number",
    "mean_stderr",
    "quantile",
    "ccdf",
    "ccdf_fraction_above",
    "confidence_interval_95",
    "jain_fairness",
    "render_table",
    "write_csv",
    "format_bytes",
    "format_ms",
    "format_pct",
    "format_seconds",
    "render_boxplot",
    "render_ccdf",
    "boxplot_from_samples",
    "save_results",
    "load_results",
    "merge_results",
]
