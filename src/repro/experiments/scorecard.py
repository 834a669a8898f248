"""The reproduction scorecard: the paper's headline claims as one table.

Each :class:`Claim` row names the figure or section it comes from, the
cells it reads and the comparisons their reductions must satisfy.
:func:`run_scorecard` runs the cells through ``execute_plan`` (so the
run cache, ``--jobs`` and every backend apply) and grades each row by
its margin: ``repro scorecard`` prints the grades, and
``tests/integration/test_paper_claims.py`` asserts them, one per row.
"""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.config import FlowSpec
from repro.experiments.runner import RunDescriptor, RunResult
from repro.experiments.stats import ccdf_fraction_above
from repro.wireless.profiles import TimeOfDay

KB = 1024
MB = 1024 * 1024


def _path(run: RunResult) -> str:
    return "wifi" if run.spec.interface == "wifi" else run.spec.carrier


#: reading -> (what one run contributes, how a cell's runs reduce, how
#: the value prints).  Download times reduce by median, robust to one
#: unlucky RTO in a small sample like the paper's box-plot medians;
#: ``rtt`` and ``loss`` read the one path of a single-path spec.
_READINGS = {
    "time": (lambda run: run.download_time, statistics.median,
             lambda t: f"{t:.3f}s" if t < 1 else f"{t:.3g}s"),
    "share": (lambda run: run.metrics.cellular_fraction, statistics.mean,
              "{:.0%}".format),
    "rtt": (lambda run: run.metrics.mean_rtt(_path(run)), statistics.mean,
            lambda rtt: f"{rtt * 1000:.0f} ms"),
    "loss": (lambda run: run.metrics.loss_rate(_path(run)),
             statistics.mean, "{:.2%}".format),
    "ofo": (lambda run: ccdf_fraction_above(run.metrics.ofo_delays, 0.150),
            statistics.mean, "{:.1%}".format),
}


@dataclass(frozen=True)
class Comparison:
    """``a op k*b + c`` over named quantities (``b=None``: ``a op c``)."""

    a: str
    op: str
    b: Optional[str] = None
    k: float = 1.0
    c: float = 0.0

    def margin(self, values: Mapping[str, float]) -> float:
        """Relative slack: positive when ``a`` is on the right side."""
        bound = (self.k * values[self.b] if self.b else 0.0) + self.c
        slack = values[self.a] - bound
        return (-slack if self.op[0] == "<" else slack) / (abs(bound) or 1.0)

    def holds(self, margin: float) -> bool:
        return margin >= 0 if self.op.endswith("=") else margin > 0


_CLAUSE = re.compile(
    r"(\w+) ([<>]=?) (?:([\d.]+) )?([\w.]+)(?: \+ ([\d.]+))?")


def parse_comparisons(text: str) -> Tuple[Comparison, ...]:
    """``"a < b; a <= 1.35 b; a > b + 0.005; a < 0.25"``."""
    parsed = []
    for clause in text.split(";"):
        a, op, k, b, c = _CLAUSE.fullmatch(clause.strip()).groups()
        parsed.append(Comparison(a, op, c=float(b)) if b[0].isdigit() else
                      Comparison(a, op, b, float(k or 1), float(c or 0)))
    return tuple(parsed)


@dataclass(frozen=True)
class Claim:
    """One row of the table: a finding of the paper in its own terms."""

    claim_id: str
    source: str
    description: str
    #: name -> (reading, spec, size).
    quantities: Mapping[str, Tuple[str, FlowSpec, int]]
    #: What the reduced quantities must satisfy (:func:`parse_comparisons`).
    comparisons: str
    #: Renders the values when listing the quantities does not say it.
    detail: Optional[Callable[[Mapping[str, float]], str]] = None
    #: Runs per cell when a row needs more than the caller's seeds; the
    #: seed list is extended consecutively past its last entry.
    samples: int = 0

    def seeds(self, seeds: Sequence[int]) -> Tuple[int, ...]:
        last = seeds[-1]
        return tuple(seeds) + tuple(
            range(last + 1, last + 1 + self.samples - len(seeds)))

    def cells(self, seeds: Sequence[int]) -> List[Tuple[FlowSpec, int, int]]:
        return list(dict.fromkeys(
            (spec, size, seed) for _, spec, size in self.quantities.values()
            for seed in self.seeds(seeds)))


@dataclass
class ClaimResult:
    claim: Claim
    passed: bool
    #: The smallest relative slack over the row's comparisons; ``None``
    #: when a run is missing or incomplete.
    margin: Optional[float]
    detail: str


def _at(reading: str, size: int, **specs: FlowSpec):
    return {name: (reading, spec, size) for name, spec in specs.items()}


WIFI = FlowSpec.single_path("wifi")
MP = FlowSpec.mptcp()
SP = {name: FlowSpec.single_path("cell", carrier=name.lower())
      for name in ("ATT", "Verizon", "Sprint")}
MP_ON = {f"MP_{name}": MP.with_(carrier=spec.carrier)
         for name, spec in SP.items()}
MP4 = MP.with_(paths=4)

CLAIMS: Tuple[Claim, ...] = (
    Claim("robustness", "Fig 2",
          "MPTCP stays close to the best single path (every carrier)",
          _at("time", 2 * MB, WiFi=WIFI, **SP, **MP_ON),
          "; ".join(f"MP_{c} < 1.5 WiFi; MP_{c} < 1.5 {c}" for c in SP)
          + "; WiFi < Sprint; MP_Sprint < Sprint",
          lambda v: "worst MPTCP/best-single-path ratio at 2 MB: "
          f"{max(v['MP_' + c] / min(v['WiFi'], v[c]) for c in SP):.2f}"),
    Claim("small-flows", "Fig 4",
          "8 KB flows are RTT-bound: WiFi wins, MPTCP tracks WiFi",
          _at("time", 8 * KB, WiFi=WIFI, LTE=SP["ATT"], MPTCP=MP),
          "WiFi < LTE; MPTCP < LTE; MPTCP <= 1.35 WiFi"),
    Claim("large-flows", "Fig 9",
          "16 MB flows: loss-free LTE beats WiFi; MPTCP beats both",
          _at("time", 16 * MB, WiFi=WIFI, LTE=SP["ATT"], MPTCP=MP),
          "LTE < WiFi; MPTCP < 1.05 LTE"),
    Claim("offload", "Figs 3/5/10",
          "MPTCP's cellular share grows with size (>50% by 4 MB)",
          {**_at("share", 64 * KB, MP_64KB=MP),
           **_at("share", 512 * KB, MP_512KB=MP),
           **_at("share", 4 * MB, MP_4MB=MP)},
          "MP_64KB < 0.25; MP_64KB <= MP_512KB; MP_512KB <= MP_4MB; "
          "MP_4MB > 0.5"),
    Claim("tiny-transfers", "Fig 5",
          "8 KB transfers finish before the cellular JOIN contributes",
          _at("share", 8 * KB, MPTCP=MP), "MPTCP < 0.05"),
    Claim("four-paths", "Figs 4/9", "4-path MPTCP outperforms 2-path",
          {**_at("time", 512 * KB, MP2_512KB=MP, MP4_512KB=MP4),
           **_at("time", 8 * MB, MP2_8MB=MP, MP4_8MB=MP4)},
          "MP4_512KB < 1.1 MP2_512KB; MP4_8MB < 1.1 MP2_8MB"),
    Claim("wifi-lossy-fast", "Tab 2",
          "at 2 MB WiFi loses more packets than LTE yet has the lower RTT",
          {**_at("loss", 2 * MB, WiFi_loss=WIFI, LTE_loss=SP["ATT"]),
           **_at("rtt", 2 * MB, WiFi_RTT=WIFI, LTE_RTT=SP["ATT"])},
          "WiFi_loss > LTE_loss + 0.005; WiFi_RTT < LTE_RTT"),
    Claim("bufferbloat", "Sec 5.1",
          "cellular RTT inflates from 64 KB to 16 MB; WiFi stays flat",
          {f"{name}_{label}": ("rtt", spec, size)
           for name, spec in (("ATT", SP["ATT"]),
                              ("Verizon", SP["Verizon"]), ("WiFi", WIFI))
           for label, size in (("64KB", 64 * KB), ("16MB", 16 * MB))},
          "ATT_16MB > 1.15 ATT_64KB; Verizon_16MB > 1.15 Verizon_64KB; "
          "WiFi_16MB < 2.0 WiFi_64KB"),
    Claim("rtt-ordering", "Fig 12", "4 MB RTTs order WiFi < AT&T < Sprint",
          _at("rtt", 4 * MB, WiFi=WIFI, ATT=SP["ATT"], Sprint=SP["Sprint"]),
          "WiFi < ATT; ATT < Sprint"),
    Claim("reordering", "Fig 13 / Tab 6",
          "3G pairing reorders past the 150 ms real-time budget (8 MB)",
          _at("ofo", 8 * MB, MP_ATT=MP, MP_Sprint=MP_ON["MP_Sprint"]),
          "MP_Sprint > MP_ATT; MP_Sprint > 0.05"),
    Claim("simultaneous-syn", "Fig 8",
          "simultaneous SYN is at worst a wash for 512 KB flows",
          _at("time", 512 * KB, delayed=MP,
              simultaneous=MP.with_(simultaneous_syn=True)),
          "simultaneous <= 1.02 delayed", samples=12),
    Claim("public-wifi", "Figs 6/7",
          "a loaded hotspot pushes MPTCP onto cellular (512 KB)",
          _at("share", 512 * KB, home=MP, public=MP.with_(wifi="public")),
          "public > home"),
    Claim("controllers", "Figs 2/9",
          "8 MB: reno fastest (unfair); olia competitive with coupled",
          _at("time", 8 * MB, reno=MP.with_(controller="reno"),
              olia=MP.with_(controller="olia"), coupled=MP),
          "reno < 1.02 coupled; olia < 1.1 coupled"),
)


def grade_claims(claims: Sequence[Claim], seeds: Sequence[int],
                 results: Sequence[RunResult]) -> List[ClaimResult]:
    """Grade each row from executed runs.  A row with any run missing
    or incomplete fails without raising."""
    runs = {(run.spec, run.size, run.seed): run for run in results}
    graded = []
    for claim in claims:
        cells = claim.cells(seeds)
        bad = sum(1 for cell in cells
                  if cell not in runs or not runs[cell].completed)
        if bad:
            graded.append(ClaimResult(
                claim, False, None, f"{bad} of {len(cells)} runs incomplete"))
            continue
        values = {}
        for name, (reading, spec, size) in claim.quantities.items():
            read, reduce, _ = _READINGS[reading]
            values[name] = reduce([read(runs[spec, size, seed])
                                   for seed in claim.seeds(seeds)])
        margins = {comparison: comparison.margin(values)
                   for comparison in parse_comparisons(claim.comparisons)}
        detail = (claim.detail(values) if claim.detail else ", ".join(
            f"{name} {_READINGS[reading][2](values[name])}"
            for name, (reading, _, _) in claim.quantities.items()))
        graded.append(ClaimResult(
            claim, all(c.holds(m) for c, m in margins.items()),
            min(margins.values()), detail))
    return graded


def run_scorecard(seeds: Sequence[int] = (71, 72, 73),
                  claims: Sequence[Claim] = CLAIMS,
                  **execution) -> List[ClaimResult]:
    """Run every cell ``claims`` need, once each, through
    ``execute_plan`` (``execution`` -- ``jobs``, ``cache``,
    ``backend``, ... -- passes straight through) and grade the rows."""
    from repro.experiments.parallel import execute_plan
    cells = dict.fromkeys(cell for claim in claims
                          for cell in claim.cells(seeds))
    plan = [RunDescriptor(index=index, spec=spec, size=size, seed=seed,
                          period=TimeOfDay.AFTERNOON)
            for index, (spec, size, seed) in enumerate(cells)]
    return grade_claims(claims, seeds, execute_plan(plan, **execution))


def scorecard_rows(results: Sequence[ClaimResult]
                   ) -> Tuple[List[str], List[List[str]]]:
    """The grades as a table (the ``--csv`` export)."""
    return (["claim", "source", "status", "margin", "detail"],
            [[result.claim.claim_id, result.claim.source,
              "PASS" if result.passed else "FAIL",
              "" if result.margin is None else f"{result.margin:+.3f}",
              result.detail] for result in results])


def render_scorecard(results: Sequence[ClaimResult]) -> str:
    lines = ["Paper reproduction scorecard", "=" * 60]
    for result in results:
        claim = result.claim
        lines.append(f"[{'PASS' if result.passed else 'FAIL'}] "
                     f"{claim.claim_id}: {claim.description} [{claim.source}]")
        margin = ("" if result.margin is None
                  else f" (margin {result.margin:+.1%})")
        lines.append(f"       {result.detail}{margin}")
    passed = sum(1 for result in results if result.passed)
    lines += ["=" * 60, f"{passed}/{len(results)} headline claims reproduced"]
    return "\n".join(lines)
