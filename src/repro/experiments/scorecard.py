"""The reproduction scorecard: the paper's claims as one table.

Each :class:`Claim` row names the figure or section it comes from, the
cells it reads and the comparisons their reductions must satisfy, and
:func:`grade_claims` grades every row by its margin.  Two kinds of row
share the table:

* a *seed* row (no ``artifact``) reads explicit seeds:
  :func:`run_scorecard` runs its cells through ``execute_plan`` (so the
  run cache, ``--jobs`` and every backend apply), ``repro scorecard``
  prints the grades and ``tests/integration/test_paper_claims.py``
  asserts them, one per row;
* an *artifact* row reads every run of its cells in one CLI artifact's
  campaign: ``repro fig5`` (and ``repro all``) grades it after the
  tables and exits 1 when it fails.

An *extension* row is an artifact row of an ablation or extension study
(``repro abl_rcvbuf``, ``repro ext_fallback``, ...).  It is gated like
any artifact row when it states the paper's own mechanism (Section
3.1's settings, Section 4's crossover), and *reported* (``gated=False``)
when it goes beyond the paper: it prints with its margin but never
fails the run.
"""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.config import FlowSpec
from repro.experiments.runner import RunDescriptor, RunResult
from repro.experiments.scenarios import FALLBACK_SPECS, SLA_OUTAGE
from repro.experiments.stats import ccdf_fraction_above
from repro.wireless.profiles import TimeOfDay

KB = 1024
MB = 1024 * 1024


def _path(run: RunResult) -> str:
    return "wifi" if run.spec.interface == "wifi" else run.spec.carrier


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.0f} ms"


#: reading -> (what one run contributes, how a cell's runs reduce, how
#: the value prints).  Download times reduce by median, robust to one
#: unlucky RTO in a small sample like the paper's box-plot medians;
#: ``rtt`` and ``loss`` read the spec's own path (an MPTCP spec's is its
#: WiFi subflows), ``cell_rtt`` the carrier's.
_READINGS = {
    "time": (lambda run: run.download_time, statistics.median,
             lambda t: f"{t:.3f}s" if t < 1 else f"{t:.3g}s"),
    "share": (lambda run: run.metrics.cellular_fraction, statistics.mean,
              "{:.0%}".format),
    "rtt": (lambda run: run.metrics.mean_rtt(_path(run)), statistics.mean,
            _ms),
    "cell_rtt": (lambda run: run.metrics.mean_rtt(run.spec.carrier),
                 statistics.mean, _ms),
    "loss": (lambda run: run.metrics.loss_rate(_path(run)),
             statistics.mean, "{:.2%}".format),
    "ofo": (lambda run: ccdf_fraction_above(run.metrics.ofo_delays, 0.150),
            statistics.mean, "{:.1%}".format),
    "in_order": (
        lambda run: 1 - ccdf_fraction_above(run.metrics.ofo_delays, 1e-9),
        statistics.mean, "{:.0%}".format),
    "fallback": (lambda run: float(run.metrics.fallback
                                   in ("plain", "infinite")),
                 statistics.mean, "{:.0%}".format),
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
    #: The CLI artifact (``"fig5"``) whose campaign the row is graded
    #: on: each cell then reduces over every run the campaign made of
    #: it, whatever the seeds.  ``None`` for a seed row.
    artifact: Optional[str] = None
    #: ``False`` for a reported row: graded, printed, never fatal.
    gated: bool = True

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

    @property
    def status(self) -> str:
        """``PASS``, ``FAIL``, or ``MISS``: a reported row not held."""
        return "PASS" if self.passed else (
            "FAIL" if self.claim.gated else "MISS")


def _at(reading: str, size: int, **specs: FlowSpec):
    return {name: (reading, spec, size) for name, spec in specs.items()}


WIFI = FlowSpec.single_path("wifi")
MP = FlowSpec.mptcp()
SP = {name: FlowSpec.single_path("cell", carrier=name.lower())
      for name in ("ATT", "Verizon", "Sprint")}
MP_ON = {f"MP_{name}": MP.with_(carrier=spec.carrier)
         for name, spec in SP.items()}
MP4 = MP.with_(paths=4)
#: Every MPTCP config of the small- and large-flow campaigns.
MP_CONFIGS = {f"MP{paths}" + ("" if cc == "coupled" else f"_{cc}"):
              MP.with_(paths=paths, controller=cc)
              for paths in (2, 4) for cc in ("coupled", "olia", "reno")}
#: The coffee-shop configs: the loaded public hotspot instead of home.
HOTSPOT = {name: spec.with_(wifi="public")
           for name, spec in (("WiFi", WIFI), ("LTE", SP["ATT"]),
                              ("MPTCP", MP))}
LARGE = {f"{n}MB": n * MB for n in (4, 8, 16, 32)}
#: The fallback study's sizes, and its boxes that leave a connection
#: multipath (no box; a JOIN stripper only blocks the second subflow).
SMALL = {"64KB": 64 * KB, "512KB": 512 * KB, "2MB": 2 * MB}
MULTIPATH = ("none", "strip-join")
STRIPPED = MP.with_(middlebox="strip-all")
SPRINT = MP_ON["MP_Sprint"]
VIDEO = MP.with_(workload="video")

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
          "MP4_512KB < 1.05 MP2_512KB; MP4_8MB < 1.05 MP2_8MB"),
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
    # Artifact rows: ``repro <artifact>`` grades each on its campaign.
    Claim("fig2", "Fig 2", "16 MB: MPTCP over AT&T beats SP-WiFi",
          _at("time", 16 * MB, MP_ATT=MP, WiFi=WIFI), "MP_ATT < WiFi",
          artifact="fig2"),
    Claim("fig3", "Fig 3",
          "AT&T's share grows with size; 3G carries less than LTE",
          {**_at("share", 64 * KB, ATT_64KB=MP),
           **_at("share", 16 * MB, ATT_16MB=MP,
                 Sprint_16MB=MP_ON["MP_Sprint"])},
          "ATT_64KB < ATT_16MB; Sprint_16MB < ATT_16MB", artifact="fig3"),
    Claim("fig4", "Fig 4",
          "8 KB: WiFi and MPTCP beat LTE; 4 MB: 4 paths keep pace with 2",
          {**_at("time", 8 * KB, WiFi=WIFI, LTE=SP["ATT"], MPTCP=MP),
           **_at("time", 4 * MB, MP2_4MB=MP, MP4_4MB=MP4)},
          "WiFi < LTE; MPTCP < LTE; MP4_4MB < 1.05 MP2_4MB",
          artifact="fig4"),
    Claim("fig5", "Fig 5",
          "8 KB stays off cellular; MP-2's share passes half by 4 MB",
          {**_at("share", 8 * KB, MP_8KB=MP),
           **_at("share", 512 * KB, MP_512KB=MP),
           **_at("share", 4 * MB, MP_4MB=MP)},
          "MP_8KB < 0.05; MP_8KB <= MP_512KB; MP_4MB > 0.5",
          artifact="fig5"),
    Claim("fig6", "Fig 6",
          "loaded hotspot, 512 KB: LTE beats WiFi; MPTCP tracks the better",
          _at("time", 512 * KB, **HOTSPOT),
          "LTE < WiFi; MPTCP < 1.5 LTE; MPTCP < 1.5 WiFi", artifact="fig6"),
    Claim("fig7", "Fig 7",
          "loaded hotspot: most of a 512 KB flow rides cellular (home: 24%)",
          _at("share", 512 * KB, MPTCP=HOTSPOT["MPTCP"]), "MPTCP > 0.5",
          artifact="fig7"),
    Claim("fig8", "Fig 8",
          "simultaneous SYN is at worst a wash for 512 KB flows",
          _at("time", 512 * KB, delayed=MP,
              simultaneous=MP.with_(simultaneous_syn=True)),
          "simultaneous <= 1.02 delayed", artifact="fig8"),
    Claim("fig9", "Fig 9",
          "8/32 MB: MPTCP beats the best single path; MP-4 keeps pace",
          {f"{name}_{label}": ("time", spec, LARGE[label])
           for label in ("8MB", "32MB")
           for name, spec in (("WiFi", WIFI), ("LTE", SP["ATT"]),
                              ("MP2", MP), ("MP4", MP4))},
          "; ".join(f"MP2_{s} < 1.05 WiFi_{s}; MP2_{s} < 1.05 LTE_{s}; "
                    f"MP4_{s} < 1.05 MP2_{s}" for s in ("8MB", "32MB")),
          artifact="fig9"),
    Claim("fig10", "Fig 10",
          "4-32 MB: cellular carries over half (reno: over 40%) everywhere",
          {f"{name}_{label}": ("share", spec, size)
           for name, spec in MP_CONFIGS.items()
           for label, size in LARGE.items()},
          "; ".join(f"{name}_{label} > {0.4 if 'reno' in name else 0.5}"
                    for name in MP_CONFIGS for label in LARGE),
          lambda v: "lowest share: coupled/olia "
          f"{min(x for n, x in v.items() if 'reno' not in n):.0%}, reno "
          f"{min(x for n, x in v.items() if 'reno' in n):.0%}",
          artifact="fig10"),
    Claim("fig11", "Fig 11",
          "32 MB backlog: MP-4 keeps pace with MP-2, reno with coupled",
          _at("time", 32 * MB, MP2=MP, MP4=MP4,
              MP4_reno=MP_CONFIGS["MP4_reno"]),
          "MP4 < 1.05 MP2; MP4_reno < 1.02 MP4", artifact="fig11"),
    Claim("fig12", "Fig 12",
          "16 MB MPTCP subflow RTTs order WiFi < AT&T < Sprint",
          {**_at("rtt", 16 * MB, WiFi=MP),
           **_at("cell_rtt", 16 * MB, ATT=MP, Sprint=MP_ON["MP_Sprint"])},
          "WiFi < ATT; ATT < Sprint", artifact="fig12"),
    Claim("fig13", "Fig 13",
          "16 MB: AT&T delivers more in order than Sprint, which mostly "
          "reorders",
          _at("in_order", 16 * MB, ATT=MP, Sprint=MP_ON["MP_Sprint"]),
          "ATT > Sprint; Sprint < 0.5", artifact="fig13"),
    Claim("tab2", "Tab 2",
          "16 MB RTTs order WiFi < AT&T < Sprint; AT&T's grows with size",
          {**_at("rtt", 16 * MB, WiFi=WIFI, ATT=SP["ATT"],
                 Sprint=SP["Sprint"]),
           **_at("rtt", 64 * KB, ATT_64KB=SP["ATT"])},
          "WiFi < ATT; ATT < Sprint; ATT > 1.15 ATT_64KB", artifact="tab2"),
    Claim("tab3", "Tab 3",
          "AT&T is loss-free at 64 KB; WiFi's 4 MB RTT stays below AT&T's",
          {**_at("loss", 64 * KB, ATT_loss=SP["ATT"]),
           **_at("rtt", 4 * MB, WiFi_RTT=WIFI, ATT_RTT=SP["ATT"])},
          "ATT_loss < 0.005; WiFi_RTT < ATT_RTT", artifact="tab3"),
    Claim("tab4", "Tab 4",
          "512 KB: hotspot WiFi loses over 1%; AT&T stays clean",
          _at("loss", 512 * KB, WiFi=HOTSPOT["WiFi"], LTE=HOTSPOT["LTE"]),
          "WiFi > 0.01; LTE < 0.005", artifact="tab4"),
    Claim("tab5", "Tab 5",
          "4-32 MB: WiFi lossy with a low RTT, AT&T clean but queued",
          {f"{name}_{reading}_{label}": (reading, spec, size)
           for name, spec in (("WiFi", WIFI), ("ATT", SP["ATT"]))
           for reading in ("loss", "rtt") for label, size in LARGE.items()},
          "; ".join(f"WiFi_loss_{s} > 0.005; WiFi_rtt_{s} < 0.08; "
                    f"ATT_loss_{s} < 0.01; ATT_rtt_{s} > 0.06"
                    for s in LARGE),
          lambda v: "WiFi loss "
          f"{min(v['WiFi_loss_' + s] for s in LARGE):.2%}+, RTT <= "
          f"{_ms(max(v['WiFi_rtt_' + s] for s in LARGE))}; AT&T loss <= "
          f"{max(v['ATT_loss_' + s] for s in LARGE):.2%}, RTT "
          f"{_ms(min(v['ATT_rtt_' + s] for s in LARGE))}+",
          artifact="tab5"),
    Claim("tab6", "Tab 6",
          "every MPTCP WiFi subflow RTT < 120 ms; Sprint reorders more "
          "than AT&T (16 MB)",
          {**{f"WiFi_{c}_{label}": ("rtt", MP_ON["MP_" + c], size)
              for c in SP for label, size in LARGE.items()},
           **_at("ofo", 16 * MB, ATT=MP, Sprint=MP_ON["MP_Sprint"])},
          "; ".join(f"WiFi_{c}_{s} < 0.12" for c in SP for s in LARGE)
          + "; ATT < Sprint",
          lambda v: "worst WiFi subflow RTT "
          f"{_ms(max(x for n, x in v.items() if n.startswith('WiFi')))}; "
          f"OFO > 150 ms: AT&T {v['ATT']:.1%}, Sprint {v['Sprint']:.1%}",
          artifact="tab6"),
    # Extension rows: each ablation or extension study grades its own.
    Claim("abl_rcvbuf", "Sec 3.1",
          "MP-Sprint 4 MB: 2 MB of receive buffer is as good as 8 MB; "
          "64 KB throttles",
          _at("time", 4 * MB, buf_8MB=SPRINT,
              buf_2MB=SPRINT.with_(rcv_buffer=2 * MB),
              buf_64KB=SPRINT.with_(rcv_buffer=64 * KB)),
          "buf_64KB > 1.1 buf_8MB; buf_2MB <= 1.15 buf_8MB",
          artifact="abl_rcvbuf"),
    Claim("abl_ssthresh", "Sec 3.1",
          "SP-Verizon 8 MB: an infinite initial ssthresh inflates the RTT",
          _at("rtt", 8 * MB, ssthresh_64KB=SP["Verizon"],
              ssthresh_inf=SP["Verizon"].with_(ssthresh=1 << 30)),
          "ssthresh_inf > 1.3 ssthresh_64KB", artifact="abl_ssthresh"),
    Claim("abl_penalty", "Sec 3.1",
          "with an 8 MB buffer, subflow penalization never speeds MPTCP up",
          {f"{name}_{label}_{state}": ("time", spec.with_(penalization=on),
                                       size)
           for name, spec in (("ATT", MP), ("Sprint", SPRINT))
           for label, size in (("4MB", 4 * MB), ("16MB", 16 * MB))
           for state, on in (("off", False), ("on", True))},
          "; ".join(f"{c}_{s}_on >= 0.95 {c}_{s}_off"
                    for c in ("ATT", "Sprint") for s in ("4MB", "16MB")),
          artifact="abl_penalty"),
    Claim("ext_crossover", "Sec 4",
          "WiFi wins at 16 KB, LTE at 16 MB, and MPTCP beats both at 16 MB",
          {**_at("time", 16 * KB, WiFi_16KB=WIFI, LTE_16KB=SP["ATT"]),
           **_at("time", 16 * MB, WiFi_16MB=WIFI, LTE_16MB=SP["ATT"],
                 MPTCP_16MB=MP)},
          "WiFi_16KB < LTE_16KB; LTE_16MB < WiFi_16MB; "
          "MPTCP_16MB < LTE_16MB; MPTCP_16MB < WiFi_16MB",
          artifact="ext_crossover"),
    Claim("ext_fallback", "RFC 6824 Sec 3.6",
          "behind every middlebox MPTCP completes; the boxes that break "
          "its options or mappings force a fallback",
          {f"{spec.middlebox.replace('-', '_')}_{label}": (
              "fallback", spec, size)
           for spec in FALLBACK_SPECS for label, size in SMALL.items()},
          "; ".join(f"{spec.middlebox.replace('-', '_')}_{label} "
                    + ("<= 0" if spec.middlebox in MULTIPATH else ">= 1")
                    for spec in FALLBACK_SPECS for label in SMALL),
          gated=False, artifact="ext_fallback"),
    Claim("ext_fallback_cost", "RFC 6824 Sec 3.6",
          "falling back to plain TCP gives up the cellular path's share "
          "from 512 KB on",
          {**_at("time", 512 * KB, clean_512KB=MP, stripped_512KB=STRIPPED),
           **_at("time", 2 * MB, clean_2MB=MP, stripped_2MB=STRIPPED)},
          "stripped_512KB > clean_512KB; stripped_2MB > clean_2MB",
          gated=False, artifact="ext_fallback"),
    Claim("ext_handover", "Sec 6",
          "8 MB through a 4 s WiFi outage: MPTCP hands over, SP-WiFi stalls",
          _at("time", 8 * MB, MPTCP=MP.with_(failure=SLA_OUTAGE),
              WiFi=WIFI.with_(failure=SLA_OUTAGE)),
          "MPTCP < 0.8 WiFi", gated=False, artifact="ext_handover"),
    Claim("ext_realtime", "Sec 5.2",
          "loaded hotspot + LTE: the redundant scheduler delivers frames "
          "sooner",
          {f"{carrier}_{scheduler}": ("time", MP.with_(
              carrier=carrier, wifi="public", scheduler=scheduler,
              workload="realtime"), 512 * KB)
           for carrier in ("att", "verizon")
           for scheduler in ("minrtt", "redundant")},
          "att_redundant < att_minrtt; verizon_redundant < verizon_minrtt",
          gated=False, artifact="ext_realtime"),
    Claim("sched", "Sec 6",
          "video blocks: minRTT beats round-robin and keeps no more on "
          "cellular",
          {**_at("time", 512 * KB, time_minrtt=VIDEO,
                 time_roundrobin=VIDEO.with_(scheduler="roundrobin")),
           **_at("share", 512 * KB, share_minrtt=VIDEO,
                 share_roundrobin=VIDEO.with_(scheduler="roundrobin"))},
          "time_minrtt < time_roundrobin; "
          "share_minrtt <= share_roundrobin + 0.05",
          gated=False, artifact="sched"),
)


def grade_claims(claims: Sequence[Claim], seeds: Sequence[int],
                 results: Sequence[RunResult]) -> List[ClaimResult]:
    """Grade each row from executed runs: a seed row over ``seeds``,
    an artifact row over every run of its cells.  A row with any run
    missing or incomplete fails without raising."""
    by_seed = {(run.spec, run.size, run.seed): run for run in results}
    by_cell: Dict[Tuple[FlowSpec, int], List[RunResult]] = {}
    for run in results:
        by_cell.setdefault((run.spec, run.size), []).append(run)
    graded = []
    for claim in claims:
        # (spec, size) -> its runs, ``None`` standing for a missing one.
        cells = {(spec, size): (
            by_cell.get((spec, size), [None]) if claim.artifact else
            [by_seed.get((spec, size, seed)) for seed in claim.seeds(seeds)])
            for _, spec, size in claim.quantities.values()}
        runs = [run for bucket in cells.values() for run in bucket]
        bad = sum(1 for run in runs if run is None or not run.completed)
        if bad:
            graded.append(ClaimResult(
                claim, False, None, f"{bad} of {len(runs)} runs incomplete"))
            continue
        values = {}
        for name, (reading, spec, size) in claim.quantities.items():
            read, reduce, _ = _READINGS[reading]
            values[name] = reduce([read(run) for run in cells[spec, size]])
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
    """Run every cell the seed rows of ``claims`` need, once each,
    through ``execute_plan`` (``execution`` -- ``jobs``, ``cache``,
    ``backend``, ... -- passes straight through) and grade those rows."""
    from repro.experiments.parallel import execute_plan
    claims = [claim for claim in claims if claim.artifact is None]
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
              result.status,
              "" if result.margin is None else f"{result.margin:+.3f}",
              result.detail] for result in results])


def render_grades(results: Sequence[ClaimResult]) -> str:
    """Two lines per row: the verdict, then the values and margin."""
    lines = []
    for result in results:
        claim = result.claim
        source = claim.source + ("" if claim.gated else ", reported")
        lines.append(f"[{result.status}] "
                     f"{claim.claim_id}: {claim.description} [{source}]")
        margin = ("" if result.margin is None
                  else f" (margin {result.margin:+.1%})")
        lines.append(f"       {result.detail}{margin}")
    return "\n".join(lines)


def render_scorecard(results: Sequence[ClaimResult]) -> str:
    passed = sum(1 for result in results if result.passed)
    return "\n".join(["Paper reproduction scorecard", "=" * 60,
                      render_grades(results), "=" * 60,
                      f"{passed}/{len(results)} headline claims reproduced"])
