"""Flow configurations: the labels on the paper's x-axes.

A :class:`FlowSpec` is everything about a measurement except the file
size and the random draw: single-path vs multipath, which carrier and
WiFi flavor, how many paths, which congestion controller, and the
protocol knobs the paper varies (simultaneous SYN) or we ablate
(scheduler, penalization, ssthresh, receive buffer).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

from repro.core.connection import MptcpConfig
from repro.tcp.endpoint import TcpConfig

_CARRIER_LABELS = {"att": "ATT", "verizon": "VZW", "sprint": "Sprint"}


def parse_failure(value: str) -> dict:
    """Parse a failure-schedule spec into its parameters.

    Grammar: ``outage:down=<seconds>,up=<seconds>|never[,path=wifi|cell]``
    — an interface outage window on one access path, the
    bench_ext_handover schedule as a first-class campaign knob.
    ``"none"`` raises (callers gate on it before parsing).
    """
    kind, _, params_text = value.partition(":")
    if kind != "outage":
        raise ValueError(f"unknown failure kind {kind!r}; known: outage")
    params = {}
    for item in filter(None, params_text.split(",")):
        name, sep, text = item.partition("=")
        if not sep:
            raise ValueError(f"bad failure parameter {item!r}")
        params[name] = text
    unknown = set(params) - {"down", "up", "path"}
    if unknown:
        raise ValueError(
            f"unknown failure parameters: {', '.join(sorted(unknown))}")
    if "down" not in params or "up" not in params:
        raise ValueError(
            f"failure spec {value!r} needs down=<s> and up=<s>|never")
    down_at = float(params["down"])
    up_at = (None if params["up"] == "never" else float(params["up"]))
    if down_at < 0.0:
        raise ValueError("outage down time must be >= 0")
    if up_at is not None and up_at <= down_at:
        raise ValueError("outage recovery must follow the outage")
    path = params.get("path", "wifi")
    if path not in ("wifi", "cell"):
        raise ValueError(f"bad failure path {path!r}")
    return {"kind": "outage", "down_at": down_at, "up_at": up_at,
            "path": path}


@dataclass(frozen=True)
class FlowSpec:
    """One transport configuration of the measurement study."""

    mode: str                      # "sp" (single path) or "mp" (MPTCP)
    carrier: str = "att"           # att | verizon | sprint
    wifi: str = "home"             # home | public
    interface: str = "wifi"        # sp only: wifi | cell
    controller: str = "coupled"    # reno | coupled | olia
    paths: int = 2                 # mp only: 2 or 4
    simultaneous_syn: bool = False
    #: Scheduler strategy spec (see
    #: :func:`repro.core.scheduler.make_scheduler`): a registry name
    #: such as ``minrtt`` / ``roundrobin`` / ``redundant`` / ``blest``
    #: / ``qoe``, optionally parameterized (``weighted:wifi=2,att=1``).
    scheduler: str = "minrtt"
    #: Path manager (mp only): always ``fullmesh``, the Linux default
    #: the paper measures.  The field stays because its ``asdict`` key
    #: is part of every stored result.
    path_manager: str = "fullmesh"
    penalization: bool = False
    ssthresh: int = 64 * 1024
    rcv_buffer: int = 8 * 1024 * 1024
    #: On-path middlebox profile ("none" or a name from
    #: :data:`repro.middlebox.PROFILES`), which interface's access
    #: links it sits on, and the per-packet mangling probability.
    middlebox: str = "none"
    middlebox_path: str = "wifi"   # wifi | cell | server
    middlebox_prob: float = 1.0
    #: Application workload driving the flow: ``bulk`` (HTTP download,
    #: the paper's measurement), ``pageload`` (app.web page fetch),
    #: ``video`` (periodic streaming blocks), ``realtime`` (fixed-rate
    #: frames, latency-sensitive).
    workload: str = "bulk"
    #: Access-network pair: ``default`` (the paper's WiFi + carrier
    #: testbed) or a name from
    #: :data:`repro.wireless.profiles.PATH_PAIRS` (e.g. ``dual-lte``).
    path_pair: str = "default"
    #: Shared-world background traffic: ``none`` (stand-alone flow,
    #: the paper's measurement) or a preset from
    #: :data:`repro.world.WORLDS` (``bg-light``, ``closed-32``, ...)
    #: filling the access links with fluid background flows.
    world: str = "none"
    #: Injected failure schedule: ``none`` (the paper's undisturbed
    #: runs) or a spec parsed by :func:`parse_failure`, e.g.
    #: ``outage:down=2,up=6`` for the bench_ext_handover window.
    failure: str = "none"

    def __post_init__(self) -> None:
        if self.mode not in ("sp", "mp"):
            raise ValueError(f"mode must be 'sp' or 'mp', not {self.mode!r}")
        if self.mode == "sp" and self.interface not in ("wifi", "cell"):
            raise ValueError(f"bad sp interface {self.interface!r}")
        if self.mode == "mp" and self.paths not in (2, 4):
            raise ValueError("MPTCP runs use 2 or 4 paths")
        if self.middlebox != "none":
            from repro.middlebox import PROFILES
            if self.middlebox not in PROFILES:
                raise ValueError(
                    f"unknown middlebox profile {self.middlebox!r}; "
                    f"known: none, {', '.join(sorted(PROFILES))}")
        if self.middlebox_path not in ("wifi", "cell", "server"):
            raise ValueError(
                f"bad middlebox path {self.middlebox_path!r}")
        if not 0.0 <= self.middlebox_prob <= 1.0:
            raise ValueError("middlebox_prob must be within [0, 1]")
        if self.workload not in ("bulk", "pageload", "video", "realtime"):
            raise ValueError(f"unknown workload {self.workload!r}")
        if self.workload != "bulk" and self.mode != "mp":
            raise ValueError(
                "non-bulk workloads are multipath measurements; "
                "use mode='mp'")
        from repro.core.scheduler import parse_strategy, scheduler_names
        if parse_strategy(self.scheduler)[0] not in scheduler_names():
            raise ValueError(f"unknown scheduler {self.scheduler!r}; "
                             f"known: {', '.join(scheduler_names())}")
        if self.path_manager != "fullmesh":
            raise ValueError(f"unknown path manager {self.path_manager!r}; "
                             f"known: fullmesh")
        if self.path_pair != "default":
            from repro.wireless.profiles import PATH_PAIRS
            if self.path_pair not in PATH_PAIRS:
                raise ValueError(
                    f"unknown path pair {self.path_pair!r}; known: "
                    f"default, {', '.join(sorted(PATH_PAIRS))}")
        if self.world != "none":
            from repro.world import WORLDS
            if self.world not in WORLDS:
                raise ValueError(
                    f"unknown world {self.world!r}; known: "
                    f"none, {', '.join(sorted(WORLDS))}")
        if self.failure != "none":
            parse_failure(self.failure)  # raises on malformed specs

    # ------------------------------------------------------------------
    # Constructors matching the paper's vocabulary
    # ------------------------------------------------------------------

    @classmethod
    def single_path(cls, interface: str, carrier: str = "att",
                    wifi: str = "home", **kwargs) -> "FlowSpec":
        """SP-WiFi or SP-carrier."""
        return cls(mode="sp", interface=interface, carrier=carrier,
                   wifi=wifi, **kwargs)

    @classmethod
    def mptcp(cls, carrier: str = "att", controller: str = "coupled",
              paths: int = 2, wifi: str = "home", **kwargs) -> "FlowSpec":
        """MP-2 / MP-4 over WiFi plus one cellular carrier."""
        return cls(mode="mp", carrier=carrier, controller=controller,
                   paths=paths, wifi=wifi, **kwargs)

    def with_(self, **changes) -> "FlowSpec":
        """A modified copy (ablations)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Labels and derived configs
    # ------------------------------------------------------------------

    @property
    def label(self) -> str:
        """The figure label, e.g. 'SP-WiFi', 'MP-ATT', 'MP-4 (olia)'."""
        if self.mode == "sp":
            if self.interface == "wifi":
                return "SP-WiFi"
            return f"SP-{_CARRIER_LABELS[self.carrier]}"
        base = f"MP-{self.paths}"
        suffix = ("" if self.controller == "coupled"
                  else f" ({self.controller})")
        return f"{base}{suffix}"

    @property
    def carrier_label(self) -> str:
        return _CARRIER_LABELS[self.carrier]

    @cached_property
    def identity(self) -> str:
        """Canonical string of *every* field, for seed derivation and
        resume-journal keys; computed once per spec.

        ``label`` alone is ambiguous: an ablation can put two specs with
        the same label and carrier but different scheduler or ssthresh
        in one campaign, and anything keyed on the label would silently
        collide.

        Fields added after the first committed campaigns are left out
        while they hold their default (:data:`_IDENTITY_GATES`): every
        pre-existing spec must keep the identity (and hence the derived
        per-run seeds and journal keys) it had before the field existed,
        or committed campaign outputs would shift.  The cached value
        lives in the instance ``__dict__``, outside the dataclass
        fields, so equality, hashing and ``asdict`` never see it.
        """
        parts = []
        for name in _IDENTITY_FIELDS:
            gate = _IDENTITY_GATES.get(name)
            if gate is None or getattr(self, gate[0]) != gate[1]:
                parts.append(f"{name}={getattr(self, name)}")
        return ";".join(parts)

    @property
    def server_interfaces(self) -> int:
        return 2 if (self.mode == "mp" and self.paths == 4) else 1

    @property
    def cost_weight(self) -> float:
        """Relative simulation cost per transferred byte.

        The fallback input to :class:`repro.cache.CostModel` when no
        calibration data exists yet: MPTCP runs pay for DSS mapping,
        scheduler decisions and per-subflow ACK clocking on top of the
        single-path packet pipeline, and four subflows cost more than
        two.  The constants are deliberately coarse — dispatch ordering
        only needs the *ranking* of cells to be roughly right, and
        observed wall times replace this heuristic as soon as a run
        log or a live campaign provides them.

        Shared-world cells multiply on top: the fluid kernel itself is
        nearly free per background flow (hybrid packet/fluid), but the
        contention it creates slows the foreground transfer -- more
        simulated seconds, more solver pushes, and a bottleneck link
        pinned to per-packet service (no bursts).  Re-timed on the
        current packet path (MP-2 AT&T, every registered world) the
        premium is small -- within the run-to-run noise at 2 MB, 3-18%
        at 8 MB -- and flat in concurrency, so the multiplier is
        correspondingly gentle; it still guarantees a world cell
        outranks the equivalent stand-alone cell at the same size, so
        a mixed ``repro all`` + ``repro world`` plan fronts its world
        cells instead of parking them on the tail.
        """
        if self.mode == "sp":
            weight = 1.0
        else:
            weight = 1.8 if self.paths == 2 else 2.6
            if self.middlebox != "none":
                weight *= 1.1
        if self.world != "none":
            from repro.world import WORLDS
            concurrency = WORLDS[self.world].expected_concurrency
            weight *= 1.2 + min(0.25, 0.01 * concurrency)
        return weight

    def tcp_config(self) -> TcpConfig:
        return TcpConfig(initial_ssthresh=self.ssthresh,
                         rcv_buffer=self.rcv_buffer)

    def mptcp_config(self) -> MptcpConfig:
        if self.mode != "mp":
            raise RuntimeError("mptcp_config() on a single-path spec")
        return MptcpConfig(
            controller=self.controller,
            scheduler=self.scheduler,
            rcv_buffer=self.rcv_buffer,
            penalization=self.penalization,
            simultaneous_syn=self.simultaneous_syn,
            tcp=self.tcp_config(),
        )


#: Identity-gated fields: ``field -> (gate field, default)``.  A field
#: is left out of :attr:`FlowSpec.identity` while its gate field holds
#: the default; the middlebox trio is gated together on ``middlebox``.
_IDENTITY_GATES = {
    "middlebox": ("middlebox", "none"),
    "middlebox_path": ("middlebox", "none"),
    "middlebox_prob": ("middlebox", "none"),
    "path_manager": ("path_manager", "fullmesh"),
    "workload": ("workload", "bulk"),
    "path_pair": ("path_pair", "default"),
    "world": ("world", "none"),
    "failure": ("failure", "none"),
}

_IDENTITY_FIELDS = tuple(sorted(field.name for field in fields(FlowSpec)))
