"""MPTCP packet schedulers: a pluggable strategy registry.

The scheduler decides which established subflow receives the next run
of connection-level data when more than one has congestion-window
space.  Linux MPTCP v0.86 (the kernel the paper measures) uses the
lowest-SRTT scheduler: fill the fastest path's window first, then the
next, and so on.  That policy is what produces the paper's traffic-
share curves (Figures 3/5/10): WiFi carries everything for tiny flows,
while large flows spill progressively more onto the loss-free cellular
path as WiFi's window stays loss-limited.

Beyond the kernel default, the registry carries the policies the
scheduler literature (and the Dual-LTE measurement study in PAPERS.md)
treats as the interesting design space:

=============  ========================================================
``minrtt``     Linux default: lowest SRTT first (Figure 3/5/10 curves).
``roundrobin`` Rotate across paths regardless of quality (ablation).
``redundant``  Every range on every path; receiver dedups by DSN.
``weighted``   Configurable per-path byte shares (deficit round-robin),
               e.g. ``weighted:wifi=3,att=1``.
``blest``      BLEST/ECF-style blocking estimate: refuse a slow path
               when the remaining send window would drain through the
               fast path within one slow-path RTT (SRTT x cwnd).
``cheapest``   Prefer a designated cheap path until a per-flow data-cap
               budget is spent, then spill to the metered paths, e.g.
               ``cheapest:budget=4194304``.
``qoe``        Adaptive: consumes live per-path SRTT/loss/throughput
               EWMAs from the :mod:`repro.obs` trace bus and switches
               policy (balanced / protect / latency) at runtime.
=============  ========================================================

Scheduler *specs* are strings: a bare registry name (``"blest"``) or a
name followed by ``:key=value,...`` parameters
(``"weighted:wifi=2,att=1"``), so a spec travels through
:class:`~repro.experiments.config.FlowSpec`, journals and run-cache
keys as plain hashable text.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence, Tuple, Type


class SchedulableSubflow(Protocol):
    """What the scheduler needs to see of a subflow."""

    @property
    def established(self) -> bool:  # pragma: no cover - protocol
        ...

    #: True for MP_JOIN backup-mode subflows (carry data only while no
    #: regular subflow is operational -- mirrored in
    #: ``Connection.allocate``).
    backup: bool
    #: Persistent position in the connection's (append-only) subflow
    #: list; stable across subflow churn, unlike list positions.
    index: Optional[int]
    #: Short path label, e.g. ``"wifi"`` / ``"att"``.
    path_name: str

    def srtt(self) -> float:  # pragma: no cover - protocol
        ...

    def can_send(self) -> bool:  # pragma: no cover - protocol
        """True when the subflow has congestion-window budget."""
        ...

    def cwnd_bytes(self) -> int:  # pragma: no cover - protocol
        """Current congestion window in bytes."""
        ...


def eligible_for_data(subflows: Sequence[SchedulableSubflow],
                      subflow: SchedulableSubflow) -> bool:
    """Would ``Connection.allocate`` actually hand this subflow data?

    Mirrors the connection's backup gate: a backup-mode subflow is
    refused while any regular subflow is operational.  Schedulers must
    apply this before counting a subflow as a *preferred* competitor --
    otherwise a fast backup path vetoes the only eligible regular path
    and the transfer stalls until a timer fires.
    """
    if not subflow.backup:
        return True
    return not any(other.established and not other.backup
                   for other in subflows if other is not subflow)


class Scheduler:
    """Base class: transmit preference among established subflows.

    Hooks, called by :class:`~repro.core.connection.MptcpConnection`:

    * :meth:`order` -- the sequence in which the connection offers a
      transmission opportunity to every subflow (used on push events:
      new data queued, window opened).
    * :meth:`admits` -- whether ``candidate`` may take the next run of
      data *right now*; this is where minRTT bites, by refusing a slow
      subflow while a faster one still has window budget.  ``window``
      is the connection-level send window remaining (bytes), for
      blocking-estimate policies; it may be ``None`` in unit tests.
    * :attr:`duplicates` -- when true, every freshly scheduled range is
      also queued for transmission on the *other* subflows (the
      redundant scheduler trades bytes for latency).
    * :meth:`attach` -- called once when the owning connection is
      built; stateful policies grab their metric feeds here.
    * :meth:`on_allocated` -- called after every run of bytes (fresh,
      reinjected or duplicated) is handed to a subflow; budget/share
      policies account here.
    * :attr:`needs_path_metrics` -- when true, the connection installs
      a :class:`repro.obs.pathmetrics.PathMetricsTap` on the trace bus
      *before* building the protocol stack.
    """

    name = "base"
    duplicates = False
    needs_path_metrics = False

    def order(self, subflows: Sequence[SchedulableSubflow]
              ) -> List[SchedulableSubflow]:
        raise NotImplementedError

    def admits(self, subflows: Sequence[SchedulableSubflow],
               candidate: SchedulableSubflow,
               window: Optional[int] = None) -> bool:
        return True

    def attach(self, connection) -> None:
        """Bind to the owning connection (default: nothing to do)."""

    def on_allocated(self, subflow: SchedulableSubflow,
                     nbytes: int) -> None:
        """A run of ``nbytes`` was handed to ``subflow``."""


class LowestRttScheduler(Scheduler):
    """The Linux default: prefer the subflow with the lowest SRTT.

    A subflow is only given data when no *eligible* established subflow
    with a strictly lower SRTT has congestion-window space -- the
    kernel's per-segment "best available subflow" selection.  Backup
    subflows the connection would refuse anyway are not counted as
    competitors (see :func:`eligible_for_data`).
    """

    name = "minrtt"

    def order(self, subflows: Sequence[SchedulableSubflow]
              ) -> List[SchedulableSubflow]:
        ready = [subflow for subflow in subflows if subflow.established]
        ready.sort(key=lambda subflow: subflow.srtt())
        return ready

    def admits(self, subflows: Sequence[SchedulableSubflow],
               candidate: SchedulableSubflow,
               window: Optional[int] = None) -> bool:
        candidate_rtt = candidate.srtt()
        for subflow in subflows:
            if subflow is candidate or not subflow.established:
                continue
            if (subflow.srtt() < candidate_rtt and subflow.can_send()
                    and eligible_for_data(subflows, subflow)):
                return False
        return True


class RoundRobinScheduler(Scheduler):
    """Rotate through subflows regardless of path quality (ablation).

    Purely opportunistic admission: any subflow with window space may
    take data, so traffic spreads onto slow paths immediately.

    Rotation is tracked by persistent subflow identity
    (:attr:`SchedulableSubflow.index`), not by position in the filtered
    ready list: when a subflow establishes or dies mid-transfer, a
    positional cursor skips or double-serves paths, while the identity
    cursor simply continues from the last path actually served.
    """

    name = "roundrobin"

    def __init__(self) -> None:
        #: Index of the subflow most recently placed at the head of the
        #: rotation; the next call starts strictly after it.
        self._last_index = -1

    def order(self, subflows: Sequence[SchedulableSubflow]
              ) -> List[SchedulableSubflow]:
        ready = [subflow for subflow in subflows if subflow.established]
        if not ready:
            return ready
        ready.sort(key=lambda subflow: subflow.index)
        start = 0
        for position, subflow in enumerate(ready):
            if subflow.index > self._last_index:
                start = position
                break
        rotated = ready[start:] + ready[:start]
        self._last_index = rotated[0].index
        return rotated


class RedundantScheduler(Scheduler):
    """Send every range on every path; the receiver dedups by DSN.

    The latency play for the paper's Section 5.2 problem: a packet's
    delivery time becomes the *minimum* over paths, eliminating the
    reorder wait behind a slow path, at the price of transmitting each
    byte once per subflow.  (Equivalent to the 'redundant' scheduler
    later shipped with Linux MPTCP.)
    """

    name = "redundant"
    duplicates = True

    def order(self, subflows: Sequence[SchedulableSubflow]
              ) -> List[SchedulableSubflow]:
        ready = [subflow for subflow in subflows if subflow.established]
        ready.sort(key=lambda subflow: subflow.srtt())
        return ready


class WeightedScheduler(Scheduler):
    """Deficit-weighted shares: steer bytes toward configured paths.

    ``weighted:wifi=3,att=1`` targets a 3:1 byte split.  Each path's
    *deficit* is served bytes divided by its weight; the path with the
    smallest deficit is the most underweight and goes first.  A subflow
    is refused while a more-underweight eligible sibling still has
    window space, so the realized split tracks the target even when the
    underweight path is the slower one.  Unlisted paths get weight 1.
    """

    name = "weighted"

    def __init__(self, weights: Optional[Dict[str, float]] = None) -> None:
        self.weights = {name: float(value)
                        for name, value in (weights or {}).items()}
        if any(value <= 0 for value in self.weights.values()):
            raise ValueError("weighted scheduler weights must be positive")
        self._served: Dict[str, int] = {}

    def _deficit(self, subflow: SchedulableSubflow) -> float:
        served = self._served.get(subflow.path_name, 0)
        return served / self.weights.get(subflow.path_name, 1.0)

    def order(self, subflows: Sequence[SchedulableSubflow]
              ) -> List[SchedulableSubflow]:
        ready = [subflow for subflow in subflows if subflow.established]
        ready.sort(key=lambda subflow: (self._deficit(subflow),
                                        subflow.srtt()))
        return ready

    def admits(self, subflows: Sequence[SchedulableSubflow],
               candidate: SchedulableSubflow,
               window: Optional[int] = None) -> bool:
        deficit = self._deficit(candidate)
        for subflow in subflows:
            if subflow is candidate or not subflow.established:
                continue
            if (self._deficit(subflow) < deficit and subflow.can_send()
                    and eligible_for_data(subflows, subflow)):
                return False
        return True

    def on_allocated(self, subflow: SchedulableSubflow,
                     nbytes: int) -> None:
        self._served[subflow.path_name] = (
            self._served.get(subflow.path_name, 0) + nbytes)


def _blocking_refusal(subflows: Sequence[SchedulableSubflow],
                      candidate: SchedulableSubflow,
                      window: Optional[int], bias: float) -> bool:
    """The BLEST/ECF blocking estimate: should ``candidate`` wait?

    ``candidate`` is slower than the best eligible path, which is
    currently cwnd-limited.  Sending on the slow path occupies the
    connection-level window for one slow-path RTT; in that time the
    fast path will drain roughly ``cwnd_f * srtt_s / srtt_f`` bytes.
    If the *remaining* send window fits inside that estimate, putting
    it on the slow path would starve (block) the fast path when its
    window reopens -- better to wait.
    """
    ready = [subflow for subflow in subflows
             if subflow.established and eligible_for_data(subflows, subflow)]
    if not ready:
        return False
    fast = min(ready, key=lambda subflow: subflow.srtt())
    if candidate is fast or candidate.srtt() <= fast.srtt():
        return False
    if fast.can_send():
        return True  # the minRTT rule: the fast path is open right now
    if window is None:
        return False
    fast_rtt = max(fast.srtt(), 1e-6)
    drained = fast.cwnd_bytes() * (candidate.srtt() / fast_rtt)
    return window <= drained * bias


class BlestScheduler(Scheduler):
    """BLEST/ECF-style blocking-estimate scheduler.

    Orders by SRTT like minRTT, but its admission test also refuses a
    slow path when the fast path is only *momentarily* cwnd-limited and
    the remaining send window would drain through it within one
    slow-path RTT (``srtt x cwnd`` estimate).  ``blest:bias=1.25``
    scales the estimate (larger = more conservative about slow paths).
    """

    name = "blest"

    def __init__(self, bias: float = 1.0) -> None:
        if bias <= 0:
            raise ValueError("blest bias must be positive")
        self.bias = float(bias)

    def order(self, subflows: Sequence[SchedulableSubflow]
              ) -> List[SchedulableSubflow]:
        ready = [subflow for subflow in subflows if subflow.established]
        ready.sort(key=lambda subflow: subflow.srtt())
        return ready

    def admits(self, subflows: Sequence[SchedulableSubflow],
               candidate: SchedulableSubflow,
               window: Optional[int] = None) -> bool:
        return not _blocking_refusal(subflows, candidate, window, self.bias)


class CheapestFirstScheduler(Scheduler):
    """Prefer a designated cheap path until its data budget is spent.

    Models a metered deployment (the Dual-LTE study's cost concern):
    one path is flat-rate or cheap up to a cap, the rest are expensive.
    While the per-flow budget lasts, the cheap path is preferred and
    the expensive paths only take spill-over the cheap window cannot
    absorb; once the budget is spent the roles flip and the cheap path
    becomes the last resort.

    ``cheapest:path=att,budget=4194304``; ``path`` defaults to the
    connection's default path (subflow index 0), ``budget`` to 4 MiB.
    """

    name = "cheapest"

    DEFAULT_BUDGET = 4 * 1024 * 1024

    def __init__(self, path: Optional[str] = None,
                 budget: int = DEFAULT_BUDGET) -> None:
        if budget <= 0:
            raise ValueError("cheapest budget must be positive")
        self.cheap_path = path
        self.budget = int(budget)
        self.cheap_used = 0

    def _is_cheap(self, subflow: SchedulableSubflow) -> bool:
        if self.cheap_path is not None:
            return subflow.path_name == self.cheap_path
        return subflow.index == 0

    @property
    def budget_left(self) -> bool:
        return self.cheap_used < self.budget

    def order(self, subflows: Sequence[SchedulableSubflow]
              ) -> List[SchedulableSubflow]:
        ready = [subflow for subflow in subflows if subflow.established]
        cheap_rank = 0 if self.budget_left else 1
        ready.sort(key=lambda subflow: (
            cheap_rank if self._is_cheap(subflow) else 1 - cheap_rank,
            subflow.srtt()))
        return ready

    def admits(self, subflows: Sequence[SchedulableSubflow],
               candidate: SchedulableSubflow,
               window: Optional[int] = None) -> bool:
        preferred_is_cheap = self.budget_left
        if self._is_cheap(candidate) == preferred_is_cheap:
            return True
        # The dispreferred tier only takes what the preferred tier
        # cannot absorb right now.
        return not any(
            subflow.established and subflow.can_send()
            and self._is_cheap(subflow) == preferred_is_cheap
            and eligible_for_data(subflows, subflow)
            for subflow in subflows if subflow is not candidate)

    def on_allocated(self, subflow: SchedulableSubflow,
                     nbytes: int) -> None:
        if self._is_cheap(subflow):
            self.cheap_used += nbytes


class QoeAdaptiveScheduler(Scheduler):
    """Adaptive policy switching on live per-path QoE metrics.

    Consumes the per-path SRTT / loss / throughput EWMAs that a
    :class:`repro.obs.pathmetrics.PathMetricsTap` aggregates from the
    trace-bus probes (``sched.select``, ``tcp.fast_retransmit``,
    ``rto.fire``), re-evaluating at most once per ``interval`` of
    simulated time, and switches between three policies:

    * ``balanced`` -- minRTT behaviour (the default);
    * ``protect`` -- a path whose loss EWMA exceeds ``loss_cutoff`` is
      demoted: it only takes data when no healthy path can;
    * ``latency`` -- the paths' SRTTs have diverged past ``rtt_ratio``:
      apply the BLEST blocking estimate so the slow path cannot stall
      the interactive stream.

    Policy switches are themselves traced (``sched.policy``).  Without
    a tap (e.g. bare unit tests) it degrades to plain minRTT.
    """

    name = "qoe"
    needs_path_metrics = True

    def __init__(self, loss_cutoff: float = 0.02, rtt_ratio: float = 4.0,
                 interval: float = 0.25, bias: float = 1.0) -> None:
        self.loss_cutoff = float(loss_cutoff)
        self.rtt_ratio = float(rtt_ratio)
        self.interval = float(interval)
        self.bias = float(bias)
        self.policy = "balanced"
        self._demoted: frozenset = frozenset()
        self._connection = None
        self._tap = None
        self._next_eval = float("-inf")

    def attach(self, connection) -> None:
        from repro.obs.pathmetrics import metrics_tap
        self._connection = connection
        self._tap = metrics_tap(connection.sim.trace)

    # ------------------------------------------------------------------

    def _evaluate(self, subflows: Sequence[SchedulableSubflow]) -> None:
        connection = self._connection
        if connection is None:
            return
        now = connection.sim.now
        if now < self._next_eval:
            return
        self._next_eval = now + self.interval
        demoted = set()
        if self._tap is not None:
            for subflow in subflows:
                if not subflow.established:
                    continue
                health = self._tap.path(subflow.path_name)
                if (health is not None
                        and health.loss_rate() > self.loss_cutoff):
                    demoted.add(subflow.path_name)
        policy = "balanced"
        ready = [subflow for subflow in subflows if subflow.established]
        if demoted and len(demoted) < len({s.path_name for s in ready}):
            policy = "protect"
        else:
            demoted = set()
            rtts = [subflow.srtt() for subflow in ready]
            if len(rtts) >= 2 and max(rtts) > self.rtt_ratio * min(rtts):
                policy = "latency"
        if policy != self.policy:
            trace = connection.sim.trace
            if trace.enabled:
                trace.emit(now, "sched.policy", policy=policy,
                           previous=self.policy,
                           demoted=sorted(demoted))
        self.policy = policy
        self._demoted = frozenset(demoted)

    def order(self, subflows: Sequence[SchedulableSubflow]
              ) -> List[SchedulableSubflow]:
        self._evaluate(subflows)
        demoted = self._demoted
        ready = [subflow for subflow in subflows if subflow.established]
        ready.sort(key=lambda subflow: (
            1 if subflow.path_name in demoted else 0, subflow.srtt()))
        return ready

    def admits(self, subflows: Sequence[SchedulableSubflow],
               candidate: SchedulableSubflow,
               window: Optional[int] = None) -> bool:
        self._evaluate(subflows)
        demoted = self._demoted
        if candidate.path_name in demoted:
            # A lossy path takes data only when no healthy path can.
            if any(subflow.established and subflow.can_send()
                   and subflow.path_name not in demoted
                   and eligible_for_data(subflows, subflow)
                   for subflow in subflows if subflow is not candidate):
                return False
        if self.policy == "latency":
            return not _blocking_refusal(subflows, candidate, window,
                                         self.bias)
        candidate_rtt = candidate.srtt()
        for subflow in subflows:
            if subflow is candidate or not subflow.established:
                continue
            if (subflow.path_name in demoted
                    and candidate.path_name not in demoted):
                continue  # a demoted path never vetoes a healthy one
            if (subflow.srtt() < candidate_rtt and subflow.can_send()
                    and eligible_for_data(subflows, subflow)):
                return False
        return True


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------

_SCHEDULERS: Dict[str, Type[Scheduler]] = {}


def register_scheduler(cls: Type[Scheduler]) -> Type[Scheduler]:
    """Add a scheduler class to the registry under ``cls.name``."""
    if not cls.name or cls.name == "base":
        raise ValueError("scheduler classes need a distinct 'name'")
    _SCHEDULERS[cls.name] = cls
    return cls


for _cls in (LowestRttScheduler, RoundRobinScheduler, RedundantScheduler,
             WeightedScheduler, BlestScheduler, CheapestFirstScheduler,
             QoeAdaptiveScheduler):
    register_scheduler(_cls)


def scheduler_names() -> List[str]:
    """The registered scheduler names, sorted."""
    return sorted(_SCHEDULERS)


def parse_strategy(spec: str) -> Tuple[str, Dict[str, str]]:
    """Split a strategy spec into (name, params).

    ``"blest"`` -> ``("blest", {})``;
    ``"weighted:wifi=2,att=1"`` -> ``("weighted", {"wifi": "2", ...})``.
    Shared with the path-manager registry, which uses the same syntax.
    """
    name, _, raw = spec.partition(":")
    params: Dict[str, str] = {}
    if raw:
        for item in raw.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise ValueError(
                    f"bad strategy parameter {item!r} in {spec!r}; "
                    "expected key=value")
            params[key.strip()] = value.strip()
    return name.strip(), params


def _build(cls: Type[Scheduler], spec: str,
           params: Dict[str, str]) -> Scheduler:
    if cls is WeightedScheduler:
        return WeightedScheduler(
            {path: float(value) for path, value in params.items()})
    if cls is BlestScheduler:
        return BlestScheduler(bias=float(params.pop("bias", 1.0)))
    if cls is CheapestFirstScheduler:
        return CheapestFirstScheduler(
            path=params.pop("path", None),
            budget=int(params.pop("budget",
                                  CheapestFirstScheduler.DEFAULT_BUDGET)))
    if cls is QoeAdaptiveScheduler:
        return QoeAdaptiveScheduler(
            loss_cutoff=float(params.pop("loss_cutoff", 0.02)),
            rtt_ratio=float(params.pop("rtt_ratio", 4.0)),
            interval=float(params.pop("interval", 0.25)),
            bias=float(params.pop("bias", 1.0)))
    if params:
        raise ValueError(
            f"scheduler {cls.name!r} takes no parameters, got {spec!r}")
    return cls()


def make_scheduler(spec: str) -> Scheduler:
    """Instantiate a scheduler from a spec string.

    A spec is a registry name -- one of :func:`scheduler_names`
    (``minrtt``, the default, plus ``roundrobin``, ``redundant``,
    ``weighted``, ``blest``, ``cheapest``, ``qoe``) -- optionally
    followed by ``:key=value,...`` parameters.
    """
    name, params = parse_strategy(spec)
    try:
        cls = _SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; expected one of "
            f"{scheduler_names()}") from None
    try:
        return _build(cls, spec, dict(params))
    except (TypeError, ValueError) as error:
        raise ValueError(
            f"bad scheduler spec {spec!r}: {error}") from None
