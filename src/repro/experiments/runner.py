"""Running measurements: one download, or a whole randomized campaign.

:class:`Measurement` reproduces one row of the paper's methodology
(Section 3.2): build a fresh environment, warm the cellular radio (the
paper's pre-measurement pings), start tcpdump at both ends, download
one object over the configured transport, and extract the metrics.

:class:`Campaign` reproduces the study structure: a matrix of
configurations x file sizes x repetitions across day periods, with the
*order randomized per round* exactly as the paper does to decorrelate
temporal effects.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.app.http import HTTP_PORT, HttpClient, HttpServerSession, \
    PlainTcpAcceptor
from repro.core.connection import MptcpConnection, MptcpListener
from repro.core.coupling import RenoController
from repro.experiments.config import FlowSpec
from repro.perf import NULL_INSTRUMENTATION
from repro.sim.rng import derive_seed
from repro.testbed import Testbed, TestbedConfig
from repro.trace.capture import PacketCapture
from repro.trace.metrics import ConnectionMetrics, connection_metrics
from repro.wireless.profiles import TimeOfDay

#: Events budget per data packet (handshake, data, ack, timers...), a
#: runaway guard for deadlocked runs rather than a tight bound.
_EVENTS_PER_PACKET = 60


def descriptor_key(spec: FlowSpec, size: int, seed: int,
                   period: TimeOfDay) -> str:
    """The canonical identity of one campaign cell.

    Built from the spec's full :attr:`FlowSpec.identity` so ablation
    specs sharing a label never collide.  This single function keys
    *both* persistence layers — the per-campaign resume journal
    (:class:`repro.experiments.storage.ResultJournal`) and the
    cross-campaign run cache (:class:`repro.cache.RunCache`) — so the
    two can never disagree about which cell a stored result belongs
    to.  The cache additionally folds the storage
    ``FORMAT_VERSION`` into its on-disk digest; the journal does not
    need to, because a journal file never outlives the campaign
    invocation cycle the way the shared cache does.
    """
    return f"{spec.identity}|{size}|{seed}|{period.value}"


@dataclass
class RunResult:
    """Everything one measurement yields."""

    spec: FlowSpec
    size: int
    seed: int
    period: TimeOfDay
    completed: bool
    download_time: Optional[float]
    metrics: ConnectionMetrics
    established_at: Optional[float] = None
    subflow_count: int = 0
    #: Shared-world background-traffic summary (flows started /
    #: completed, goodput, Jain index, ...) when the spec names a
    #: world; ``None`` for stand-alone runs.
    world: Optional[dict] = None
    #: Snapshot of the run's :class:`repro.obs.metrics.MetricsRegistry`
    #: (counters / gauges / histograms) when metrics were enabled;
    #: ``None`` otherwise.  Purely observational — never feeds back
    #: into results.
    obs_metrics: Optional[dict] = None

    @property
    def key(self) -> Tuple[FlowSpec, int]:
        return (self.spec, self.size)


class Measurement:
    """One object download in a fresh simulated environment."""

    def __init__(self, spec: FlowSpec, size: int, seed: int = 0,
                 period: TimeOfDay = TimeOfDay.AFTERNOON,
                 timeout: Optional[float] = None,
                 wifi_profile=None, cell_profile=None,
                 trace: str = "off", trace_path: Optional[str] = None,
                 metrics: str = "off") -> None:
        self.spec = spec
        self.size = size
        self.seed = seed
        self.period = period
        self.timeout = timeout
        self.wifi_profile = wifi_profile
        self.cell_profile = cell_profile
        #: Protocol-event tracing mode: ``"off"`` (the null bus, free),
        #: ``"ring"`` (in-memory flight recorder, dumped to
        #: ``trace_path`` when the run raises), or ``"jsonl"`` (stream
        #: every event to ``trace_path``).  Tracing is passive: the
        #: metrics and the simulation are byte-identical in all modes.
        self.trace = trace
        self.trace_path = trace_path
        #: Metrics mode: ``"off"`` (the null registry, free) or
        #: ``"on"`` (aggregate counters/histograms, snapshotted onto
        #: :attr:`RunResult.obs_metrics`).  Passive, like tracing.
        self.metrics = metrics
        #: The bus installed for the last :meth:`run` (query its
        #: retained events with ``trace_bus.events(...)``).
        self.trace_bus = None
        #: Where the flight recorder landed, when a run raised.
        self.flight_dump_path: Optional[str] = None

    def run(self, instrumentation=None) -> RunResult:
        inst = (instrumentation if instrumentation is not None
                else NULL_INSTRUMENTATION)
        spec = self.spec
        with inst.phase("setup"):
            wifi_profile, cell_profile = self._path_pair_profiles()
            testbed = Testbed(TestbedConfig(
                carrier=spec.carrier, wifi=spec.wifi,
                server_interfaces=spec.server_interfaces,
                period=self.period, seed=self.seed,
                wifi_profile=wifi_profile,
                cell_profile=cell_profile))
            trace_bus = self._install_trace(testbed)
            metrics_registry = self._install_metrics(testbed)
            server_capture = PacketCapture(testbed.server)
            # The client side only feeds download time and per-path
            # byte shares, never sender-side flow analysis.
            client_capture = PacketCapture(testbed.client,
                                           analyze_senders=False)
            self._install_middlebox(testbed)

            if spec.mode == "sp":
                client, connection = self._start_single_path(testbed)
            else:
                client, connection = self._start_mptcp(testbed)
            world = self._start_world(testbed, client)
            self._install_failure(testbed, connection)

        timeout = self.timeout
        if timeout is None:
            # Generous: even Sprint 3G at a deeply faded ~200 kbit/s
            # finishes within this, and stalls return early anyway.
            timeout = 120.0 + self.size / 12_500.0
        max_events = 200_000 + (self.size // 1448) * _EVENTS_PER_PACKET
        if world is not None:
            # Background contention stretches the foreground transfer
            # (residual capacity floors at 2% of nominal) and the
            # fluid kernel adds its own arrival/completion events.
            timeout *= 4.0
            max_events += 2_000_000
        try:
            with inst.phase("simulate"):
                testbed.run(until=timeout, max_events=max_events)
            inst.observe_simulator(testbed.sim)

            record = client.record
            ofo = []
            subflow_count = 0
            if connection is not None:
                ofo = connection.receive_buffer.metrics.delays()
                subflow_count = len(connection.subflows)
            with inst.phase("extract"):
                metrics = connection_metrics(server_capture,
                                             client_capture,
                                             ofo_delays=ofo)
            if connection is not None:
                metrics.fallback = connection.fallback_mode or "none"
            if record.complete:
                # Prefer the app-level timing (identical by
                # construction, but robust if trailing control packets
                # arrive later).
                metrics.download_time = record.download_time
            return RunResult(
                spec=spec, size=self.size, seed=self.seed,
                period=self.period,
                completed=record.complete,
                download_time=(record.download_time if record.complete
                               else None),
                metrics=metrics,
                established_at=record.established_at,
                subflow_count=subflow_count,
                world=(world.summary() if world is not None else None),
                obs_metrics=(metrics_registry.snapshot()
                             if metrics_registry is not None else None),
            )
        except BaseException:
            # The flight recorder's reason to exist: persist the last
            # events before propagating whatever went wrong.
            self._dump_flight(trace_bus)
            raise
        finally:
            if trace_bus is not None:
                trace_bus.close()

    # ------------------------------------------------------------------

    def _path_pair_profiles(self):
        """The access-profile overrides for this run.

        Explicit per-measurement overrides win; otherwise a non-default
        ``spec.path_pair`` maps its primary onto the testbed's WiFi
        slot and its secondary onto the cellular slot.  (Path *names*
        derive from interface addresses, so CSVs still label the
        primary ``wifi`` -- the pair swaps the physics, not the
        labels.)
        """
        wifi_profile = self.wifi_profile
        cell_profile = self.cell_profile
        if self.spec.path_pair != "default":
            from repro.wireless.profiles import PATH_PAIRS
            pair = PATH_PAIRS[self.spec.path_pair]
            if wifi_profile is None:
                wifi_profile = pair.primary
            if cell_profile is None:
                cell_profile = pair.secondary
        return wifi_profile, cell_profile

    def _install_trace(self, testbed: Testbed):
        """Build and install the trace bus on the fresh simulator.

        Must run before the protocol stack is constructed: hot-path
        components cache ``sim.trace`` at build time.
        """
        if self.trace == "off":
            return None
        from repro.obs.bus import make_trace_bus
        path = self.trace_path if self.trace == "jsonl" else None
        bus = make_trace_bus(self.trace, path=path)
        testbed.sim.trace = bus
        self.trace_bus = bus
        return bus

    def _install_metrics(self, testbed: Testbed):
        """Build and install the metrics registry on the simulator.

        Same contract as :meth:`_install_trace`: must run before the
        protocol stack is constructed, because hot-path components
        cache ``sim.metrics`` at build time.  Returns the registry when
        enabled (for the end-of-run snapshot), else ``None``.
        """
        if self.metrics == "off":
            return None
        from repro.obs.metrics import make_metrics
        registry = make_metrics(self.metrics)
        testbed.sim.metrics = registry
        # Links are built with the testbed itself, before this runs, so
        # their cached null registry must be rebound by hand (protocol
        # components are constructed later and pick it up naturally).
        for interface in testbed.network._interfaces.values():
            interface.up_link._metrics = registry
            interface.down_link._metrics = registry
        return registry

    def _install_failure(self, testbed: Testbed, connection) -> None:
        """Schedule the spec's injected failure, if any.

        With ``failure == "none"`` (every pre-existing spec) nothing is
        scheduled, so undisturbed runs replay bit-for-bit.  Otherwise
        an :class:`repro.wireless.mobility.InterfaceOutage` takes the
        chosen access interface down and (optionally) back up, wired to
        the MPTCP path manager's interface callbacks — so MP flows
        re-join on recovery while SP flows on the failed path simply
        stall.
        """
        spec = self.spec
        if spec.failure == "none":
            return
        from repro.experiments.config import parse_failure
        from repro.wireless.mobility import InterfaceOutage
        schedule = parse_failure(spec.failure)
        address = (testbed.client_addrs[0] if schedule["path"] == "wifi"
                   else testbed.cellular_addr)
        outage = InterfaceOutage(testbed.sim,
                                 testbed.client.interfaces[address])
        if connection is not None and connection.path_manager is not None:
            manager = connection.path_manager
            outage.on_down.append(
                lambda: manager.on_interface_down(address))
            outage.on_up.append(
                lambda: manager.on_interface_up(address))
        outage.schedule(schedule["down_at"], schedule["up_at"])

    def _dump_flight(self, trace_bus) -> None:
        if trace_bus is None:
            return
        from repro.obs.bus import ring_of
        ring = ring_of(trace_bus)
        if ring is None:
            trace_bus.flush()  # jsonl: everything is on disk already
            return
        path = self.trace_path or "flight-recorder.jsonl"
        try:
            ring.dump(path)
        except OSError:
            return  # never mask the original failure with an IO error
        self.flight_dump_path = path

    def _install_middlebox(self, testbed: Testbed) -> None:
        """Attach the spec's middlebox chain to the chosen access links.

        With ``middlebox == "none"`` (every pre-existing spec) nothing
        is built and no RNG stream is drawn, so existing runs replay
        bit-for-bit.
        """
        spec = self.spec
        if spec.middlebox == "none":
            return
        from repro.middlebox import build_chain, install_chain
        address = {
            "wifi": testbed.client_addrs[0],
            "cell": testbed.cellular_addr,
            "server": testbed.server_addrs[0],
        }[spec.middlebox_path]
        chain = build_chain(spec.middlebox,
                            rng=testbed.rng.stream("middlebox"),
                            probability=spec.middlebox_prob)
        install_chain(testbed.network, address, chain)

    def _start_world(self, testbed: Testbed, client):
        """Attach the spec's shared world, if any.

        With ``world == "none"`` (every pre-existing spec) nothing is
        built, no RNG stream is drawn and no event is scheduled, so
        stand-alone runs replay bit-for-bit.  Otherwise the foreground
        connection's client addresses claim fair shares on the world's
        bottlenecks and background arrivals run until the foreground
        record completes (so the event queue drains afterwards).
        """
        spec = self.spec
        if spec.world == "none":
            return None
        from repro.world import build_world
        world = build_world(testbed, spec.world)
        if spec.mode == "sp":
            addresses = [testbed.client_addrs[0] if spec.interface == "wifi"
                         else testbed.cellular_addr]
        else:
            addresses = list(testbed.client_addrs)
        world.attach_foreground(addresses)
        record = getattr(client, "record", None)
        stop_when = ((lambda: record.complete) if record is not None
                     else None)
        world.start(stop_when=stop_when)
        return world

    def _start_single_path(self, testbed: Testbed):
        from repro.tcp.endpoint import TcpEndpoint

        spec = self.spec
        tcp_config = spec.tcp_config()
        PlainTcpAcceptor(
            testbed.sim, testbed.server, HTTP_PORT, tcp_config,
            RenoController, responder=lambda index: self.size)
        local_addr = (testbed.client_addrs[0] if spec.interface == "wifi"
                      else testbed.cellular_addr)
        endpoint = TcpEndpoint(
            testbed.sim, testbed.client, local_addr,
            testbed.client.ephemeral_port(), testbed.server_addrs[0],
            HTTP_PORT, tcp_config, RenoController(), name="sp-client")
        client = HttpClient(testbed.sim, endpoint, self.size)
        client.start()
        endpoint.connect()
        return client, None

    def _start_mptcp(self, testbed: Testbed):
        spec = self.spec
        mptcp_config = spec.mptcp_config()
        size = self.size

        if spec.workload == "bulk":
            # The paper's measurement, byte-for-byte as before the
            # workload dimension existed.
            def on_connection(connection: MptcpConnection) -> None:
                HttpServerSession.fixed(connection, size)

            MptcpListener(testbed.sim, testbed.server, HTTP_PORT,
                          mptcp_config,
                          server_addrs=testbed.server_addrs,
                          on_connection=on_connection)
            connection = MptcpConnection.client(
                testbed.sim, testbed.client, testbed.client_addrs,
                testbed.server_addrs[0], HTTP_PORT, mptcp_config)
            client = HttpClient(testbed.sim, connection, size)
            client.start()
            connection.connect()
            return client, connection

        from repro.experiments.workloads import build_workload

        # The listener must exist before the client connects, but the
        # driver (which owns the server-side wiring) is built on the
        # client connection -- hand the accept callback through a
        # holder filled in below.  Accepts only happen once the
        # simulation runs, after the holder is populated.
        holder = {}

        MptcpListener(testbed.sim, testbed.server, HTTP_PORT, mptcp_config,
                      server_addrs=testbed.server_addrs,
                      on_connection=lambda server_conn:
                      holder["driver"].on_connection(server_conn))
        connection = MptcpConnection.client(
            testbed.sim, testbed.client, testbed.client_addrs,
            testbed.server_addrs[0], HTTP_PORT, mptcp_config)
        driver = build_workload(spec.workload, testbed.sim, connection,
                                seed=self.seed, size=size)
        holder["driver"] = driver
        driver.start()
        connection.connect()
        return driver, connection


@dataclass(frozen=True)
class RunDescriptor:
    """One campaign cell as plain data.

    Worker processes receive these (as JSON) instead of live
    :class:`Measurement` objects; :meth:`run` rebuilds the measurement
    on the other side.
    ``index`` is the cell's position in the serial execution order, so
    out-of-order parallel completions can be reassembled exactly.
    """

    index: int
    spec: FlowSpec
    size: int
    seed: int
    period: TimeOfDay
    timeout: Optional[float] = None
    #: Protocol-event tracing mode (``off`` / ``ring`` / ``jsonl``) and
    #: the directory per-run trace files land in.  Plain strings, so
    #: descriptors stay JSON-safe; they do not enter
    #: :attr:`key`, so traced and untraced campaigns share journal
    #: entries and seeds.
    trace: str = "off"
    trace_dir: Optional[str] = None
    #: Metrics mode (``off`` / ``on``); excluded from :attr:`key` like
    #: the trace mode — metrics are passive, so a metered and an
    #: unmetered campaign share journal entries and seeds.
    metrics: str = "off"

    @property
    def key(self) -> str:
        return descriptor_key(self.spec, self.size, self.seed, self.period)

    def trace_path(self) -> Optional[str]:
        """Per-run trace file: the event stream for ``jsonl`` mode, the
        flight-recorder dump target for ``ring`` mode."""
        if self.trace_dir is None or self.trace == "off":
            return None
        stem = "run" if self.trace == "jsonl" else "flight-run"
        return os.path.join(self.trace_dir,
                            f"{stem}-{self.index:04d}-{self.seed}.jsonl")

    def run(self, instrumentation=None) -> RunResult:
        measurement = Measurement(self.spec, self.size, seed=self.seed,
                                  period=self.period,
                                  timeout=self.timeout,
                                  trace=self.trace,
                                  trace_path=self.trace_path(),
                                  metrics=self.metrics)
        return measurement.run(instrumentation=instrumentation)


@dataclass(frozen=True)
class CampaignSpec:
    """A measurement matrix, Section 3.2 style."""

    name: str
    specs: Tuple[FlowSpec, ...]
    sizes: Tuple[int, ...]
    repetitions: int = 3
    periods: Tuple[TimeOfDay, ...] = (
        TimeOfDay.NIGHT, TimeOfDay.MORNING,
        TimeOfDay.AFTERNOON, TimeOfDay.EVENING)
    base_seed: int = 2013  # the paper's vintage
    #: Common random numbers: every config of one (size, period,
    #: repetition) draws the same seed, so a study compares its
    #: configs run for run instead of across independent draws.
    paired: bool = False

    def total_runs(self) -> int:
        return (len(self.specs) * len(self.sizes) * self.repetitions
                * len(self.periods))


class Campaign:
    """Runs a :class:`CampaignSpec`, randomizing order per round.

    ``trace`` / ``trace_dir`` / ``metrics`` stamp every planned cell
    (passive: they never change a result).  Every other keyword --
    ``jobs``, ``journal``, ``cache``, ``backend``, ``progress``, ... --
    is an execution knob passed unchanged to
    :func:`repro.experiments.parallel.execute_plan`, which documents
    them; whatever they say, the results list is bit-for-bit identical
    to a serial run.
    """

    def __init__(self, spec: CampaignSpec, trace: str = "off",
                 trace_dir: Optional[str] = None, metrics: str = "off",
                 **execution) -> None:
        self.spec = spec
        self.trace = trace
        self.trace_dir = trace_dir
        self.metrics = metrics
        self.execution = execution
        self.results: List[RunResult] = []

    def plan(self) -> List["RunDescriptor"]:
        """The cells of this campaign, in serial execution order.

        The per-run seed is derived from the spec's full
        :attr:`FlowSpec.identity`, not just its label and carrier — two
        ablation specs differing only in scheduler or ssthresh must not
        share seeds, or their "independent" runs are correlated -- unless
        the campaign is :attr:`~CampaignSpec.paired`.
        """
        spec = self.spec
        shuffler = random.Random(derive_seed(spec.base_seed,
                                             f"{spec.name}.order"))
        descriptors: List[RunDescriptor] = []
        for repetition in range(spec.repetitions):
            for period in spec.periods:
                # One "round": every (config, size) once, in random
                # order, as the paper randomizes sequences per round.
                cells = [(flow, size) for flow in spec.specs
                         for size in spec.sizes]
                shuffler.shuffle(cells)
                for flow, size in cells:
                    config = "" if spec.paired else f"{flow.identity}:"
                    seed = derive_seed(
                        spec.base_seed, f"{spec.name}:{config}"
                        f"{size}:{period.value}:{repetition}")
                    descriptors.append(RunDescriptor(
                        index=len(descriptors), spec=flow, size=size,
                        seed=seed, period=period,
                        trace=self.trace, trace_dir=self.trace_dir,
                        metrics=self.metrics))
        return descriptors

    def run(self) -> List[RunResult]:
        from repro.experiments.parallel import execute_plan
        self.results = execute_plan(self.plan(), **self.execution)
        return self.results

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def group(self) -> Dict[Tuple[FlowSpec, int], List[RunResult]]:
        groups: Dict[Tuple[FlowSpec, int], List[RunResult]] = {}
        for result in self.results:
            groups.setdefault(result.key, []).append(result)
        return groups

    def download_times(self, flow: FlowSpec, size: int) -> List[float]:
        return [result.download_time for result in self.results
                if result.spec == flow and result.size == size
                and result.download_time is not None]

    def completed_fraction(self) -> float:
        if not self.results:
            return 1.0
        done = sum(1 for result in self.results if result.completed)
        return done / len(self.results)
