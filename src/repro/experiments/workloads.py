"""Application workloads for campaign measurements.

The paper's measurement is one wget download (``bulk``); the
scheduler-lab campaign also cares how policies behave under the
*other* traffic shapes the paper discusses -- multi-object page loads
(Section 1), streaming video (Section 6) and latency-sensitive
real-time streams (Section 5.2).  ``bulk`` is the runner's own HTTP
download; each other workload here adapts one
:mod:`repro.app` driver to the measurement runner's contract: a
driver exposes ``record`` (with ``complete`` / ``download_time`` /
``established_at``), a ``start()`` hook called before ``connect()``,
and ``on_connection(server_conn)`` wiring the server side when the
listener accepts.

``download_time`` carries each workload's *quality metric* so every
campaign cell aggregates through the same CSV machinery:

============  =====================================================
``bulk``      download time of one ``size``-byte object (seconds)
``pageload``  page load time of one drawn page (seconds)
``video``     mean download time of the periodic streaming blocks
``realtime``  mean per-frame delivery latency (seconds; includes
              the reorder wait behind a slow path)
============  =====================================================

Workload randomness (page composition, block sizes) is drawn from a
dedicated RNG stream derived from the run seed, so campaigns remain
pure functions of (spec identity, size, seed, period).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.app.http import HttpServerSession
from repro.app.realtime import RealtimeProfile, RealtimeSink, RealtimeStream
from repro.app.video import StreamingProfile, VideoSession
from repro.app.web import TYPICAL_PAGE, PageLoader
from repro.sim.rng import derive_seed

KB = 1024

#: A lab-sized streaming profile: the same prefetch-then-periodic-block
#: shape as Table 7 but small enough for a campaign cell (the Netflix
#: numbers would make every cell a multi-minute transfer).
LAB_STREAM = StreamingProfile(
    name="lab-stream",
    prefetch_mean=256 * KB, prefetch_std=32 * KB,
    block_mean=96 * KB, block_std=16 * KB,
    period_mean=1.0, period_std=0.2,
)

#: A lab-sized interactive stream: 30 frames/s of 4 KB for 3 seconds.
LAB_REALTIME = RealtimeProfile(name="lab-call", frame_bytes=4096,
                               interval=1.0 / 30.0, frames=90)

#: Periodic blocks per video cell (plus the prefetch).
LAB_VIDEO_BLOCKS = 6


@dataclass
class WorkloadRecord:
    """The runner-facing record for the non-bulk workloads."""

    complete: bool = False
    download_time: Optional[float] = None
    established_at: Optional[float] = None


class PageloadWorkload:
    """Sequential multi-object page fetch over one connection."""

    name = "pageload"

    def __init__(self, sim, connection, rng: random.Random,
                 size: int) -> None:
        self.record = WorkloadRecord()
        self._sizes = TYPICAL_PAGE.draw_page(rng)
        self._loader = PageLoader(sim, connection, self._sizes,
                                  on_complete=self._finish)
        # PageLoader owns on_established to fire the first request;
        # interpose to stamp the establishment time the runner reports.
        inner = connection.on_established

        def stamp() -> None:
            self.record.established_at = sim.now
            inner()

        connection.on_established = stamp

    def _finish(self, page_record) -> None:
        self.record.complete = True
        self.record.download_time = page_record.page_load_time

    def start(self) -> None:
        pass

    def on_connection(self, server_conn) -> None:
        HttpServerSession(server_conn, self._loader.responder(),
                          close_after=None)


class VideoWorkload:
    """Prefetch + periodic streaming blocks (lab-sized Table 7 shape)."""

    name = "video"

    def __init__(self, sim, connection, rng: random.Random,
                 size: int) -> None:
        self.record = WorkloadRecord()
        self._session = VideoSession(sim, connection, LAB_STREAM, rng,
                                     n_blocks=LAB_VIDEO_BLOCKS,
                                     on_finished=self._finish)
        inner = connection.on_established

        def stamp() -> None:
            self.record.established_at = sim.now
            inner()

        connection.on_established = stamp

    def _finish(self, session) -> None:
        blocks = [block for block in session.blocks
                  if block.kind == "block"
                  and block.completed_at is not None]
        self.record.complete = bool(blocks)
        if blocks:
            self.record.download_time = (
                sum(block.download_time for block in blocks) / len(blocks))

    def start(self) -> None:
        pass

    def on_connection(self, server_conn) -> None:
        HttpServerSession(server_conn, self._session.responder(),
                          close_after=None)


class RealtimeWorkload:
    """Server-to-client constant-rate frames; metric is frame latency.

    The stream runs in the download direction (like every other
    workload): the server pushes frames as soon as its side of the
    connection establishes, the client-side sink timestamps each
    in-order frame delivery.
    """

    name = "realtime"

    def __init__(self, sim, connection, rng: random.Random,
                 size: int) -> None:
        self.sim = sim
        self.connection = connection
        self.record = WorkloadRecord()
        self.report = None
        connection.on_established = self._on_established

    def _on_established(self) -> None:
        self.record.established_at = self.sim.now

    def start(self) -> None:
        pass

    def on_connection(self, server_conn) -> None:
        stream = RealtimeStream(self.sim, server_conn, LAB_REALTIME)
        server_conn.on_established = stream.start
        RealtimeSink(self.sim, self.connection, stream,
                     on_finished=self._finish)

    def _finish(self, sink) -> None:
        self.report = sink.report
        self.record.complete = True
        self.record.download_time = sink.report.mean_latency()


_WORKLOADS = {
    cls.name: cls for cls in (PageloadWorkload, VideoWorkload,
                              RealtimeWorkload)}

#: The workload names, in campaign-matrix order.
WORKLOADS = ("bulk", "pageload", "video", "realtime")


def build_workload(name: str, sim, connection, seed: int, size: int):
    """Build the named non-bulk workload driver over ``connection``.

    The driver's RNG stream is derived from the run seed and the
    workload name, so adding a workload to a campaign never perturbs
    the draws of any other cell.
    """
    cls = _WORKLOADS.get(name)
    if cls is None:
        raise ValueError(f"unknown workload {name!r}; known: "
                         f"{', '.join(sorted(_WORKLOADS))}")
    rng = random.Random(derive_seed(seed, f"workload.{name}"))
    return cls(sim, connection, rng, size)
