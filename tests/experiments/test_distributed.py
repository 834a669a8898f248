"""The executor: lease queue, wire protocol, and end-to-end
coordinator/worker campaigns on every backend (byte-identity,
failover, warm reruns, single-writer stores, clean teardown)."""

import dataclasses
import io
import multiprocessing
import os
import socket
import threading

import pytest

from repro.cache import RunCache
from repro.experiments import distributed, storage
from repro.experiments.config import FlowSpec
from repro.experiments.distributed import (
    LeaseQueue,
    _KILL_AFTER_ENV,
    Coordinator,
    DistributedExecutionError,
    reap,
    run_worker,
    spawn_workers,
)
from repro.experiments.parallel import execute_plan, run_cell
from repro.experiments.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    descriptor_from_dict,
    descriptor_to_dict,
    parse_address,
    recv_message,
    result_from_wrapper,
    result_wrapper,
    send_message,
)
from repro.experiments.runner import Campaign, CampaignSpec
from repro.experiments.storage import (
    ResultJournal,
    load_results,
    result_to_dict,
)
from repro.perf import Instrumentation
from repro.obs.telemetry import RunLog, run_log_failovers
from repro.wireless.profiles import TimeOfDay

KB = 1024


def small_campaign(base_seed=7):
    return CampaignSpec(
        name="dist",
        specs=(FlowSpec.single_path("wifi"), FlowSpec.mptcp(carrier="att")),
        sizes=(8 * KB, 32 * KB), repetitions=1,
        periods=(TimeOfDay.NIGHT,), base_seed=base_seed)


def full_dicts(results):
    return [result_to_dict(result, max_samples=None) for result in results]


# ----------------------------------------------------------------------
# LeaseQueue
# ----------------------------------------------------------------------

def test_lease_queue_grants_and_releases():
    queue = LeaseQueue([[0, 1], [2]], lease_timeout=60.0)
    lease = queue.lease("w1", now=0.0, skip=lambda p: False)
    assert lease.positions == [0, 1]
    assert queue.outstanding == 1
    assert queue.release(lease.lease_id) is lease
    assert queue.lease("w2", now=0.0, skip=lambda p: False).positions == [2]


def test_lease_queue_skips_filled_positions():
    queue = LeaseQueue([[0, 1], [2, 3]], lease_timeout=60.0)
    lease = queue.lease("w1", now=0.0, skip=lambda p: p in (0, 1, 2))
    # The fully-filled first chunk is discarded outright; the second
    # loses its filled half.
    assert lease.positions == [3]
    queue.release(lease.lease_id)
    assert queue.drained


def test_lease_queue_expiry_refronts_the_chunk():
    queue = LeaseQueue([[0], [1]], lease_timeout=10.0)
    first = queue.lease("w1", now=0.0, skip=lambda p: False)
    assert queue.expire(now=5.0) == []          # still live
    overdue = queue.expire(now=10.0)
    assert [lease.lease_id for lease in overdue] == [first.lease_id]
    assert queue.expired == 1
    # Refronted: the expired chunk is re-granted before chunk [1].
    assert queue.lease("w2", now=10.0,
                       skip=lambda p: False).positions == [0]


def test_lease_queue_renew_extends_and_rejects_expired():
    queue = LeaseQueue([[0]], lease_timeout=10.0)
    lease = queue.lease("w1", now=0.0, skip=lambda p: False)
    assert queue.renew(lease.lease_id, now=8.0)
    assert queue.expire(now=12.0) == []         # renewal pushed deadline
    queue.expire(now=18.0)
    assert not queue.renew(lease.lease_id, now=18.0)


def test_lease_queue_abandon_drops_only_that_worker():
    queue = LeaseQueue([[0], [1]], lease_timeout=60.0)
    mine = queue.lease("w1", now=0.0, skip=lambda p: False)
    other = queue.lease("w2", now=0.0, skip=lambda p: False)
    dropped = queue.abandon("w1")
    assert [lease.lease_id for lease in dropped] == [mine.lease_id]
    assert queue.outstanding == 1
    assert queue.release(other.lease_id) is other


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------

def test_framing_round_trip_and_clean_eof():
    a, b = socket.socketpair()
    try:
        payload = {"type": "work", "cells": ["x" * 5000], "n": 42}
        send_message(a, payload)
        assert recv_message(b) == payload
        a.close()
        assert recv_message(b) is None          # clean EOF, not an error
    finally:
        b.close()


def test_framing_rejects_truncated_header():
    a, b = socket.socketpair()
    try:
        a.sendall(b"\x00\x00")                  # half a length prefix
        a.close()
        with pytest.raises(ProtocolError):
            recv_message(b)
    finally:
        b.close()


def test_parse_address():
    assert parse_address("127.0.0.1:8000") == ("127.0.0.1", 8000)
    assert parse_address(":65535") == ("0.0.0.0", 65535)
    assert parse_address("127.0.0.1:0") == ("127.0.0.1", 0)
    with pytest.raises(ValueError):
        parse_address("no-port-here")
    for text in ("127.0.0.1:65536", "127.0.0.1:70000", "host:99999999"):
        with pytest.raises(ValueError, match=text):
            parse_address(text)


def test_descriptor_codec_round_trip():
    plan = Campaign(small_campaign()).plan()
    for descriptor in plan:
        data = descriptor_to_dict(descriptor)
        clone = descriptor_from_dict(data)
        assert clone.key == descriptor.key
        assert clone.spec == descriptor.spec
        assert clone.size == descriptor.size
        assert clone.seed == descriptor.seed
        assert clone.period == descriptor.period
        assert clone.index == descriptor.index


def test_result_wrapper_is_full_fidelity():
    descriptor = Campaign(small_campaign()).plan()[0]
    result, _report, _wall = run_cell(descriptor)
    wrapper = result_wrapper(descriptor.key, result)
    assert wrapper["format_version"] == storage.FORMAT_VERSION
    clone = result_from_wrapper(wrapper)
    assert result_to_dict(clone, max_samples=None) == \
        result_to_dict(result, max_samples=None)
    bad = dict(wrapper, format_version=storage.FORMAT_VERSION + 1)
    with pytest.raises(ProtocolError):
        result_from_wrapper(bad)


def test_coordinator_rejects_version_mismatch():
    plan = Campaign(small_campaign()).plan()
    coordinator = Coordinator(plan, [], total=0,
                              is_filled=lambda p: True,
                              deliver=lambda *cell: None)
    try:
        coordinator.start()
        with socket.create_connection(coordinator.address,
                                      timeout=10.0) as conn:
            send_message(conn, {"type": "hello", "worker": "old",
                                "protocol": PROTOCOL_VERSION + 1,
                                "format_version": storage.FORMAT_VERSION})
            reply = recv_message(conn)
        assert reply["type"] == "error"
        assert "version mismatch" in reply["error"]
    finally:
        coordinator.close()


# ----------------------------------------------------------------------
# End-to-end campaigns
# ----------------------------------------------------------------------

def test_subprocess_backend_equals_serial():
    spec = small_campaign()
    serial = Campaign(spec, jobs=1).run()
    distributed = Campaign(spec, backend="subprocess", jobs=2,
                           chunk=1).run()
    assert full_dicts(distributed) == full_dicts(serial)


def test_distributed_progress_reports_every_run():
    calls = []
    spec = small_campaign()
    Campaign(spec, progress=lambda i, n, r: calls.append((i, n)),
             backend="subprocess", jobs=2).run()
    assert sorted(index for index, _ in calls) == [1, 2, 3, 4]
    assert all(total == 4 for _, total in calls)


def test_warm_distributed_rerun_is_all_cache_hits(tmp_path):
    spec = small_campaign()
    serial = Campaign(spec, jobs=1).run()
    with RunCache(tmp_path / "cache") as cache:
        cold = Campaign(spec, backend="subprocess", jobs=2,
                        cache=cache).run()
        assert cache.hits == 0
        warm = Campaign(spec, backend="subprocess", jobs=2,
                        cache=cache).run()
        # Every cell restored from the store: no coordinator, no
        # workers, no sockets -- and still byte-identical.
        assert cache.hits == spec.total_runs()
    assert full_dicts(cold) == full_dicts(serial)
    assert full_dicts(warm) == full_dicts(serial)


def test_worker_death_fails_over_and_results_are_identical(tmp_path,
                                                           monkeypatch):
    """SIGKILL a worker mid-chunk: its lease expires, the chunk is
    refronted to the surviving worker, the run log records the
    failover, and the results are still byte-identical to serial."""
    spec = small_campaign()
    serial = Campaign(spec, jobs=1).run()
    run_log = tmp_path / "run_log.jsonl"
    port = _free_port()

    campaign = Campaign(spec, backend="tcp", jobs=1, chunk=1,
                        bind=f"127.0.0.1:{port}", lease_timeout=1.5,
                        run_log=str(run_log))
    thread, box = _run_in_thread(campaign)

    address = ("127.0.0.1", port)
    # The victim arms the self-SIGKILL hook: it dies after executing
    # its first cell, before publishing anything.
    monkeypatch.setenv(_KILL_AFTER_ENV, "1")
    victim = spawn_workers("subprocess", address, jobs=1)
    monkeypatch.delenv(_KILL_AFTER_ENV)
    victim[0].wait(timeout=120)
    assert victim[0].returncode == -9           # really SIGKILLed

    survivor = spawn_workers("subprocess", address, jobs=1)
    try:
        thread.join(timeout=120)
        assert not thread.is_alive(), "campaign did not drain"
    finally:
        reap(survivor)
    assert "error" not in box, box.get("error")
    assert full_dicts(box["results"]) == full_dicts(serial)

    failovers = run_log_failovers(run_log)
    assert failovers, "no lease_expired record after worker death"
    refronted = {cell for record in failovers
                 for cell in record["cells"]}
    finished = {record["key"] for record in RunLog.read(run_log)
                if record["event"] == "finish"}
    # Every cell the dead worker held was re-run (and delivered) by
    # the survivor.
    assert refronted <= finished
    assert len(finished) == spec.total_runs()


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _run_in_thread(campaign):
    """Drive ``campaign.run()`` off-thread (a ``tcp`` coordinator waits
    for workers this thread attaches); returns (thread, box)."""
    box = {}

    def drive():
        try:
            box["results"] = campaign.run()
        except BaseException as error:  # surfaced after join
            box["error"] = error

    thread = threading.Thread(target=drive, daemon=True)
    thread.start()
    return thread, box


def test_failed_cell_aborts_the_campaign():
    """A cell that raises on the worker surfaces as a campaign error,
    not a hang or a silent hole in the results."""
    spec = small_campaign()
    plan = Campaign(spec).plan()

    coordinator = Coordinator(plan, [[0]], total=len(plan),
                              is_filled=lambda p: False,
                              deliver=lambda *cell: None)
    try:
        coordinator.start()
        with socket.create_connection(coordinator.address,
                                      timeout=10.0) as conn:
            send_message(conn, {"type": "hello", "worker": "t",
                                "jobs": 1,
                                "protocol": PROTOCOL_VERSION,
                                "format_version": storage.FORMAT_VERSION})
            assert recv_message(conn)["type"] == "welcome"
            send_message(conn, {"type": "lease"})
            grant = recv_message(conn)
            assert grant["type"] == "work"
            send_message(conn, {"type": "failed",
                                "lease": grant["lease"],
                                "position": grant["positions"][0],
                                "error": "ValueError('boom')"})
            assert recv_message(conn)["type"] == "abort"
        with pytest.raises(DistributedExecutionError, match="boom"):
            coordinator.wait(timeout=30.0)
    finally:
        coordinator.close()


def _swap_keys(rows, plan):
    rows[0]["key"], rows[1]["key"] = rows[1]["key"], rows[0]["key"]
    rows[0]["object"], rows[1]["object"] = \
        rows[1]["object"], rows[0]["object"]


def _past_the_plan(rows, plan):
    rows[0]["position"] = len(plan)


def _without_object(rows, plan):
    del rows[0]["object"]


@pytest.mark.parametrize("mangle", [_swap_keys, _past_the_plan,
                                    _without_object])
def test_a_malformed_publish_never_fills_a_slot(mangle, tmp_path):
    """A publish whose row does not carry its position's cell (another
    cell's key, a position past the plan, no object) drops the worker
    with a ``worker_error`` record and refronts its lease; an honest
    worker then fills every slot byte-identical to serial."""
    spec = small_campaign()
    plan = Campaign(spec).plan()
    serial = Campaign(spec, jobs=1).run()
    slots = [None] * len(plan)

    def deliver(position, result, report, wall_s):
        slots[position] = result

    run_log = tmp_path / "run_log.jsonl"
    coordinator = Coordinator(plan, [[0, 1], [2, 3]], total=len(plan),
                              is_filled=lambda p: slots[p] is not None,
                              deliver=deliver, run_log=str(run_log))
    try:
        coordinator.start()
        with socket.create_connection(coordinator.address,
                                      timeout=10.0) as conn:
            send_message(conn, {"type": "hello", "worker": "liar",
                                "jobs": 1,
                                "protocol": PROTOCOL_VERSION,
                                "format_version": storage.FORMAT_VERSION})
            assert recv_message(conn)["type"] == "welcome"
            send_message(conn, {"type": "lease"})
            grant = recv_message(conn)
            rows = [{"position": position, "key": plan[position].key,
                     "object": result_wrapper(plan[position].key,
                                              serial[position])}
                    for position in grant["positions"]]
            mangle(rows, plan)
            send_message(conn, {"type": "publish", "lease": grant["lease"],
                                "rows": rows})
            try:
                reply = recv_message(conn)
            except OSError:
                reply = None
            assert reply is None                # dropped, not answered
        assert run_worker("%s:%d" % coordinator.address,
                          stream=io.StringIO()) == 0
        coordinator.wait(timeout=30.0)
    finally:
        coordinator.close()
    assert full_dicts(slots) == full_dicts(serial)
    errors = [record for record in RunLog.read(run_log)
              if record["event"] == "worker_error"]
    assert [record["worker"] for record in errors] == ["liar"]


@pytest.mark.parametrize("boom_at", [1, 2])
def test_failed_message_names_the_cell_that_raised(boom_at, tmp_path):
    """In a multi-cell chunk the worker must blame the cell that
    raised, not the chunk's first cell."""
    positions = [4, 9, 11]
    cells = list(Campaign(small_campaign()).plan()[:3])
    # Fails in set-up, through its own fields: no such trace directory.
    cells[boom_at] = dataclasses.replace(
        cells[boom_at], trace="jsonl", trace_dir=str(tmp_path / "boom"))
    listener = socket.create_server(("127.0.0.1", 0))
    failed = []

    def coordinator():
        conn, _ = listener.accept()
        with conn:
            assert recv_message(conn)["type"] == "hello"
            send_message(conn, {"type": "welcome"})
            assert recv_message(conn)["type"] == "lease"
            send_message(conn, {
                "type": "work", "lease": 1, "positions": positions,
                "cells": [descriptor_to_dict(cell) for cell in cells]})
            while not failed:
                message = recv_message(conn)
                if message["type"] == "failed":
                    failed.append(message)
                    send_message(conn, {"type": "abort"})
                else:
                    send_message(conn, {"type": "ok", "valid": True})

    peer = threading.Thread(target=coordinator, daemon=True)
    peer.start()
    try:
        port = listener.getsockname()[1]
        status = run_worker(f"127.0.0.1:{port}", stream=io.StringIO())
        peer.join(timeout=30.0)
        assert not peer.is_alive()
    finally:
        listener.close()
    assert status == 1
    assert [message["position"] for message in failed] == \
        [positions[boom_at]]
    assert "boom" in failed[0]["error"]


# ----------------------------------------------------------------------
# One executor, whatever spawns the workers
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["pool", "tcp"])
def test_backend_equals_serial_and_reruns_warm(backend, tmp_path):
    """Forked workers and workers attached by hand lease from the same
    coordinator: cold bytes equal serial, the warm rerun is all hits."""
    spec = small_campaign()
    serial = Campaign(spec, jobs=1).run()
    port = _free_port()
    with RunCache(tmp_path / "cache") as cache:
        campaign = Campaign(spec, backend=backend, jobs=2, cache=cache,
                            bind=f"127.0.0.1:{port}")
        if backend == "tcp":
            thread, box = _run_in_thread(campaign)
            attached = spawn_workers("subprocess", ("127.0.0.1", port),
                                     jobs=2)
            try:
                thread.join(timeout=120)
                assert not thread.is_alive(), "campaign did not drain"
            finally:
                reap(attached)
            assert "error" not in box, box.get("error")
            cold = box["results"]
        else:
            cold = campaign.run()
        assert cache.hits == 0
        warm = campaign.run()       # all restored: nothing is spawned
        assert cache.hits == spec.total_runs()
    assert full_dicts(cold) == full_dicts(serial)
    assert full_dicts(warm) == full_dicts(serial)


def test_pool_worker_sigkill_fails_over(tmp_path, monkeypatch):
    """SIGKILL one of two ``backend="pool"`` workers mid-chunk: its
    connection drops, its lease is refronted to the sibling, and the
    campaign completes byte-identical to serial."""
    spec = small_campaign()
    serial = Campaign(spec, jobs=1).run()
    run_log = tmp_path / "run_log.jsonl"
    real_worker = distributed.run_worker

    def first_worker_dies(connect, label, **kwargs):
        # Runs in the forked worker: only worker ".0" arms the hook.
        if label.endswith(".0"):
            os.environ[_KILL_AFTER_ENV] = "1"
        return real_worker(connect, label=label, **kwargs)

    monkeypatch.setattr(distributed, "run_worker", first_worker_dies)
    results = Campaign(spec, jobs=2, chunk=2, run_log=str(run_log)).run()
    assert full_dicts(results) == full_dicts(serial)
    failovers = run_log_failovers(run_log)
    assert failovers, "no lease_expired record after worker death"
    assert all(record["worker"].endswith(".0") for record in failovers)
    finished = {record["key"] for record in RunLog.read(run_log)
                if record["event"] == "finish"}
    assert {cell for record in failovers
            for cell in record["cells"]} <= finished
    assert len(finished) == spec.total_runs()


def test_campaign_fails_when_every_spawned_worker_died(monkeypatch):
    """Failover needs a survivor: with both forked workers SIGKILLed
    (they inherit the armed hook) the campaign is an error, not a
    hang."""
    monkeypatch.setenv(_KILL_AFTER_ENV, "1")
    with pytest.raises(DistributedExecutionError, match="workers exited"):
        Campaign(small_campaign(), jobs=2, lease_timeout=0.4).run()
    assert multiprocessing.active_children() == []


def test_worker_reports_travel_the_wire():
    """``instrumentation=`` under ``backend="subprocess"``: each
    publish row carries the cell's report, merged on this side."""
    plan = Campaign(small_campaign()).plan()
    reference = Instrumentation()
    for descriptor in plan:
        descriptor.run(instrumentation=reference)
    merged = Instrumentation()
    execute_plan(plan, jobs=2, backend="subprocess",
                 instrumentation=merged)
    assert set(merged.phases) == {"setup", "simulate", "extract"}
    assert all(seconds > 0.0 for seconds in merged.phases.values())
    assert merged.counters["events_processed"] == \
        reference.counters["events_processed"]


class _ThreadRecorder:
    """A cache / journal stand-in that notes which thread enters it."""

    def __init__(self, store, idents):
        self._store = store
        self._idents = idents

    def __getattr__(self, name):
        method = getattr(self._store, name)

        def noted(*args):
            self._idents.add(threading.get_ident())
            return method(*args)

        return noted


def test_stores_are_entered_from_the_calling_thread_only(tmp_path):
    idents = set()
    plan = Campaign(small_campaign()).plan()
    with RunCache(tmp_path / "cache") as cache, \
            ResultJournal(tmp_path / "journal.jsonl") as journal:
        execute_plan(plan, jobs=2,
                     cache=_ThreadRecorder(cache, idents),
                     journal=_ThreadRecorder(journal, idents),
                     progress=lambda *tick:
                         idents.add(threading.get_ident()))
        assert cache.puts == len(plan) == len(load_results(journal.path))
    assert idents == {threading.get_ident()}


def _assert_nothing_left_behind(port):
    assert multiprocessing.active_children() == []
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=5.0)


def test_interrupt_leaves_no_worker_or_listener_behind():
    port = _free_port()

    def interrupt(done, total, result):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        Campaign(small_campaign(), jobs=2, progress=interrupt,
                 bind=f"127.0.0.1:{port}").run()
    _assert_nothing_left_behind(port)


def test_failing_cell_leaves_no_worker_or_listener_behind(tmp_path):
    port = _free_port()
    campaign = Campaign(small_campaign(), jobs=2, trace="jsonl",
                        trace_dir=str(tmp_path / "missing"),
                        bind=f"127.0.0.1:{port}")
    with pytest.raises(DistributedExecutionError, match="missing"):
        campaign.run()
    _assert_nothing_left_behind(port)
