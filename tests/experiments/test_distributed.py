"""Distributed backend: lease queue, wire protocol, and end-to-end
coordinator/worker campaigns (byte-identity, failover, warm reruns)."""

import io
import socket
import threading

import pytest

from repro.cache import RunCache
from repro.experiments import storage
from repro.experiments.config import FlowSpec
from repro.experiments.distributed import (
    LeaseQueue,
    _KILL_AFTER_ENV,
    Coordinator,
    _execute_chunk,
    spawn_subprocess_workers,
    _reap,
)
from repro.experiments.parallel import execute_descriptor_ex
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
from repro.experiments.storage import result_to_dict
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
    with pytest.raises(ValueError):
        parse_address("no-port-here")


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
    result, _report, _wall = execute_descriptor_ex(descriptor)
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
                              finish=lambda p, r: None)
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


def test_worker_death_fails_over_and_results_are_identical(tmp_path):
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
    import threading
    box = {}

    def drive():
        try:
            box["results"] = campaign.run()
        except BaseException as error:  # surfaced after join
            box["error"] = error

    thread = threading.Thread(target=drive, daemon=True)
    thread.start()

    address = ("127.0.0.1", port)
    # The victim arms the self-SIGKILL hook: it dies after executing
    # its first cell, before publishing anything.
    victim = spawn_subprocess_workers(
        address, count=1, extra_env={_KILL_AFTER_ENV: "1"})
    victim[0].wait(timeout=120)
    assert victim[0].returncode == -9           # really SIGKILLed

    survivor = spawn_subprocess_workers(address, count=1)
    try:
        thread.join(timeout=120)
        assert not thread.is_alive(), "campaign did not drain"
    finally:
        _reap(survivor)
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


def test_failed_cell_aborts_the_campaign():
    """A cell that raises on the worker surfaces as a campaign error,
    not a hang or a silent hole in the results."""
    spec = small_campaign()
    plan = Campaign(spec).plan()

    from repro.experiments.distributed import DistributedExecutionError
    coordinator = Coordinator(plan, [[0]], total=len(plan),
                              is_filled=lambda p: False,
                              finish=lambda p, r: None)
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


class _Boom:
    """A cell that raises when run (module-level: the pool pickles it)."""

    key = "boom"

    def run(self, instrumentation=None):
        raise ValueError("boom")


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_message_names_the_cell_that_raised(jobs):
    """In a multi-cell chunk the worker must blame the cell that
    raised, not the chunk's first cell."""
    good = Campaign(small_campaign()).plan()[0]
    worker_end, coordinator_end = socket.socketpair()
    failed = []

    def coordinator():
        while not failed:
            message = recv_message(coordinator_end)
            if message["type"] == "failed":
                failed.append(message)
                send_message(coordinator_end, {"type": "abort"})
            else:
                send_message(coordinator_end, {"type": "ok", "valid": True})

    peer = threading.Thread(target=coordinator, daemon=True)
    peer.start()
    try:
        rows = _execute_chunk(worker_end, 1, "t", [(4, good), (9, _Boom())],
                              jobs, None, 0, 0, io.StringIO())
        peer.join(timeout=30.0)
        assert not peer.is_alive()
    finally:
        worker_end.close()
        coordinator_end.close()
    assert rows is None
    assert [message["position"] for message in failed] == [9]
    assert "boom" in failed[0]["error"]
