"""Run-cache maintenance: garbage collection (the machinery under
``repro cache gc``)."""

import json
import os
import time

import pytest

from repro.cache import RunCache
from repro.cache.store import cache_digest
from repro.experiments.config import FlowSpec
from repro.experiments.runner import Campaign, CampaignSpec
from repro.experiments.storage import result_to_dict
from repro.wireless.profiles import TimeOfDay

KB = 1024


@pytest.fixture(scope="module")
def baseline():
    spec = CampaignSpec(
        name="gc",
        specs=(FlowSpec.single_path("wifi"), FlowSpec.mptcp(carrier="att")),
        sizes=(8 * KB,), repetitions=1,
        periods=(TimeOfDay.NIGHT,), base_seed=11)
    return Campaign(spec).run()


def full_dicts(results):
    return [result_to_dict(result, max_samples=None) for result in results]


# ----------------------------------------------------------------------
# Garbage collection
# ----------------------------------------------------------------------

def _orphan_tmp(cache):
    """Simulate a worker SIGKILLed between mkstemp and os.replace."""
    shard = cache.root / "objects" / "ab"
    shard.mkdir(parents=True, exist_ok=True)
    path = shard / ".abandoned.json.1234.tmp"
    path.write_text("{partial")
    return path


def _unreferenced_object(cache):
    """Simulate a crash between the object replace and the index
    append: a valid object file whose digest the index never saw."""
    digest = "ff" * 32
    shard = cache.root / "objects" / digest[:2]
    shard.mkdir(parents=True, exist_ok=True)
    path = shard / f"{digest}.json"
    path.write_text(json.dumps({"key": "ghost", "format_version": 0,
                                "result": {}}))
    return path


def test_gc_removes_tmp_and_unreferenced_heals_index(tmp_path, baseline):
    with RunCache(tmp_path / "cache") as cache:
        for result in baseline:
            cache.put(result)
        tmp = _orphan_tmp(cache)
        ghost = _unreferenced_object(cache)
        stats = cache.gc()
        assert stats["tmp_files"] == 1
        assert stats["unreferenced_objects"] == 1
        assert stats["entries_kept"] == len(baseline)
        assert stats["bytes_reclaimed"] > 0
        assert not tmp.exists()
        assert not ghost.exists()
        # Self-heal: live entries still hit after collection.
        restored = cache.get(cache.key_of(baseline[0]))
        assert full_dicts([restored]) == full_dicts([baseline[0]])


def test_gc_dry_run_touches_nothing(tmp_path, baseline):
    with RunCache(tmp_path / "cache") as cache:
        cache.put(baseline[0])
        tmp = _orphan_tmp(cache)
        ghost = _unreferenced_object(cache)
        stats = cache.gc(dry_run=True)
        assert stats["dry_run"]
        assert stats["tmp_files"] == 1
        assert stats["unreferenced_objects"] == 1
        assert tmp.exists() and ghost.exists(), "dry run must not delete"


def test_gc_drops_dangling_index_lines(tmp_path, baseline):
    with RunCache(tmp_path / "cache") as cache:
        for result in baseline:
            cache.put(result)
        victim = cache.key_of(baseline[0])
        cache._object_path(
            cache_digest(victim, cache.format_version)).unlink()
        stats = cache.gc()
        assert stats["dangling_index_lines"] == 1
        assert stats["entries_kept"] == len(baseline) - 1
        # The healed index no longer claims the lost entry...
        assert cache.get(victim) is None
        # ...and the store still accepts it back afterwards.
        assert cache.put(baseline[0])
        assert cache.get(victim) is not None


def test_gc_older_than_prunes_stale_entries(tmp_path, baseline):
    with RunCache(tmp_path / "cache") as cache:
        for result in baseline:
            cache.put(result)
        old = cache._object_path(cache_digest(
            cache.key_of(baseline[0]), cache.format_version))
        stale = time.time() - 10 * 86400
        os.utime(old, (stale, stale))
        stats = cache.gc(older_than_s=7 * 86400)
        assert stats["stale_entries"] == 1
        assert stats["entries_kept"] == len(baseline) - 1
        assert cache.get(cache.key_of(baseline[0])) is None
        assert cache.get(cache.key_of(baseline[1])) is not None


def test_gc_survives_reopen(tmp_path, baseline):
    """The index rewrite must leave a store that reopens cleanly with
    exactly the kept entries."""
    with RunCache(tmp_path / "cache") as cache:
        for result in baseline:
            cache.put(result)
        _orphan_tmp(cache)
        cache.gc()
    with RunCache(tmp_path / "cache") as cache:
        assert cache.stats()["entries"] == len(baseline)
        restored = cache.get(cache.key_of(baseline[1]))
        assert full_dicts([restored]) == full_dicts([baseline[1]])
