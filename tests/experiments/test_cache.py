"""The cross-campaign run cache: round-trips, invalidation,
corruption tolerance, and journal/cache key unification."""

import base64
import json
import os
import struct
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache import RunCache, cache_digest
from repro.cache.store import CACHE_SCHEMA
from repro.experiments import storage as storage_module
from repro.experiments.config import FlowSpec
from repro.experiments.runner import Campaign, CampaignSpec, \
    descriptor_key
from repro.experiments.storage import FORMAT_VERSION, ResultJournal, \
    result_from_dict, result_to_dict
from repro.wireless.profiles import TimeOfDay
from tests.conftest import examples

KB = 1024


def small_campaign(base_seed=7):
    return CampaignSpec(
        name="cache",
        specs=(FlowSpec.single_path("wifi"), FlowSpec.mptcp(carrier="att")),
        sizes=(8 * KB, 32 * KB), repetitions=1,
        periods=(TimeOfDay.NIGHT,), base_seed=base_seed)


def full_dicts(results):
    return [result_to_dict(result, max_samples=None) for result in results]


@pytest.fixture(scope="module")
def baseline():
    spec = small_campaign()
    return Campaign(spec).run()


# ----------------------------------------------------------------------
# Store basics
# ----------------------------------------------------------------------

def test_put_get_round_trip_full_fidelity(tmp_path, baseline):
    cache = RunCache(tmp_path / "cache")
    result = baseline[0]
    key = cache.key_of(result)
    assert cache.put(result)
    assert not cache.put(result), "puts are idempotent per key"
    restored = cache.get(key)
    assert full_dicts([restored]) == full_dicts([result])
    assert cache.stats()["hits"] == 1
    cache.close()


def test_store_is_sharded_and_atomic(tmp_path, baseline):
    root = tmp_path / "cache"
    with RunCache(root) as cache:
        for result in baseline:
            cache.put(result)
        digests = [cache_digest(cache.key_of(result), FORMAT_VERSION)
                   for result in baseline]
    for digest in digests:
        path = root / "objects" / digest[:2] / f"{digest}.json"
        assert path.exists(), "objects live under two-hex shard dirs"
    # Atomic write discipline leaves no temp droppings behind.
    leftovers = [name for name in os.listdir(root)
                 if name.endswith(".tmp")]
    assert leftovers == []
    # The index knows every entry without a dir scan.
    reopened = RunCache(root)
    assert reopened.stats()["entries"] == len(baseline)
    for result in baseline:
        assert reopened.get(reopened.key_of(result)) is not None
    reopened.close()


def test_miss_returns_none_and_counts(tmp_path):
    with RunCache(tmp_path / "cache") as cache:
        assert cache.get("no|such|cell|night") is None
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 1,
                                 "puts": 0, "hit_rate": 0.0}


def test_crash_between_object_and_index_is_a_safe_miss(tmp_path,
                                                       baseline):
    """An object whose index line never landed reads as a miss and is
    re-put idempotently — never a crash, never a stale row."""
    root = tmp_path / "cache"
    with RunCache(root) as cache:
        cache.put(baseline[0])
        key = cache.key_of(baseline[0])
    (root / "index.jsonl").write_text("")  # the index append "lost"
    with RunCache(root) as cache:
        assert cache.get(key) is None
        assert cache.put(baseline[0])
        assert full_dicts([cache.get(key)]) == full_dicts([baseline[0]])


# ----------------------------------------------------------------------
# Invalidation
# ----------------------------------------------------------------------

def test_format_version_bump_is_a_full_miss(tmp_path, baseline):
    root = tmp_path / "cache"
    with RunCache(root) as cache:
        for result in baseline:
            cache.put(result)
        keys = [cache.key_of(result) for result in baseline]
    bumped = RunCache(root, format_version=FORMAT_VERSION + 1)
    assert bumped.invalidated
    assert bumped.stats()["entries"] == 0, \
        "explicit invalidation wipes the store"
    for key in keys:
        assert bumped.get(key) is None
    bumped.close()
    # Reopening at the *old* version after the wipe must not
    # resurrect anything either.
    with RunCache(root, format_version=FORMAT_VERSION) as reverted:
        for key in keys:
            assert reverted.get(key) is None


def test_cache_tracks_live_format_version(tmp_path, baseline,
                                          monkeypatch):
    """The default version is read from the storage module at open, so
    bumping FORMAT_VERSION invalidates without any cache-side edit."""
    root = tmp_path / "cache"
    with RunCache(root) as cache:
        cache.put(baseline[0])
        key = cache.key_of(baseline[0])
    monkeypatch.setattr(storage_module, "FORMAT_VERSION",
                        FORMAT_VERSION + 1)
    with RunCache(root) as cache:
        assert cache.format_version == FORMAT_VERSION + 1
        assert cache.get(key) is None


def test_version_is_part_of_the_address(tmp_path, baseline):
    """Even a tampered meta stamp cannot serve a stale row: the
    format version is baked into the content address itself."""
    assert cache_digest("k", 2) != cache_digest("k", 3)
    root = tmp_path / "cache"
    with RunCache(root, format_version=FORMAT_VERSION) as cache:
        cache.put(baseline[0])
        key = cache.key_of(baseline[0])
    # Forge the stamp so open-time invalidation is bypassed.
    (root / "meta.json").write_text(json.dumps(
        {"schema": CACHE_SCHEMA, "format_version": FORMAT_VERSION + 1}))
    with RunCache(root, format_version=FORMAT_VERSION + 1) as cache:
        assert cache.get(key) is None


# ----------------------------------------------------------------------
# Corruption tolerance
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mangle", ["truncate", "garbage", "remove",
                                    "wrong_key"])
def test_corrupt_entry_is_skipped_with_a_warning(tmp_path, baseline,
                                                 mangle):
    root = tmp_path / "cache"
    with RunCache(root) as cache:
        cache.put(baseline[0])
        key = cache.key_of(baseline[0])
        digest = cache_digest(key, FORMAT_VERSION)
    path = root / "objects" / digest[:2] / f"{digest}.json"
    if mangle == "truncate":
        path.write_text(path.read_text()[:40])
    elif mangle == "garbage":
        path.write_text("{not json")
    elif mangle == "remove":
        path.unlink()
    else:
        wrapper = json.loads(path.read_text())
        wrapper["key"] = "some|other|cell|night"
        path.write_text(json.dumps(wrapper))
    with RunCache(root) as cache:
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert cache.get(key) is None
        # The campaign recomputes and re-puts; the entry heals.
        assert cache.put(baseline[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert full_dicts([cache.get(key)]) == full_dicts(
                [baseline[0]])


def test_campaign_survives_corrupted_cache(tmp_path, baseline):
    """End to end: a half-corrupted cache yields a complete, correct
    campaign — corrupt cells recompute, intact cells hit."""
    spec = small_campaign()
    root = tmp_path / "cache"
    Campaign(spec, cache=str(root)).run()   # populate
    with RunCache(root) as cache:
        digest = cache_digest(cache.key_of(baseline[0]), FORMAT_VERSION)
    (root / "objects" / digest[:2] / f"{digest}.json").write_text("{boom")
    with pytest.warns(RuntimeWarning, match="corrupt"):
        results = Campaign(spec, cache=str(root)).run()
    assert full_dicts(results) == full_dicts(baseline)


# ----------------------------------------------------------------------
# Packed sample lists
# ----------------------------------------------------------------------

def _bits(samples):
    return [struct.pack("<d", value) for value in samples]


def _from_bits(pattern):
    return struct.unpack("<d", struct.pack("<Q", pattern))[0]


#: Any double, by its bit pattern: NaN payloads, signed zeros,
#: subnormals and infinities included.
ANY_DOUBLE = st.one_of(st.floats(),
                       st.integers(0, (1 << 64) - 1).map(_from_bits))
EDGE_DOUBLES = [-0.0, 0.0, 5e-324, -2.2250738585072e-308,
                float("inf"), float("-inf"), float("nan"),
                _from_bits(0x7FF0000000000001),   # signalling NaN
                _from_bits(0xFFF8DEADBEEF0001)]   # negative NaN payload


@settings(max_examples=examples(40))
@given(ofo=st.lists(ANY_DOUBLE, max_size=40),
       rtt=st.lists(ANY_DOUBLE, max_size=40))
@example(ofo=EDGE_DOUBLES, rtt=EDGE_DOUBLES[::-1])
@example(ofo=[], rtt=[])
def test_packed_samples_round_trip_bit_exact(baseline, ofo, rtt):
    """put -> reopen -> get hands back every sample by its bits."""
    result = result_from_dict(result_to_dict(baseline[1], max_samples=None))
    result.metrics.ofo_delays = list(ofo)
    paths = sorted(result.metrics.per_path)
    for index, path in enumerate(paths):
        result.metrics.per_path[path].rtt_samples = rtt[index:]
    with tempfile.TemporaryDirectory() as root:
        with RunCache(root) as cache:
            cache.put(result)
            key = cache.key_of(result)
        with RunCache(root) as cache:
            restored = cache.get(key)
    assert restored is not None
    assert _bits(restored.metrics.ofo_delays) == _bits(ofo)
    for index, path in enumerate(paths):
        assert _bits(restored.metrics.per_path[path].rtt_samples) == \
            _bits(rtt[index:])


def test_stored_objects_hold_packed_samples(tmp_path, baseline):
    result = baseline[1]
    with RunCache(tmp_path) as cache:
        cache.put(result)
        digest = cache_digest(cache.key_of(result), FORMAT_VERSION)
    stored = json.loads((tmp_path / "objects" / digest[:2]
                         / f"{digest}.json").read_text())["result"]
    for analysis in stored["metrics"]["per_path"].values():
        assert isinstance(analysis["rtt_samples"], str)
    raw = base64.b64decode(stored["metrics"]["ofo_delays"])
    assert raw == struct.pack(f"<{len(result.metrics.ofo_delays)}d",
                              *result.metrics.ofo_delays)


@pytest.mark.parametrize("mangle", ["bad_base64", "ragged_length"])
def test_mangled_packed_field_is_a_recomputed_miss(tmp_path, baseline,
                                                   mangle):
    spec = small_campaign()
    root = tmp_path / "cache"
    Campaign(spec, cache=str(root)).run()   # populate
    with RunCache(root) as cache:
        key = cache.key_of(baseline[1])
    path = (root / "objects" / cache_digest(key, FORMAT_VERSION)[:2]
            / f"{cache_digest(key, FORMAT_VERSION)}.json")
    wrapper = json.loads(path.read_text())
    metrics = wrapper["result"]["metrics"]
    if mangle == "bad_base64":
        metrics["ofo_delays"] = "not*base64!"
    else:
        first = sorted(metrics["per_path"])[0]
        metrics["per_path"][first]["rtt_samples"] = \
            base64.b64encode(bytes(12)).decode("ascii")
    path.write_text(json.dumps(wrapper))
    with RunCache(root) as cache:
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert cache.get(key) is None
    with pytest.warns(RuntimeWarning, match="corrupt"):
        results = Campaign(spec, cache=str(root)).run()
    assert full_dicts(results) == full_dicts(baseline)


def test_schema_1_store_is_wiped_on_open(tmp_path, baseline):
    root = tmp_path / "cache"
    with RunCache(root) as cache:
        cache.put(baseline[0])
        key = cache.key_of(baseline[0])
    (root / "meta.json").write_text(json.dumps(
        {"schema": 1, "format_version": FORMAT_VERSION}))
    with RunCache(root) as cache:
        assert cache.invalidated
        assert cache.stats()["entries"] == 0
        assert not (root / "objects").exists()
        assert cache.get(key) is None
    assert json.loads((root / "meta.json").read_text())["schema"] == \
        CACHE_SCHEMA == 2


# ----------------------------------------------------------------------
# Campaign integration + key unification
# ----------------------------------------------------------------------

def test_cold_then_warm_campaign_is_byte_identical(tmp_path, baseline):
    spec = small_campaign()
    root = tmp_path / "cache"
    cold = Campaign(spec, cache=str(root)).run()
    assert full_dicts(cold) == full_dicts(baseline)
    warm_cache = RunCache(root)
    warm = Campaign(spec, cache=warm_cache).run()
    assert full_dicts(warm) == full_dicts(baseline)
    assert warm_cache.hits == len(baseline), "every cell must hit"
    assert warm_cache.hit_rate == 1.0
    warm_cache.close()


def test_cache_shared_across_campaign_names_only_on_equal_cells(
        tmp_path, baseline):
    """Cells are shared iff their descriptor keys match: an otherwise
    identical campaign under another name derives different seeds, so
    it must miss — no false sharing."""
    root = tmp_path / "cache"
    Campaign(small_campaign(), cache=str(root)).run()
    other = CampaignSpec(
        name="cache-renamed",
        specs=small_campaign().specs, sizes=small_campaign().sizes,
        repetitions=1, periods=(TimeOfDay.NIGHT,), base_seed=7)
    probe = RunCache(root)
    Campaign(other, cache=probe).run()
    assert probe.hits == 0
    probe.close()
    # Whereas the *same* campaign spec re-run hits every cell.
    probe = RunCache(root)
    Campaign(small_campaign(), cache=probe).run()
    assert probe.hits == len(baseline)
    probe.close()


def test_journal_resumed_and_cache_hit_results_are_equal(tmp_path,
                                                         baseline):
    """Satellite: the journal and the cache key on the same
    descriptor_key(), so a journal-resumed cell and a cache-hit cell
    return equal RunResults."""
    spec = small_campaign()
    plan = Campaign(spec).plan()
    journal_path = tmp_path / "journal.jsonl"
    cache_root = tmp_path / "cache"
    Campaign(spec, journal=str(journal_path)).run()      # fill journal
    Campaign(spec, cache=str(cache_root)).run()          # fill cache
    via_journal = Campaign(spec, journal=str(journal_path)).run()
    cache = RunCache(cache_root)
    via_cache = Campaign(spec, cache=cache).run()
    assert cache.hits == len(plan)
    cache.close()
    assert full_dicts(via_journal) == full_dicts(via_cache)
    assert full_dicts(via_journal) == full_dicts(baseline)
    # The two layers literally share the key function.
    with ResultJournal(journal_path) as journal:
        for descriptor in plan:
            key = descriptor_key(descriptor.spec, descriptor.size,
                                 descriptor.seed, descriptor.period)
            assert key == descriptor.key
            assert journal.key_of(journal.get(key)) == key


def test_cache_hits_backfill_the_journal_and_vice_versa(tmp_path,
                                                        baseline):
    spec = small_campaign()
    plan = Campaign(spec).plan()
    cache_root = tmp_path / "cache"
    journal_path = tmp_path / "journal.jsonl"
    Campaign(spec, cache=str(cache_root)).run()
    # Cache-hit cells still land in a fresh journal: crash-resume
    # stays complete even when nothing was computed.
    Campaign(spec, cache=str(cache_root),
             journal=str(journal_path)).run()
    with ResultJournal(journal_path) as journal:
        assert journal.restored == len(plan)
    # And journal-restored cells warm a fresh cache.
    fresh_root = tmp_path / "cache2"
    fresh = RunCache(fresh_root)
    Campaign(spec, cache=fresh, journal=str(journal_path)).run()
    assert fresh.stats()["entries"] == len(plan)
    assert fresh.puts == len(plan)
    fresh.close()


def test_all_hit_pass_never_reads_the_run_log(tmp_path, baseline,
                                              monkeypatch):
    """An all-hit pass restores every cell from the cache without
    parsing the run log a previous pass left."""
    from repro.experiments.parallel import execute_plan
    from repro.obs.telemetry import RunLog

    spec = small_campaign()
    plan = Campaign(spec).plan()
    root = tmp_path / "cache"
    run_log = tmp_path / "run_log.jsonl"
    execute_plan(plan, cache=str(root), run_log=str(run_log))
    assert run_log.exists()

    def forbidden(path):
        raise AssertionError(f"run log {path} parsed on an all-hit pass")

    monkeypatch.setattr(RunLog, "read", forbidden)
    restored = execute_plan(plan, cache=str(root), run_log=str(run_log),
                            jobs=2)
    assert full_dicts(restored) == full_dicts(baseline)
