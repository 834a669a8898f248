"""Counted budget of the warm read path: Python frames and ``json.loads``
calls per run-cache hit.

The storage counterpart of ``test_packet_budget.py``.  A 24-cell plan
(the ``small_flows`` specs at 8 KB, 64 KB and 512 KB, the shape of the
``campaign_warm`` benchmark) is computed into a fresh cache; a second
plan of the same cells then runs as one all-hit ``execute_plan`` pass
under ``cProfile``, cache open included.  Python frames (every profiled
call that is not a C builtin) and calls of ``json.loads`` are divided
by the hits.  The bounds sit ~5% above what the tree reaches (32.8
frames and 1.04 decodes per hit: one object decode per hit plus the
``meta.json`` stamp at open); with float-text sample lists, an
``asdict`` identity per key and pathlib object paths the same pass
needed 163.5 frames per hit.  A frame added to every hit fails here on
any machine.  After a deliberate trade, re-measure (the assertion
message prints the numbers) and move the bound with the reason in the
commit.
"""

import cProfile

from repro.cache import RunCache
from repro.experiments import Campaign, CampaignSpec, execute_plan
from repro.experiments.scenarios import small_flows_campaign
from repro.wireless.profiles import TimeOfDay

KB = 1024

FRAMES_PER_HIT = 34.4
DECODES_PER_HIT = 1.09


def _plan():
    return Campaign(CampaignSpec(
        name="cache-budget", specs=small_flows_campaign().specs,
        sizes=(8 * KB, 64 * KB, 512 * KB), repetitions=1,
        periods=(TimeOfDay.AFTERNOON,), base_seed=1)).plan()


def test_warm_read_path_stays_inside_its_budget(tmp_path):
    root = str(tmp_path / "cache")
    execute_plan(_plan(), cache=root)   # cold: compute and store
    # Untimed warm pass: lazy imports are not what a hit costs.
    execute_plan(_plan(), cache=root)
    plan = _plan()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        with RunCache(root) as cache:
            results = execute_plan(plan, cache=cache)
    finally:
        profiler.disable()
    assert len(results) == len(plan) == 24
    assert cache.hits == 24 and cache.misses == 0
    frames = decodes = 0
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            continue  # C builtins: not frames
        frames += entry.callcount
        if (code.co_name == "loads" and code.co_filename.replace(
                "\\", "/").endswith("json/__init__.py")):
            decodes += entry.callcount
    measured = (f"{frames / cache.hits:.2f} frames and "
                f"{decodes / cache.hits:.3f} json.loads per hit "
                f"({frames} frames, {decodes} decodes, {cache.hits} hits)")
    assert frames / cache.hits <= FRAMES_PER_HIT, measured
    assert decodes / cache.hits <= DECODES_PER_HIT, measured
