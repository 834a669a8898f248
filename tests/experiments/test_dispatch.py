"""Cost-aware dispatch: the cost model and its calibration, LJF
ordering, chunking, and affinity-aware job counts."""

import pytest

from repro.cache import CostModel, build_tasks, chunk_positions, \
    order_longest_first
from repro.cache.cost import SETUP_COST_S, TINY_COST_S
from repro.experiments import parallel as parallel_module
from repro.experiments.config import FlowSpec
from repro.experiments.parallel import default_jobs, execute_plan
from repro.experiments.runner import Campaign, CampaignSpec, \
    RunDescriptor
from repro.experiments.storage import result_to_dict
from repro.wireless.profiles import TimeOfDay

KB = 1024
MB = 1024 * 1024


def _descriptor(index, spec, size, seed=1):
    return RunDescriptor(index=index, spec=spec, size=size, seed=seed,
                         period=TimeOfDay.NIGHT)


def full_dicts(results):
    return [result_to_dict(result, max_samples=None) for result in results]


# ----------------------------------------------------------------------
# default_jobs affinity
# ----------------------------------------------------------------------

def test_default_jobs_respects_cpu_affinity(monkeypatch):
    monkeypatch.setattr(parallel_module.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 64)
    assert default_jobs() == 3


def test_default_jobs_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(parallel_module.os, "sched_getaffinity",
                        raising=False)
    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 5)
    assert default_jobs() == 5


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------

def test_heuristic_ranks_by_size_and_config():
    model = CostModel()
    wifi = FlowSpec.single_path("wifi")
    mp2 = FlowSpec.mptcp(carrier="att")
    mp4 = FlowSpec.mptcp(carrier="att", paths=4)
    small_sp = model.estimate(_descriptor(0, wifi, 64 * KB))
    big_sp = model.estimate(_descriptor(1, wifi, 16 * MB))
    big_mp2 = model.estimate(_descriptor(2, mp2, 16 * MB))
    big_mp4 = model.estimate(_descriptor(3, mp4, 16 * MB))
    assert small_sp < big_sp < big_mp2 < big_mp4


def test_ljf_fronts_world_cells():
    """Satellite: a shared-world cell must outrank the equivalent
    stand-alone cell at the same size, and by a calibrated (modest)
    margin -- the hybrid fluid kernel adds tens of percent, not
    multiples, on top of the vectorized packet core."""
    model = CostModel()
    mp2 = FlowSpec.mptcp(carrier="att")
    world = FlowSpec.mptcp(carrier="att", world="closed-8")
    plan = [
        _descriptor(0, mp2, 2 * MB),
        _descriptor(1, world, 2 * MB),
        _descriptor(2, mp2, 2 * MB),
    ]
    order = order_longest_first(range(len(plan)), plan, model)
    assert order[0] == 1, "the world cell leads at equal size"
    plain = model.estimate(plan[0])
    contended = model.estimate(plan[1])
    assert 1.05 * plain < contended < 2.0 * plain, \
        "world premium is real but calibrated, not a many-x blowup"


def test_observations_override_the_heuristic():
    model = CostModel()
    wifi = FlowSpec.single_path("wifi")
    descriptor = _descriptor(0, wifi, 2 * MB)
    model.observe(descriptor, 3.0)
    model.observe(descriptor, 5.0)
    assert model.estimate(descriptor) == pytest.approx(4.0)
    assert len(model._observed) == 1


def test_same_identity_scales_to_other_sizes():
    model = CostModel()
    wifi = FlowSpec.single_path("wifi")
    model.observe(_descriptor(0, wifi, 2 * MB), SETUP_COST_S + 2.0)
    scaled = model.estimate(_descriptor(1, wifi, 4 * MB))
    assert scaled == pytest.approx(SETUP_COST_S + 4.0)


def test_descriptor_without_spec_gets_default_cost():
    class Bare:
        key = "bare"

        def run(self):
            raise NotImplementedError

    assert CostModel().estimate(Bare()) == SETUP_COST_S


# ----------------------------------------------------------------------
# Ordering and chunking
# ----------------------------------------------------------------------

def _mixed_plan():
    wifi = FlowSpec.single_path("wifi")
    mp2 = FlowSpec.mptcp(carrier="att")
    return [
        _descriptor(0, wifi, 8 * KB),
        _descriptor(1, mp2, 16 * MB),
        _descriptor(2, wifi, 8 * KB),
        _descriptor(3, wifi, 16 * MB),
        _descriptor(4, mp2, 8 * KB),
        _descriptor(5, wifi, 8 * KB),
    ]


def test_ljf_puts_expensive_cells_first():
    plan = _mixed_plan()
    order = order_longest_first(range(len(plan)), plan, CostModel())
    assert order[:2] == [1, 3], "16 MB cells lead, MPTCP before SP"
    assert order[2] == 4, "MPTCP 8 KB outranks SP 8 KB"
    assert order[3:] == [0, 2, 5], "ties keep plan order"


def test_chunking_batches_tiny_cells_only():
    plan = _mixed_plan()
    model = CostModel()
    order = order_longest_first(range(len(plan)), plan, model)
    tasks = chunk_positions(order, plan, model, chunk=2)
    assert tasks == [[1], [3], [4, 0], [2, 5]], \
        "expensive cells travel alone; tiny cells pack in pairs"
    assert chunk_positions(order, plan, model, chunk=1) == \
        [[position] for position in order]


def test_chunking_respects_tiny_threshold():
    plan = _mixed_plan()
    model = CostModel()
    for descriptor in plan:
        model.observe(descriptor, TINY_COST_S * 2)  # nothing is tiny
    tasks = chunk_positions(range(len(plan)), plan, model, chunk=4)
    assert all(len(task) == 1 for task in tasks)


def test_build_tasks_caps_chunk_to_keep_workers_busy():
    wifi = FlowSpec.single_path("wifi")
    plan = [_descriptor(index, wifi, 8 * KB) for index in range(8)]
    tasks = build_tasks(range(8), plan, CostModel(), chunk=64, workers=4)
    assert len(tasks) >= 4, "batching must never starve the pool"


# ----------------------------------------------------------------------
# End-to-end determinism of pooled dispatch
# ----------------------------------------------------------------------

def small_campaign(base_seed=7):
    return CampaignSpec(
        name="dispatch",
        specs=(FlowSpec.single_path("wifi"), FlowSpec.mptcp(carrier="att")),
        sizes=(8 * KB, 32 * KB), repetitions=1,
        periods=(TimeOfDay.NIGHT,), base_seed=base_seed)


@pytest.mark.parametrize("kwargs", [
    dict(jobs=2),
    dict(jobs=2, chunk=3),
])
def test_dispatch_paths_equal_serial(kwargs):
    spec = small_campaign()
    serial = Campaign(spec, jobs=1).run()
    assert full_dicts(Campaign(spec, **kwargs).run()) == \
        full_dicts(serial)


# ----------------------------------------------------------------------
# Calibration: every executed cell feeds the cost model, on every path
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(jobs=1),
    dict(jobs=2),
    dict(jobs=2, backend="subprocess"),
], ids=["serial", "pool", "subprocess"])
def test_every_path_calibrates_the_cost_model(kwargs):
    """No run log, heartbeats or profile asked for: the shared model of
    a default ``repro all`` must still learn from the cells it ran."""
    plan = Campaign(small_campaign()).plan()
    model = CostModel()
    execute_plan(plan, cost_model=model, **kwargs)
    assert len(model._observed) == len({(cell.spec.identity, cell.size)
                                    for cell in plan})
