"""The shared-world kernel bound to a real Testbed + Measurement."""

import json

import pytest

from repro.experiments.config import FlowSpec
from repro.experiments.runner import Measurement
from repro.experiments.storage import result_from_dict, result_to_dict
from repro.sim.rng import derive_seed
from repro.testbed import CLIENT_WIFI, Testbed, TestbedConfig
from repro.wireless.profiles import TimeOfDay
from repro.world import WORLDS, World, WorldSpec, build_world

KB = 1024
MB = 1024 * KB

#: Download time of the fig02 MP-2 2 MB cell at the seed below, pinned
#: since the fast event engine landed (PR 3).
FIG02_MP2_2MB_DOWNLOAD_TIME = 1.6469138363566231


# ----------------------------------------------------------------------
# WorldSpec / registry
# ----------------------------------------------------------------------

def test_world_spec_validation():
    with pytest.raises(ValueError):
        WorldSpec(arrival="sometimes")
    with pytest.raises(ValueError):
        WorldSpec(arrival="poisson", rate=0.0)
    with pytest.raises(ValueError):
        WorldSpec(arrival="closed", users=0)
    with pytest.raises(ValueError):
        WorldSpec(paths=("ethernet",))
    with pytest.raises(ValueError):
        WorldSpec(sizes="bogus-dist")


def test_registry_presets_are_valid_and_priced():
    for name, spec in WORLDS.items():
        assert spec.expected_concurrency >= 0.0, name
    assert WORLDS["bg-none"].expected_concurrency == 0.0
    assert WORLDS["closed-32"].expected_concurrency == 32.0


def test_flowspec_rejects_unknown_world():
    with pytest.raises(ValueError):
        FlowSpec.mptcp(carrier="att", world="bg-imaginary")


def test_world_identity_gating():
    """Defaulted world stays out of the identity (pre-existing seeds
    and journal keys must not move); a named world is included."""
    plain = FlowSpec.mptcp(carrier="att")
    assert "world" not in plain.identity
    worldly = FlowSpec.mptcp(carrier="att", world="bg-light")
    assert "world=bg-light" in worldly.identity
    assert plain.identity != worldly.identity


def test_world_cost_weight_monotone():
    """Satellite: CostModel pricing -- heavier worlds cost more, and
    any world costs more than the stand-alone cell, so LJF dispatch
    fronts the expensive many-flow cells in a mixed plan."""
    plain = FlowSpec.mptcp(carrier="att")
    light = FlowSpec.mptcp(carrier="att", world="bg-light")
    heavy = FlowSpec.mptcp(carrier="att", world="bg-heavy")
    closed = FlowSpec.mptcp(carrier="att", world="closed-32")
    assert plain.cost_weight < light.cost_weight
    assert light.cost_weight < heavy.cost_weight
    assert heavy.cost_weight < closed.cost_weight
    sp = FlowSpec.single_path("wifi", world="bg-light")
    assert sp.cost_weight > FlowSpec.single_path("wifi").cost_weight


# ----------------------------------------------------------------------
# World on a Testbed
# ----------------------------------------------------------------------

def test_world_binds_access_links():
    testbed = Testbed(TestbedConfig(seed=5))
    world = World(testbed, WORLDS["bg-heavy"])
    names = set(world.fluid.bottlenecks)
    assert names == {f"{CLIENT_WIFI}:down",
                     f"{testbed.cellular_addr}:down"}
    # Capacities mirror the nominal downlink rates.
    _, wifi_down = testbed.network.links_for(CLIENT_WIFI)
    assert world.fluid.bottlenecks[f"{CLIENT_WIFI}:down"] == \
        wifi_down.config.rate_bps


def test_bg_none_draws_no_rng_and_schedules_nothing():
    testbed = Testbed(TestbedConfig(seed=5))
    pending_before = testbed.sim.pending()
    scheduled_before = testbed.sim.events_scheduled
    world = build_world(testbed, "bg-none")
    world.attach_foreground([CLIENT_WIFI])
    world.start(stop_when=lambda: False)
    assert testbed.sim.pending() == pending_before
    assert testbed.sim.events_scheduled == scheduled_before


def test_measurement_with_background_slows_foreground():
    spec = FlowSpec.mptcp(carrier="att", controller="coupled")
    seed = 99
    plain = Measurement(spec, 2 * MB, seed=seed,
                        period=TimeOfDay.NIGHT).run()
    busy = Measurement(
        FlowSpec.mptcp(carrier="att", controller="coupled",
                       world="closed-8"),
        2 * MB, seed=seed, period=TimeOfDay.NIGHT).run()
    assert plain.completed and busy.completed
    assert busy.world is not None
    assert busy.world["peak_concurrent"] == 8
    assert busy.world["flows_completed"] > 0
    # Eight greedy background flows on the shared links must cost the
    # foreground real time.
    assert busy.download_time > plain.download_time * 1.02


@pytest.mark.xfail(strict=True, reason=(
    "World.detach_foreground has no caller: the foreground's greedy "
    "share stays reserved after its download completes, while the "
    "background drains (MP-2 closed-32, 2 MiB, seed 7: bg goodput "
    "19.04 Mbit/s held, 22.90 released at the first poll after "
    "completion, same download time).  The fix moves the world-campaign "
    "digest and the slowpath_flows oracle; it waits for the re-pin "
    "next to ROADMAP item 9(c)."))
def test_foreground_share_is_released_when_its_download_completes(
        monkeypatch):
    worlds = []
    start = World.start

    def recording_start(self, stop_when=None):
        worlds.append(self)
        start(self, stop_when=stop_when)

    monkeypatch.setattr(World, "start", recording_start)
    spec = FlowSpec.mptcp("att", "coupled", 2, world="closed-32")
    result = Measurement(spec, 2 * MB, seed=7).run()
    assert result.completed and len(worlds) == 1
    # Nothing left reserved for a connection that is done...
    assert not any(cls.pinned for cls in worlds[0].fluid._classes.values())
    # ...so the draining background gets the whole link.
    assert result.world["bg_goodput_bps"] > 22e6


def test_world_summary_survives_storage_round_trip():
    spec = FlowSpec.mptcp(carrier="att", world="closed-8")
    result = Measurement(spec, 256 * KB, seed=3,
                         period=TimeOfDay.NIGHT).run()
    clone = result_from_dict(json.loads(
        json.dumps(result_to_dict(result))))
    assert clone.world == result.world
    assert clone.spec == spec


def test_plain_result_round_trip_has_no_world():
    spec = FlowSpec.single_path("wifi")
    result = Measurement(spec, 64 * KB, seed=3,
                         period=TimeOfDay.NIGHT).run()
    assert result.world is None
    data = result_to_dict(result)
    assert data["world"] is None
    # Pre-world files lack the key entirely; both must deserialize.
    del data["world"]
    clone = result_from_dict(json.loads(json.dumps(data)))
    assert clone.world is None


# ----------------------------------------------------------------------
# The acceptance criterion: 1 foreground / 0 background == stand-alone
# ----------------------------------------------------------------------

def test_zero_background_world_reproduces_fig02_oracle():
    """A world with one packet-level flow and zero background flows
    must reproduce the committed single-flow fig02 oracle to the last
    bit: same seed, same download time as both the stand-alone run and
    the pinned value."""
    plain_spec = FlowSpec.mptcp(carrier="att", controller="coupled")
    world_spec = FlowSpec.mptcp(carrier="att", controller="coupled",
                                world="bg-none")
    size = 2 * MB
    # The seed the oracle value was recorded at (derived from the
    # *plain* identity -- the world field must not leak into it here,
    # because the point is byte-identity of the simulation itself).
    seed = derive_seed(2013, f"bench-perf:{plain_spec.identity}:{size}")
    plain = Measurement(plain_spec, size, seed=seed,
                        period=TimeOfDay.AFTERNOON).run()
    hosted = Measurement(world_spec, size, seed=seed,
                         period=TimeOfDay.AFTERNOON).run()
    assert plain.download_time == hosted.download_time
    assert hosted.world == {
        "flows_started": 0, "flows_completed": 0, "bg_bytes": 0,
        "bg_goodput_bps": 0.0, "peak_concurrent": 0, "mean_fct": 0.0,
        "jain": 1.0}
    assert hosted.download_time == FIG02_MP2_2MB_DOWNLOAD_TIME
