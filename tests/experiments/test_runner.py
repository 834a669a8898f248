"""Tests for Measurement and Campaign."""

import dataclasses

from repro.experiments.config import FlowSpec
from repro.experiments.runner import Campaign, CampaignSpec, Measurement
from repro.wireless.profiles import TimeOfDay

KB = 1024


def test_measurement_completes_single_path():
    result = Measurement(FlowSpec.single_path("wifi"), 64 * KB, seed=1).run()
    assert result.completed
    assert result.download_time > 0
    assert result.subflow_count == 0
    assert result.metrics.per_path.keys() == {"wifi"}


def test_measurement_completes_mptcp():
    result = Measurement(FlowSpec.mptcp(carrier="att"), 64 * KB, seed=1).run()
    assert result.completed
    assert result.subflow_count == 2


def test_measurement_is_deterministic():
    spec = FlowSpec.mptcp(carrier="verizon")
    a = Measurement(spec, 128 * KB, seed=9).run()
    b = Measurement(spec, 128 * KB, seed=9).run()
    assert a.download_time == b.download_time
    assert a.metrics.cellular_fraction == b.metrics.cellular_fraction


def test_measurement_seed_changes_outcome():
    spec = FlowSpec.mptcp(carrier="att")
    a = Measurement(spec, 512 * KB, seed=1).run()
    b = Measurement(spec, 512 * KB, seed=2).run()
    assert a.download_time != b.download_time


def test_sp_cell_uses_only_cellular():
    result = Measurement(FlowSpec.single_path("cell", carrier="att"),
                         64 * KB, seed=1).run()
    assert result.completed
    assert result.metrics.cellular_fraction == 1.0


def test_campaign_runs_full_matrix():
    spec = CampaignSpec(
        name="t", specs=(FlowSpec.single_path("wifi"),
                         FlowSpec.mptcp(carrier="att")),
        sizes=(8 * KB, 64 * KB), repetitions=2,
        periods=(TimeOfDay.NIGHT,), base_seed=5)
    campaign = Campaign(spec)
    results = campaign.run()
    assert len(results) == spec.total_runs() == 8
    assert campaign.completed_fraction() == 1.0
    groups = campaign.group()
    assert len(groups) == 4
    assert all(len(bucket) == 2 for bucket in groups.values())


def test_campaign_is_reproducible():
    def run():
        spec = CampaignSpec(
            name="t", specs=(FlowSpec.mptcp(carrier="att"),),
            sizes=(64 * KB,), repetitions=2, periods=(TimeOfDay.NIGHT,),
            base_seed=5)
        campaign = Campaign(spec)
        campaign.run()
        return [r.download_time for r in campaign.results]

    assert run() == run()


def test_campaign_download_times_helper():
    flow = FlowSpec.single_path("wifi")
    spec = CampaignSpec(name="t", specs=(flow,), sizes=(8 * KB,),
                        repetitions=3, periods=(TimeOfDay.NIGHT,))
    campaign = Campaign(spec)
    campaign.run()
    times = campaign.download_times(flow, 8 * KB)
    assert len(times) == 3
    assert all(t > 0 for t in times)


def test_campaign_periods_vary_environment():
    flow = FlowSpec.single_path("wifi")
    spec = CampaignSpec(name="t", specs=(flow,), sizes=(64 * KB,),
                        repetitions=1,
                        periods=(TimeOfDay.NIGHT, TimeOfDay.EVENING))
    campaign = Campaign(spec)
    results = campaign.run()
    assert {r.period for r in results} == {TimeOfDay.NIGHT,
                                           TimeOfDay.EVENING}


def test_campaign_progress_callback():
    calls = []
    flow = FlowSpec.single_path("wifi")
    spec = CampaignSpec(name="t", specs=(flow,), sizes=(8 * KB,),
                        repetitions=2, periods=(TimeOfDay.NIGHT,))
    Campaign(spec, progress=lambda i, n, r: calls.append((i, n))).run()
    assert calls == [(1, 2), (2, 2)]


def test_campaign_seeds_distinguish_ablation_specs():
    """Regression: seeds derived from label+carrier alone collide for
    specs that differ only in a protocol knob (e.g. the scheduler),
    silently correlating their 'independent' runs."""
    a = FlowSpec.mptcp(carrier="att", scheduler="minrtt")
    b = FlowSpec.mptcp(carrier="att", scheduler="roundrobin")
    assert a.label == b.label and a.carrier == b.carrier
    spec = CampaignSpec(name="t", specs=(a, b), sizes=(8 * KB,),
                        repetitions=1, periods=(TimeOfDay.NIGHT,))
    plan = Campaign(spec).plan()
    assert len({descriptor.seed for descriptor in plan}) == len(plan) == 2


def test_campaign_seeds_unique_across_matrix():
    spec = CampaignSpec(
        name="t",
        specs=(FlowSpec.single_path("wifi"), FlowSpec.mptcp(carrier="att")),
        sizes=(8 * KB, 64 * KB), repetitions=2,
        periods=(TimeOfDay.NIGHT, TimeOfDay.AFTERNOON))
    plan = Campaign(spec).plan()
    seeds = {descriptor.seed for descriptor in plan}
    assert len(seeds) == spec.total_runs()


def test_paired_campaign_shares_seeds_across_configs():
    """Common random numbers: every config of a (size, period,
    repetition) draws the same seed; unpaired, each draws its own."""
    a = FlowSpec.mptcp(carrier="att")
    b = a.with_(penalization=True)
    spec = CampaignSpec(name="t", specs=(a, b), sizes=(8 * KB, 16 * KB),
                        repetitions=2, periods=(TimeOfDay.NIGHT,),
                        paired=True)

    def seeds(campaign, flow):
        return sorted(descriptor.seed for descriptor in campaign.plan()
                      if descriptor.spec == flow)

    paired = Campaign(spec)
    assert seeds(paired, a) == seeds(paired, b)
    assert len(set(seeds(paired, a))) == 4
    unpaired = Campaign(dataclasses.replace(spec, paired=False))
    assert not set(seeds(unpaired, a)) & set(seeds(unpaired, b))
