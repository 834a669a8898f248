"""Tests for FlowSpec labels, identity and derived configurations."""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import scheduler_names
from repro.experiments.config import FlowSpec
from repro.experiments.protocol import descriptor_to_dict
from repro.experiments.runner import RunDescriptor
from repro.middlebox import PROFILES
from repro.wireless.profiles import PATH_PAIRS, TimeOfDay
from repro.world import WORLDS
from tests.conftest import examples


def test_single_path_labels():
    assert FlowSpec.single_path("wifi").label == "SP-WiFi"
    assert FlowSpec.single_path("cell", carrier="att").label == "SP-ATT"
    assert FlowSpec.single_path("cell", carrier="verizon").label == "SP-VZW"
    assert FlowSpec.single_path("cell", carrier="sprint").label == "SP-Sprint"


def test_mptcp_labels_match_figures():
    assert FlowSpec.mptcp().label == "MP-2"
    assert FlowSpec.mptcp(controller="olia").label == "MP-2 (olia)"
    assert FlowSpec.mptcp(controller="reno", paths=4).label == "MP-4 (reno)"


def test_mode_validation():
    with pytest.raises(ValueError):
        FlowSpec(mode="hybrid")
    with pytest.raises(ValueError):
        FlowSpec(mode="sp", interface="bluetooth")
    with pytest.raises(ValueError):
        FlowSpec(mode="mp", paths=3)


def test_server_interfaces_follow_path_count():
    assert FlowSpec.mptcp(paths=2).server_interfaces == 1
    assert FlowSpec.mptcp(paths=4).server_interfaces == 2
    assert FlowSpec.single_path("wifi").server_interfaces == 1


def test_tcp_config_carries_paper_knobs():
    spec = FlowSpec.mptcp(ssthresh=32 * 1024, rcv_buffer=2 ** 20)
    tcp = spec.tcp_config()
    assert tcp.initial_ssthresh == 32 * 1024
    assert tcp.rcv_buffer == 2 ** 20


def test_default_knobs_match_section_3_1():
    spec = FlowSpec.mptcp()
    assert spec.ssthresh == 64 * 1024
    assert spec.rcv_buffer == 8 * 1024 * 1024
    assert spec.penalization is False
    assert spec.scheduler == "minrtt"
    tcp = spec.tcp_config()
    assert tcp.initial_window_segments == 10
    assert tcp.use_sack is True


def test_mptcp_config_mirrors_spec():
    spec = FlowSpec.mptcp(controller="olia", simultaneous_syn=True,
                          penalization=True, scheduler="roundrobin")
    config = spec.mptcp_config()
    assert config.controller == "olia"
    assert config.simultaneous_syn is True
    assert config.penalization is True
    assert config.scheduler == "roundrobin"


def test_mptcp_config_rejected_for_single_path():
    with pytest.raises(RuntimeError):
        FlowSpec.single_path("wifi").mptcp_config()


def test_with_creates_modified_copy():
    base = FlowSpec.mptcp()
    changed = base.with_(controller="olia")
    assert changed.controller == "olia"
    assert base.controller == "coupled"
    assert changed != base


def test_specs_are_hashable_for_grouping():
    assert {FlowSpec.mptcp(): 1}[FlowSpec.mptcp()] == 1


# ----------------------------------------------------------------------
# Identity
# ----------------------------------------------------------------------

def reference_identity(spec):
    """The original ``asdict``-based identity formula, kept verbatim as
    the oracle: seeds, journal keys and cache addresses derive from it."""
    values = dataclasses.asdict(spec)
    if values["middlebox"] == "none":
        for name in ("middlebox", "middlebox_path", "middlebox_prob"):
            del values[name]
    if values["path_manager"] == "fullmesh":
        del values["path_manager"]
    if values["workload"] == "bulk":
        del values["workload"]
    if values["path_pair"] == "default":
        del values["path_pair"]
    if values["world"] == "none":
        del values["world"]
    if values["failure"] == "none":
        del values["failure"]
    return ";".join(f"{name}={values[name]}" for name in sorted(values))


@st.composite
def flow_specs(draw):
    """Any valid spec, every field drawn (defaults included)."""
    mode = draw(st.sampled_from(["sp", "mp"]))
    return FlowSpec(
        mode=mode,
        carrier=draw(st.sampled_from(["att", "verizon", "sprint"])),
        wifi=draw(st.sampled_from(["home", "public"])),
        interface=draw(st.sampled_from(["wifi", "cell"])),
        controller=draw(st.sampled_from(["reno", "coupled", "olia"])),
        paths=draw(st.sampled_from([2, 4])),
        simultaneous_syn=draw(st.booleans()),
        scheduler=draw(st.sampled_from(scheduler_names())),
        penalization=draw(st.booleans()),
        ssthresh=draw(st.integers(1, 1 << 24)),
        rcv_buffer=draw(st.integers(1, 1 << 26)),
        middlebox=draw(st.sampled_from(["none"] + sorted(PROFILES))),
        middlebox_path=draw(st.sampled_from(["wifi", "cell", "server"])),
        middlebox_prob=draw(st.floats(0.0, 1.0)),
        workload=(draw(st.sampled_from(
            ["bulk", "pageload", "video", "realtime"]))
            if mode == "mp" else "bulk"),
        path_pair=draw(st.sampled_from(["default"] + sorted(PATH_PAIRS))),
        world=draw(st.sampled_from(["none"] + sorted(WORLDS))),
        failure=draw(st.sampled_from(
            ["none", "outage:down=2,up=6",
             "outage:down=1.5,up=never,path=cell"])),
    )


@settings(max_examples=examples(200))
@given(spec=flow_specs())
def test_identity_matches_reference_formula(spec):
    assert spec.identity == reference_identity(spec)


def test_identity_pins_default_specs():
    assert FlowSpec.single_path("wifi").identity == (
        "carrier=att;controller=coupled;interface=wifi;mode=sp;paths=2;"
        "penalization=False;rcv_buffer=8388608;scheduler=minrtt;"
        "simultaneous_syn=False;ssthresh=65536;wifi=home")


def test_cached_identity_stays_outside_the_fields():
    spec = FlowSpec.mptcp("verizon", middlebox="strip-dss")
    twin = FlowSpec.mptcp("verizon", middlebox="strip-dss")
    plain = dataclasses.asdict(twin)
    identity = spec.identity          # cached on ``spec`` only
    assert "identity" in vars(spec)
    assert "identity" not in dataclasses.asdict(spec)
    assert dataclasses.asdict(spec) == plain
    assert spec == twin and hash(spec) == hash(twin)
    frame = descriptor_to_dict(RunDescriptor(
        index=0, spec=spec, size=1024, seed=1, period=TimeOfDay.NIGHT))
    assert frame["spec"] == plain
    assert twin.identity == identity


def test_with_recomputes_identity():
    base = FlowSpec.mptcp()
    assert "olia" not in base.identity
    changed = base.with_(controller="olia")
    assert "identity" not in vars(changed)
    assert changed.identity == reference_identity(changed)
    assert "controller=olia" in changed.identity
    assert base.identity == reference_identity(base)


@pytest.mark.parametrize("warm", [False, True])
def test_pickled_spec_keeps_its_identity(warm):
    spec = FlowSpec.mptcp("sprint", world="bg-light", failure="none")
    if warm:
        spec.identity
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.identity == spec.identity == reference_identity(spec)
