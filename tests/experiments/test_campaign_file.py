"""Tests for JSON campaign definitions."""

import json

import pytest

from repro.experiments.campaign_file import (
    campaign_from_dict,
    format_size,
    load_campaign,
    parse_size,
    save_campaign,
)
from repro.experiments.runner import Campaign
from repro.experiments.scenarios import baseline_campaign
from repro.wireless.profiles import TimeOfDay

KB, MB = 1024, 1024 ** 2


def test_parse_size_formats():
    assert parse_size(8192) == 8192
    assert parse_size("8 KB") == 8 * KB
    assert parse_size("512KB") == 512 * KB
    assert parse_size("4 MB") == 4 * MB
    assert parse_size("1.5 MB") == int(1.5 * MB)
    assert parse_size("100") == 100
    assert parse_size("2 gb") == 2 * 1024 ** 3


def test_parse_size_rejects_garbage():
    with pytest.raises(ValueError):
        parse_size("lots")
    with pytest.raises(ValueError):
        parse_size("-5 KB")
    with pytest.raises(ValueError):
        parse_size(0)


@pytest.mark.parametrize("size", ["0 KB", "0.0001 KB", "0"])
def test_parse_size_rejects_labels_under_one_byte(size):
    """A 0-byte cell can never complete, so its label is refused."""
    with pytest.raises(ValueError, match=f"'{size}'"):
        parse_size(size)


@pytest.mark.parametrize("size", [4.5, 4096.0, True, None])
def test_parse_size_rejects_non_integer_values(size):
    with pytest.raises(ValueError, match=repr(size)):
        parse_size(size)


def test_campaign_file_rejects_a_float_size():
    with pytest.raises(ValueError, match="4.5"):
        campaign_from_dict({"name": "x", "sizes": [4.5],
                            "flows": [{"mode": "sp"}]})


@pytest.mark.parametrize("repetitions", [0, -2])
def test_campaign_file_rejects_empty_repetitions(repetitions):
    """Zero or negative repetitions would build a campaign of no cells."""
    with pytest.raises(ValueError, match=str(repetitions)):
        campaign_from_dict({"name": "x", "sizes": ["8 KB"],
                            "repetitions": repetitions,
                            "flows": [{"mode": "sp"}]})


def test_format_size_round_trips():
    for size in (8 * KB, 512 * KB, 4 * MB, 100, 3 * KB):
        assert parse_size(format_size(size)) == size


def test_campaign_from_dict_minimal():
    spec = campaign_from_dict({
        "name": "mini",
        "sizes": ["8 KB"],
        "flows": [{"mode": "sp", "interface": "wifi"}],
    })
    assert spec.name == "mini"
    assert spec.sizes == (8 * KB,)
    assert spec.specs[0].label == "SP-WiFi"
    assert spec.repetitions == 3  # CampaignSpec default


def test_campaign_from_dict_full():
    spec = campaign_from_dict({
        "name": "study",
        "repetitions": 7,
        "base_seed": 99,
        "periods": ["night", "evening"],
        "sizes": [1024, "2 MB"],
        "flows": [
            {"mode": "mp", "carrier": "verizon", "controller": "olia",
             "paths": 4},
        ],
    })
    assert spec.repetitions == 7
    assert spec.base_seed == 99
    assert spec.periods == (TimeOfDay.NIGHT, TimeOfDay.EVENING)
    assert spec.specs[0].label == "MP-4 (olia)"


def test_campaign_from_dict_validates():
    with pytest.raises(ValueError):
        campaign_from_dict({"name": "x", "sizes": [1]})  # no flows
    with pytest.raises(ValueError):
        campaign_from_dict({"name": "x", "sizes": [1], "flows": [],
                            "bogus": True})
    with pytest.raises(TypeError):
        campaign_from_dict({"name": "x", "sizes": [1],
                            "flows": [{"mode": "sp", "nope": 1}]})


def test_round_trip_preserves_campaign(tmp_path):
    original = baseline_campaign(repetitions=2)
    path = tmp_path / "baseline.json"
    save_campaign(original, path)
    loaded = load_campaign(path)
    assert loaded == original


def test_saved_file_is_readable_json(tmp_path):
    path = tmp_path / "campaign.json"
    save_campaign(baseline_campaign(), path)
    data = json.loads(path.read_text())
    assert data["name"] == "baseline"
    assert any(flow.get("carrier") == "sprint" for flow in data["flows"])
    # Defaults are omitted to keep the file human-scale.
    sp_wifi = data["flows"][0]
    assert "penalization" not in sp_wifi


def test_loaded_campaign_runs(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "name": "tiny",
        "repetitions": 1,
        "periods": ["night"],
        "sizes": ["8 KB"],
        "flows": [{"mode": "sp", "interface": "wifi"},
                  {"mode": "mp", "carrier": "att"}],
    }))
    spec = load_campaign(path)
    results = Campaign(spec).run()
    assert len(results) == 2
    assert all(result.completed for result in results)
