"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import _artifacts, _build_campaign, main
from repro.experiments import scenarios
from repro.wireless.profiles import TimeOfDay


def test_importing_the_cli_does_not_import_numpy():
    """numpy is bench tooling only: no ``repro`` command pays for it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, "-c",
         "import repro.cli, sys; assert 'numpy' not in sys.modules"],
        check=True, env=env)


def test_list_prints_every_artifact(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig2", "fig8", "fig11", "fig13", "tab2", "tab6"):
        assert name in out


def test_unknown_artifact_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_artifact_registry_covers_paper():
    names = set(_artifacts())
    figures = {f"fig{n}" for n in range(2, 14)}
    tables = {"tab2", "tab3", "tab4", "tab5", "tab6"}
    assert figures <= names
    assert tables <= names


class Args:
    def __init__(self, reps=2, full=False, seed=2013):
        self.reps = reps
        self.full = full
        self.seed = seed


def test_build_campaign_quick_defaults():
    artifact = _artifacts()["fig2"]
    spec = _build_campaign(artifact, Args())
    assert spec.repetitions == 2
    assert spec.periods == scenarios.QUICK_PERIODS
    assert spec.base_seed == 2013


def test_build_campaign_full_uses_all_periods():
    artifact = _artifacts()["fig2"]
    spec = _build_campaign(artifact, Args(full=True))
    assert set(spec.periods) == set(TimeOfDay)


def test_build_campaign_fig11_full_is_512mb():
    artifact = _artifacts()["fig11"]
    quick = _build_campaign(artifact, Args())
    assert quick.sizes == (32 * scenarios.MB,)
    full = _build_campaign(artifact, Args(full=True))
    assert full.sizes == (512 * scenarios.MB,)


def test_run_small_artifact_end_to_end(capsys):
    """fig8 with 1 rep is the cheapest full CLI path (6 downloads),
    graded by its claim row (512 KB: 0.371 s simultaneous vs 0.438 s
    delayed at this seed)."""
    assert main(["fig8", "--reps", "1", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "Figure 8" in out
    assert "simultaneous" in out
    assert "delayed" in out
    assert "[PASS] fig8: " in out


def test_run_campaign_from_file(tmp_path, capsys):
    import json

    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({
        "name": "cli-demo",
        "repetitions": 1,
        "periods": ["night"],
        "sizes": ["8 KB"],
        "flows": [{"mode": "sp", "interface": "wifi"}],
    }))
    assert main(["run-campaign", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Custom campaign: cli-demo" in out
    assert "SP-WiFi" in out


def test_jobs_and_resume_flags(tmp_path, capsys):
    import json

    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({
        "name": "cli-par",
        "repetitions": 1,
        "periods": ["night"],
        "sizes": ["8 KB", "32 KB"],
        "flows": [{"mode": "sp", "interface": "wifi"}],
    }))
    journal = tmp_path / "journal.jsonl"
    argv = ["run-campaign", "--file", str(path), "--jobs", "2",
            "--resume", str(journal)]
    assert main(argv) == 0
    assert journal.exists()
    content = journal.read_text()
    assert len(content.splitlines()) == 2
    # Re-invoking resumes from the journal: nothing is recomputed,
    # so the journal is byte-identical afterwards.
    assert main(argv) == 0
    assert journal.read_text() == content
    capsys.readouterr()


def test_run_campaign_requires_file():
    with pytest.raises(SystemExit):
        main(["run-campaign"])


def test_csv_export(tmp_path, capsys):
    assert main(["fig8", "--reps", "1", "--csv", str(tmp_path)]) == 0
    files = list(tmp_path.glob("fig8_*.csv"))
    assert files, "CSV must be exported"
    header = files[0].read_text().splitlines()[0]
    assert "size" in header
