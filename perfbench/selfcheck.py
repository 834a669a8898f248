"""Self-check: the benchmark prints exactly what BENCHMARK.json declares.

    python perfbench/selfcheck.py
    python -m pytest perfbench -q

Runs ``run.py --smoke`` (1 round, smallest cell of each workload) once
untraced and once traced, and asserts that every workload and metric
the manifest declares is printed exactly once with its unit, that
nothing undeclared is printed, and that the manifest stays inside the
benchmark contract's limits.  Not part of tier-1 (``testpaths`` stays
``tests``); ``perfbench/pytest.ini`` makes pytest collect this file.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def manifest() -> dict:
    with open(HERE.parent / "BENCHMARK.json") as handle:
        return json.load(handle)


def smoke_lines(trace: int) -> dict:
    """``{workload: [(metric name, unit), ...]}`` as printed."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0, "smoke run failed or a cell was wrong"
    printed: dict = {}
    for line in done.stdout.splitlines():
        if line.startswith("metric "):
            _, workload, name, _, unit, *_ = line.split()
            printed.setdefault(workload, []).append((name, unit))
    return printed


def assert_printed(trace: int, section: str) -> None:
    declared = manifest()
    expected = sorted((metric["name"], metric["unit"])
                      for metric in declared[section])
    printed = smoke_lines(trace)
    assert sorted(printed) == sorted(
        workload["name"] for workload in declared["workloads"])
    for workload, pairs in printed.items():
        # Sorted list equality: a metric printed twice, missing,
        # undeclared or with another unit all fail here.
        assert sorted(pairs) == expected, workload


def test_manifest_within_contract_limits() -> None:
    declared = manifest()
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [entry["name"] for section in
             ("workloads", "end_to_end", "per_layer")
             for entry in declared[section]]
    assert len(set(names)) == len(names), "a name is used twice"
    assert all(NAME.fullmatch(name) for name in names)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for metric in declared["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    for workload in declared["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    setup = [metric for metric in declared["end_to_end"]
             if metric["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        metric["bound"] for metric in declared["end_to_end"])


def test_untraced_smoke_prints_end_to_end_metrics() -> None:
    assert_printed(0, "end_to_end")


def test_traced_smoke_prints_per_layer_metrics() -> None:
    assert_printed(1, "per_layer")


if __name__ == "__main__":
    for check in (test_manifest_within_contract_limits,
                  test_untraced_smoke_prints_end_to_end_metrics,
                  test_traced_smoke_prints_per_layer_metrics):
        check()
        print(f"ok {check.__name__}")
