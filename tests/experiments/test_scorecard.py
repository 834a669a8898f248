"""Tests for the reproduction scorecard: the claims table, the margin
rule and the evaluator."""

import operator
from types import SimpleNamespace

from hypothesis import given, strategies as st

from repro.cache import RunCache
from repro.cli import _artifacts, _build_campaign, main
from repro.experiments.config import FlowSpec
from repro.experiments.runner import RunResult
from repro.experiments.scorecard import CLAIMS, Claim, ClaimResult, \
    Comparison, grade_claims, parse_comparisons, render_scorecard, \
    run_scorecard
from repro.trace.metrics import ConnectionMetrics
from repro.wireless.profiles import TimeOfDay

OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge}
SPECS = (FlowSpec.single_path("wifi"), FlowSpec.single_path("cell"),
         FlowSpec.mptcp())
VALUES = st.floats(0, 1e4, allow_subnormal=False)


def _run(spec, seed, share, completed=True, size=1024):
    return RunResult(spec=spec, size=size, seed=seed,
                     period=TimeOfDay.AFTERNOON, completed=completed,
                     download_time=1.0 if completed else None,
                     metrics=ConnectionMetrics(cellular_fraction=share))


def _synthetic(comparisons):
    """A row over the shares ``x``, ``y``, ``z`` of three 1 KB cells."""
    return Claim("synthetic", "test", "synthetic row",
                 {name: ("share", spec, 1024)
                  for name, spec in zip("xyz", SPECS)}, comparisons)


def test_claim_registry_covers_contributions():
    """Uniquely named rows, 13 of them seed rows (each has its test in
    ``test_paper_claims.py``); every comparison reads only its own
    row's quantities."""
    assert len({claim.claim_id for claim in CLAIMS}) == len(CLAIMS)
    assert sum(1 for claim in CLAIMS if claim.artifact is None) == 13
    for claim in CLAIMS:
        for comparison in parse_comparisons(claim.comparisons):
            assert {comparison.a, comparison.b} - {None} \
                <= set(claim.quantities), claim.claim_id
    assert parse_comparisons("a <= 1.35 b; a > b + 0.005; a < 0.25") == (
        Comparison("a", "<=", "b", 1.35), Comparison("a", ">", "b", 1, 0.005),
        Comparison("a", "<", c=0.25))


def test_artifact_rows_read_their_default_campaign():
    """Each artifact row names a CLI artifact and reads only cells of
    that artifact's default campaign; every paper artifact has a row."""
    artifacts = _artifacts()
    defaults = SimpleNamespace(reps=2, full=False, seed=2013)
    rows = [claim for claim in CLAIMS if claim.artifact is not None]
    for claim in rows:
        assert claim.artifact in artifacts, claim.claim_id
        spec = _build_campaign(artifacts[claim.artifact], defaults)
        cells = {(flow, size) for flow in spec.specs for size in spec.sizes}
        assert {(flow, size) for _, flow, size in claim.quantities.values()
                } <= cells, claim.claim_id
    paper = ({f"fig{n}" for n in range(2, 14)}
             | {f"tab{n}" for n in range(2, 7)})
    assert paper <= {claim.artifact for claim in rows}


def test_render_scorecard_format():
    row = _synthetic("x < y")
    text = render_scorecard([
        ClaimResult(row, True, 0.25, "detail one"),
        ClaimResult(row, False, None, "1 of 3 runs incomplete")])
    assert "[PASS] synthetic: synthetic row [test]\n" \
        "       detail one (margin +25.0%)\n[FAIL] synthetic" in text
    assert "1 of 3 runs incomplete\n" in text
    assert "1/2 headline claims reproduced" in text


def test_shared_cells_execute_once(tmp_path):
    """Two rows sharing the 8 KB MPTCP cell store it once; a second
    evaluation over the same cache executes nothing."""
    rows = [CLAIMS[1], CLAIMS[4]]   # small-flows, tiny-transfers
    with RunCache(tmp_path) as cache:
        cold = run_scorecard((81,), rows, cache=cache)
        assert cache.puts == 3
    with RunCache(tmp_path) as cache:
        warm = run_scorecard((81,), rows, cache=cache)
        assert (cache.misses, cache.hits) == (0, 3)
    assert [(r.passed, r.margin, r.detail) for r in warm] == \
        [(r.passed, r.margin, r.detail) for r in cold]


def test_individual_checks_produce_grades():
    results = run_scorecard((81, 82, 83), [CLAIMS[1], CLAIMS[3]])
    assert [r.claim.claim_id for r in results] == ["small-flows", "offload"]
    assert all(r.passed for r in results), render_scorecard(results)


def test_cli_scorecard_exits_1_on_incomplete_runs(monkeypatch, capsys):
    monkeypatch.setattr(
        "repro.experiments.parallel.execute_plan",
        lambda plan, **execution: [_run(cell.spec, cell.seed, 0.0, False)
                                   for cell in plan])
    assert main(["scorecard", "--no-cache"]) == 1
    out = capsys.readouterr().out
    assert "0/13 headline claims reproduced" in out
    assert "runs incomplete" in out


def test_cli_artifact_exits_1_on_incomplete_runs(monkeypatch, capsys):
    monkeypatch.setattr(
        "repro.experiments.parallel.execute_plan",
        lambda plan, **execution: [
            _run(cell.spec, cell.seed, 0.0, False, cell.size)
            for cell in plan])
    assert main(["fig8", "--reps", "1", "--no-cache"]) == 1
    assert "runs incomplete" in capsys.readouterr().out


@given(a=st.one_of(st.none(), VALUES), b=VALUES, k=st.floats(0.01, 10),
       op=st.sampled_from(sorted(OPS)))
def test_margin_sign_matches_comparison(a, b, k, op):
    """``a=None`` puts ``a`` exactly on the threshold ``k*b``, where
    only the non-strict comparisons pass."""
    a = k * b if a is None else a
    comparison = Comparison("a", op, "b", k)
    margin = comparison.margin({"a": a, "b": b})
    assert comparison.holds(margin) == OPS[op](a, k * b)
    assert (margin > 0) == (a != k * b and OPS[op](a, k * b))
    assert (margin == 0) == (a == k * b)


@given(shares=st.lists(VALUES, min_size=3, max_size=3),
       clauses=st.lists(st.tuples(st.sampled_from("xyz"),
                                  st.sampled_from(sorted(OPS)),
                                  st.sampled_from("xyz"),
                                  st.sampled_from([0.5, 1, 2])),
                        min_size=1, max_size=4),
       states=st.lists(st.sampled_from(["done", "incomplete", "missing"]),
                       min_size=3, max_size=3))
def test_row_margin_is_min_and_incomplete_runs_fail(shares, clauses,
                                                    states):
    """A row's margin is the minimum over its comparisons; one missing
    or incomplete run fails the row without raising."""
    claim = _synthetic("; ".join(f"{a} {op} {k} {b}"
                                 for a, op, b, k in clauses))
    runs = [_run(spec, 7, share, state == "done")
            for spec, share, state in zip(SPECS, shares, states)
            if state != "missing"]
    [result] = grade_claims([claim], (7,), runs)
    bad = 3 - states.count("done")
    if bad:
        assert (result.passed, result.margin) == (False, None)
        assert result.detail == f"{bad} of 3 runs incomplete"
        return
    values = dict(zip("xyz", shares))
    comparisons = parse_comparisons(claim.comparisons)
    assert result.margin == min(c.margin(values) for c in comparisons)
    assert result.passed == all(OPS[c.op](values[c.a], c.k * values[c.b])
                                for c in comparisons)
