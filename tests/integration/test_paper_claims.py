"""The paper's headline findings hold in the reproduction: each test
grades one seed row of :data:`repro.experiments.scorecard.CLAIMS` (the
table ``repro scorecard`` prints) on the tier-1 seeds, through one
shared run cache.  These are the guardrails that keep recalibration
honest."""

import re
from pathlib import Path

import pytest

from repro.cache import RunCache
from repro.experiments.scorecard import CLAIMS, render_scorecard, \
    run_scorecard

SEEDS = (11, 22, 33)


@pytest.fixture(scope="module")
def grade(tmp_path_factory):
    with RunCache(tmp_path_factory.mktemp("claims-cache")) as cache:
        def check(claim_id):
            rows = [claim for claim in CLAIMS if claim.claim_id == claim_id]
            results = run_scorecard(SEEDS, rows, cache=cache)
            assert results[0].passed, render_scorecard(results)
        yield check


def test_every_claim_row_has_one_test():
    """Every seed row; artifact rows are graded by ``repro <artifact>``
    on campaigns too slow for tier-1."""
    graded = re.findall(r'grade\("([\w-]+)"\)', Path(__file__).read_text())
    assert sorted(graded) == sorted(claim.claim_id for claim in CLAIMS
                                    if claim.artifact is None)


def test_small_flows_wifi_wins_and_mptcp_tracks_it(grade):
    grade("small-flows")


def test_large_flows_lte_beats_wifi_and_mptcp_beats_both(grade):
    grade("large-flows")


def test_mptcp_robust_even_with_3g(grade):
    grade("robustness")


def test_cellular_fraction_grows_with_file_size(grade):
    grade("offload")


def test_tiny_transfers_never_use_cellular(grade):
    grade("tiny-transfers")


def test_four_paths_beat_two_paths(grade):
    grade("four-paths")


def test_wifi_lossier_but_faster_than_lte(grade):
    grade("wifi-lossy-fast")


def test_cellular_rtt_inflates_with_flow_size(grade):
    grade("bufferbloat")


def test_rtt_ordering_sprint_worst_wifi_best(grade):
    grade("rtt-ordering")


def test_sprint_mptcp_has_worst_reordering(grade):
    grade("reordering")


def test_simultaneous_syn_helps_midsize_flows(grade):
    grade("simultaneous-syn")


def test_public_wifi_makes_cellular_more_attractive(grade):
    grade("public-wifi")


def test_controller_ordering_reno_olia_coupled(grade):
    grade("controllers")
