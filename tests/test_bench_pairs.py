"""The pair summary of `tools/bench_pairs.py`, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# classify-grid wall_s of BENCH_37.json, pair by pair
PARENT = [0.310081, 0.368903, 0.371123, 0.348667, 0.342277,
          0.363376, 0.396803, 0.3712, 0.411153, 0.458077]  # fmt: skip
CHANGE = [0.340828, 0.312477, 0.363579, 0.355301, 0.331407,
          0.341232, 0.324213, 0.400817, 0.408568, 0.439798]  # fmt: skip


def test_summary_of_recorded_runs():
    """BENCH_37.json's block for these runs, but its change median, 0.348267,
    which it took from the runs before they were rounded to six places."""
    assert bench_pairs.summarize(PARENT, CHANGE) == {
        "parent_runs": PARENT,
        "change_runs": CHANGE,
        "parent_median": 0.370013,
        "change_median": 0.348266,
        "parent_iqr": 0.053321,
        "median_change_pct": -5.88,
        "change_lower_in_pairs": 7,
        "change_higher_in_pairs": 3,
        "claim_met": False,
    }


# csv-pipeline wall_s of BENCH_39.json, pair by pair
PIPELINE_PARENT = [2.468729, 2.39727, 2.548971, 2.793049, 2.659942,
                   2.572749, 2.378431, 2.594356, 2.316574, 2.666458]  # fmt: skip
PIPELINE_CHANGE = [2.270929, 2.23164, 2.652748, 2.736874, 2.415512,
                   2.268336, 2.347372, 2.752302, 2.374131, 2.579815]  # fmt: skip


def test_claim_rule():
    """BENCH_39's runs: 7 of 10 pairs lower and a median gap (0.166 s)
    under the parent's IQR (0.269 s). The same change runs 20% lower win
    every pair by more than the IQR."""
    assert not bench_pairs.summarize(PIPELINE_PARENT, PIPELINE_CHANGE)["claim_met"]
    lower = [0.8 * v for v in PIPELINE_CHANGE]
    assert bench_pairs.summarize(PIPELINE_PARENT, lower)["claim_met"]


@pytest.mark.parametrize(
    "change, met",
    [
        ([0.0] * 9 + [2.0], True),  # 9 of 10 lower
        ([0.0] * 8 + [2.0, 2.0], False),  # 8 of 10 lower
        ([0.0] * 8 + [2.0, 1.5], False),  # the tied pair counts for neither side
    ],
)
def test_claim_needs_nine_tenths_of_the_pairs(change, met):
    parent = [1.0] * 9 + [1.5]
    assert bench_pairs.summarize(parent, change)["claim_met"] is met


def test_claim_needs_a_median_gap_over_the_parent_iqr():
    parent = [1.0, 2.0, 3.0, 4.0]  # IQR 2.5, median 2.5
    assert not bench_pairs.summarize(parent, [v - 0.5 for v in parent])["claim_met"]
    assert bench_pairs.summarize(parent, [v - 2.6 for v in parent])["claim_met"]


def test_a_tied_pair_counts_neither_way_and_runs_round_to_six_places():
    summary = bench_pairs.summarize([1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 3.0000001, 5.0])
    assert summary["change_runs"] == [1.0, 1.5, 3.0, 5.0]
    assert (summary["change_lower_in_pairs"], summary["change_higher_in_pairs"]) == (1, 2)
    assert (summary["parent_median"], summary["change_median"]) == (2.5, 2.25)
    assert summary["parent_iqr"] == 2.5  # exclusive quartiles 1.25 and 3.75
    assert summary["median_change_pct"] == -10.0


def test_sides_of_different_lengths_are_refused():
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0, 3.0], [1.0, 2.0])
