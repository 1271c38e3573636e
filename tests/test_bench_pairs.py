"""The verdict rules of tools/bench_pairs.py, on hand-made summaries."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def summary(median, q1, q3):
    return {"median": median, "q1": q1, "q3": q3}


# dyadic values, so that the edge cases below are exact in floating point
PARENT = summary(1.0, 0.875, 1.125)  # quartile spread 0.25


class TestClaimRule:
    @pytest.mark.parametrize("wins, change_median, met", [
        (9, 0.5, True),     # 9 of 10 pairs, gain 0.5 > spread 0.25
        (10, 0.5, True),
        (8, 0.5, False),    # too few pairs
        (10, 0.75, False),  # gain 0.25 is not more than the spread
        (10, 0.8125, False),
        (10, 1.25, False),  # worse
    ])
    def test_lower_is_better(self, wins, change_median, met):
        v = bench_pairs.verdicts(PARENT, summary(change_median, 0.0, 2.0), wins, 10, "lower", 0.25)
        assert v["claim_met"] is met

    @pytest.mark.parametrize("change_median, met", [(1.5, True), (1.25, False), (0.5, False)])
    def test_higher_is_better(self, change_median, met):
        v = bench_pairs.verdicts(PARENT, summary(change_median, 0.0, 2.0), 10, 10, "higher", 0.25)
        assert v["claim_met"] is met

    def test_share_of_pairs_scales_with_their_number(self):
        change = summary(0.5, 0.5, 0.5)
        assert bench_pairs.verdicts(PARENT, change, 18, 20, "lower", 0.25)["claim_met"]
        assert not bench_pairs.verdicts(PARENT, change, 17, 20, "lower", 0.25)["claim_met"]


class TestBoundRule:
    @pytest.mark.parametrize("better, change_median, within", [
        ("lower", 1.25, True),   # exactly the bound: 25% worse
        ("lower", 1.375, False),
        ("lower", 0.5, True),    # better is always within
        ("higher", 0.75, True),
        ("higher", 0.625, False),
        ("higher", 2.0, True),
    ])
    def test_share_of_the_parent_median(self, better, change_median, within):
        v = bench_pairs.verdicts(PARENT, summary(change_median, 0.0, 2.0), 0, 10, better, 0.25)
        assert v["within_bound"] is within

    def test_bound_is_measured_from_the_parent_magnitude(self):
        parent = summary(-2.0, -2.125, -1.875)
        assert bench_pairs.verdicts(parent, summary(-1.5, 0, 0), 0, 10, "lower", 0.25)["within_bound"]
        assert not bench_pairs.verdicts(parent, summary(-1.25, 0, 0), 0, 10, "lower", 0.25)["within_bound"]
