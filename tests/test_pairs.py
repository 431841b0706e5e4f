"""`scripts/pairs.py`'s verdict: the rule paired benchmark runs are judged
by, per end-to-end metric."""

import importlib.util
import sys
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[1] / "scripts" / "pairs.py"


def load_pairs():
    """scripts/pairs.py as module `pairs_script`, loaded by path."""
    if "pairs_script" not in sys.modules:
        spec = importlib.util.spec_from_file_location("pairs_script", PAIRS)
        sys.modules["pairs_script"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["pairs_script"])
    return sys.modules["pairs_script"]


# Ten parent runs with median 100 and IQR 1.5 (quartiles 99.25 and 100.75).
PARENT = [99.0, 99.0, 99.0, 100.0, 100.0, 100.0, 100.0, 101.0, 101.0, 101.0]


def verdict(parent, change, better="lower", bound=0.1):
    return load_pairs().verdict(parent, change, better, bound)


def mirrored(values):
    return [-v for v in values]


class TestVerdict:
    def test_gain(self):
        assert verdict(PARENT, [v - 5.0 for v in PARENT]) == "gain"

    def test_gain_needs_nine_of_ten_pairs(self):
        change = [v - 5.0 for v in PARENT]
        change[0] = change[9] = 200.0  # 8/10 won, median still 95
        assert load_pairs().wins(PARENT, change, "lower") == 8
        assert verdict(PARENT, change) == "same"
        change[9] = PARENT[9] - 5.0  # 9/10
        assert verdict(PARENT, change) == "gain"

    def test_gain_needs_a_gap_wider_than_the_parent_iqr(self):
        assert verdict(PARENT, [v - 1.0 for v in PARENT]) == "same"  # gap 1 < 1.5
        assert verdict(PARENT, [v - 1.6 for v in PARENT]) == "gain"

    def test_worse_beyond_the_bound(self):
        assert verdict(PARENT, [v + 11.0 for v in PARENT]) == "worse"  # > 10% of 100
        assert verdict(PARENT, [v + 9.0 for v in PARENT]) == "same"

    def test_unresolved_when_the_parent_spreads_past_the_bound(self):
        parent = [60.0, 80.0, 90.0, 100.0, 100.0, 100.0, 100.0, 110.0, 120.0, 140.0]
        assert verdict(parent, [v - 1.0 for v in parent]) == "unresolved"

    def test_resolved_when_every_change_run_beats_every_parent_run(self):
        # IQR 23.25 > 10% of the median 100, but the gap is only 1.5
        parent = [99.0, 99.0, 99.0, 100.0, 100.0, 100.0, 100.0, 130.0, 140.0, 150.0]
        assert verdict(parent, [98.5] * 10) == "same"
        assert verdict(parent, [98.5] * 9 + [101.0]) == "unresolved"

    def test_same(self):
        assert verdict(PARENT, list(PARENT)) == "same"

    @pytest.mark.parametrize("shift, want", [(-5.0, "gain"), (11.0, "worse"), (0.0, "same")])
    def test_higher_is_better_mirrors_lower(self, shift, want):
        change = [v + shift for v in PARENT]
        assert verdict(PARENT, change) == want
        assert verdict(mirrored(PARENT), mirrored(change), better="higher") == want
