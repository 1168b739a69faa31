"""Verdict logic of compare mode on synthetic result sets.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from compare import verdict  # noqa: E402

PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]


def test_clear_gain_on_a_lower_is_better_metric():
    change = [x - 1.0 for x in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "improved"


def test_clear_gain_on_a_higher_is_better_metric():
    change = [x + 1.0 for x in PARENT]
    assert verdict(PARENT, change, "higher", 0.1) == "improved"


def test_gain_needs_nine_of_ten_pairs():
    change = [x - 1.0 for x in PARENT]
    change[0] = change[1] = PARENT[0] + 0.5   # two lost pairs: 8 of 10
    assert verdict(PARENT, change, "lower", 0.1) == "unchanged"


def test_gain_needs_a_gap_wider_than_the_parent_spread():
    change = [x - 0.01 for x in PARENT]       # wins every pair by less than the IQR
    assert verdict(PARENT, change, "lower", 0.1) == "unchanged"


def test_regression_beyond_the_bound_is_worse():
    change = [x * 1.2 for x in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "worse"


def test_regression_within_the_bound_is_unchanged():
    change = [x * 1.05 for x in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    change = [x * 1.05 for x in noisy]
    assert verdict(noisy, change, "lower", 0.1) == "unresolved"


def test_wide_spread_with_every_change_run_better_is_not_unresolved():
    noisy = [8.0, 12.0, 9.0, 11.0, 8.5, 11.5, 9.5, 10.5, 8.2, 11.8]
    change = [x / 10 for x in noisy]
    assert verdict(noisy, change, "lower", 0.1) == "improved"


def test_wide_spread_with_every_change_run_worse_is_worse():
    noisy = [8.0, 12.0, 9.0, 11.0, 8.5, 11.5, 9.5, 10.5, 8.2, 11.8]
    change = [x * 10 for x in noisy]
    assert verdict(noisy, change, "lower", 0.1) == "worse"


def test_metric_without_bound_uses_the_mirrored_gain_rule():
    assert verdict(PARENT, [x + 1.0 for x in PARENT], "lower", None) == "worse"
    assert verdict(PARENT, [x - 1.0 for x in PARENT], "lower", None) == "improved"
    assert verdict(PARENT, list(PARENT), "lower", None) == "unchanged"


def test_identical_sets_are_unchanged():
    assert verdict(PARENT, list(PARENT), "higher", 0.1) == "unchanged"
