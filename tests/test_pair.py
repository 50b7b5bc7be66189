"""The verdicts of ``benchmarks/pair.py``: what a PR's no-loss (or
gain) table says about two lists of runs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pair", Path(__file__).parents[1] / "benchmarks" / "pair.py")
pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair)

LOWER = {"better": "lower", "bound": 0.25}
HIGHER = {"better": "higher", "bound": 0.25}
TIGHT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.0]


def scaled(values, factor):
    return [v * factor for v in values]


@pytest.mark.parametrize("metric, parent, change, verdict", [
    (LOWER, TIGHT, scaled(TIGHT, 1.05), "ok"),
    (LOWER, TIGHT, scaled(TIGHT, 1.30), "WORSE"),
    (HIGHER, TIGHT, scaled(TIGHT, 0.70), "WORSE"),
    (LOWER, TIGHT, scaled(TIGHT, 0.50), "ok, gain"),
    (HIGHER, TIGHT, scaled(TIGHT, 1.50), "ok, gain"),
    # quartiles further apart than the bound: the runs cannot tell
    (LOWER, [10, 20] * 5, [11, 19] * 5, "unresolved"),
    # … unless every run of the change beats every run of the parent
    # (no gain: the medians are closer than the parent's quartiles)
    (LOWER, [10, 20] * 5, [5, 9] * 5, "ok"),
    (LOWER, [3.0] * 10, [3.0] * 10, "exact"),
    (LOWER, [3.0] * 10, [3.5] * 10, "DIFFERS"),
])
def test_verdicts(metric, parent, change, verdict):
    assert pair.judge(metric, parent, change)["verdict"] == verdict


def test_win_counts_are_per_pair():
    row = pair.judge(LOWER, [10, 10, 10, 10], [9, 11, 10, 9])
    assert (row["wins"], row["losses"], row["ties"]) == (2, 1, 1)
