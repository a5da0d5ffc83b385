"""The pure-data parts of scripts/bench.py: summaries and pairwise wins.

No benchmark runs here; `summary`, `compare` and `layers` are fed
hand-made run results.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("bench_script", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def runs(name, values):
    return [{"metrics": {name: {"unit": "ref", "value": v}}} for v in values]


def metric(name, better):
    return {"name": name, "unit": "ref", "better": better, "bound": 0.25}


def test_summary_uses_inclusive_quartiles():
    # the exclusive method would give q1 1.25 and q3 3.75
    assert bench.summary([4, 1, 3, 2]) == {
        "median": 2.5, "q1": 1.75, "q3": 3.25, "values": [4, 1, 3, 2],
    }
    low = bench.summary([1, 2, 3, 4, 5])
    assert (low["q1"], low["median"], low["q3"]) == (2, 3, 4)


def test_ties_count_for_neither_side():
    out = bench.compare(runs("m", [1, 2, 3, 4]), runs("m", [1, 2, 3, 4]),
                        [metric("m", "lower")])
    assert out["m"]["change_better_pairs"] == 0
    out = bench.compare(runs("m", [1, 2, 3, 4]), runs("m", [1, 2, 3, 4]),
                        [metric("m", "higher")])
    assert out["m"]["change_better_pairs"] == 0


@pytest.mark.parametrize("better, wins", [("lower", 2), ("higher", 1)])
def test_direction_of_better(better, wins):
    base = runs("m", [5, 5, 5, 5])
    change = runs("m", [4, 6, 5, 3])
    out = bench.compare(base, change, [metric("m", better)])["m"]
    assert out["change_better_pairs"] == wins
    assert out["better"] == better
    assert out["base"]["values"] == [5, 5, 5, 5]
    assert out["change"]["values"] == [4, 6, 5, 3]
    assert out["bound"] == 0.25 and out["unit"] == "ref"


def test_layers_pairs_one_traced_run_per_side():
    base = {"metrics": {"a.calls": {"unit": "count", "value": 6272}}}
    change = {"metrics": {"a.calls": {"unit": "count", "value": 196}}}
    spec = [{"name": "a.calls", "unit": "count", "better": "lower"}]
    assert bench.layers(base, change, spec) == {
        "a.calls": {"unit": "count", "better": "lower",
                    "base": 6272, "change": 196},
    }
