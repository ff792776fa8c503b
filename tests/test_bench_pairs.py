"""The pair summary of tools/bench_pairs.py on hand-made runs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower"},
    {"name": "success_ratio", "unit": "ratio", "better": "higher"},
]


def runs(wall_s, success_ratio):
    return [{"metrics": {"wall_s": w, "success_ratio": r}} for w, r in zip(wall_s, success_ratio)]


def test_quartiles_of_one_run_and_of_five():
    assert bench_pairs.quartiles([2.5]) == {
        "median": 2.5, "q1": 2.5, "q3": 2.5, "quartile_distance": 0.0,
    }
    assert bench_pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "quartile_distance": 2.0,
    }


def test_ties_count_for_neither_side_and_direction_is_respected():
    summary = bench_pairs.summarize(
        {
            "base": runs([1.0, 2.0, 3.0], [0.5, 0.5, 1.0]),
            "change": runs([1.0, 1.5, 3.5], [1.0, 1.0, 0.5]),
        },
        METRICS,
    )
    wall, ratio = summary["wall_s"], summary["success_ratio"]
    # lower is better: pair 1 ties, pair 2 is a win, pair 3 a loss
    assert (wall["change_wins"], wall["change_losses"], wall["pairs"]) == (1, 1, 3)
    # higher is better: the two rises win and the fall loses
    assert (ratio["change_wins"], ratio["change_losses"]) == (2, 1)
    assert wall["base"]["runs"] == [1.0, 2.0, 3.0]
    assert wall["change"]["median"] == 1.5
    assert (wall["unit"], ratio["better"]) == ("s", "higher")


@pytest.mark.parametrize("longer", ["base", "change"])
def test_pairs_are_cut_to_the_shorter_side(longer):
    sides = {"base": runs([1.0, 1.0], [1.0, 1.0]), "change": runs([2.0, 2.0], [1.0, 1.0])}
    sides[longer] = sides[longer] + runs([0.0, 9.0], [0.0, 0.0])
    wall = bench_pairs.summarize(sides, METRICS)["wall_s"]
    assert wall["pairs"] == 2
    assert len(wall["base"]["runs"]) == len(wall["change"]["runs"]) == 2
    assert (wall["change_wins"], wall["change_losses"]) == (0, 2)
    assert wall[longer]["q3"] == wall[longer]["q1"]


def test_no_finished_pair_gives_an_empty_summary():
    assert bench_pairs.summarize({"base": runs([1.0], [1.0]), "change": []}, METRICS) == {}


def recorded_run(seed, wall_s, attempted):
    return {"seed": seed, "metrics": {"wall_s": 1.0, "success_ratio": 1.0},
            "attempted": attempted, "failed": 0, "process_wall_s": wall_s,
            "fingerprint": ["abc", "match"], "machine": "m"}


def test_workload_summary_gives_each_sides_median_run_cost():
    summary = bench_pairs.workload_summary(
        {
            "base": [recorded_run(0, 30.0, 100), recorded_run(1, 34.0, 104),
                     recorded_run(2, 31.0, 90)],
            "change": [recorded_run(0, 29.0, 100), recorded_run(1, 28.0, 98)],
        },
        METRICS,
    )
    assert summary["run_cost"] == {
        "base": {"process_wall_s": 31.0, "attempted": 100},
        "change": {"process_wall_s": 28.5, "attempted": 99},
    }
    # before the change's first run, only the base side has a cost
    first = bench_pairs.workload_summary(
        {"base": [recorded_run(0, 30.0, 100)], "change": []}, METRICS
    )
    assert first["run_cost"]["change"] == {"process_wall_s": None, "attempted": None}
    assert first["metrics"] == {}
