"""The record assembly of tools/bench_pair.py, on canned perfbench result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

METRICS = {
    "op_p50_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "work_per_s": {"unit": "1/s", "better": "higher", "bound": 0.25},
}


def _stdout(op, work, failed=0):
    """What perfbench/run.py prints: text lines, then one JSON result line."""
    result = {"correct": not failed, "attempted": 10, "failed": failed, "metrics": {
        "op_p50_s": {"value": op, "unit": "s"},
        "work_per_s": {"value": work, "unit": "1/s"},
    }}
    return f"workload=revival seed=3\nop_p50_s = {op} s\n{json.dumps(result)}\n"


def _pairs():
    # seed, first, parent's directory, parent (op, work), change (op, work, failed)
    canned = [
        (3, "parent", "a", (0.08, 100.0), (0.03, 300.0, 0)),
        (3, "change", "a", (0.09, 110.0), (0.04, 110.0, 0)),
        (3, "parent", "b", (0.07, 90.0), (0.07, 80.0, 1)),
        (29, "change", "b", (0.1000004, 100.0), (0.02, 400.0, 0)),
    ]
    return [
        {"seed": seed, "first": first,
         "dirs": {"parent": where, "change": "b" if where == "a" else "a"},
         "parent": bench_pair.parse_result(_stdout(*parent)),
         "change": bench_pair.parse_result(_stdout(*change))}
        for seed, first, where, parent, change in canned
    ]


def test_parse_result_reads_the_last_line():
    assert bench_pair.parse_result(_stdout(0.5, 2.0, 1))["failed"] == 1
    with pytest.raises(ValueError):
        bench_pair.parse_result("\n")


def test_assemble_summarises_each_side_and_the_pairs_won():
    entry = bench_pair.assemble(_pairs(), METRICS)
    assert entry["seeds"] == [3, 3, 3, 29]
    assert entry["first"] == ["parent", "change", "parent", "change"]
    assert entry["dirs"] == {"parent": ["a", "a", "b", "b"], "change": ["b", "b", "a", "a"]}
    assert entry["failed"] == {"parent": [0, 0, 0, 0], "change": [0, 0, 1, 0]}
    assert entry["attempted"]["change"] == [10] * 4
    op = entry["metrics"]["op_p50_s"]
    assert op["bound"] == 0.25 and op["unit"] == "s"
    assert op["parent"] == {"median": 0.085, "q1": 0.0775, "q3": 0.0925, "iqr": 0.015,
                            "runs": [0.08, 0.09, 0.07, 0.10]}
    assert op["change"]["median"] == 0.035
    # the tie at 0.07 counts for neither side
    assert op["change_better_in_pairs"] == "3/4"
    assert op["median_relative_change"] == round(0.035 / 0.085 - 1, 4)
    # higher is better for throughput, and 80 < 90 is a loss
    assert entry["metrics"]["work_per_s"]["change_better_in_pairs"] == "2/4"
    held_out = entry["by_seed"]["29"]["op_p50_s"]
    assert held_out == {"parent_median": 0.1, "parent_iqr": 0.0, "change_median": 0.02,
                        "change_better_in_pairs": "1/1"}
    assert entry["by_seed"]["3"]["op_p50_s"]["change_better_in_pairs"] == "2/3"


def test_pairs_1_to_4_run_each_side_first_from_each_directory():
    schedule = [bench_pair.schedule(i) for i in range(1, 9)]
    assert schedule[:4] == [
        (("parent", "change"), {"parent": "a", "change": "b"}),
        (("change", "parent"), {"parent": "a", "change": "b"}),
        (("parent", "change"), {"parent": "b", "change": "a"}),
        (("change", "parent"), {"parent": "b", "change": "a"}),
    ]
    assert schedule[4:] == schedule[:4]


def test_an_entry_gives_back_its_pairs():
    # runs are kept to 6 decimals, and the summaries are taken over those
    pairs = _pairs()
    entry = bench_pair.assemble(pairs, METRICS)
    assert bench_pair.assemble(bench_pair.pairs_of(entry), METRICS) == entry
    assert [p["dirs"] for p in bench_pair.pairs_of(entry)] == [p["dirs"] for p in pairs]
    # a further seed appends to the same entry
    more = bench_pair.assemble(bench_pair.pairs_of(entry) + pairs[:1], METRICS)
    assert more["seeds"] == [3, 3, 3, 29, 3]
    assert more["metrics"]["op_p50_s"]["change_better_in_pairs"] == "4/5"
