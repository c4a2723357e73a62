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
    problems = "".join(f"FAILED check {k}: max |diff| 1e-3\n" for k in range(failed))
    return (f"workload=revival seed=3\n{problems}failed_ratio = {failed / 10} "
            f"(failed={failed} attempted=10)\nop_p50_s = {op} s\n{json.dumps(result)}\n")


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
    result = bench_pair.parse_result(_stdout(0.5, 2.0, 2))
    assert result["failed"] == 2
    assert result["problems"] == ["check 0: max |diff| 1e-3", "check 1: max |diff| 1e-3"]
    assert bench_pair.parse_result(_stdout(0.5, 2.0))["problems"] == []
    with pytest.raises(ValueError):
        bench_pair.parse_result("\n")


def test_assemble_summarises_each_side_and_the_pairs_won():
    entry = bench_pair.assemble(_pairs(), METRICS)
    assert entry["seeds"] == [3, 3, 3, 29]
    assert entry["first"] == ["parent", "change", "parent", "change"]
    assert entry["dirs"] == {"parent": ["a", "a", "b", "b"], "change": ["b", "b", "a", "a"]}
    assert entry["failed"] == {"parent": [0, 0, 0, 0], "change": [0, 0, 1, 0]}
    assert entry["problems"] == {"parent": [[], [], [], []],
                                 "change": [[], [], ["check 0: max |diff| 1e-3"], []]}
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
    assert bench_pair.assemble(bench_pair.pairs_of(entry), METRICS)["problems"] == \
        entry["problems"]
    # a further seed appends to the same entry
    more = bench_pair.assemble(bench_pair.pairs_of(entry) + pairs[:1], METRICS)
    assert more["seeds"] == [3, 3, 3, 29, 3]
    assert more["metrics"]["op_p50_s"]["change_better_in_pairs"] == "4/5"


def test_a_failed_check_is_printed_kept_and_fails_the_run(monkeypatch, tmp_path, capsys):
    # pair 2's change run fails one check; the runs themselves are canned
    outputs = iter([_stdout(0.08, 100.0), _stdout(0.03, 300.0),
                    _stdout(0.04, 110.0, 1), _stdout(0.09, 110.0)])
    host = {key: 1 for key in bench_pair.HOST_KEYS} | {"src_sha256": "0" * 64}
    spec = {"run_seconds": 1, "end_to_end": [{"name": k} | v for k, v in METRICS.items()]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pair, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pair, "_git", lambda *args: "abc")
    monkeypatch.setattr(bench_pair, "export", lambda commit, dest: dest.mkdir())
    monkeypatch.setattr(bench_pair, "_run", lambda checkout, args, seconds:
                        (bench_pair.parse_result(next(outputs)), host))
    out = tmp_path / "BENCH.json"
    argv = ["--base", "HEAD~1", "--workload", "revival", "--seed", "3", "--pairs", "2",
            "--out", str(out)]
    assert bench_pair.main(argv) == 1
    assert "pair 2: change FAILED check 0: max |diff| 1e-3" in capsys.readouterr().out
    entry = json.loads(out.read_text())["workloads"]["revival"]
    assert entry["failed"] == {"parent": [0, 0], "change": [0, 1]}
    assert entry["problems"]["change"] == [[], ["check 0: max |diff| 1e-3"]]


def test_a_run_that_prints_no_result_line_stops_with_its_command_and_stderr(
        monkeypatch, tmp_path):
    # a perfbench run that raises during set-up exits 1 and prints no JSON line
    stderr = "".join(f"  frame {k}\n" for k in range(30)) + \
        "RuntimeError: reference support is not (t+1)^2\n"
    canned = bench_pair.subprocess.CompletedProcess(
        [], 1, stdout="workload=spread seed=3\n", stderr=stderr)
    monkeypatch.setattr(bench_pair.subprocess, "run", lambda cmd, **kwargs: canned)
    args = bench_pair.argparse.Namespace(workload="spread", seed=3)
    with pytest.raises(SystemExit) as stop:
        bench_pair._run(tmp_path / "b", args, 15)
    message = str(stop.value)
    assert "perfbench/run.py --workload spread --seed 3 --seconds 15 --trace 0" in message
    assert f"in {tmp_path / 'b'} exited 1: perfbench printed no result line" in message
    assert message.endswith("RuntimeError: reference support is not (t+1)^2")
    # the last 20 lines of stderr
    assert "frame 11\n" in message and "frame 10\n" not in message
    with pytest.raises(ValueError, match="no result line"):
        bench_pair.parse_result("workload=spread seed=3\n0.5\n")
