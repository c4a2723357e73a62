"""The record assembly of tools/bench_pair.py, on canned perfbench result lines."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
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
         "parent": bench_pair.parse_result(_stdout(*parent)) | _by_kind(parent[0]),
         "change": bench_pair.parse_result(_stdout(*change)) | _by_kind(change[0])}
        for seed, first, where, parent, change in canned
    ]


def _by_kind(op):
    """Raw per-kind medians of a run, as its run record keeps them: one kind moves."""
    return {"op_p50_s_by_kind": {"revival_cli": 0.0291, "return_probability_series": op}}


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
    by_kind = entry["op_p50_s_by_kind"]
    assert [k["return_probability_series"] for k in by_kind["change"]] == [0.03, 0.04, 0.07,
                                                                            0.02]
    assert [k["revival_cli"] for k in by_kind["parent"]] == [0.0291] * 4


def test_pairs_1_to_4_run_each_side_first_from_each_directory():
    schedule = [bench_pair.schedule(i, 0) for i in range(1, 9)]
    assert schedule[:4] == [
        (("parent", "change"), {"parent": "a", "change": "b"}),
        (("change", "parent"), {"parent": "a", "change": "b"}),
        (("parent", "change"), {"parent": "b", "change": "a"}),
        (("change", "parent"), {"parent": "b", "change": "a"}),
    ]
    assert schedule[4:] == schedule[:4]
    # after an odd number of invocations, pair 1 starts with the change
    later = [bench_pair.schedule(i, 1) for i in range(1, 5)]
    assert [order for order, _ in later] == [order for order, _ in schedule[1:5]]
    assert [dirs for _, dirs in later] == [dirs for _, dirs in schedule[:4]]
    assert bench_pair.schedule(1, 2) == schedule[0]


def test_an_entry_gives_back_its_pairs():
    # runs are kept to 6 decimals, and the summaries are taken over those
    pairs = _pairs()
    entry = bench_pair.assemble(pairs, METRICS)
    assert bench_pair.assemble(bench_pair.pairs_of(entry), METRICS) == entry
    assert [p["dirs"] for p in bench_pair.pairs_of(entry)] == [p["dirs"] for p in pairs]
    assert bench_pair.assemble(bench_pair.pairs_of(entry), METRICS)["problems"] == \
        entry["problems"]
    # the per-kind medians come back as they went in, unrounded
    for side in bench_pair.SIDES:
        assert [p[side]["op_p50_s_by_kind"] for p in bench_pair.pairs_of(entry)] == \
            [p[side]["op_p50_s_by_kind"] for p in pairs]
    # a further seed appends to the same entry
    more = bench_pair.assemble(bench_pair.pairs_of(entry) + pairs[:1], METRICS)
    assert more["seeds"] == [3, 3, 3, 29, 3]
    assert more["metrics"]["op_p50_s"]["change_better_in_pairs"] == "4/5"


def _canned_main(monkeypatch, tmp_path, outputs):
    """bench_pair.main's arguments for 2 revival pairs, its runs taken from ``outputs``.

    Each call of ``_run`` pops the first output and is recorded as the name
    of its export directory; its run record's raw median of the one kind
    ``k`` is the number of that call, from 1.
    """
    calls = []
    host = {key: 1 for key in bench_pair.HOST_KEYS} | {"src_sha256": "0" * 64}
    spec = {"run_seconds": 1, "end_to_end": [{"name": k} | v for k, v in METRICS.items()]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pair, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pair, "_git", lambda *args: "abc")
    monkeypatch.setattr(bench_pair, "export", lambda commit, dest: dest.mkdir())
    monkeypatch.setattr(bench_pair, "_run", lambda checkout, args, seconds: (
        calls.append(checkout.name) or bench_pair.parse_result(outputs.pop(0)),
        host | {"raw": {"op_p50_s_by_kind": {"k": len(calls)}}}))
    argv = ["--base", "HEAD~1", "--workload", "revival", "--seed", "3", "--pairs", "2",
            "--out", str(tmp_path / "BENCH.json")]
    return argv, calls


def test_a_warm_up_run_before_pair_1_is_left_out_of_the_pairs(monkeypatch, tmp_path):
    outputs = [_stdout(0.01, 999.0), _stdout(0.08, 100.0), _stdout(0.03, 300.0),
               _stdout(0.04, 110.0), _stdout(0.09, 110.0)]
    argv, calls = _canned_main(monkeypatch, tmp_path, outputs)
    assert bench_pair.main(argv) == 0
    # the warm-up is the parent, from directory a, as pair 1 runs it first
    assert calls == ["a", "a", "b", "b", "a"]
    entry = json.loads((tmp_path / "BENCH.json").read_text())["workloads"]["revival"]
    assert entry["warmup"] == [{"seed": 3, "side": "parent", "op_p50_s": 0.01}]
    assert entry["metrics"]["op_p50_s"]["parent"]["runs"] == [0.08, 0.09]
    assert entry["metrics"]["op_p50_s"]["change"]["runs"] == [0.03, 0.04]
    assert entry["metrics"]["work_per_s"]["parent"]["runs"] == [100.0, 110.0]
    # each side keeps its own runs' per-kind medians; the warm-up's (call 1) is left out
    assert entry["op_p50_s_by_kind"] == {"parent": [{"k": 2}, {"k": 5}],
                                         "change": [{"k": 3}, {"k": 4}]}
    # a second invocation adds its warm-up and its pairs to the same entry, and
    # starts with the change: its warm-up and pair 1's first run are the change's
    outputs += [_stdout(0.02, 999.0), _stdout(0.06, 90.0), _stdout(0.05, 100.0),
                _stdout(0.05, 100.0), _stdout(0.06, 90.0)]
    assert bench_pair.main(argv) == 0
    assert calls[5:] == ["b", "b", "a", "a", "b"]
    entry = json.loads((tmp_path / "BENCH.json").read_text())["workloads"]["revival"]
    assert entry["warmup"] == [{"seed": 3, "side": "parent", "op_p50_s": 0.01},
                               {"seed": 3, "side": "change", "op_p50_s": 0.02}]
    assert entry["first"] == ["parent", "change", "change", "parent"]
    assert entry["metrics"]["op_p50_s"]["parent"]["runs"] == [0.08, 0.09, 0.05, 0.05]
    assert entry["metrics"]["op_p50_s"]["change"]["runs"] == [0.03, 0.04, 0.06, 0.06]


def test_a_failed_check_is_printed_kept_and_fails_the_run(monkeypatch, tmp_path, capsys):
    # pair 2's change run fails one check; the runs themselves are canned, the
    # first of them the warm-up
    outputs = [_stdout(0.08, 100.0), _stdout(0.08, 100.0), _stdout(0.03, 300.0),
               _stdout(0.04, 110.0, 1), _stdout(0.09, 110.0)]
    argv, _ = _canned_main(monkeypatch, tmp_path, outputs)
    out = tmp_path / "BENCH.json"
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


def _sleeper(checkout, pid_file):
    """A perfbench/run.py in ``checkout`` that notes its pid, writes to stderr and sleeps."""
    run = checkout / "perfbench" / "run.py"
    run.parent.mkdir(parents=True)
    run.write_text(
        "import os, sys, time\n"
        f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
        "print('warming up', file=sys.stderr, flush=True)\n"
        "time.sleep(60)\n")


def _gone(pid, seconds=10.0):
    """Whether process ``pid`` no longer exists within ``seconds``."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


def test_a_run_that_times_out_stops_with_its_command_and_stderr(monkeypatch, tmp_path):
    _sleeper(tmp_path / "a", tmp_path / "child.pid")
    monkeypatch.setattr(bench_pair, "RUN_TIMEOUT", 2)
    args = bench_pair.argparse.Namespace(workload="spectrum", seed=3)
    with pytest.raises(SystemExit) as stop:
        bench_pair._run(tmp_path / "a", args, 15)
    message = str(stop.value)
    assert "perfbench/run.py --workload spectrum --seed 3 --seconds 15 --trace 0" in message
    assert f"in {tmp_path / 'a'} timed out after 2 s" in message
    assert message.endswith("warming up")
    assert _gone(int((tmp_path / "child.pid").read_text()))


def test_sigterm_stops_the_running_child_and_removes_the_exports(tmp_path):
    # a repository whose committed perfbench/run.py sleeps, so the tool's first
    # run is still going when the signal comes
    repo, scratch, pid_file = tmp_path / "repo", tmp_path / "tmp", tmp_path / "child.pid"
    (repo / "tools").mkdir(parents=True)
    scratch.mkdir()
    (repo / "tools" / "bench_pair.py").write_bytes(TOOL.read_bytes())
    (repo / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": []}))
    _sleeper(repo, pid_file)
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "sleeping perfbench"], check=True)
    tool = subprocess.Popen(
        [sys.executable, str(repo / "tools" / "bench_pair.py"), "--base", "HEAD",
         "--workload", "spread", "--seed", "3", "--pairs", "1",
         "--out", str(tmp_path / "BENCH.json")],
        env=os.environ | {"TMPDIR": str(scratch)}, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 30
        while not pid_file.exists() or not pid_file.read_text():
            assert time.monotonic() < deadline and tool.poll() is None
            time.sleep(0.05)
        assert any(scratch.iterdir())
        tool.send_signal(signal.SIGTERM)
        _, stderr = tool.communicate(timeout=30)
    finally:
        tool.kill()
    assert tool.returncode == 1
    assert f"stopped by signal {int(signal.SIGTERM)}" in stderr
    assert _gone(int(pid_file.read_text()))
    assert list(scratch.iterdir()) == []
