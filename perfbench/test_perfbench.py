"""Tests of the benchmark itself: toy-size smoke runs and negative checks.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest perfbench

The negative tests corrupt one output of an operation and require its
check to fail, so the correctness gate behind ``failed`` is not vacuous.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import layer_trace  # noqa: E402
import workloads  # noqa: E402
from qwalk2d import cli, dynamics  # noqa: E402
from qwalk2d.states import PositionState  # noqa: E402

SEED = 7


def _build(name, tmp_path):
    return workloads.build(name, tmp_path / name, SEED, workloads.TOY[name])


def _run(op):
    op.prepare()
    return op.run()


def _op(workload, kind):
    return next(op for op in workload.cycle if op.kind == kind)


def _edit_json(path, **changes):
    data = json.loads(path.read_text())
    data.update(changes)
    path.write_text(json.dumps(data))


def _edit_csv_value(path, row, col, delta):
    lines = path.read_text().splitlines()
    fields = lines[row].split(",")
    fields[col] = repr(float(fields[col]) + delta)
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layer_trace.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_toy_run_is_correct_and_reports_every_metric(name, trace, tmp_path):
    result = harness.run_workload(name, SEED, 0.01, trace, tmp_path, sizes=workloads.TOY)
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] > 0
    expected = layer_trace.PER_LAYER if trace else harness.END_TO_END
    assert list(result["metrics"]) == [n for n, _, _ in expected]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (tmp_path / ".perfbench_tmp" / f"{name}-{os.getpid()}").exists()


def test_traced_spread_counts_every_step(tmp_path):
    steps = workloads.TOY["spread"]["steps"]
    result = harness.run_workload("spread", SEED, 0.01, 1, tmp_path, sizes=workloads.TOY)
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert values["dynamics.step.calls"] == steps
    assert values["dynamics.site_steps"] == sum(k * k for k in range(1, steps + 1))
    assert values["dynamics.useful_step_ratio"] == 1.0
    assert values["states.save_state.rows"] == (steps + 1) ** 2
    assert values["cli.main.calls"] == 1


def test_traced_revival_shows_the_double_walk(tmp_path):
    result = harness.run_workload("revival", SEED, 0.01, 1, tmp_path, sizes=workloads.TOY)
    assert result["metrics"]["dynamics.useful_step_ratio"]["value"] < 1.0


def test_tracer_self_time_excludes_children_and_restores_names():
    tracer = layer_trace.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    self_s, calls = tracer.self_times()
    assert calls == {"outer": 1, "inner": 2}
    _, start, end, parent, _ = tracer.spans[0]
    assert parent == -1 and tracer.spans[1][3] == 0 and tracer.spans[2][3] == 0
    assert self_s["outer"] + self_s["inner"] == pytest.approx(end - start)
    assert 0 <= self_s["outer"] < end - start

    original, original_step = cli.main, dynamics.step
    with layer_trace.installed(layer_trace.Tracer()):
        assert cli.main is not original
        assert cli.step.__wrapped__ is original_step
        assert dynamics.step.__wrapped__ is original_step
    assert (cli.main, cli.step, dynamics.step) == (original, original_step, original_step)
    assert not hasattr(PositionState.amplitude, "__wrapped__")


def test_raising_operation_counts_as_failed():
    def boom():
        raise RuntimeError("boom")

    tally = harness.Tally()
    harness.run_op(workloads.Op("boom", boom, lambda r: None, 1.0), tally)
    harness.run_op(workloads.Op("bad", lambda: 1, lambda r: "wrong", 1.0), tally)
    assert (tally.attempted, tally.failed) == (2, 2)


# ---------------------------------------------------------- negative checks


def test_spread_checks_fail_on_corrupted_outputs(tmp_path):
    op = _op(_build("spread", tmp_path), "simulate")
    result = _run(op)
    assert op.check(result) is None
    code, text = result
    assert op.check((code, text.replace("support=", "support=1"))) is not None
    assert op.check((1, text)) is not None

    state_csv = op.out / "state.csv"
    saved = state_csv.read_text()
    _edit_csv_value(state_csv, 5, 2, 1e-9)
    assert "state.csv" in op.check(result)
    state_csv.write_text(saved)

    dist_csv = op.out / "distribution.csv"
    dist_csv.write_text("\n".join(dist_csv.read_text().splitlines()[:-1]) + "\n")
    assert "distribution.csv" in op.check(result)


def test_revival_checks_fail_on_corrupted_outputs(tmp_path):
    workload = _build("revival", tmp_path)
    walk_op = _op(workload, "revival_cli")
    result = _run(walk_op)
    assert walk_op.check(result) is None
    report = walk_op.out / "revival.json"
    saved = report.read_text()
    _edit_json(report, period=2)  # a wrong period
    assert "period" in walk_op.check(result)
    report.write_text(saved)
    _edit_csv_value(walk_op.out / "return_probability.csv", 3, 1, 1e-9)
    assert "return_probability.csv" in walk_op.check(result)

    cheap_op = _op(workload, "revival_cli_period2")
    result = _run(cheap_op)
    assert cheap_op.check(result) is None
    _edit_json(cheap_op.out / "revival.json", period=None)
    assert "period" in cheap_op.check(result)

    series_op = _op(workload, "return_probability_series")
    series = _run(series_op)
    assert series_op.check(series) is None
    series[2] += 1e-9
    assert series_op.check(series) is not None
    assert series_op.check(series[:-1]) is not None


def test_spectrum_checks_fail_on_corrupted_outputs(tmp_path):
    workload = _build("spectrum", tmp_path)
    grover = _op(workload, "spectrum_grover")
    result = _run(grover)
    assert grover.check(result) is None
    spectrum_json = grover.out / "spectrum.json"
    saved = spectrum_json.read_text()
    _edit_json(spectrum_json, pairing_ok=False)
    assert "pairing_ok" in grover.check(result)
    spectrum_json.write_text(saved)

    states = sorted(grover.out.glob("lambda_0/stationary_*.csv"))
    _edit_csv_value(states[0], 1, 3, 1e-6)
    assert states[0].name in grover.check(result)
    states[0].unlink()
    assert "states" in grover.check(result)

    hadamard = _op(workload, "spectrum_hadamard4")
    result = _run(hadamard)
    assert hadamard.check(result) is None
    _edit_json(hadamard.out / "spectrum.json", c_zero=True)
    assert "c_zero" in hadamard.check(result)


def test_momentum_check_fails_on_a_perturbed_result(tmp_path):
    workload = _build("momentum", tmp_path)
    for op in workload.cycle:
        result = _run(op)
        assert op.check(result) is None
        amplitudes = result.to_dict()
        point = next(iter(amplitudes))
        amplitudes[point] = amplitudes[point] + np.array([1e-9, 0, 0, 0])
        assert "max |diff|" in op.check(PositionState(amplitudes))
    assert workload.observed["max_abs_error"] == pytest.approx(1e-9, rel=1e-3)


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spread", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
