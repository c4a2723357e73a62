"""The output comparison of tools/same_outputs.py, on two copies of ``src/``."""

import importlib.util
import shutil
from pathlib import Path

import numpy as np

from qwalk2d import (
    CoinOperator,
    builtin_coin,
    detect_period,
    find_local_stationary_states,
    load_coin,
    load_state,
    revival_state,
)
from qwalk2d.dynamics import _to_windows

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

COMMANDS = [
    "revival --coin grover --init revival --tmax 4 --out {out}",
    "simulate --coin grover --init psi3 --steps 1 --out {out}",
]


def test_copies_of_one_tree_are_the_same_and_a_changed_summary_differs(tmp_path, capsys):
    base, head = tmp_path / "base", tmp_path / "head"
    for tree in (base, head):
        shutil.copytree(ROOT / "src", tree / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    assert same_outputs.compare(base, head, COMMANDS) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["SAME", "SAME"]

    cli = head / "src" / "qwalk2d" / "cli.py"
    text = cli.read_text()
    assert text.count(": period=") == 1
    cli.write_text(text.replace(": period=", ": revival period="))
    assert same_outputs.compare(base, head, COMMANDS) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"DIFF  qwalk2d {COMMANDS[0]}  (stdout)"
    assert "+revival coin=grover init=revival tmax=4: revival period=2" in lines
    assert lines[-1] == f"SAME  qwalk2d {COMMANDS[1]}"


def test_a_differing_file_reports_how_far_its_numbers_moved(tmp_path, capsys):
    base, head = tmp_path / "base", tmp_path / "head"
    for tree in (base, head):
        shutil.copytree(ROOT / "src", tree / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    revival = head / "src" / "qwalk2d" / "revival.py"
    text = revival.read_text()
    assert text.count('{"re": self.phase.real,') == 1
    revival.write_text(text.replace('{"re": self.phase.real,',
                                    '{"re": np.nextafter(self.phase.real, 2),'))
    assert same_outputs.compare(base, head, COMMANDS[:1]) == 1
    phase = detect_period(revival_state(), builtin_coin("grover"), 4).phase.real
    assert capsys.readouterr().out.splitlines() == [
        f"DIFF  qwalk2d {COMMANDS[0]}  (files)",
        "  files differ: revival.json",
        f"  revival.json: max |diff| {np.nextafter(phase, 2) - phase:.2g} at phase.re",
    ]


def test_differing_stationary_files_report_both_counts_and_the_span_distance(tmp_path, capsys):
    command = "stationary --coin grover --box 3 --out {out}"
    base, head = tmp_path / "base", tmp_path / "head"
    for tree in (base, head):
        shutil.copytree(ROOT / "src", tree / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    revival = head / "src" / "qwalk2d" / "revival.py"
    text = revival.read_text()
    loop = "for box in boxes.reshape(-1, 4, s, s) / np.sqrt(2.0)"
    assert text.count(loop) == 1
    # the same span in another order: every file moves, the span does not
    revival.write_text(text.replace(loop, loop.replace("boxes.", "boxes[::-1].")))
    assert same_outputs.compare(base, head, [command]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"DIFF  qwalk2d {command}  (files)"
    assert lines[1] == "  files differ: " + ", ".join(f"stationary_0{i}.csv" for i in range(4))
    counts, moved = lines[-1].rsplit(" ", 1)
    assert counts == "  stationary_*.csv: 4 states against 4, span projectors differ by at most"
    assert float(moved) <= 1e-15
    # one state fewer: the span lost a direction
    revival.write_text(text.replace(loop, loop.replace("boxes.", "boxes[1:].")))
    assert same_outputs.compare(base, head, [command]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"DIFF  qwalk2d {command}  (stdout, files)"
    assert lines[1] == "  files differ: " + ", ".join(f"stationary_0{i}.csv" for i in range(4))
    span = [line for line in lines if line.startswith("  stationary_*.csv: ")]
    counts, moved = span[0].rsplit(" ", 1)
    assert counts == "  stationary_*.csv: 4 states against 3, span projectors differ by at most"
    assert float(moved) > 0.01


def test_describe_reads_a_csv_by_column_and_names_a_change_of_shape():
    describe = same_outputs.describe
    base = b"t,prob\n0,1\n1,0.25\n"
    assert describe("p.csv", base, b"t,prob\n0,1\n1,0.2500001\n") == (
        "  p.csv: max |diff| 1e-07 at prob[1]")
    assert describe("p.csv", base, b"t,p\n0,1\n1,0.25\n") == "  p.csv: structure differs"
    assert describe("p.csv", base, b"t,prob\n0,1\n") == (
        "  p.csv: structure differs at t")
    assert describe("r.json", b'{"a": [1, {"b": 2.5}], "c": true}',
                    b'{"a": [1, {"b": 2.0}], "c": true}') == "  r.json: max |diff| 0.5 at a[1].b"
    assert describe("r.json", b'{"a": [1], "c": true}', b'{"a": [1], "c": false}') == (
        "  r.json: structure differs at c")
    assert describe("r.json", b'{"a": null}', b'{"a": 1.0}') == "  r.json: structure differs at a"


def test_the_init_state_file_is_normalized_and_walks_in_two_frames(tmp_path):
    path = tmp_path / "init.csv"
    same_outputs.write_init_state(path, seed=3)
    state = load_state(path)
    assert state.n_sites == 57
    assert abs(state.norm() - 1.0) < 1e-12
    windows = _to_windows(state, same_outputs.INIT_STEPS)
    # the line in one (m, n) box, the cluster in one rotated box per parity class
    assert sorted(window.rotated for window in windows) == [False, True, True]
    assert sum("{init}" in command for command in same_outputs.COMMANDS) == 3


def test_the_conjugated_coin_file_is_unitary_and_not_its_own_transpose(tmp_path):
    path = tmp_path / "conj.coin"
    same_outputs.write_conj_coin(path, seed=3)
    coin = load_coin(path)  # raises unless the matrix is unitary
    assert np.abs(coin.matrix - coin.matrix.T).max() > 0.5
    # a search that applied the coin by rows would find other states
    found = find_local_stationary_states(coin, 1, 8)
    assert len(found) == 49
    assert find_local_stationary_states(CoinOperator(coin.matrix.T), 1, 8).states != found.states
    assert sum("{conj}" in command for command in same_outputs.COMMANDS) == 3
