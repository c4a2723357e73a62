"""End-to-end checks of the command-line interface and its file outputs."""

import json

import pytest

from qwalk2d import builtin_coin, dynamics, evolve, fidelity, load_state, revival_state
from qwalk2d.cli import main
from qwalk2d.revival import grover_stationary_states


def run_cli(*args):
    return main([str(a) for a in args])


def read_distribution(path):
    rows = path.read_text().splitlines()
    assert rows[0] == "m,n,prob"
    out = {}
    for row in rows[1:]:
        m, n, prob = row.split(",")
        out[(int(m), int(n))] = float(prob)
    return out


# ---------------------------------------------------------------- simulate


def test_simulate_revival_two_steps_returns_to_start(tmp_path, capsys):
    assert run_cli("simulate", "--coin", "grover", "--init", "revival",
                   "--steps", 2, "--out", tmp_path) == 0
    final = load_state(tmp_path / "state.csv")
    assert fidelity(final, revival_state()) == pytest.approx(1.0, abs=1e-12)
    summary = capsys.readouterr().out
    assert "fidelity_to_initial=1" in summary
    assert "total_probability=1" in summary


def test_simulate_stationary_state_distribution(tmp_path, capsys):
    assert run_cli("simulate", "--coin", "grover", "--init", "psi1",
                   "--steps", 7, "--out", tmp_path) == 0
    dist = read_distribution(tmp_path / "distribution.csv")
    assert dist == pytest.approx(
        {(0, 0): 0.25, (1, 0): 0.25, (0, 1): 0.25, (1, 1): 0.25}
    )


def test_simulate_zero_steps_keeps_basis_state(tmp_path, capsys):
    assert run_cli("simulate", "--coin", "hadamard4", "--init", "basis:R",
                   "--steps", 0, "--out", tmp_path) == 0
    assert read_distribution(tmp_path / "distribution.csv") == {(0, 0): 1.0}


def test_simulate_accepts_state_file_roundtrip(tmp_path, capsys):
    out1 = tmp_path / "a"
    assert run_cli("simulate", "--coin", "grover", "--init", "revival",
                   "--steps", 1, "--out", out1) == 0
    in_memory = evolve(revival_state(), builtin_coin("grover"), 1)
    reloaded = load_state(out1 / "state.csv")
    assert fidelity(reloaded, in_memory) >= 1 - 1e-15

    out2 = tmp_path / "b"
    assert run_cli("simulate", "--coin", "grover", "--init", out1 / "state.csv",
                   "--steps", 1, "--out", out2) == 0
    assert fidelity(load_state(out2 / "state.csv"), revival_state()) >= 1 - 1e-12


def test_simulate_runs_are_deterministic(tmp_path, capsys):
    for sub in ("x", "y"):
        assert run_cli("simulate", "--coin", "dft4", "--init", "origin_symmetric",
                       "--steps", 6, "--out", tmp_path / sub) == 0
    assert (tmp_path / "x/state.csv").read_bytes() == (tmp_path / "y/state.csv").read_bytes()
    assert (tmp_path / "x/distribution.csv").read_bytes() == (
        tmp_path / "y/distribution.csv"
    ).read_bytes()


def test_simulate_with_coin_file_matches_builtin(tmp_path, capsys):
    coin_file = tmp_path / "grover.coin"
    rows = []
    matrix = builtin_coin("grover").matrix
    for row in matrix:
        rows.append(" ".join(f"{z.real:g} {z.imag:g}" for z in row))
    coin_file.write_text("\n".join(rows) + "\n")
    assert run_cli("simulate", "--coin", coin_file, "--init", "psi2",
                   "--steps", 3, "--out", tmp_path) == 0
    final = load_state(tmp_path / "state.csv")
    assert fidelity(final, grover_stationary_states()[1]) == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------- spectrum


def test_spectrum_grover(tmp_path, capsys):
    assert run_cli("spectrum", "--coin", "grover", "--grid", 32, "--tol", "1e-8",
                   "--out", tmp_path) == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    values = sorted(c["re"] for c in payload["constants"])
    assert values == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert payload["pairing_ok"] is True
    assert payload["c_zero"] is True
    assert payload["four_constant"] is False
    assert payload["det_coin"]["re"] == pytest.approx(-1.0, abs=1e-12)


def test_spectrum_hadamard4(tmp_path, capsys):
    assert run_cli("spectrum", "--coin", "hadamard4", "--grid", 32, "--out", tmp_path) == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["constants"] == []
    assert payload["c_zero"] is False


def test_spectrum_swap_flags_four_constant(tmp_path, capsys):
    assert run_cli("spectrum", "--coin", "swap", "--grid", 32, "--out", tmp_path) == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["four_constant"] is True
    assert payload["pairing_ok"] is True
    assert sorted(c["re"] for c in payload["constants"]) == pytest.approx([-1.0, 1.0])


def test_spectrum_is_deterministic(tmp_path, capsys):
    for sub in ("x", "y"):
        assert run_cli("spectrum", "--coin", "dft4", "--grid", 16, "--out", tmp_path / sub) == 0
    assert (tmp_path / "x/spectrum.json").read_bytes() == (tmp_path / "y/spectrum.json").read_bytes()


# -------------------------------------------------------------- stationary


def test_stationary_recovers_block_state(tmp_path, capsys):
    assert run_cli("stationary", "--coin", "grover", "--lambda", "1,0", "--box", 2,
                   "--out", tmp_path) == 0
    assert "states=1" in capsys.readouterr().out
    found = load_state(tmp_path / "stationary_00.csv")
    assert fidelity(found, grover_stationary_states()[0]) >= 1 - 1e-10


def test_stationary_imaginary_eigenvalue_finds_nothing(tmp_path, capsys):
    assert run_cli("stationary", "--coin", "grover", "--lambda", "0,1", "--box", 4,
                   "--out", tmp_path) == 0
    assert "states=0" in capsys.readouterr().out
    assert not list(tmp_path.glob("stationary_*.csv"))


def test_stationary_hadamard4_finds_nothing(tmp_path, capsys):
    assert run_cli("stationary", "--coin", "hadamard4", "--lambda", "1,0", "--box", 3,
                   "--out", tmp_path) == 0
    assert "states=0" in capsys.readouterr().out


# ----------------------------------------------------------------- revival


def test_revival_command_reports_period_two(tmp_path, capsys):
    assert run_cli("revival", "--coin", "grover", "--init", "revival", "--tmax", 10,
                   "--out", tmp_path) == 0
    payload = json.loads((tmp_path / "revival.json").read_text())
    assert payload["period"] == 2
    assert len(payload["fidelity_series"]) == 10
    rows = (tmp_path / "return_probability.csv").read_text().splitlines()
    assert rows[0] == "t,prob"
    assert len(rows) == 12


def test_revival_command_walks_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = dynamics.step

    def counting_step(state, coin):
        calls.append(1)
        return original(state, coin)

    monkeypatch.setattr(dynamics, "step", counting_step)
    assert run_cli("revival", "--coin", "grover", "--init", "origin_symmetric",
                   "--tmax", 7, "--out", tmp_path) == 0
    assert len(calls) == 7


def test_revival_of_negative_eigenstate_recovers_phase(tmp_path, capsys):
    assert run_cli("revival", "--coin", "grover", "--init", "psi2", "--tmax", 5,
                   "--out", tmp_path) == 0
    payload = json.loads((tmp_path / "revival.json").read_text())
    assert payload["period"] == 1
    assert payload["phase"]["re"] == pytest.approx(-1.0, abs=1e-12)
    assert payload["phase"]["im"] == pytest.approx(0.0, abs=1e-12)


def test_revival_localized_start_stays_trapped(tmp_path, capsys):
    assert run_cli("revival", "--coin", "grover", "--init", "origin_symmetric",
                   "--tmax", 40, "--out", tmp_path) == 0
    payload = json.loads((tmp_path / "revival.json").read_text())
    assert payload["period"] is None
    rows = (tmp_path / "return_probability.csv").read_text().splitlines()[1:]
    series = [float(r.split(",")[1]) for r in rows]
    assert series[0] == 1.0
    assert min(series[t] for t in range(20, 41, 2)) > 0.05


# -------------------------------------------------------------- exit codes


def test_unknown_coin_name_is_a_config_error(tmp_path, capsys):
    assert run_cli("simulate", "--coin", "nope", "--init", "revival",
                   "--steps", 1, "--out", tmp_path) == 2
    assert "unknown coin" in capsys.readouterr().err


def test_non_unitary_coin_file_is_a_coin_error(tmp_path, capsys):
    bad = tmp_path / "bad.coin"
    bad.write_text("\n".join(["0.5 0 0.5 0 0.5 0 0.5 0"] * 4) + "\n")
    assert run_cli("simulate", "--coin", bad, "--init", "revival",
                   "--steps", 1, "--out", tmp_path) == 3
    assert "not unitary" in capsys.readouterr().err


def test_nan_coin_file_is_a_coin_error(tmp_path, capsys):
    bad = tmp_path / "nan.coin"
    bad.write_text("\n".join([" ".join(["nan"] * 8)] * 4) + "\n")
    assert run_cli("spectrum", "--coin", bad, "--out", tmp_path) == 3
    assert "non-finite" in capsys.readouterr().err


def test_nan_initial_state_file_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("m,n,re_R,im_R,re_L,im_L,re_U,im_U,re_D,im_D\n0,0,nan,0,0,0,0,0,0,0\n")
    assert run_cli("simulate", "--coin", "grover", "--init", bad,
                   "--steps", 1, "--out", tmp_path) == 2
    assert "finite" in capsys.readouterr().err


def test_unknown_initial_state_is_a_config_error(tmp_path, capsys):
    assert run_cli("simulate", "--coin", "grover", "--init", "psi3",
                   "--steps", 1, "--out", tmp_path) == 2


def test_bad_tolerance_is_a_config_error(tmp_path, capsys):
    assert run_cli("spectrum", "--coin", "grover", "--tol", "0.5", "--out", tmp_path) == 2
    assert run_cli("revival", "--coin", "grover", "--init", "revival", "--tmax", 4,
                   "--tol", "0.5", "--out", tmp_path) == 2
    assert "tolerance" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_bad_lambda_syntax_is_a_config_error(tmp_path, capsys):
    assert run_cli("stationary", "--coin", "grover", "--lambda", "one", "--box", 2,
                   "--out", tmp_path) == 2


def test_missing_subcommand_is_a_config_error(capsys):
    assert run_cli() == 2
