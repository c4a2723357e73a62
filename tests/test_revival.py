"""Stationary states, finite-support eigenstate search, periods, and return probability."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from qwalk2d import (
    CoinComponent,
    PositionState,
    builtin_coin,
    detect_constant_eigenvalues,
    detect_period,
    fidelity,
    find_local_stationary_states,
    grover_stationary_states,
    inner_product,
    make_basis_state,
    return_probability_series,
    revival_state,
    step,
    superpose,
)
from qwalk2d.cli import main

from conftest import amp_diff

FIXTURES = Path(__file__).parent / "fixtures"


def eigen_residual(state, coin, eigenvalue):
    return superpose([(1.0, step(state, coin)), (-eigenvalue, state)]).norm()


# ------------------------------------------------------- closed-form states


def test_stationary_states_are_eigenstates():
    grover = builtin_coin("grover")
    plus, minus = grover_stationary_states()
    assert eigen_residual(plus, grover, 1.0) < 1e-15
    assert eigen_residual(minus, grover, -1.0) < 1e-15


def test_stationary_states_are_orthonormal():
    plus, minus = grover_stationary_states()
    assert plus.norm() == pytest.approx(1.0, abs=1e-15)
    assert minus.norm() == pytest.approx(1.0, abs=1e-15)
    assert abs(inner_product(plus, minus)) < 1e-15


def test_translated_stationary_state_is_still_stationary():
    grover = builtin_coin("grover")
    plus, _ = grover_stationary_states()
    moved = plus.translate((5, 5))
    assert eigen_residual(moved, grover, 1.0) < 1e-15


def test_revival_state_cycles_with_period_two():
    grover = builtin_coin("grover")
    start = revival_state()
    partner = PositionState({(0, 0): (0, 0.5, 0, 0.5), (1, 1): (0.5, 0, 0.5, 0)})
    after_one = step(start, grover)
    assert amp_diff(after_one, partner) < 1e-16
    assert fidelity(start, after_one) == 0.0
    assert fidelity(start, step(after_one, grover)) == pytest.approx(1.0, abs=1e-14)


# ------------------------------------------------- finite-support search


def test_box_search_recovers_the_stationary_state():
    found = find_local_stationary_states(builtin_coin("grover"), 1.0, 2)
    assert len(found.states) == 1
    plus, _ = grover_stationary_states()
    assert fidelity(found.states[0], plus) >= 1 - 1e-10
    assert found.support == ((0, 0), (1, 1))


def test_box_search_finds_the_negative_eigenstate_too():
    found = find_local_stationary_states(builtin_coin("grover"), -1.0, 2)
    assert len(found.states) == 1
    _, minus = grover_stationary_states()
    assert fidelity(found.states[0], minus) >= 1 - 1e-10


def test_single_site_box_has_no_eigenstate():
    assert len(find_local_stationary_states(builtin_coin("grover"), 1.0, 1).states) == 0


def test_hadamard4_has_no_finite_eigenstates():
    assert len(find_local_stationary_states(builtin_coin("hadamard4"), 1.0, 4).states) == 0


def test_search_is_empty_for_undetected_eigenvalues():
    grover = builtin_coin("grover")
    report = detect_constant_eigenvalues(grover, 16, 1e-8)
    assert all(abs(v - 1j) > 1e-8 for v in report.values())
    assert len(find_local_stationary_states(grover, 1j, 4).states) == 0


def test_search_validates_arguments():
    grover = builtin_coin("grover")
    with pytest.raises(ValueError):
        find_local_stationary_states(grover, 2.0, 2)
    with pytest.raises(ValueError):
        find_local_stationary_states(grover, 1.0, 0)


def test_found_states_satisfy_the_eigen_contract(rng):
    swap = builtin_coin("swap")
    found = find_local_stationary_states(swap, 1.0, 2)
    assert len(found.states) == 4
    for state in found.states:
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        assert eigen_residual(state, swap, 1.0) <= 1e-10
    for i, a in enumerate(found.states):
        for b in found.states[i + 1 :]:
            assert abs(inner_product(a, b)) <= 1e-10
    # translation degeneracy
    for _ in range(5):
        v = (int(rng.integers(-20, 20)), int(rng.integers(-20, 20)))
        assert eigen_residual(found.states[0].translate(v), swap, 1.0) <= 1e-10


def test_search_respects_box_origin():
    found = find_local_stationary_states(builtin_coin("grover"), 1.0, 2, origin=(3, -1))
    assert len(found.states) == 1
    plus, _ = grover_stationary_states()
    assert fidelity(found.states[0], plus.translate((3, -1))) >= 1 - 1e-10


# ------------------------------------------------------------ period scan


def test_revival_state_has_period_two():
    report = detect_period(revival_state(), builtin_coin("grover"), 10, 1e-10)
    assert report.period == 2
    expected = [0.0, 1.0] * 5
    np.testing.assert_allclose(report.fidelity_series, expected, atol=1e-12)
    assert report.phase == pytest.approx(1.0, abs=1e-12)


def test_stationary_state_has_period_one():
    plus, minus = grover_stationary_states()
    report = detect_period(plus, builtin_coin("grover"), 10, 1e-10)
    assert report.period == 1
    assert report.phase == pytest.approx(1.0, abs=1e-12)
    report = detect_period(minus, builtin_coin("grover"), 5, 1e-10)
    assert report.period == 1
    assert report.phase == pytest.approx(-1.0, abs=1e-12)


def test_localized_basis_state_never_fully_revives():
    report = detect_period(
        make_basis_state((0, 0), CoinComponent.R), builtin_coin("grover"), 50, 1e-6
    )
    assert report.period is None
    assert report.phase is None
    assert max(report.fidelity_series) < 1 - 1e-6


def test_any_mix_of_the_two_eigenstates_revives_with_period_two(rng):
    grover = builtin_coin("grover")
    plus, minus = grover_stationary_states()
    for _ in range(20):
        weight = rng.uniform(0.1**2, 1 - 0.1**2)
        alpha = math.sqrt(weight) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        beta = math.sqrt(1 - weight) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        mixed = superpose([(alpha, plus), (beta, minus)])
        assert detect_period(mixed, grover, 4, 1e-10).period == 2


def test_period_detection_ignores_global_phase():
    start = revival_state()
    rotated = superpose([(np.exp(0.73j), start)])
    a = detect_period(start, builtin_coin("grover"), 6, 1e-10)
    b = detect_period(rotated, builtin_coin("grover"), 6, 1e-10)
    assert a.period == b.period == 2
    np.testing.assert_allclose(a.fidelity_series, b.fidelity_series, atol=1e-14)


def test_detect_period_validates_input():
    grover = builtin_coin("grover")
    with pytest.raises(ValueError):
        detect_period(revival_state(), grover, 0)
    with pytest.raises(ValueError):
        detect_period(PositionState({(0, 0): (1, 1, 0, 0)}), grover, 5)
    with pytest.raises(ValueError, match="tolerance"):
        detect_period(revival_state(), grover, 5, tolerance=0.5)


def test_revival_report_json():
    payload = detect_period(revival_state(), builtin_coin("grover"), 4, 1e-10).to_json_dict()
    assert set(payload) == {"period", "tolerance", "fidelity_series", "phase"}
    assert payload["period"] == 2
    assert payload["phase"]["re"] == pytest.approx(1.0, abs=1e-12)
    assert len(payload["fidelity_series"]) == 4


# ---------------------------------------------------- return probability


def origin_symmetric_state():
    return PositionState({(0, 0): (0.5, 0.5, 0.5, 0.5)})


def test_return_probability_starts_at_one():
    series = return_probability_series(origin_symmetric_state(), builtin_coin("grover"), 0)
    assert series == [1.0]


def test_return_probability_matches_reference_run():
    fixture = json.loads((FIXTURES / "localization.json").read_text())
    series = return_probability_series(origin_symmetric_state(), builtin_coin("grover"), 60)
    np.testing.assert_allclose(series, fixture["grover_p0"][:61], atol=1e-12)


def test_return_probability_has_one_definition_for_any_start(tmp_path):
    # the revival state starts off the origin and visits it on odd steps
    grover = builtin_coin("grover")
    expected = [0.0, 0.5, 0.0, 0.5, 0.0]
    assert main(["revival", "--coin", "grover", "--init", "revival", "--tmax", "4",
                 "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "return_probability.csv").read_text().splitlines()[1:]
    from_cli = [float(row.split(",")[1]) for row in rows]
    from_series = return_probability_series(revival_state(), grover, 4)
    from_report = list(detect_period(revival_state(), grover, 4).return_probability)
    assert from_cli == from_series == from_report == expected


def test_return_probability_odd_steps_are_parity_blocked():
    series = return_probability_series(origin_symmetric_state(), builtin_coin("grover"), 9)
    assert all(series[t] == 0.0 for t in range(1, 10, 2))
    assert all(series[t] > 0.0 for t in range(2, 10, 2))
