"""Stationary states, finite-support eigenstate search, periods, and return probability."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qwalk2d import (
    CoinComponent,
    CoinOperator,
    PositionState,
    builtin_coin,
    detect_constant_eigenvalues,
    detect_period,
    fidelity,
    find_local_stationary_states,
    grover_stationary_states,
    inner_product,
    make_basis_state,
    random_coin,
    return_probability_series,
    revival_state,
    step,
    superpose,
)
from qwalk2d import dynamics
from qwalk2d.cli import main
from qwalk2d.dynamics import _amplitudes, _complex, _planes, _step_box, _to_windows, _trajectory
from qwalk2d.revival import NULL_SPACE_RTOL

from conftest import amp_diff, permutation_coin

FIXTURES = Path(__file__).parent / "fixtures"
# the reference walk shares no code with qwalk2d, so a defect in the step kernel
# the search builds its system with cannot pass both the search and this check
WALK_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "walk_reference.py"
_spec = importlib.util.spec_from_file_location("walk_reference", WALK_REFERENCE)
walk_reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(walk_reference)


def eigen_residual(state, coin, eigenvalue):
    """||step(state) - eigenvalue * state||, stepped on the reference grid."""
    walk = walk_reference.DenseWalk(coin.matrix, state.to_dict(), 1)
    before = walk.grid.copy()
    walk.step()
    return float(np.linalg.norm(walk.grid - eigenvalue * before))


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


def test_box_search_finds_the_negative_eigenstate_too():
    found = find_local_stationary_states(builtin_coin("grover"), -1.0, 2)
    assert len(found.states) == 1
    _, minus = grover_stationary_states()
    assert fidelity(found.states[0], minus) >= 1 - 1e-10


def test_single_site_box_has_no_eigenstate():
    assert len(find_local_stationary_states(builtin_coin("grover"), 1.0, 1).states) == 0


def test_hadamard4_has_no_finite_eigenstates():
    assert len(find_local_stationary_states(builtin_coin("hadamard4"), 1.0, 4).states) == 0


def test_non_integer_counts_are_rejected():
    grover = builtin_coin("grover")
    with pytest.raises(ValueError, match="integer"):
        detect_period(revival_state(), grover, 3.5)
    with pytest.raises(ValueError, match="integer"):
        return_probability_series(revival_state(), grover, 3.5)
    with pytest.raises(ValueError, match="integer"):
        find_local_stationary_states(grover, 1, 2.9)
    assert len(find_local_stationary_states(grover, 1, np.int64(2))) == 1


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
    for eigenvalue in (complex(math.nan, 0.0), complex(1.0, math.nan)):
        with pytest.raises(ValueError, match="eigenvalue"):
            find_local_stationary_states(grover, eigenvalue, 2)


def test_search_pins_the_shift_convention_with_an_asymmetric_coin():
    # Grover and swap equal their transposes and are unchanged when R and L
    # trade places; Grover conjugated by seeded diagonal phases is neither.
    # Its walk is the Grover walk up to a local phase change, so
    # +-(global phase) each have (s - 1)^2 eigenstates in an s x s box.
    rng = np.random.default_rng(20240817)
    phases = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    coin = CoinOperator(phase * phases @ builtin_coin("grover").matrix @ phases.conj())
    for s in range(2, 6):
        for eigenvalue in (phase, -phase):
            found = find_local_stationary_states(coin, eigenvalue, s)
            assert len(found) == (s - 1) ** 2
            states = [state.translate((3, -2)) for state in found.states]
            for state in states:
                assert all(3 <= m < 3 + s and -2 <= n < -2 + s for m, n in state.points)
                assert eigen_residual(state, coin, eigenvalue) <= 1e-10
            gram = np.array([[inner_product(a, b) for b in states] for a in states])
            assert np.abs(gram - np.eye(len(states))).max() <= 1e-10


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
    # the search box is [0, s)^2; a translate moves what it finds
    found = find_local_stationary_states(builtin_coin("grover"), 1.0, 2)
    assert len(found.states) == 1
    plus, _ = grover_stationary_states()
    assert fidelity(found.states[0].translate((3, -1)), plus.translate((3, -1))) >= 1 - 1e-10


# ------------------------------------ the whole-box search, as an oracle


def whole_box_null_count(coin, eigenvalue, s):
    """Null dimension of the whole box's eigen-equation.

    The search solved this 4(s+2)^2 x 4s^2 system before it was reduced to
    one parity class: one column per basis state of the box, stepped by
    ``_step_box`` on its planes, and the same cutoff.
    """
    basis = np.eye(4 * s * s, dtype=complex).reshape(-1, 4, s, s)
    image = _complex(_step_box(_planes(basis), coin))
    image[..., 1:-1, 1:-1] -= eigenvalue * basis
    singular = np.linalg.svd(image.reshape(len(image), -1).T, compute_uv=False)
    return int(np.count_nonzero(singular <= NULL_SPACE_RTOL * singular[0]))


def box_rows(found, s):
    """The states of ``found`` as rows of flattened (4, s, s) boxes."""
    rows = np.zeros((len(found), 4, s, s), dtype=complex)
    for row, state in zip(rows, found.states):
        for (m, n), amps in state.to_dict().items():
            row[:, m, n] = amps
    return rows.reshape(len(found), 4 * s * s)


def projector(rows):
    return rows.T @ rows.conj()


def parity_flip(rows, s):
    """``rows`` with the amplitudes of the cells where m + n is even negated."""
    sign = np.where(np.indices((s, s)).sum(axis=0) % 2 == 0, -1, 1)
    return (rows.reshape(-1, 4, s, s) * sign).reshape(rows.shape)


R, L, U, D = range(4)
_PHASES = np.diag(np.exp(1j * np.random.default_rng(7).uniform(0, 2 * np.pi, 4)))
ORACLE_COINS = {
    "grover": builtin_coin("grover"),
    "grover_conjugated": CoinOperator(_PHASES @ builtin_coin("grover").matrix @ _PHASES.conj()),
    "grover_phased": CoinOperator(np.exp(0.7j) * builtin_coin("grover").matrix),
    "swap": builtin_coin("swap"),
    "dft4": builtin_coin("dft4"),
    "hadamard4": builtin_coin("hadamard4"),
    "haar": random_coin(3),
    "four_cycle": permutation_coin((U, D, L, R)),  # R->U->L->D->R
    "swap_phased": permutation_coin((L, R, D, U), (1, 1, np.exp(2j * np.pi / 3), 1)),
}


def search_values(coin):
    """The coin's constant eigenvalues, then those of +-1, +-i that are not among them."""
    values = list(detect_constant_eigenvalues(coin, 64, 1e-8).values())
    return values + [v for v in (1, -1, 1j, -1j) if all(abs(v - c) > 1e-8 for c in values)]


@pytest.mark.parametrize("name", ORACLE_COINS)
def test_search_spans_the_whole_box_null_space(name):
    # as many orthonormal states as the whole box has null directions, each of
    # them in that null space, span all of it
    coin = ORACLE_COINS[name]
    for eigenvalue in search_values(coin):
        for s in range(1, 9):
            found = find_local_stationary_states(coin, eigenvalue, s)
            assert len(found) == whole_box_null_count(coin, eigenvalue, s), (eigenvalue, s)
            if not found:
                continue
            rows = box_rows(found, s)
            assert np.abs(rows.conj() @ rows.T - np.eye(len(rows))).max() <= 1e-12
            image = _complex(_step_box(_planes(rows.reshape(-1, 4, s, s)), coin))
            image[..., 1:-1, 1:-1] -= eigenvalue * rows.reshape(-1, 4, s, s)
            assert np.abs(image).max() <= 1e-12, (eigenvalue, s)


@pytest.mark.parametrize("name", ["grover", "swap", "four_cycle"])
def test_a_real_coin_gives_real_states_at_plus_minus_1_and_imaginary_even_halves_at_i(name):
    # a real coin with a real eigenvalue^2 has a real system: its null vectors,
    # the odd halves, are real, and the even halves are a step divided by lambda
    coin, s = ORACLE_COINS[name], 6
    odd = (np.indices((s, s)).sum(axis=0) % 2 == 1).ravel()
    counts = []
    for eigenvalue in (1, -1, 1j, -1j):
        found = find_local_stationary_states(coin, eigenvalue, s)
        rows = box_rows(found, s).reshape(len(found), 4, s * s)
        assert len(found) == whole_box_null_count(coin, eigenvalue, s)
        if eigenvalue.imag:
            assert not rows[..., odd].imag.any() and not rows[..., ~odd].real.any()
        else:
            assert not rows.imag.any()
        counts.append(len(found))
    # each coin has states at +-1; only the 4-cycle coin has them at +-i too
    assert counts[0] == counts[1] > 0
    assert (counts[2] == counts[3] > 0) == (name == "four_cycle")


@pytest.mark.parametrize("name", ["grover_conjugated", "swap", "four_cycle", "swap_phased"])
def test_the_negated_eigenvalue_spans_the_parity_flipped_states(name):
    coin, s = ORACLE_COINS[name], 6
    for eigenvalue in detect_constant_eigenvalues(coin, 64, 1e-8).values():
        plus = box_rows(find_local_stationary_states(coin, eigenvalue, s), s)
        minus = box_rows(find_local_stationary_states(coin, -eigenvalue, s), s)
        assert len(plus) == len(minus) > 0
        assert np.abs(projector(parity_flip(plus, s)) - projector(minus)).max() <= 1e-12


def test_box_12_counts():
    assert len(find_local_stationary_states(builtin_coin("grover"), 1, 12)) == 11**2
    assert len(find_local_stationary_states(builtin_coin("swap"), 1, 12)) == 2 * 12 * 11


def test_search_reports_its_margins_around_the_cutoff():
    found = find_local_stationary_states(builtin_coin("grover"), 1, 8)
    assert len(found) == 49
    assert 0 < found.largest_null <= 1e-14
    assert found.smallest_kept >= 0.2
    # no state exists, and the nearest direction closes in as the box grows
    dft4 = builtin_coin("dft4")
    kept = []
    for s in (2, 4, 6, 8):
        found = find_local_stationary_states(dft4, 1, s)
        assert len(found) == 0 and found.largest_null == 0.0
        kept.append(found.smallest_kept)
    assert kept == sorted(kept, reverse=True) and len(set(kept)) == 4 and kept[-1] < 0.05
    # a 1 x 1 box has no odd cell, so both sides are empty
    found = find_local_stationary_states(dft4, 1, 1)
    assert (found.largest_null, found.smallest_kept) == (0.0, 1.0)


def _grover_tilted(eps):
    """Grover with its R column turned by the phase e^{i eps}."""
    return CoinOperator(builtin_coin("grover").matrix @ np.diag([np.exp(1j * eps), 1, 1, 1]))


def test_a_direction_1_6e_9_of_sigma_max_from_null_is_kept():
    # the 1e-10 cutoff keeps it; a cutoff of 1e-6 would count it as 1 of 4 states
    found = find_local_stationary_states(_grover_tilted(1e-8), 1, 3)
    assert len(found) == 0
    assert 1.5e-9 < found.smallest_kept < 1.7e-9


def test_a_direction_4_1e_13_of_sigma_max_from_null_is_a_state():
    # the 1e-10 cutoff counts it; a cutoff of 1e-14 would keep all 4 out
    found = find_local_stationary_states(_grover_tilted(1e-12), 1, 3)
    assert len(found) == 4
    assert 4e-13 < found.largest_null < 4.2e-13


# ------------------------------------------------------------ period scan


def test_revival_state_has_period_two():
    report = detect_period(revival_state(), builtin_coin("grover"), 10)
    assert report.period == 2
    expected = [0.0, 1.0] * 5
    np.testing.assert_allclose(report.fidelity_series, expected, atol=1e-12)
    assert report.phase == pytest.approx(1.0, abs=1e-12)


def test_stationary_state_has_period_one():
    plus, minus = grover_stationary_states()
    report = detect_period(plus, builtin_coin("grover"), 10)
    assert report.period == 1
    assert report.phase == pytest.approx(1.0, abs=1e-12)
    report = detect_period(minus, builtin_coin("grover"), 5)
    assert report.period == 1
    assert report.phase == pytest.approx(-1.0, abs=1e-12)


def test_localized_basis_state_never_fully_revives():
    report = detect_period(make_basis_state((0, 0), CoinComponent.R), builtin_coin("grover"), 50)
    assert report.period is None
    assert report.phase is None
    assert max(report.fidelity_series) < 1 - 1e-6


def test_a_fidelity_short_of_1_by_more_than_1e_10_is_no_revival():
    # weight 1.6e-9 on a far site keeps the best fidelity 1.4e-9 below 1
    far = make_basis_state((40, 0), "R")
    start = superpose([(math.sqrt(1 - 4e-5**2), revival_state()), (4e-5, far)])
    report = detect_period(start, builtin_coin("grover"), 10)
    assert report.period is None and report.phase is None
    assert 1 - 1e-8 < max(report.fidelity_series) < 1 - 1e-10


def test_the_walks_norm_check_reads_the_norm_not_its_square():
    # off by 7e-10, within the 1e-9 tolerance; the squared norm, off by 1.4e-9, is not
    start = superpose([(1 + 7e-10, revival_state())])
    assert detect_period(start, builtin_coin("grover"), 4).period == 2


def test_any_mix_of_the_two_eigenstates_revives_with_period_two(rng):
    grover = builtin_coin("grover")
    plus, minus = grover_stationary_states()
    for _ in range(20):
        weight = rng.uniform(0.1**2, 1 - 0.1**2)
        alpha = math.sqrt(weight) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        beta = math.sqrt(1 - weight) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        mixed = superpose([(alpha, plus), (beta, minus)])
        assert detect_period(mixed, grover, 4).period == 2


def test_period_detection_ignores_global_phase():
    start = revival_state()
    rotated = superpose([(np.exp(0.73j), start)])
    a = detect_period(start, builtin_coin("grover"), 6)
    b = detect_period(rotated, builtin_coin("grover"), 6)
    assert a.period == b.period == 2
    np.testing.assert_allclose(a.fidelity_series, b.fidelity_series, atol=1e-14)


def test_detect_period_validates_input():
    grover = builtin_coin("grover")
    with pytest.raises(ValueError):
        detect_period(revival_state(), grover, 0)
    with pytest.raises(ValueError):
        detect_period(PositionState({(0, 0): (1, 1, 0, 0)}), grover, 5)
    for t_max in ("5", None, 5.0):
        with pytest.raises(ValueError, match="t_max"):
            detect_period(revival_state(), grover, t_max)
    assert detect_period(revival_state(), grover, np.int64(5)).period == 2


def test_revival_report_json():
    payload = detect_period(revival_state(), builtin_coin("grover"), 4).to_json_dict()
    assert set(payload) == {"period", "tolerance", "fidelity_series", "phase"}
    assert payload["period"] == 2
    assert payload["tolerance"] == 1e-10
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


def _line(sites):
    """A normalized random state on ``sites`` sites along m."""
    rng = np.random.default_rng(11)
    line = PositionState({(m, 3): rng.normal(size=4) + 1j * rng.normal(size=4)
                          for m in range(-sites // 2, sites - sites // 2)})
    return superpose([(1 / line.norm(), line)])


def _crop_cases():
    grover, hadamard4 = builtin_coin("grover"), builtin_coin("hadamard4")
    coins = {"grover": grover, "hadamard4": hadamard4, "dft4": builtin_coin("dft4"),
             "haar": random_coin(3)}
    # two clusters more than 2 * 40 + 1 sites apart walk in windows of their own
    clusters = PositionState({(0, 0): (0.5, 0.5j, 0, 0), (1, 1): (0, 0, 0.5, 0),
                              (90, -4): (0, 0, 0, 0.5j), (91, -3): (0, -0.5, 0, 0)})
    clusters = superpose([(1 / clusters.norm(), clusters)])
    # starts on the edge of the origin's light cone: the cut keeps one cell of
    # the walk's box per step, and a second one beside it, as no product may
    # be one column wide (BLAS's gemv path rounds apart)
    edges = {
        f"{name} from {component} at {point}, on the cone's edge":
            (make_basis_state(point, component), coin, 60)
        for point, component in (((60, 0), "L"), ((0, -60), "U"), ((30, 30), "L"))
        for name, coin in coins.items()
    }
    return {
        "grover from origin_symmetric": (origin_symmetric_state(), grover, 60),
        # a complex coin, cut like every other: the real product on its planes
        # rounds a cell alike wherever it sits in a box
        "haar, the complex path": (origin_symmetric_state(), random_coin(11), 60),
        "dft4 from origin_symmetric": (origin_symmetric_state(), builtin_coin("dft4"), 60),
        "hadamard4 from (30, -7), partly cut": (make_basis_state((30, -7), "U"), hadamard4, 50),
        "beyond reach": (make_basis_state((80, 0), "L"), grover, 60),
        "two windows": (clusters, hadamard4, 40),
        "a line in the (m, n) frame": (_line(60), grover, 20),
        **edges,
    }


@pytest.mark.parametrize("case", _crop_cases())
def test_the_scan_walking_the_origins_light_cone_equals_the_whole_walk(case):
    start, coin, t_max = _crop_cases()[case]
    series = return_probability_series(start, coin, t_max)
    assert series == list(detect_period(start, coin, t_max).return_probability)
    assert return_probability_series(start, coin, 0) == series[:1]


def test_the_line_case_walks_in_the_m_n_frame_and_the_clusters_in_two_windows():
    cases = _crop_cases()
    line, _, steps = cases["a line in the (m, n) frame"]
    assert [w.rotated for w in _to_windows(line, steps)] == [False]
    clusters, _, steps = cases["two windows"]
    assert len(_to_windows(clusters, steps)) == 2


@pytest.mark.parametrize("points", [[[7, -4]], [[7, -4], [-2, 5]], [[0, 9], [0, -9]]])
def test_a_walk_cut_to_the_light_cone_of_any_points_reads_them_as_the_whole_walk(points):
    # the scan reads the origin only; the cut takes any points, one or several
    start, coin, steps = make_basis_state((3, 1), "R"), builtin_coin("hadamard4"), 30
    points = np.array(points)
    cut = [_amplitudes(w, points) for w in _trajectory(start, coin, steps, points)]
    whole = [_amplitudes(w, points) for w in _trajectory(start, coin, steps)]
    assert len(cut) == len(whole) == steps + 1
    assert all((a == b).all() for a, b in zip(cut, whole))
    assert any(a.any() for a in cut)


def _cells_stepped(monkeypatch, scan, *args):
    """The cells that ``scan(*args)`` steps, summed over its steps."""
    cells = []
    original = dynamics._step_windows

    def counting_step(windows, coin):
        cells.append(sum(w.grid.size for w in windows))
        return original(windows, coin)

    monkeypatch.setattr(dynamics, "_step_windows", counting_step)
    scan(*args)
    monkeypatch.undo()
    return sum(cells)


def test_the_scan_steps_about_a_quarter_of_the_whole_walks_cells(monkeypatch):
    grover = builtin_coin("grover")
    start = origin_symmetric_state()
    cut = _cells_stepped(monkeypatch, return_probability_series, start, grover, 60)
    whole = _cells_stepped(monkeypatch, detect_period, start, grover, 60)
    assert 0 < cut <= 0.3 * whole  # 0.269 measured
    far = make_basis_state((80, 0), "L")
    assert _cells_stepped(monkeypatch, return_probability_series, far, grover, 60) == 0
    # every coin's scan is cut, the complex ones too
    for coin in (random_coin(11), builtin_coin("dft4")):
        cut = _cells_stepped(monkeypatch, return_probability_series, start, coin, 60)
        assert 0 < cut <= 0.3 * _cells_stepped(monkeypatch, detect_period, start, coin, 60)
