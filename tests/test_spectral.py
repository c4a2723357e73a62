"""Momentum propagator spectra, constant-eigenvalue detection, char poly."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwalk2d import (
    BUILTIN_COIN_NAMES,
    CoinOperator,
    builtin_coin,
    char_poly_profile,
    detect_constant_eigenvalues,
    momentum_propagator,
    dynamics,
    random_coin,
    spectral,
)
from qwalk2d import cli
from qwalk2d.cli import main

from conftest import permutation_coin

PERMUTATIONS = list(itertools.permutations(range(4)))


def phased(coin, theta):
    return CoinOperator(np.exp(1j * theta) * coin.matrix, name=f"{coin.name}*phase")


def eigvals_scan(coin, grid_size, tolerance):
    """Constant eigenvalues by brute force, the reference for the closed form.

    Candidates are the eigenvalues at one generic off-grid momentum,
    grouped when within ``tolerance``; a group's size is its multiplicity.
    A candidate is constant if every cell of the grid has an eigenvalue
    within ``tolerance`` of it.  The step matrices are built here from the
    definition Diag(e^{ik}, e^{-ik}, e^{il}, e^{-il}) C.
    Returns ``(constants, four_constant, pairing_ok)`` with ``constants``
    a list of ``(value, multiplicity)``.
    """

    def step_matrix(k, l):
        x, y = np.exp(1j * k), np.exp(1j * l)
        return np.diag([x, 1 / x, y, 1 / y]) @ coin.matrix

    groups = []
    for value in np.linalg.eigvals(step_matrix(np.pi / grid_size, 1.7 * np.pi / grid_size)):
        for group in groups:
            if abs(value - np.mean(group)) <= tolerance:
                group.append(value)
                break
        else:
            groups.append([value])
    momenta = 2 * np.pi * np.arange(grid_size) / grid_size
    grid = np.linalg.eigvals(np.array([[step_matrix(k, l) for l in momenta] for k in momenta]))
    constants = [
        (complex(np.mean(group)), len(group))
        for group in groups
        if np.abs(grid - np.mean(group)).min(axis=-1).max() <= tolerance
    ]
    values = [v for v, _ in constants]
    pairing_ok = all(any(abs(v + w) <= tolerance for w in values) for v in values)
    return constants, sum(m for _, m in constants) == 4, pairing_ok


def assert_matches_eigvals_scan(coin, grid_size, tolerance=1e-8):
    report = detect_constant_eigenvalues(coin, grid_size, tolerance)
    constants, four_constant, pairing_ok = eigvals_scan(coin, grid_size, tolerance)
    assert len(report.constants) == len(constants)
    nearest = []
    for found in report.constants:
        distances = [abs(v - found.value) for v, _ in constants]
        nearest.append(int(np.argmin(distances)))
        assert distances[nearest[-1]] <= 1e-10
        assert constants[nearest[-1]][1] == found.multiplicity
        assert found.max_residual <= tolerance
    assert len(set(nearest)) == len(nearest)
    assert report.four_constant == four_constant
    assert report.pairing_ok == pairing_ok
    return report


# ------------------------------------------------------ momentum propagator


def test_propagator_at_zero_momentum_is_the_coin():
    g = builtin_coin("grover")
    np.testing.assert_array_equal(momentum_propagator(g, (0.0, 0.0)), g.matrix)


def test_propagator_at_k_pi_negates_horizontal_rows():
    g = builtin_coin("grover")
    expected = g.matrix.copy()
    expected[0] *= -1
    expected[1] *= -1
    np.testing.assert_allclose(momentum_propagator(g, (np.pi, 0.0)), expected, atol=1e-15)


def test_propagator_determinant_equals_coin_determinant(rng):
    for _ in range(10):
        coin = random_coin(rng)
        p = tuple(2 * np.pi * rng.random(2))
        assert abs(
            np.linalg.det(momentum_propagator(coin, p)) - np.linalg.det(coin.matrix)
        ) < 1e-12


@pytest.mark.parametrize("momentum", [(np.nan, 0.0), (0.0, np.inf), (1.0, 2.0, 3.0)])
def test_propagator_rejects_a_momentum_that_is_not_two_finite_reals(momentum):
    with pytest.raises(ValueError, match="two finite reals"):
        momentum_propagator(builtin_coin("grover"), momentum)


def test_propagator_is_unitary(rng):
    coin = random_coin(rng)
    u = momentum_propagator(coin, (0.3, 5.1))
    np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-13)


def test_eigensystem_of_grover_coin():
    # the Grover coin J/2 - I has spectrum {1, -1, -1, -1}, uniform vector fixed
    values, vectors = np.linalg.eig(builtin_coin("grover").matrix)
    order = np.argsort(-values.real)
    values, vectors = values[order], vectors[:, order]
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(values[1:], [-1, -1, -1], atol=1e-12)
    np.testing.assert_allclose(np.abs(vectors[:, 0]), 0.5 * np.ones(4), atol=1e-12)
    for i in range(4):
        assert np.linalg.norm(vectors[:, i]) == pytest.approx(1.0, abs=1e-12)


def test_grover_propagator_spectrum_always_contains_plus_minus_one(rng):
    g = builtin_coin("grover")
    for _ in range(20):
        values = np.linalg.eigvals(momentum_propagator(g, tuple(2 * np.pi * rng.random(2))))
        assert np.abs(values - 1).min() < 1e-12
        assert np.abs(values + 1).min() < 1e-12


# ------------------------------------------------- constant-eigenvalue scan


def test_grover_scan_finds_exactly_plus_and_minus_one():
    report = detect_constant_eigenvalues(builtin_coin("grover"), 64, 1e-8)
    values = sorted(report.values(), key=lambda v: v.real)
    assert len(values) == 2
    assert values[0] == pytest.approx(-1.0, abs=1e-12)
    assert values[1] == pytest.approx(1.0, abs=1e-12)
    assert report.pairing_ok
    assert not report.four_constant
    assert all(c.max_residual < 1e-12 for c in report.constants)


def test_hadamard4_scan_is_empty():
    report = detect_constant_eigenvalues(builtin_coin("hadamard4"), 64, 1e-8)
    assert report.constants == ()
    assert report.pairing_ok  # vacuously


def test_swap_scan_reports_all_four_constant():
    report = detect_constant_eigenvalues(builtin_coin("swap"), 64, 1e-8)
    assert len(report.constants) == 2
    assert sorted(c.multiplicity for c in report.constants) == [2, 2]
    assert report.four_constant
    assert report.pairing_ok


def test_scan_validates_grid_and_tolerance():
    g = builtin_coin("grover")
    with pytest.raises(ValueError):
        detect_constant_eigenvalues(g, 7, 1e-8)
    with pytest.raises(ValueError):
        detect_constant_eigenvalues(g, 16, 1e-13)
    with pytest.raises(ValueError):
        detect_constant_eigenvalues(g, 16, 1e-3)
    for grid in (8.5, 16.0, "16", None):
        with pytest.raises(ValueError, match="grid_size"):
            detect_constant_eigenvalues(g, grid, 1e-8)
    for tolerance in ("x", "1e-8", None, 1e-8j, float("nan")):
        with pytest.raises(ValueError, match="tolerance"):
            detect_constant_eigenvalues(g, 16, tolerance)
    # numpy integers and floats still pass
    report = detect_constant_eigenvalues(g, np.int64(16), np.float64(1e-8))
    assert report.profile.grid_size == 16 and len(report.constants) == 2


def test_scan_is_covariant_under_global_phase():
    g = builtin_coin("grover")
    base = detect_constant_eigenvalues(g, 16, 1e-8)
    for theta in (0.3, 1.1, 2.5):
        report = detect_constant_eigenvalues(phased(g, theta), 16, 1e-8)
        expected = sorted(np.exp(1j * theta) * np.array(base.values()), key=np.angle)
        got = sorted(report.values(), key=np.angle)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert abs(a - b) <= 1e-8
        assert report.pairing_ok


def test_detected_constants_always_come_in_opposite_pairs():
    coins = [builtin_coin("grover"), builtin_coin("swap")]
    coins += [phased(builtin_coin("grover"), th) for th in (0.3, 1.1, 2.5)]
    for coin in coins:
        report = detect_constant_eigenvalues(coin, 16, 1e-8)
        assert report.constants
        assert report.pairing_ok


def test_number_of_constants_is_never_three(rng):
    coins = [builtin_coin(name) for name in ("grover", "hadamard4", "dft4", "swap")]
    coins += [phased(builtin_coin("grover"), th) for th in (0.3, 1.1, 2.5)]
    coins += [random_coin(rng) for _ in range(20)]
    for coin in coins:
        assert len(detect_constant_eigenvalues(coin, 16, 1e-8).constants) != 3


def test_closed_form_matches_the_eigvals_scan_on_every_permutation_coin():
    rng = np.random.default_rng(2004)
    found = set()
    for perm in PERMUTATIONS:
        for grid_size in (8, 24):
            coin = permutation_coin(perm, np.exp(2j * np.pi * rng.random(4)))
            found.add(len(assert_matches_eigvals_scan(coin, grid_size).constants))
    assert found == {0, 2, 4}


def test_candidates_that_are_eigenvalues_on_whole_grid_lines_are_rejected():
    # Hadamard on the R/L pair (or U/D pair) gives eigenvalues +-1 wherever
    # k (or l) is 0 or pi, and the quadratic offers exactly +-1 as
    # candidates; they are not constant, and only the whole grid shows it
    rng = np.random.default_rng(52)
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    for _ in range(3):
        block, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        for first, second, axis in ((hadamard, block, 0), (block, hadamard, 1)):
            matrix = np.zeros((4, 4), dtype=complex)
            matrix[:2, :2], matrix[2:, 2:] = first, second
            coin = CoinOperator(matrix)
            momentum = np.zeros(2)
            momentum[1 - axis] = 2 * np.pi * rng.random()
            on_line = np.linalg.eigvals(momentum_propagator(coin, momentum))
            assert min(abs(on_line - 1).min(), abs(on_line + 1).min()) <= 1e-12
            assert assert_matches_eigvals_scan(coin, 16).constants == ()


def test_double_root_with_a_nonzero_diagonal_gives_simple_constants():
    # Hadamard on R/L, swap on U/D: mu = 1 is a double root of the quadratic,
    # but only the swap block's +-1 stay put, so each is simple
    matrix = np.zeros((4, 4))
    matrix[:2, :2] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    matrix[2:, 2:] = [[0, 1], [1, 0]]
    report = assert_matches_eigvals_scan(CoinOperator(matrix), 16)
    assert [c.multiplicity for c in report.constants] == [1, 1]
    assert not report.four_constant


@pytest.mark.parametrize("tolerance", [1e-4, 1e-8, 1e-12])
@pytest.mark.parametrize("epsilon", [1e-3, 1e-5, 1e-7, 1e-9, 1e-10, 1e-13])
def test_closed_form_matches_the_eigvals_scan_near_a_double_root(epsilon, tolerance):
    # The swap coin with C_DU = e^{i eps} has the constants +-1 and
    # +-e^{i eps/2}: four simple ones while eps/2 exceeds the tolerance,
    # two double ones below.  With Hadamard on R/L in place of the swap
    # only +-e^{i eps/2} stay put, at any eps.  The quadratic at 1 then
    # has a discriminant of -eps^2, so deciding on it misplaces both.
    phase = np.exp(1j * epsilon)
    swap = permutation_coin((1, 0, 3, 2), (1, 1, phase, 1))
    assert_matches_eigvals_scan(swap, 16, tolerance)
    matrix = swap.matrix.copy()
    matrix[:2, :2] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    report = assert_matches_eigvals_scan(CoinOperator(matrix), 16, tolerance)
    assert np.allclose(report.values(), [np.exp(0.5j * epsilon), -np.exp(0.5j * epsilon)],
                       rtol=0, atol=1e-14)


@pytest.mark.parametrize("tolerance", [1e-8, 1e-12])
def test_a_phased_swap_has_two_double_constants_at_any_tolerance(tolerance):
    # e^{i phi} swap has constants +-e^{i phi}, each double; rounding in
    # det C splits the quadratic's double root by about 1e-8
    for phi in (0.3, 1.1, 2.9):
        report = assert_matches_eigvals_scan(phased(builtin_coin("swap"), phi), 16, tolerance)
        assert [c.multiplicity for c in report.constants] == [2, 2]
        assert report.four_constant


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(("permutation", "conjugated", "phased", "haar")),
    perm=st.sampled_from(PERMUTATIONS),
    seed=st.integers(0, 2**32 - 1),
    grid_size=st.integers(8, 24),
)
def test_closed_form_matches_the_eigvals_scan(kind, perm, seed, grid_size):
    rng = np.random.default_rng(seed)
    grover = builtin_coin("grover")
    if kind == "permutation":
        coin = permutation_coin(perm, np.exp(2j * np.pi * rng.random(4)))
    elif kind == "conjugated":
        p = np.diag(np.exp(2j * np.pi * rng.random(4)))
        coin = CoinOperator(p @ grover.matrix @ p.conj())
    elif kind == "phased":
        coin = phased(grover, 2 * np.pi * rng.random())
    else:
        coin = random_coin(rng)
    assert_matches_eigvals_scan(coin, grid_size)


def test_detection_runs_no_eigensolve_and_spectrum_builds_no_symbol(
    monkeypatch, tmp_path, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve or einsum on the detection path")

    monkeypatch.setattr(spectral.np.linalg, "eigvals", refuse)
    monkeypatch.setattr(spectral.np.linalg, "eig", refuse)
    monkeypatch.setattr(spectral.np, "einsum", refuse)
    builds = []
    symbol = dynamics._momentum_symbol
    for module in (spectral, dynamics):
        monkeypatch.setattr(
            module, "_momentum_symbol", lambda *args: builds.append(args) or symbol(*args)
        )
    for name in ("grover", "swap", "hadamard4"):
        detect_constant_eigenvalues(builtin_coin(name), 32, 1e-8)
    detections = []
    detect = cli.detect_constant_eigenvalues
    monkeypatch.setattr(
        cli, "detect_constant_eigenvalues", lambda *args: detections.append(args) or detect(*args)
    )
    assert main(["spectrum", "--coin", "grover", "--grid", "32", "--out", str(tmp_path)]) == 0
    assert "constants=2" in capsys.readouterr().out
    assert builds == []
    assert len(detections) == 1


@pytest.mark.parametrize("name", ["grover", "swap", "hadamard4"])
def test_spectrum_json_is_the_report_dict(name, tmp_path):
    assert main(["spectrum", "--coin", name, "--grid", "16", "--out", str(tmp_path)]) == 0
    report = detect_constant_eigenvalues(builtin_coin(name), 16, 1e-8)
    expected = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "spectrum.json").read_text(encoding="utf-8") == expected


# ------------------------------------------------------ char poly profile


def test_grover_charpoly_has_constant_coefficients():
    profile = char_poly_profile(builtin_coin("grover"), 32)
    assert profile.c_zero
    assert profile.e2_variance <= 1e-10
    assert profile.det_coin == pytest.approx(-1.0, abs=1e-13)


def test_hadamard4_charpoly_coefficient_fluctuates():
    profile = char_poly_profile(builtin_coin("hadamard4"), 32)
    assert not profile.c_zero
    assert profile.e2_variance > 1e-4


def test_determinant_is_constant_over_grid_for_any_coin(rng):
    momenta = 2 * np.pi * np.arange(32) / 32
    for _ in range(5):
        coin = random_coin(rng)
        profile = char_poly_profile(coin, 32)
        symbol = spectral._momentum_symbol(coin, momenta, momenta)
        dets = np.linalg.det(np.moveaxis(symbol, (0, 1), (-2, -1)))
        assert np.abs(dets - profile.det_coin).max() <= 1e-12


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), grid_size=st.integers(8, 24), data=st.data())
def test_closed_form_charpoly_matches_eigenvalues(seed, grid_size, data):
    coin = random_coin(np.random.default_rng(seed))
    profile = char_poly_profile(coin, grid_size)
    i = data.draw(st.integers(0, grid_size - 1))
    j = data.draw(st.integers(0, grid_size - 1))
    momentum = (2 * np.pi * i / grid_size, 2 * np.pi * j / grid_size)
    # np.poly gives (1, -e1, e2, -e3, e4) from the four eigenvalues
    expected = np.poly(np.linalg.eigvals(momentum_propagator(coin, momentum)))[1:]
    e1, det_coin = profile.e1[i, j], profile.det_coin
    closed = [-e1, profile.e2[i, j], -det_coin * np.conj(e1), det_coin]
    np.testing.assert_allclose(closed, expected, rtol=0, atol=1e-12)


def trace_profile(coin, grid_size):
    """e1 and e2 from traces of the step matrices, the reference for the closed form."""
    momenta = 2 * np.pi * np.arange(grid_size) / grid_size
    symbol = spectral._momentum_symbol(coin, momenta, momenta)
    e1 = np.trace(symbol)
    return e1, (e1**2 - np.einsum("ij...,ji...->...", symbol, symbol)) / 2


@pytest.mark.parametrize("grid_size", [8, 15, 64])
@pytest.mark.parametrize("name", [*BUILTIN_COIN_NAMES, *(f"haar{seed}" for seed in range(10))])
def test_closed_form_profile_equals_the_trace_formulas(name, grid_size):
    if name.startswith("haar"):
        coin = random_coin(np.random.default_rng(int(name[4:])))
    else:
        coin = builtin_coin(name)
    profile = char_poly_profile(coin, grid_size)
    e1, e2 = trace_profile(coin, grid_size)
    assert profile.e1.shape == profile.e2.shape == (grid_size, grid_size)
    assert np.abs(profile.e1 - e1).max() <= 1e-13
    assert np.abs(profile.e2 - e2).max() <= 1e-13


@pytest.mark.parametrize("grid_size", [8, 15, 256])
def test_grover_and_swap_have_an_exactly_constant_e2(grid_size):
    # their minors across the axes are exactly 0, so e2 is the constant alone
    for name in ("grover", "swap"):
        assert char_poly_profile(builtin_coin(name), grid_size).e2_variance == 0.0


def test_detection_at_grid_256_peaks_below_6_mib():
    coin = random_coin(3)
    tracemalloc.start()
    try:
        detect_constant_eigenvalues(coin, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (4, 4, 256, 256) symbol alone is 16 MiB; e1, e2 and p are 1 MiB each
    assert peak <= 6 * 2**20


def test_detected_constants_imply_constant_lambda2_coefficient():
    for coin in (
        builtin_coin("grover"),
        builtin_coin("swap"),
        phased(builtin_coin("grover"), 1.1),
    ):
        assert detect_constant_eigenvalues(coin, 16, 1e-8).constants
        assert char_poly_profile(coin, 16).c_zero


def test_charpoly_validates_grid():
    with pytest.raises(ValueError):
        char_poly_profile(builtin_coin("grover"), 4)
    for grid in (8.5, "16", None):
        with pytest.raises(ValueError, match="grid_size"):
            char_poly_profile(builtin_coin("grover"), grid)
    assert char_poly_profile(builtin_coin("grover"), np.int32(8)).e1.shape == (8, 8)


def test_charpoly_json_fields():
    payload = char_poly_profile(builtin_coin("grover"), 16).to_json_dict()
    assert payload["c_zero"] is True
    assert payload["det_coin"] == pytest.approx({"re": -1.0, "im": 0.0}, abs=1e-13)
    assert payload["grid_size"] == 16


def test_a_spectrum_command_computes_the_e2_variance_once(monkeypatch, tmp_path):
    calls = []
    variance = spectral._complex_variance
    monkeypatch.setattr(spectral, "_complex_variance", lambda v: calls.append(1) or variance(v))
    assert main(["spectrum", "--coin", "hadamard4", "--grid", "16", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["e2_variance"] == variance(char_poly_profile(builtin_coin("hadamard4"), 16).e2)
    assert payload["c_zero"] is False
    assert len(calls) == 1


def test_spectrum_report_json_fields():
    payload = detect_constant_eigenvalues(builtin_coin("grover"), 16, 1e-8).to_json_dict()
    assert payload.keys() == {
        "c_zero", "constants", "det_coin", "e2_variance",
        "four_constant", "grid_size", "pairing_ok", "tolerance",
    }
    assert payload["grid_size"] == 16
    assert payload["tolerance"] == 1e-8
    assert payload["c_zero"] is True
    assert payload["det_coin"] == pytest.approx({"re": -1.0, "im": 0.0}, abs=1e-13)
    assert payload["e2_variance"] <= 1e-10
    assert payload["pairing_ok"] is True
    assert payload["four_constant"] is False
    res = sorted(payload["constants"], key=lambda c: c["re"])
    assert res[0]["re"] == pytest.approx(-1.0, abs=1e-12)
    assert res[1]["re"] == pytest.approx(1.0, abs=1e-12)


def test_reports_store_a_numpy_tolerance_as_a_float():
    report = detect_constant_eigenvalues(builtin_coin("grover"), 16, np.float32(1e-8))
    assert type(report.tolerance) is float
    assert json.loads(json.dumps(report.to_json_dict()))["tolerance"] == report.tolerance


# -------------------------------------------- closed-form Grover eigenvectors


def grover_constant_eigenvectors(momentum):
    """Non-normalized (v_plus, v_minus) with U v_plus = v_plus, U v_minus = -v_minus.

    Each vanishes where its branch closes: v_plus at k = l = pi, v_minus at
    k = l = 0.
    """
    k, l = momentum
    x, y = np.exp(1j * k), np.exp(1j * l)
    v_plus = np.array([x * (1 + y), 1 + y, y * (1 + x), 1 + x])
    v_minus = np.array([x * (1 - y), -1 + y, y * (1 - x), -1 + x])
    return v_plus, v_minus


def test_closed_form_vectors_at_corner_momenta():
    v_plus, v_minus = grover_constant_eigenvectors((0.0, 0.0))
    np.testing.assert_allclose(v_plus, 2 * np.ones(4), atol=1e-15)
    np.testing.assert_allclose(v_minus, np.zeros(4), atol=1e-15)

    v_plus, v_minus = grover_constant_eigenvectors((np.pi, np.pi))
    np.testing.assert_allclose(v_plus, np.zeros(4), atol=1e-15)
    np.testing.assert_allclose(v_minus, -2 * np.ones(4), atol=1e-15)


def test_closed_form_vectors_satisfy_eigen_equations(rng):
    g = builtin_coin("grover")
    for _ in range(100):
        p = tuple(2 * np.pi * rng.random(2))
        u = momentum_propagator(g, p)
        v_plus, v_minus = grover_constant_eigenvectors(p)
        assert np.linalg.norm(u @ v_plus - v_plus) <= 1e-12
        assert np.linalg.norm(u @ v_minus + v_minus) <= 1e-12
