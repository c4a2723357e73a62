"""Momentum propagator spectra, constant-eigenvalue detection, char poly."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwalk2d import (
    CoinOperator,
    builtin_coin,
    char_poly_profile,
    detect_constant_eigenvalues,
    eigensystem,
    grover_constant_eigenvectors,
    momentum_propagator,
    random_coin,
)


def phased(coin, theta):
    return CoinOperator(np.exp(1j * theta) * coin.matrix, name=f"{coin.name}*phase")


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


def test_propagator_is_unitary(rng):
    coin = random_coin(rng)
    u = momentum_propagator(coin, (0.3, 5.1))
    np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-13)


# ---------------------------------------------------------------- eigensystem


def test_eigensystem_of_grover_coin():
    values, vectors = eigensystem(builtin_coin("grover").matrix)
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(values[1:], [-1, -1, -1], atol=1e-12)
    for i in range(4):
        assert np.linalg.norm(vectors[:, i]) == pytest.approx(1.0, abs=1e-12)


def test_eigensystem_of_identity():
    values, _ = eigensystem(np.eye(4))
    np.testing.assert_allclose(values, np.ones(4), atol=1e-15)


def test_grover_propagator_spectrum_always_contains_plus_minus_one(rng):
    g = builtin_coin("grover")
    for _ in range(20):
        values, _ = eigensystem(momentum_propagator(g, tuple(2 * np.pi * rng.random(2))))
        assert np.abs(values - 1).min() < 1e-12
        assert np.abs(values + 1).min() < 1e-12


def test_eigensystem_residuals_and_ordering(rng):
    for _ in range(10):
        matrix = momentum_propagator(random_coin(rng), tuple(2 * np.pi * rng.random(2)))
        values, vectors = eigensystem(matrix)
        for i in range(4):
            assert np.linalg.norm(matrix @ vectors[:, i] - values[i] * vectors[:, i]) < 1e-10
        angles = np.mod(np.angle(values), 2 * np.pi)
        assert np.all(np.diff(angles) >= -1e-15)
        np.testing.assert_allclose(np.abs(values), np.ones(4), atol=1e-10)


def test_eigensystem_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        eigensystem(builtin_coin("grover").matrix + 0.1)


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


# ------------------------------------------------------ char poly profile


def test_grover_charpoly_has_constant_coefficients():
    profile = char_poly_profile(builtin_coin("grover"), 32)
    assert profile.c_zero
    assert profile.e2_variance <= 1e-10
    assert profile.det_coin == pytest.approx(-1.0, abs=1e-13)
    assert np.abs(profile.e4 - profile.det_coin).max() <= 1e-12


def test_hadamard4_charpoly_coefficient_fluctuates():
    profile = char_poly_profile(builtin_coin("hadamard4"), 32)
    assert not profile.c_zero
    assert profile.e2_variance > 1e-4


def test_determinant_is_constant_over_grid_for_any_coin(rng):
    for _ in range(5):
        coin = random_coin(rng)
        profile = char_poly_profile(coin, 32)
        assert np.abs(profile.e4 - profile.det_coin).max() <= 1e-12


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
    closed = [-profile.e1[i, j], profile.e2[i, j], -profile.e3[i, j], profile.e4[i, j]]
    np.testing.assert_allclose(closed, expected, rtol=0, atol=1e-12)


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


def test_charpoly_json_fields():
    payload = char_poly_profile(builtin_coin("grover"), 16).to_json_dict()
    assert payload["c_zero"] is True
    assert payload["det_coin"] == pytest.approx({"re": -1.0, "im": 0.0}, abs=1e-13)
    assert payload["grid_size"] == 16


def test_spectrum_report_json_fields():
    payload = detect_constant_eigenvalues(builtin_coin("grover"), 16, 1e-8).to_json_dict()
    assert payload["grid_size"] == 16
    assert payload["tolerance"] == 1e-8
    assert payload["pairing_ok"] is True
    assert payload["four_constant"] is False
    res = sorted(payload["constants"], key=lambda c: c["re"])
    assert res[0]["re"] == pytest.approx(-1.0, abs=1e-12)
    assert res[1]["re"] == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------- closed-form Grover eigenvectors


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
