"""Coins, the walk step, direct evolution, and the momentum-picture path."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwalk2d import (
    CoinComponent,
    CoinError,
    CoinOperator,
    PositionState,
    apply_coin,
    apply_shift,
    builtin_coin,
    evolve,
    evolve_momentum,
    fidelity,
    inner_product,
    load_coin,
    make_basis_state,
    random_coin,
    step,
    superpose,
)
from qwalk2d.revival import grover_stationary_states, revival_state

from conftest import amp_diff, random_state

GROVER_ENTRIES = 0.5 * np.ones((4, 4)) - np.eye(4)


def _write_coin_file(path, matrix):
    lines = []
    for row in np.asarray(matrix, dtype=complex):
        lines.append(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------- coins


def test_grover_coin_rows_sum_to_one():
    g = builtin_coin("grover").matrix
    np.testing.assert_allclose(g.sum(axis=1), np.ones(4), atol=1e-15)
    np.testing.assert_array_equal(g.real, GROVER_ENTRIES)


def test_grover_coin_is_an_involution():
    g = builtin_coin("grover").matrix
    np.testing.assert_allclose(g @ g, np.eye(4), atol=1e-15)


def test_swap_coin_exchanges_r_and_l():
    swapped = apply_coin(make_basis_state((0, 0), CoinComponent.R), builtin_coin("swap"))
    assert amp_diff(swapped, make_basis_state((0, 0), CoinComponent.L)) == 0.0


def test_hadamard4_is_tensor_square_of_hadamard():
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    np.testing.assert_allclose(builtin_coin("hadamard4").matrix, np.kron(h, h), atol=1e-15)


def test_dft4_entries():
    f = builtin_coin("dft4").matrix
    omega = 1j
    for j in range(4):
        for k in range(4):
            assert f[j, k] == omega ** ((j * k) % 4) / 2


def test_unknown_builtin_coin_raises():
    with pytest.raises(ValueError):
        builtin_coin("grover5")


def test_coin_operator_rejects_non_unitary():
    bad = 0.5 * np.ones((4, 4))  # grover with the diagonal sign flipped to +
    with pytest.raises(CoinError, match="not unitary"):
        CoinOperator(bad)


def test_load_coin_roundtrips_grover(tmp_path):
    path = tmp_path / "grover.coin"
    _write_coin_file(path, GROVER_ENTRIES)
    loaded = load_coin(path)
    np.testing.assert_array_equal(loaded.matrix, builtin_coin("grover").matrix)


def test_load_coin_reports_unitarity_deviation(tmp_path):
    path = tmp_path / "bad.coin"
    _write_coin_file(path, 0.5 * np.ones((4, 4)))
    with pytest.raises(CoinError, match=r"max \|C\^dag C - I\|"):
        load_coin(path)


def test_load_coin_rejects_malformed_file(tmp_path):
    path = tmp_path / "short.coin"
    path.write_text("1 0 0 0\n0 1 0 0\n")
    with pytest.raises(CoinError, match="expected 4"):
        load_coin(path)


def test_identity_coin_file_is_valid(tmp_path):
    path = tmp_path / "identity.coin"
    _write_coin_file(path, np.eye(4))
    np.testing.assert_array_equal(load_coin(path).matrix, np.eye(4))


def test_identity_coin_walk_separates_into_ballistic_streams():
    start = PositionState({(0, 0): (0.5, 0.5, 0.5, 0.5)})
    out = evolve(start, CoinOperator(np.eye(4)), 3)
    assert out.distribution() == pytest.approx(
        {(3, 0): 0.25, (-3, 0): 0.25, (0, 3): 0.25, (0, -3): 0.25}
    )


def test_random_coin_is_unitary(rng):
    c = random_coin(rng).matrix
    np.testing.assert_allclose(c.conj().T @ c, np.eye(4), atol=1e-13)


# ------------------------------------------------- coin flip and shift


def test_grover_flip_swaps_paired_components():
    c = 1 / math.sqrt(2)
    state = PositionState({(0, 0): (c, 0, c, 0)})  # R + U
    flipped = apply_coin(state, builtin_coin("grover"))
    assert amp_diff(flipped, PositionState({(0, 0): (0, c, 0, c)})) < 1e-16


def test_grover_flip_of_single_component_gives_first_column():
    flipped = apply_coin(make_basis_state((0, 0), CoinComponent.R), builtin_coin("grover"))
    np.testing.assert_array_equal(flipped.amplitude((0, 0)), [-0.5, 0.5, 0.5, 0.5])


def test_identity_coin_is_noop(rng):
    state = random_state(rng)
    assert apply_coin(state, CoinOperator(np.eye(4))) == state


def test_shift_moves_each_component_one_site():
    assert apply_shift(make_basis_state((0, 0), CoinComponent.R)) == make_basis_state(
        (1, 0), CoinComponent.R
    )
    assert apply_shift(make_basis_state((0, 0), CoinComponent.D)) == make_basis_state(
        (0, -1), CoinComponent.D
    )


def test_shift_preserves_norm_of_superposition():
    c = 1 / math.sqrt(2)
    state = PositionState({(0, 0): (c, c, 0, 0)})
    shifted = apply_shift(state)
    assert shifted.norm() == pytest.approx(1.0, abs=1e-15)
    assert shifted.points == [(-1, 0), (1, 0)]


# ------------------------------------------------------------- one step


def test_step_fixes_first_stationary_state():
    plus, _ = grover_stationary_states()
    assert step(plus, builtin_coin("grover")) == plus


def test_step_negates_second_stationary_state():
    _, minus = grover_stationary_states()
    after = step(minus, builtin_coin("grover"))
    assert fidelity(after, minus) == pytest.approx(1.0, abs=1e-14)
    assert inner_product(minus, after) == pytest.approx(-1.0, abs=1e-14)


def test_step_advances_revival_state_to_partner():
    partner = PositionState({(0, 0): (0, 0.5, 0, 0.5), (1, 1): (0.5, 0, 0.5, 0)})
    assert amp_diff(step(revival_state(), builtin_coin("grover")), partner) < 1e-16


def test_evolve_two_steps_revives():
    start = revival_state()
    assert fidelity(evolve(start, builtin_coin("grover"), 2), start) == pytest.approx(
        1.0, abs=1e-14
    )


def test_evolve_zero_steps_is_identity(rng):
    state = random_state(rng)
    assert evolve(state, builtin_coin("grover"), 0) == state


def test_evolve_rejects_negative_step_count():
    with pytest.raises(ValueError):
        evolve(revival_state(), builtin_coin("grover"), -1)


def test_single_step_from_basis_state_by_hand():
    # coin column for R is (-1, 1, 1, 1)/2; the shift then fans it out
    after = step(make_basis_state((0, 0), CoinComponent.R), builtin_coin("grover"))
    expected = PositionState(
        {
            (1, 0): (-0.5, 0, 0, 0),
            (-1, 0): (0, 0.5, 0, 0),
            (0, 1): (0, 0, 0.5, 0),
            (0, -1): (0, 0, 0, 0.5),
        }
    )
    assert after == expected


# ------------------------------------------------------------ invariants


def test_step_preserves_norm_for_every_builtin_coin(rng):
    state = random_state(rng, n_sites=6)
    for name in ("grover", "hadamard4", "dft4", "swap"):
        stepped = step(state, builtin_coin(name))
        assert abs(stepped.norm() - state.norm()) < 1e-14


def test_norm_drift_over_thousand_steps_is_negligible():
    plus, _ = grover_stationary_states()
    assert abs(evolve(plus, builtin_coin("grover"), 1000).norm() - 1.0) < 1e-10


def test_step_commutes_with_translation_exactly(rng):
    coin = builtin_coin("grover")
    state = random_state(rng)
    for _ in range(5):
        v = (int(rng.integers(-30, 30)), int(rng.integers(-30, 30)))
        assert step(state.translate(v), coin) == step(state, coin).translate(v)


def test_step_is_linear(rng):
    coin = builtin_coin("dft4")
    states = [random_state(rng, n_sites=5) for _ in range(3)]
    coeffs = [complex(rng.normal(), rng.normal()) for _ in range(3)]
    lhs = step(superpose(list(zip(coeffs, states))), coin)
    rhs = superpose([(c, step(s, coin)) for c, s in zip(coeffs, states)])
    assert amp_diff(lhs, rhs) < 1e-13


def test_step_rejects_sites_past_the_coordinate_limit():
    # the identity coin sends each component straight off the edge it sits on
    identity = CoinOperator(np.eye(4))
    edge = 2**30 - 1
    for point, component in (((edge, 0), "R"), ((-edge, 0), "L"),
                              ((0, edge), "U"), ((0, -edge), "D")):
        with pytest.raises(ValueError, match="coordinates"):
            step(make_basis_state(point, component), identity)
    inward = step(make_basis_state((edge, 0), "L"), identity)
    assert inward.points == [(edge - 1, 0)]


def _random_input(seed, points):
    """A Haar coin and a normalized state on ``points``, both from ``seed``."""
    rng = np.random.default_rng(seed)
    coin = random_coin(rng)
    state = PositionState(
        {p: rng.normal(size=4) + 1j * rng.normal(size=4) for p in sorted(points)}
    )
    return coin, superpose([(1.0 / state.norm(), state)])


_SEEDS = st.integers(0, 2**32 - 1)
_POINTS = st.sets(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=8)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(seed=_SEEDS, points=_POINTS)
def test_step_keeps_the_norm_for_random_coins(seed, points):
    coin, state = _random_input(seed, points)
    assert abs(step(state, coin).norm() - 1.0) < 1e-12


@settings(max_examples=50, derandomize=True, deadline=None)
@given(seed=_SEEDS, points=_POINTS, other=_POINTS,
       a=st.complex_numbers(max_magnitude=10), b=st.complex_numbers(max_magnitude=10))
def test_step_is_linear_for_random_coins(seed, points, other, a, b):
    coin, x = _random_input(seed, points)
    _, y = _random_input(seed + 1, other)
    lhs = step(superpose([(a, x), (b, y)]), coin)
    rhs = superpose([(a, step(x, coin)), (b, step(y, coin))])
    assert amp_diff(lhs, rhs) <= 1e-12 * (1 + abs(a) + abs(b))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(seed=_SEEDS, points=_POINTS,
       offset=st.tuples(st.integers(-(2**29), 2**29), st.integers(-(2**29), 2**29)))
def test_step_commutes_with_translate_for_random_coins(seed, points, offset):
    coin, state = _random_input(seed, points)
    assert step(state.translate(offset), coin) == step(state, coin).translate(offset)


def test_support_stays_on_parity_diamond():
    state = make_basis_state((0, 0), CoinComponent.U)
    coin = builtin_coin("grover")
    for t in range(1, 8):
        state = step(state, coin)
        for m, n in state.points:
            assert abs(m) + abs(n) <= t
            assert (m + n - t) % 2 == 0


# ------------------------------------------------------- momentum picture


def test_momentum_matches_direct_for_revival_state():
    coin = builtin_coin("grover")
    start = revival_state()
    direct = evolve(start, coin, 50)
    via_momentum = evolve_momentum(start, coin, 50, 128)
    assert amp_diff(direct, via_momentum) < 1e-9


@pytest.mark.parametrize("name", ["grover", "hadamard4", "dft4", "swap"])
def test_momentum_matches_direct_for_random_states(name, rng):
    coin = builtin_coin(name)
    state = random_state(rng, n_sites=8, span=4)
    direct = evolve(state, coin, 50)
    via_momentum = evolve_momentum(state, coin, 50, 128)
    assert amp_diff(direct, via_momentum) < 1e-9


def test_momentum_zero_steps_roundtrips_within_fft_error(rng):
    state = random_state(rng)
    out = evolve_momentum(state, builtin_coin("grover"), 0, 64)
    assert amp_diff(state, out) < 1e-13


def test_momentum_single_step_pins_the_sign_convention(rng):
    # one step through the transform must agree with the direct step for a
    # generic coin and state; this freezes the momentum-phase signs
    coin = random_coin(rng)
    state = random_state(rng, n_sites=3, span=2)
    assert amp_diff(step(state, coin), evolve_momentum(state, coin, 1, 32)) < 1e-12


def test_momentum_ballistic_stream_with_identity_coin():
    out = evolve_momentum(make_basis_state((0, 0), CoinComponent.R), CoinOperator(np.eye(4)), 5, 32)
    assert out.points == [(5, 0)]
    assert out.amplitude((5, 0))[0] == pytest.approx(1.0, abs=1e-13)


def test_momentum_rejects_odd_box():
    with pytest.raises(ValueError):
        evolve_momentum(revival_state(), builtin_coin("grover"), 3, 33)


def test_momentum_rejects_support_exceeding_box():
    wide = superpose(
        [
            (1 / math.sqrt(2), make_basis_state((0, 0), CoinComponent.R)),
            (1 / math.sqrt(2), make_basis_state((40, 0), CoinComponent.R)),
        ]
    )
    with pytest.raises(ValueError, match="exceed"):
        evolve_momentum(wide, builtin_coin("grover"), 1, 16)


def test_evolve_momentum_validation():
    start = revival_state()
    with pytest.raises(ValueError, match="nonnegative"):
        evolve_momentum(start, builtin_coin("grover"), -1, 16)
    with pytest.raises(ValueError, match="even"):
        evolve_momentum(start, builtin_coin("grover"), 1, 15)
    # a single site needs 1 + 2*steps sites; 20 steps wrap around a 20-site box
    origin = make_basis_state((0, 0), CoinComponent.R)
    with pytest.raises(ValueError, match="exceed"):
        evolve_momentum(origin, builtin_coin("hadamard4"), 20, 20)
    # the revival state spans 2 sites, so 8 steps need a box of 18, not 16
    with pytest.raises(ValueError, match="exceed"):
        evolve_momentum(start, builtin_coin("grover"), 8, 16)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    points=st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=6),
    steps=st.integers(0, 20),
)
def test_momentum_matches_direct_in_the_smallest_box(seed, points, steps):
    rng = np.random.default_rng(seed)
    coin = random_coin(rng)
    state = PositionState(
        {p: rng.normal(size=4) + 1j * rng.normal(size=4) for p in sorted(points)}
    )
    state = superpose([(1.0 / state.norm(), state)])
    span = int(np.ptp(np.array(sorted(points)), axis=0).max()) + 1
    size = span + 2 * steps + span % 2  # the smallest even box that fits
    assert amp_diff(evolve(state, coin, steps), evolve_momentum(state, coin, steps, size)) < 1e-12
    with pytest.raises(ValueError, match="exceed"):
        evolve_momentum(state, coin, steps + 1, size)


def test_nan_coin_is_rejected(tmp_path):
    with pytest.raises(CoinError, match="non-finite"):
        CoinOperator(np.full((4, 4), np.nan))
    path = tmp_path / "nan.coin"
    path.write_text("\n".join([" ".join(["nan"] * 8)] * 4) + "\n")
    with pytest.raises(CoinError, match="non-finite"):
        load_coin(path)
