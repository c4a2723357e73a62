"""Coins, the walk step, direct evolution, and the momentum-picture path."""

import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwalk2d import (
    BUILTIN_COIN_NAMES,
    CoinComponent,
    CoinError,
    CoinOperator,
    PositionState,
    builtin_coin,
    dynamics,
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
from qwalk2d.revival import (
    detect_period,
    grover_stationary_states,
    return_probability_series,
    revival_state,
)

from conftest import amp_diff, random_state

GROVER_ENTRIES = 0.5 * np.ones((4, 4)) - np.eye(4)

# the benchmark's dense-grid walk, which shares no code with the package
WALK_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "walk_reference.py"
_spec = importlib.util.spec_from_file_location("walk_reference", WALK_REFERENCE)
walk_reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(walk_reference)


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
    # column R of the coin is the image of R
    np.testing.assert_array_equal(builtin_coin("swap").matrix[:, CoinComponent.R], [0, 1, 0, 0])


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


def test_coin_operator_rejects_a_matrix_that_is_not_4x4():
    with pytest.raises(CoinError, match=r"^coin matrix must be 4x4, got shape \(3, 3\)$"):
        CoinOperator(np.eye(3))


def test_load_coin_rejects_unreadable_paths_short_rows_and_non_numbers(tmp_path):
    with pytest.raises(CoinError, match="^cannot read coin file .*missing.coin: "):
        load_coin(tmp_path / "missing.coin")
    path = tmp_path / "bad.coin"
    rows = ["1 0 0 0 0 0 0 0", "0 0 1 0 0 0 0 0", "0 0 0 0 1 0 0 0", "0 0 0 0 0 0 1 0"]
    path.write_text("\n".join([rows[0], "0 0 1 0 0 0 0", *rows[2:]]) + "\n")
    with pytest.raises(CoinError, match="bad.coin: row 2 has 7 values, expected 8$"):
        load_coin(path)
    path.write_text("\n".join([*rows[:3], "0 0 0 0 0 0 one 0"]) + "\n")
    with pytest.raises(CoinError, match="row 4: could not convert string to float: 'one'$"):
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


def test_random_coin_takes_a_seed_or_a_generator():
    # the seed 0 used to count as no seed, and any other int seed raised
    assert np.array_equal(random_coin(0).matrix, random_coin(0).matrix)
    assert np.array_equal(random_coin(3).matrix, random_coin(np.random.default_rng(3)).matrix)


# ------------------------------------------------- coin flip and shift


def test_grover_flip_swaps_paired_components():
    c = 1 / math.sqrt(2)
    flipped = builtin_coin("grover").matrix @ np.array([c, 0, c, 0])  # R + U
    assert np.abs(flipped - np.array([0, c, 0, c])).max() < 1e-16


def test_grover_flip_of_single_component_gives_first_column():
    np.testing.assert_array_equal(
        builtin_coin("grover").matrix[:, CoinComponent.R], [-0.5, 0.5, 0.5, 0.5]
    )


def test_shift_moves_each_component_one_site():
    # the walk step with the identity coin is the bare shift
    identity = CoinOperator(np.eye(4))
    assert step(make_basis_state((0, 0), CoinComponent.R), identity) == make_basis_state(
        (1, 0), CoinComponent.R
    )
    assert step(make_basis_state((0, 0), CoinComponent.D), identity) == make_basis_state(
        (0, -1), CoinComponent.D
    )


def test_shift_preserves_norm_of_superposition():
    c = 1 / math.sqrt(2)
    state = PositionState({(0, 0): (c, c, 0, 0)})
    shifted = step(state, CoinOperator(np.eye(4)))
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


def test_a_walk_whose_amplitudes_all_underflow_is_the_empty_state():
    # the smallest subnormal, halved by every Grover entry, rounds to 0
    tiny = PositionState({(0, 0): (5e-324, 0, 0, 0)})
    assert evolve(tiny, builtin_coin("grover"), 1) == PositionState({})


def test_non_integer_step_counts_are_rejected():
    grover, start = builtin_coin("grover"), revival_state()
    for steps in (2.5, 2.0):
        with pytest.raises(ValueError, match="integer"):
            evolve(start, grover, steps)
        with pytest.raises(ValueError, match="integer"):
            evolve_momentum(start, grover, steps, 16)
    with pytest.raises(ValueError, match="integer"):
        evolve_momentum(start, grover, 2, 16.0)
    assert evolve(start, grover, np.int64(2)) == evolve(start, grover, 2)


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
_CLUSTER = st.sets(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=8)
# one compact cluster, or two with the second moved far away (up to 2^28)
_POINTS = st.one_of(
    _CLUSTER,
    st.tuples(
        _CLUSTER, _CLUSTER, st.integers(20, 2**28), st.integers(-(2**28), 2**28)
    ).map(lambda c: c[0] | {(m + c[2], n + c[3]) for m, n in c[1]}),
)


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


def _dict_walk(amplitudes, matrix, steps):
    """The walk on a plain dict {(m, n): [R, L, U, D]}, one site at a time."""
    moves = ((1, 0), (-1, 0), (0, 1), (0, -1))
    for _ in range(steps):
        out = {}
        for (m, n), vec in amplitudes.items():
            for c, (dm, dn) in enumerate(moves):
                entry = out.setdefault((m + dm, n + dn), [0j] * 4)
                entry[c] += sum(matrix[c][k] * vec[k] for k in range(4))
        amplitudes = out
    return amplitudes


# lines along an axis, which walk in the (m, n) frame while they are long
# next to the step count, or along a diagonal, which walk in the rotated frame
_LINES = st.tuples(
    st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1)]),
    st.integers(1, 3), st.integers(24, 40), st.integers(-6, 6), st.integers(-6, 6),
).map(lambda x: {(x[3] + k * x[1] * x[0][0], x[4] + k * x[1] * x[0][1]) for k in range(x[2])})


@settings(max_examples=150, derandomize=True, deadline=None)
@given(seed=_SEEDS, points=st.one_of(_POINTS, _LINES), steps=st.integers(0, 12))
def test_evolve_matches_a_plain_dict_walk(seed, points, steps):
    coin, state = _random_input(seed, points)
    matrix = coin.matrix.tolist()
    start = {point: vec.tolist() for point, vec in state.items()}
    expected = _dict_walk(start, matrix, steps)
    out = evolve(state, coin, steps)
    assert np.all(np.diff(out._keys) > 0)
    for point in set(expected) | set(out.points):
        want = expected.get(point, [0j] * 4)
        assert np.abs(out.amplitude(point) - want).max() <= 1e-13


def test_detect_period_matches_a_plain_dict_walk():
    # an L of sites that walks in one (m, n) box holding the origin, and
    # both parity classes of m + n in the box's far corner, a second group
    # that the L cannot reach in 4 steps since m + n jumps from 0 to 11
    ell = {(m, 0) for m in range(-30, 1)} | {(-30, n) for n in range(13)}
    coin, state = _random_input(7, ell | {(0, 12), (-1, 12), (0, 11)})
    start = {point: vec.tolist() for point, vec in state.items()}
    report = detect_period(state, coin, 4)
    for t in range(5):
        walked = _dict_walk(start, coin.matrix.tolist(), t)
        origin = np.array(walked.get((0, 0), [0j] * 4))
        assert abs(report.return_probability[t] - np.vdot(origin, origin).real) <= 1e-13
        if t:
            overlap = sum(np.vdot(vec, walked.get(p, [0j] * 4)) for p, vec in state.items())
            assert abs(report.fidelity_series[t - 1] - abs(overlap) ** 2) <= 1e-13


def _peak_bytes(fn, *args):
    """``fn(*args)`` and the peak memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_stationary_state_walks_in_a_small_window():
    # trimming keeps the window on the four sites instead of the light cone
    plus, _ = grover_stationary_states()
    out, peak = _peak_bytes(evolve, plus, builtin_coin("grover"), 1000)
    assert out == plus
    assert peak < 64 * 1024


def test_far_apart_sites_walk_in_separate_windows(rng):
    # one window over both sites would span 2^29 rows and columns
    coin = random_coin(rng)
    near = PositionState({(0, 0): (0.5, 0.5j, -0.5, 0.5)})
    far = PositionState({(2**29, 2**29): (0.1, 0.7, -0.1j, 0.7)})
    both = superpose([(1.0, near), (1.0, far)])
    one_step, peak = _peak_bytes(step, both, coin)
    assert one_step == superpose([(1.0, step(near, coin)), (1.0, step(far, coin))])
    assert peak < 8 * 2**20
    walked, peak = _peak_bytes(evolve, both, coin, 50)
    assert walked == superpose([(1.0, evolve(near, coin, 50)), (1.0, evolve(far, coin, 50))])
    assert peak < 8 * 2**20


@pytest.mark.parametrize("direction", [(3, 0), (0, 3), (3, 3), (3, -3)])
def test_sites_strung_along_a_line_walk_in_a_thin_box(direction):
    # 300 sites 3 apart: a box over a diagonal line in (m, n) holds 898^2 sites
    dm, dn = direction
    line = PositionState({(dm * k, dn * k): (0.5, 0.5, 0.5, 0.5) for k in range(300)})
    line = superpose([(1.0 / line.norm(), line)])
    coin = builtin_coin("grover")
    stepped, peak = _peak_bytes(step, line, coin)
    assert abs(stepped.norm() - 1.0) < 1e-12
    assert peak < 2 * 2**20
    walked, peak = _peak_bytes(evolve, line, coin, 5)
    assert abs(walked.norm() - 1.0) < 1e-12
    assert peak < 4 * 2**20


def test_banded_coin_multiply_rounds_like_one_product(monkeypatch):
    # bands of 8 rows: a rotated 31-wide box after 30 steps from one site
    # walks in 4 bands, and a 300-site line along m in an (m, n) box of 300+
    # rows walks in many, the last one short
    coin = random_coin(np.random.default_rng(11))
    origin = PositionState({(0, 0): (0.5, 0.5j, -0.5, 0.5)})
    amps = np.random.default_rng(12).normal(size=(300, 4)) + 0j
    line = PositionState({(m, 0): amps[m] / np.linalg.norm(amps) for m in range(300)})
    cases = [(origin, 30), (line, 4)]
    default = [(evolve(s, coin, t), return_probability_series(s, coin, t)) for s, t in cases]
    monkeypatch.setattr(dynamics, "_BAND_SITES", 8)
    banded = [(evolve(s, coin, t), return_probability_series(s, coin, t)) for s, t in cases]
    assert banded == default


def _reference_step_box(grid, matrix, rotated):
    """One step of ``grid``: an einsum coin product, then each component moved per ``_MOVES``."""
    *batch, _, height, width = grid.shape
    pad = 1 if rotated else 2
    flipped = np.einsum("ij,...jhw->...ihw", matrix, grid)
    out = np.zeros((*batch, 4, height + pad, width + pad), dtype=complex)
    for c, (i, j) in enumerate(dynamics._MOVES[rotated]):
        out[..., c, i : i + height, j : j + width] = flipped[..., c, :, :]
    return out


def _unit_disk(rng, shape):
    return rng.uniform(0, 1, shape) * np.exp(2j * np.pi * rng.uniform(0, 1, shape))


# the last coin differs from Grover by a phase of 1e-13 on one column, about
# 5e-14 in an imaginary part: a complex coin all but real
KERNEL_COINS = {
    "grover": builtin_coin("grover"),
    "hadamard4": builtin_coin("hadamard4"),
    "swap": builtin_coin("swap"),
    "grover_tilted": CoinOperator(GROVER_ENTRIES @ np.diag([np.exp(1e-13j), 1, 1, 1])),
}
_BIG = _unit_disk(np.random.default_rng(5), (4, 9, 12))
KERNEL_BOXES = {
    "one_column": _BIG[:, :, 3:4],
    "one_row": _BIG[:, 2:3, :],
    "column_trimmed": _BIG[:, 1:8, 2:9],
    "strided_last_axis": _BIG.transpose(0, 2, 1),
    "batched": _unit_disk(np.random.default_rng(6), (3, 4, 5, 6)),
    # 8-row bands in a box wider than 4,096 columns: three of them, the last short
    "wide": _unit_disk(np.random.default_rng(7), (4, 20, 4100)),
    # a one-column product takes BLAS's gemv path
    "one_cell": _BIG[:, 4:5, 7:8],
}


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("box", KERNEL_BOXES)
@pytest.mark.parametrize("name", KERNEL_COINS)
def test_step_box_matches_an_einsum_reference_on_every_box_shape(name, box, rotated):
    coin, grid = KERNEL_COINS[name], KERNEL_BOXES[box]
    out = dynamics._complex(dynamics._step_box(dynamics._planes(grid), coin, rotated))
    expected = _reference_step_box(grid, coin.matrix, rotated)
    assert out.shape == expected.shape
    assert np.abs(out - expected).max() <= 1e-15


def test_walks_stop_at_the_coordinate_limit():
    identity = CoinOperator(np.eye(4))
    start = make_basis_state((2**30 - 3, 0), "R")
    assert evolve(start, identity, 2).points == [(2**30 - 1, 0)]
    with pytest.raises(ValueError, match="coordinates"):
        evolve(start, identity, 3)
    # a scan that never converts back to a state stops at the same step
    assert return_probability_series(start, identity, 2) == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="coordinates"):
        return_probability_series(start, identity, 3)
    with pytest.raises(ValueError, match="coordinates"):
        evolve_momentum(make_basis_state((2**30 - 1, 0), "R"), identity, 1, 4)


def test_the_coordinate_limit_is_decided_on_occupied_sites():
    # the rotated box over these two sites reaches m = 2^30 at a corner
    # where no site is, and so do the boxes after L, U and D moves
    identity = CoinOperator(np.eye(4))
    edge = 2**30 - 1
    inward = PositionState({(edge, 1): (0, 0.5, 0.5, 0.5), (edge, -1): (0, 0.5, 0.5, 0.5)})
    assert step(inward, identity).points == [
        (edge - 1, -1), (edge - 1, 1), (edge, -2), (edge, 0), (edge, 2)
    ]
    assert evolve(inward, identity, 3).points == [
        (edge - 3, -1), (edge - 3, 1), (edge, -4), (edge, -2), (edge, 2), (edge, 4)
    ]
    outward = PositionState({(edge, 1): (0.5, 0.5, 0.5, 0.5), (edge, -1): (0, 0.5, 0.5, 0.5)})
    with pytest.raises(ValueError, match="coordinates"):
        step(outward, identity)
    with pytest.raises(ValueError, match="coordinates"):
        evolve(outward, identity, 3)


def test_support_stays_on_parity_diamond():
    state = make_basis_state((0, 0), CoinComponent.U)
    coin = builtin_coin("grover")
    for t in range(1, 8):
        state = step(state, coin)
        for m, n in state.points:
            assert abs(m) + abs(n) <= t
            assert (m + n - t) % 2 == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_long_walk_keeps_every_light_cone_site(seed):
    # after 200 steps the largest component at some light-cone sites is
    # below 1e-170 for each of these coins: a site lost or flushed to zero
    # changes the occupied points, which the 1e-12 comparison would not see
    coin = random_coin(np.random.default_rng(seed))
    amps = np.full(4, 0.5, dtype=complex)
    out = evolve(PositionState({(0, 0): amps}), coin, 200)
    assert out.n_sites == 201**2
    m, n = np.array(out.points).T
    cone = [(a, b) for a in range(-200, 201) for b in range(-200, 201)
            if abs(a) + abs(b) <= 200 and (a + b) % 2 == 0]
    assert out.points == cone
    dense = walk_reference.DenseWalk(coin.matrix, {(0, 0): amps}, 200)
    for _ in range(200):
        dense.step()
    grid = np.zeros_like(dense.grid)
    grid[:, m + dense.radius, n + dense.radius] = np.array([vec for _, vec in out.items()]).T
    assert np.abs(grid - dense.grid).max() < 1e-12


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


def test_momentum_returns_the_empty_state():
    empty = PositionState({})
    assert evolve_momentum(empty, builtin_coin("grover"), 3, 16) is empty


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
    with pytest.raises(ValueError, match="step count must be at least 0"):
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


def _fft_shapes(monkeypatch):
    """The shapes every later np.fft.fft2 call receives, in call order."""
    shapes = []
    fft2 = np.fft.fft2

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return fft2(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft2", recording)
    return shapes


def test_momentum_transforms_the_smallest_fast_box_per_axis(monkeypatch, rng):
    coin = random_coin(rng)
    shapes = _fft_shapes(monkeypatch)
    origin = make_basis_state((0, 0), CoinComponent.R)
    # 1 + 16 sites, rounded up to an even size: 18 = 2 * 3^2
    assert amp_diff(evolve(origin, coin, 8), evolve_momentum(origin, coin, 8, 256)) < 1e-12
    # 60 + 60 sites along m, 1 + 60 along n: 120 = 2^3 * 3 * 5, and 62 = 2 * 31 becomes 64
    line = PositionState({(m, 0): rng.normal(size=4) + 0j for m in range(60)})
    assert amp_diff(evolve(line, coin, 30), evolve_momentum(line, coin, 30, 128)) < 1e-12
    assert shapes == [(4, 18, 18), (4, 120, 64)]


def test_fft_size_is_the_smallest_even_7_smooth_size():
    def smooth(k):
        for p in (2, 3, 5, 7):
            while k % p == 0:
                k //= p
        return k == 1

    sizes = [k for k in range(2, 1100, 2) if smooth(k)]
    for n in range(1, 1001):
        assert dynamics._fft_size(n) == min(k for k in sizes if k >= n)


def test_momentum_box_can_be_wider_than_the_lattice_size(monkeypatch, rng):
    # 201 sites round up to 210 = 2 * 3 * 5 * 7, past the 202-site box the
    # wavefront must fit: a wider box is the same walk
    coin = random_coin(rng)
    shapes = _fft_shapes(monkeypatch)
    origin = make_basis_state((0, 0), CoinComponent.U)
    assert amp_diff(evolve(origin, coin, 100), evolve_momentum(origin, coin, 100, 202)) < 1e-12
    assert shapes == [(4, 210, 210)]


@pytest.mark.parametrize("name", ["haar", *BUILTIN_COIN_NAMES])
def test_momentum_symbol_is_component_major(name, rng):
    coin = random_coin(rng) if name == "haar" else builtin_coin(name)
    ks = np.array([0.0, 1.25, -np.pi])
    ls = np.array([-2.0, -0.5, 0.0, 0.75, np.pi])
    symbol = dynamics._momentum_symbol(coin, ks, ls)
    assert symbol.shape == (4, 4, 3, 5)
    assert symbol.flags.c_contiguous
    for a, k in enumerate(ks):
        for b, l in enumerate(ls):
            phases = np.exp(1j * np.array([k, -k, l, -l]))
            expected = np.diag(phases) @ coin.matrix
            assert np.abs(symbol[:, :, a, b] - expected).max() <= 1e-15


@pytest.mark.parametrize("name", ["haar", *BUILTIN_COIN_NAMES])
def test_momentum_symbol_changes_sign_at_k_plus_pi_and_l_plus_pi(name, rng):
    coin = random_coin(rng) if name == "haar" else builtin_coin(name)
    ks = -2 * np.pi * np.arange(12) / 12
    ls = rng.uniform(-np.pi, np.pi, size=7)
    shifted = dynamics._momentum_symbol(coin, ks + np.pi, ls + np.pi)
    assert np.abs(shifted + dynamics._momentum_symbol(coin, ks, ls)).max() < 1e-15


def test_every_move_changes_the_parity_of_m_plus_n():
    # so every phase e^{+-ik}, e^{+-il} of the symbol changes sign at (k + pi, l + pi)
    for i, j in dynamics._MOVES[False]:
        assert ((i - 1) + (j - 1)) % 2 == 1


def test_momentum_powers_the_symbol_on_half_the_k_axis(monkeypatch, rng):
    coin = random_coin(rng)
    sizes = []
    symbol = dynamics._momentum_symbol

    def recording(coin, ks, ls):
        sizes.append((len(ks), len(ls)))
        return symbol(coin, ks, ls)

    monkeypatch.setattr(dynamics, "_momentum_symbol", recording)
    origin = make_basis_state((0, 0), CoinComponent.R)
    assert amp_diff(evolve(origin, coin, 8), evolve_momentum(origin, coin, 8, 256)) < 1e-12
    line = PositionState({(m, 0): rng.normal(size=4) + 0j for m in range(60)})
    assert amp_diff(evolve(line, coin, 30), evolve_momentum(line, coin, 30, 128)) < 1e-12
    # the 18 x 18 and 120 x 64 boxes
    assert sizes == [(9, 18), (60, 64)]


@pytest.mark.parametrize("steps", [0, 1, 2, 7, 8, 99, 100])
def test_momentum_on_half_the_box_matches_direct_at_odd_and_even_steps(steps, rng):
    coin = random_coin(rng)
    state = random_state(rng, n_sites=5, span=2)
    assert amp_diff(evolve(state, coin, steps), evolve_momentum(state, coin, steps, 256)) < 1e-12
    # 9 sites along n: a 16 x 24 box at 7 steps
    line = PositionState({(0, n): rng.normal(size=4) + 0j for n in range(9)})
    assert amp_diff(evolve(line, coin, 7), evolve_momentum(line, coin, 7, 64)) < 1e-12


def test_momentum_of_one_site_at_zero_steps_runs_on_a_2_x_2_box(monkeypatch, rng):
    shapes = _fft_shapes(monkeypatch)
    site = PositionState({(3, -5): rng.normal(size=4) + 1j * rng.normal(size=4)})
    assert amp_diff(site, evolve_momentum(site, random_coin(rng), 0, 64)) < 1e-15
    assert shapes == [(4, 2, 2)]


def test_nan_coin_is_rejected(tmp_path):
    with pytest.raises(CoinError, match="non-finite"):
        CoinOperator(np.full((4, 4), np.nan))
    path = tmp_path / "nan.coin"
    path.write_text("\n".join([" ".join(["nan"] * 8)] * 4) + "\n")
    with pytest.raises(CoinError, match="non-finite"):
        load_coin(path)
