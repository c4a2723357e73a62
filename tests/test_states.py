"""State construction, combination, measurement, and CSV round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwalk2d import (
    CoinComponent,
    PositionState,
    fidelity,
    inner_product,
    load_state,
    make_basis_state,
    save_state,
    superpose,
)
from qwalk2d.revival import grover_stationary_states, revival_state

from conftest import amp_diff, random_state


def test_basis_state_is_normalized_unit_amplitude():
    state = make_basis_state((0, 0), CoinComponent.R)
    assert state.norm() == 1.0
    assert state.points == [(0, 0)]
    np.testing.assert_array_equal(state.amplitude((0, 0)), [1, 0, 0, 0])


def test_basis_state_at_arbitrary_point():
    state = make_basis_state((-3, 7), CoinComponent.D)
    assert state.points == [(-3, 7)]
    np.testing.assert_array_equal(state.amplitude((-3, 7)), [0, 0, 0, 1])


def test_distinct_components_are_orthogonal():
    a = make_basis_state((0, 0), CoinComponent.R)
    b = make_basis_state((0, 0), CoinComponent.L)
    assert fidelity(a, b) == 0.0


def test_superpose_accumulates_identical_terms():
    a = make_basis_state((2, 1), CoinComponent.U)
    s = superpose([(1 / math.sqrt(2), a), (1 / math.sqrt(2), a)])
    assert s.norm() == pytest.approx(math.sqrt(2), abs=1e-15)
    assert s.points == [(2, 1)]


def test_superpose_of_stationary_pair_gives_two_site_revival_state():
    plus, minus = grover_stationary_states()
    c = 1 / math.sqrt(2)
    combined = superpose([(c, plus), (c, minus)])
    assert combined.points == [(0, 1), (1, 0)]
    for _, vec in combined.items():
        assert np.count_nonzero(vec) == 2
    assert amp_diff(combined, revival_state()) < 1e-15


def test_superpose_difference_supported_on_other_diagonal():
    plus, minus = grover_stationary_states()
    c = 1 / math.sqrt(2)
    partner = superpose([(c, plus), (-c, minus)])
    assert partner.points == [(0, 0), (1, 1)]


def test_superpose_rejects_empty_term_list():
    with pytest.raises(ValueError):
        superpose([])


def test_norm_examples():
    assert make_basis_state((0, 0), CoinComponent.R).norm() == 1.0
    plus, _ = grover_stationary_states()
    assert plus.norm() == pytest.approx(1.0, abs=1e-15)
    assert PositionState().norm() == 0.0


def test_fidelity_of_disjoint_supports_is_zero():
    start = revival_state()
    partner = PositionState({(0, 0): (0, 0.5, 0, 0.5), (1, 1): (0.5, 0, 0.5, 0)})
    assert fidelity(start, partner) == 0.0


def test_fidelity_self_and_cross():
    plus, minus = grover_stationary_states()
    assert fidelity(plus, plus) == pytest.approx(1.0, abs=1e-14)
    # the eight sign pairs cancel exactly
    assert fidelity(plus, minus) == pytest.approx(0.0, abs=1e-15)


def test_fidelity_rejects_unnormalized_input():
    a = make_basis_state((0, 0), CoinComponent.R)
    big = superpose([(2.0, a)])
    with pytest.raises(ValueError):
        fidelity(big, a)


def test_fidelity_is_exactly_symmetric(rng):
    for _ in range(10):
        a = random_state(rng)
        b = random_state(rng)
        assert fidelity(a, b) == fidelity(b, a)


def test_inner_product_is_conjugate_symmetric(rng):
    a = random_state(rng)
    b = random_state(rng)
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)), abs=1e-15)


def test_translate_identity_offset_is_noop():
    plus, _ = grover_stationary_states()
    assert plus.translate((0, 0)) == plus


def test_translate_moves_basis_state():
    moved = make_basis_state((0, 0), CoinComponent.R).translate((2, -1))
    assert moved == make_basis_state((2, -1), CoinComponent.R)


def test_translate_roundtrip_is_exact(rng):
    state = random_state(rng)
    for _ in range(5):
        v = (int(rng.integers(-50, 50)), int(rng.integers(-50, 50)))
        assert state.translate(v).translate((-v[0], -v[1])) == state
        assert state.translate(v).norm() == state.norm()


def test_orthogonal_support_norm_is_pythagorean(rng):
    a = random_state(rng, span=3)
    b = random_state(rng, span=3).translate((100, 100))
    alpha = complex(rng.normal(), rng.normal())
    beta = complex(rng.normal(), rng.normal())
    combined = superpose([(alpha, a), (beta, b)])
    expected = abs(alpha) ** 2 * a.norm() ** 2 + abs(beta) ** 2 * b.norm() ** 2
    assert combined.norm() ** 2 == pytest.approx(expected, abs=1e-12)


def test_distribution_of_revival_state():
    probs = revival_state().distribution()
    assert probs == pytest.approx({(0, 1): 0.5, (1, 0): 0.5})


def test_distribution_of_basis_state():
    assert make_basis_state((0, 0), CoinComponent.U).distribution() == {(0, 0): 1.0}


def test_distribution_of_stationary_state_is_uniform_on_block():
    plus, _ = grover_stationary_states()
    probs = plus.distribution()
    assert set(probs) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    for p in probs.values():
        assert p == pytest.approx(0.25, abs=1e-15)


def test_distribution_sums_to_one(rng):
    for _ in range(5):
        probs = random_state(rng, n_sites=12).distribution()
        assert math.fsum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_distribution_rejects_unnormalized_state():
    state = PositionState({(0, 0): (1, 1, 0, 0)})
    with pytest.raises(ValueError):
        state.distribution()


def test_exact_zero_vectors_are_pruned():
    state = PositionState({(0, 0): (1, 0, 0, 0), (5, 5): (0, 0, 0, 0)})
    assert state.points == [(0, 0)]


def test_states_are_immutable():
    state = make_basis_state((0, 0), CoinComponent.R)
    with pytest.raises(ValueError):
        state._amps[0, 0] = 5.0
    # lookups hand out copies, so callers cannot mutate through them
    state.amplitude((0, 0))[0] = 5.0
    np.testing.assert_array_equal(state.amplitude((0, 0)), [1, 0, 0, 0])


def test_csv_roundtrip_is_exact(tmp_path, rng):
    state = random_state(rng, n_sites=10, span=20, normalized=False)
    path = tmp_path / "state.csv"
    save_state(state, path)
    assert load_state(path) == state


_COORDS = st.integers(-(2**30) + 1, 2**30 - 1)
_AMPLITUDES = st.complex_numbers(allow_nan=False, allow_infinity=False)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.dictionaries(st.tuples(_COORDS, _COORDS), st.lists(_AMPLITUDES, min_size=4, max_size=4),
                       max_size=8))
def test_csv_roundtrip_is_exact_for_any_finite_state(tmp_path_factory, amplitudes):
    state = PositionState(amplitudes)
    path = tmp_path_factory.mktemp("roundtrip") / "state.csv"
    save_state(state, path)
    assert load_state(path) == state


def test_csv_rows_are_lexicographically_ordered(tmp_path):
    state = PositionState({(1, -2): (1, 0, 0, 0), (-3, 9): (0, 1, 0, 0), (1, 5): (0, 0, 1, 0)})
    path = tmp_path / "state.csv"
    save_state(state, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "m,n,re_R,im_R,re_L,im_L,re_U,im_U,re_D,im_D"
    points = [tuple(map(int, line.split(",")[:2])) for line in lines[1:]]
    assert points == sorted(points)


def test_csv_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("m,n,whatever\n0,0,1\n")
    with pytest.raises(ValueError):
        load_state(path)


def test_csv_load_rejects_duplicate_points(tmp_path):
    path = tmp_path / "dup.csv"
    row = "0,0," + ",".join(["1", "0"] * 4)
    path.write_text("m,n,re_R,im_R,re_L,im_L,re_U,im_U,re_D,im_D\n" + row + "\n" + row + "\n")
    with pytest.raises(ValueError):
        load_state(path)


def test_non_finite_amplitudes_are_rejected(tmp_path):
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            PositionState({(0, 0): (bad, 0, 0, 0)})
    path = tmp_path / "nan.csv"
    path.write_text("m,n,re_R,im_R,re_L,im_L,re_U,im_U,re_D,im_D\n0,0,nan,0,0,0,0,0,0,0\n")
    with pytest.raises(ValueError, match="finite"):
        load_state(path)
