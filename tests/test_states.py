"""State construction, combination, measurement, and CSV round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwalk2d import (
    CoinComponent,
    CoinOperator,
    PositionState,
    builtin_coin,
    char_poly_profile,
    detect_constant_eigenvalues,
    detect_period,
    evolve,
    evolve_momentum,
    fidelity,
    inner_product,
    load_state,
    make_basis_state,
    return_probability_series,
    save_state,
    step,
    superpose,
)
from qwalk2d.revival import find_local_stationary_states, grover_stationary_states, revival_state

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


def test_translate_past_the_coordinate_limit_is_rejected():
    limit = 2**30
    edge = make_basis_state((limit - 2, 1 - limit), CoinComponent.R)
    assert edge.translate((1, 0)).points == [(limit - 1, 1 - limit)]
    for offset in ((2, 0), (0, -1), (-(2 * limit - 2), 0), (0, 2 * limit)):
        with pytest.raises(ValueError, match="coordinates"):
            edge.translate(offset)
    # offsets past int64 must not overflow before the check
    origin = make_basis_state((0, 0), "R")
    for d in (2**63, -(2**63), 2**64):
        for offset in ((d, 0), (0, d)):
            with pytest.raises(ValueError, match="coordinates"):
                origin.translate(offset)
    assert PositionState().translate((2**63, 0)) == PositionState()


def test_non_integer_coordinates_are_rejected():
    # a cast to int would put (0.5, 0) on (0, 0): a duplicate site, later lost
    with pytest.raises(ValueError, match="integer"):
        PositionState({(0, 0): (1, 0, 0, 0), (0.5, 0): (0, 1, 0, 0)})
    for point in ((0, 1.5), (1.0, 0)):
        with pytest.raises(ValueError, match="integer"):
            make_basis_state(point, CoinComponent.R)
    with pytest.raises(ValueError, match="integer"):
        make_basis_state((0, 0), CoinComponent.R).translate((0.5, 0))
    with pytest.raises(ValueError, match="integer"):
        make_basis_state((0, 0), CoinComponent.R).amplitude((0.5, 0))
    point = (np.int32(2), np.int64(-1))
    moved = make_basis_state((0, 0), CoinComponent.R).translate(point)
    assert moved == make_basis_state(point, CoinComponent.R)
    assert moved.points == [(2, -1)]


def test_construction_past_the_coordinate_limit_is_rejected():
    # -2^63 is past the limit too, though its absolute value wraps below it
    for point in ((2**30, 0), (0, -(2**30)), (-(2**63), 0), (0, -(2**63))):
        with pytest.raises(ValueError, match="coordinates"):
            PositionState({point: (1, 0, 0, 0)})


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


def test_csv_bytes_are_pinned(tmp_path):
    # signed zeros, the smallest subnormal, a huge value and the widest
    # coordinates all keep their exact text
    edge = 2**30 - 1
    state = PositionState({
        (-edge, edge): (complex(-0.0, 5e-324), 1e300, complex(0.1, -0.0), -2.5e-10j),
        (edge, -edge): (0.5, 0, complex(-1e-300, 1 / 3), 0),
    })
    path = tmp_path / "golden.csv"
    save_state(state, path)
    assert path.read_bytes() == (
        b"m,n,re_R,im_R,re_L,im_L,re_U,im_U,re_D,im_D\n"
        b"-1073741823,1073741823,-0,4.9406564584124654e-324,1.0000000000000001e+300,0,"
        b"0.10000000000000001,-0,-0,-2.5000000000000002e-10\n"
        b"1073741823,-1073741823,0.5,0,0,0,-1e-300,0.33333333333333331,0,0\n"
    )


def test_csv_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("m,n,whatever\n0,0,1\n")
    with pytest.raises(ValueError):
        load_state(path)


def test_csv_load_of_an_unreadable_path_is_a_value_error(tmp_path):
    for path in (tmp_path, tmp_path / "missing.csv"):
        with pytest.raises(ValueError, match="cannot read state file"):
            load_state(path)


def test_csv_load_rejects_short_rows_and_non_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    header = "m,n,re_R,im_R,re_L,im_L,re_U,im_U,re_D,im_D\n"
    path.write_text(header + "0,0,1,0,0,0,0,0,0\n")
    with pytest.raises(ValueError, match="bad.csv:2: expected 10 fields, got 9$"):
        load_state(path)
    path.write_text(header + "0,x,1,0,0,0,0,0,0,0\n")
    with pytest.raises(ValueError, match=r"bad.csv:2: invalid literal for int\(\) .*: 'x'$"):
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


def test_amplitude_past_the_coordinate_limit_is_rejected():
    # the key of (0, 2^32) is the key of (1, 0): unchecked, it read that site
    state = make_basis_state((1, 0), "R")
    for point in ((0, 2**32), (2**40, 0), (-(2**31), 0)):
        with pytest.raises(ValueError, match="coordinates"):
            state.amplitude(point)
    np.testing.assert_array_equal(state.amplitude((2**30 - 1, 0)), [0, 0, 0, 0])


def test_superpose_rejects_non_finite_results():
    state = make_basis_state((0, 0), "R")
    for terms in ([(math.nan, state)], [(math.inf, state)], [(1e308, state), (1e308, state)]):
        # a warning would fail first: the suite turns warnings into errors
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            superpose(terms)
    assert superpose([(1e308, state), (-1e308, state)]) == PositionState()


def test_basis_state_components_are_names_or_integer_indices():
    with pytest.raises(ValueError, match="R, L, U, D"):
        make_basis_state((0, 0), "r")
    # both used to mean L
    for component in (1.0, True):
        with pytest.raises(ValueError, match="integer"):
            make_basis_state((0, 0), component)
    for component in ("U", 2, np.int64(2), CoinComponent.U):
        assert make_basis_state((0, 0), component).amplitude((0, 0)).tolist() == [0, 0, 1, 0]


@pytest.mark.parametrize("call", [
    lambda: evolve(revival_state(), builtin_coin("grover"), True),
    lambda: evolve_momentum(revival_state(), builtin_coin("grover"), True, 16),
    lambda: make_basis_state((0, 0), "R").translate((True, 0)),
    lambda: make_basis_state((0, 0), "R").amplitude((0, False)),
    lambda: find_local_stationary_states(builtin_coin("grover"), 1, True),
    lambda: detect_period(revival_state(), builtin_coin("grover"), True),
    lambda: char_poly_profile(builtin_coin("grover"), True),
    lambda: PositionState({(True, 0): (1, 0, 0, 0)}),
    lambda: PositionState({(0, 0): (1, 0, 0, 0), (3, np.True_): (0, 1, 0, 0)}),
], ids=["steps", "momentum steps", "offset", "point", "box_size", "t_max", "grid_size",
        "key", "numpy key"])
def test_bools_are_not_integers(call):
    with pytest.raises(ValueError, match="must be an integer, got (True|False)"):
        call()


# one below each minimum; ``step`` is ``evolve`` for one step, so it has no count
@pytest.mark.parametrize("call, message", [
    (lambda: evolve(revival_state(), builtin_coin("grover"), -1), "step count must be at least 0"),
    (lambda: evolve_momentum(revival_state(), builtin_coin("grover"), -1, 16),
     "step count must be at least 0"),
    (lambda: evolve_momentum(revival_state(), builtin_coin("grover"), 1, 0),
     "lattice_size must be at least 2"),
    (lambda: find_local_stationary_states(builtin_coin("grover"), 1, 0),
     "box_size must be at least 1"),
    (lambda: detect_period(revival_state(), builtin_coin("grover"), 0), "t_max must be at least 1"),
    (lambda: return_probability_series(revival_state(), builtin_coin("grover"), -1),
     "t_max must be at least 0"),
    (lambda: char_poly_profile(builtin_coin("grover"), 7), "grid_size must be at least 8"),
    (lambda: detect_constant_eigenvalues(builtin_coin("grover"), 7),
     "grid_size must be at least 8"),
], ids=["steps", "momentum steps", "lattice_size", "box_size", "detect_period t_max",
        "return_probability_series t_max", "char_poly grid_size", "constants grid_size"])
def test_counts_and_sizes_below_their_minimum_are_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_every_state_producer_builds_through_the_one_constructor(monkeypatch, tmp_path):
    built = []
    from_sites = PositionState._from_sites.__func__

    def counted(cls, m, n, amps):
        built.append(len(amps))
        return from_sites(cls, m, n, amps)

    monkeypatch.setattr(PositionState, "_from_sites", classmethod(counted))
    grover, start = builtin_coin("grover"), revival_state()
    save_state(start, tmp_path / "start.csv")
    producers = {
        "init": lambda: PositionState({(0, 0): (1, 0, 0, 0)}),
        "load_state": lambda: load_state(tmp_path / "start.csv"),
        "translate": lambda: start.translate((3, -1)),
        "superpose": lambda: superpose([(1, start), (1j, start)]),
        "evolve": lambda: evolve(start, grover, 3),
        "step": lambda: step(start, grover),
        "evolve_momentum": lambda: evolve_momentum(start, grover, 3, 16),
        "find_local_stationary_states": lambda: find_local_stationary_states(grover, 1, 2),
    }
    for name, produce in producers.items():
        built.clear()
        produce()
        assert built, name


def test_every_state_producer_rejects_a_broken_invariant():
    edge = make_basis_state((2**30 - 1, 0), "R")
    identity = CoinOperator(np.eye(4))
    past_the_limit = [
        lambda: PositionState({(2**30, 0): (1, 0, 0, 0)}),
        lambda: PositionState._from_sites(np.array([0, 2**30]), np.array([0, 0]), np.eye(4)[:2]),
        lambda: edge.translate((1, 0)),
        lambda: step(edge, identity),
        lambda: evolve(edge, identity, 2),
        lambda: evolve_momentum(edge, identity, 1, 4),
    ]
    for produce in past_the_limit:
        with pytest.raises(ValueError, match="coordinates"):
            produce()
    # a walk or a stationary search of finite amplitudes under a unitary coin
    # stays finite; these producers take amplitudes from outside
    non_finite = [
        lambda: PositionState({(0, 0): (math.nan, 0, 0, 0)}),
        lambda: PositionState._from_sites(np.array([0]), np.array([0]), np.array([[math.inf, 0, 0, 0]])),
        lambda: superpose([(math.nan, edge)]),
    ]
    for produce in non_finite:
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            produce()
