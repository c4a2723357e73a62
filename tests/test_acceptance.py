"""Acceptance criteria, one test per criterion.

Every test prints a single pass/fail line (visible with ``pytest -s``) and
asserts the criterion at its stated tolerance.  Timings are informational.
"""

import json
from pathlib import Path
from time import perf_counter

import numpy as np

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
    find_local_stationary_states,
    grover_stationary_states,
    make_basis_state,
    momentum_propagator,
    random_coin,
    return_probability_series,
    revival_state,
    step,
    superpose,
)

from conftest import amp_diff, permutation_coin, random_state

FIXTURES = Path(__file__).parent / "fixtures"
GROVER = builtin_coin("grover")
R, L, U, D = range(4)


def phased_swap(phase):
    """The swap coin with C_DU = phase: R and L trade places, U and D too."""
    return permutation_coin((L, R, D, U), (1, 1, phase, 1))


def report(number, name, ok, started):
    ms = (perf_counter() - started) * 1000
    print(f"criterion {number:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({ms:.1f} ms)")
    assert ok, f"criterion {number} failed: {name}"


def test_criterion_01_stationarity():
    started = perf_counter()
    plus, minus = grover_stationary_states()
    r_plus = superpose([(1.0, step(plus, GROVER)), (-1.0, plus)]).norm()
    r_minus = superpose([(1.0, step(minus, GROVER)), (1.0, minus)]).norm()
    report(1, "stationary pair is fixed/negated by one step",
           r_plus <= 1e-12 and r_minus <= 1e-12, started)


def test_criterion_02_two_step_revival():
    started = perf_counter()
    start = revival_state()
    after_one = evolve(start, GROVER, 1)
    after_two = evolve(start, GROVER, 2)
    partner = PositionState({(0, 0): (0, 0.5, 0, 0.5), (1, 1): (0.5, 0, 0.5, 0)})
    ok = (
        fidelity(start, after_one) <= 1e-12
        and fidelity(start, after_two) >= 1 - 1e-12
        and amp_diff(after_one, partner) <= 1e-14
    )
    report(2, "two-step full revival through the orthogonal partner", ok, started)


def test_criterion_03_grover_point_spectrum():
    started = perf_counter()
    found = detect_constant_eigenvalues(GROVER, 64, 1e-8)
    values = sorted(found.values(), key=lambda v: v.real)
    ok = (
        len(values) == 2
        and abs(values[0] + 1) <= 1e-8
        and abs(values[1] - 1) <= 1e-8
        and all(c.max_residual <= 1e-12 for c in found.constants)
        and not detect_constant_eigenvalues(builtin_coin("hadamard4"), 64, 1e-8).constants
    )
    report(3, "grover scan finds exactly {+1, -1}; hadamard4 finds none", ok, started)


def test_criterion_04_pairing_and_phase_covariance():
    started = perf_counter()
    rng = np.random.default_rng(314159)
    coin_set = [GROVER, builtin_coin("swap")]
    phases = (0.3, 1.1, 2.5)
    coin_set += [CoinOperator(np.exp(1j * th) * GROVER.matrix) for th in phases]

    ok = True
    counts = []
    for coin in coin_set:
        found = detect_constant_eigenvalues(coin, 64, 1e-8)
        counts.append(len(found.constants))
        ok &= found.pairing_ok and len(found.constants) > 0
    for theta, coin in zip(phases, coin_set[2:]):
        values = detect_constant_eigenvalues(coin, 64, 1e-8).values()
        expected = {np.exp(1j * theta), -np.exp(1j * theta)}
        ok &= len(values) == 2
        ok &= all(min(abs(v - e) for e in expected) <= 1e-8 for v in values)
    for _ in range(200):
        counts.append(len(detect_constant_eigenvalues(random_coin(rng), 64, 1e-8).constants))
    ok &= all(c != 3 for c in counts)
    report(4, "pairing, phase covariance, never exactly three constants", ok, started)


def test_criterion_05_charpoly_structure():
    started = perf_counter()
    grover_profile = char_poly_profile(GROVER, 32)
    hadamard_profile = char_poly_profile(builtin_coin("hadamard4"), 32)
    ok = (
        grover_profile.e2_variance <= 1e-10
        and abs(grover_profile.det_coin + 1.0) <= 1e-12
        and hadamard_profile.e2_variance > 1e-4
    )
    report(5, "lambda^2 coefficient constant for grover, fluctuating for hadamard4",
           ok, started)


def test_criterion_06_determinant_constancy():
    started = perf_counter()
    rng = np.random.default_rng(271828)
    momenta = 2 * np.pi * np.arange(32) / 32
    worst = 0.0
    for _ in range(20):
        coin = random_coin(rng)
        det_coin = np.linalg.det(coin.matrix)
        for k in momenta:
            for l in momenta:
                dev = abs(np.linalg.det(momentum_propagator(coin, (k, l))) - det_coin)
                worst = max(worst, dev)
    report(6, "propagator determinant equals coin determinant on the grid",
           worst <= 1e-10, started)


def test_criterion_07_box_search_recovers_stationary_state():
    started = perf_counter()
    found = find_local_stationary_states(GROVER, 1.0, 2)
    plus, _ = grover_stationary_states()
    ok = (
        len(found.states) == 1
        and fidelity(found.states[0], plus) >= 1 - 1e-10
        and len(find_local_stationary_states(GROVER, 1.0, 1).states) == 0
    )
    report(7, "2x2 box search returns exactly the stationary state", ok, started)


def test_criterion_08_momentum_equivalence():
    started = perf_counter()
    start = revival_state()
    direct = evolve(start, GROVER, 50)
    via_momentum = evolve_momentum(start, GROVER, 50, 128)
    report(8, "direct and momentum evolution agree to 1e-9",
           amp_diff(direct, via_momentum) <= 1e-9, started)


def test_criterion_09_unitarity_and_covariance():
    started = perf_counter()
    rng = np.random.default_rng(161803)
    plus, _ = grover_stationary_states()
    drift = abs(evolve(plus, GROVER, 1000).norm() - 1.0)

    covariant = True
    state = random_state(rng)
    for _ in range(5):
        v = (int(rng.integers(-40, 40)), int(rng.integers(-40, 40)))
        covariant &= step(state.translate(v), GROVER) == step(state, GROVER).translate(v)

    linear = True
    for _ in range(5):
        states = [random_state(rng, n_sites=5) for _ in range(3)]
        coeffs = [complex(rng.normal(), rng.normal()) for _ in range(3)]
        lhs = step(superpose(list(zip(coeffs, states))), GROVER)
        rhs = superpose([(c, step(s, GROVER)) for c, s in zip(coeffs, states)])
        linear &= amp_diff(lhs, rhs) <= 1e-13

    report(9, "norm drift, exact translation covariance, linearity",
           drift <= 1e-10 and covariant and linear, started)


def test_criterion_10_localization():
    started = perf_counter()
    fixture = json.loads((FIXTURES / "localization.json").read_text())
    start = PositionState({(0, 0): (0.5, 0.5, 0.5, 0.5)})

    grover_series = return_probability_series(start, GROVER, fixture["t_max"])
    hadamard_series = return_probability_series(
        start, builtin_coin("hadamard4"), fixture["t_max"]
    )
    reproduced = max(
        abs(a - b) for a, b in zip(grover_series, fixture["grover_p0"])
    ) <= 1e-10 and max(
        abs(a - b) for a, b in zip(hadamard_series, fixture["hadamard4_p0"])
    ) <= 1e-10

    lo, hi = fixture["p_star_window"]
    p_star = min(grover_series[t] for t in range(lo, hi + 1) if t % 2 == 0)
    ok = (
        reproduced
        and fixture["p_star"] > 0.05
        and p_star > 0.05
        and hadamard_series[-1] < 0.01
    )
    report(10, "localized return probability reproduces the reference run", ok, started)


# The paper's "no period longer than two" holds when the point spectrum is
# one {+lambda, -lambda} pair, as for Grover: a state in those eigenspaces
# has U^2 = lambda^2 on it.  Coins with four constant eigenvalues
# {+-sqrt(mu1), +-sqrt(mu2)} revive with the period set by the order of
# mu1/mu2, or not at all.


def test_criterion_11_four_cycle_coin_revives_with_period_four():
    started = perf_counter()
    coin = permutation_coin((U, D, L, R))  # R->U->L->D->R
    found = detect_constant_eigenvalues(coin, 64, 1e-8)
    expected = [1, 1j, -1, -1j]
    rng = np.random.default_rng(1618)
    box = {(m, n): rng.normal(size=4) + 1j * rng.normal(size=4) for m in range(3) for n in range(3)}
    box_state = superpose([(1 / PositionState(box).norm(), PositionState(box))])
    ok = (
        found.four_constant
        and len(found.constants) == 4
        and all(abs(c.value - e) <= 1e-12 for c, e in zip(found.constants, expected))
        and detect_period(make_basis_state((0, 0), CoinComponent.R), coin, 12).period == 4
        and detect_period(box_state, coin, 12).period == 4
    )
    report(11, "4-cycle coin: constants {1, i, -1, -i}, every state revives at t = 4",
           ok, started)


def test_criterion_12_phased_swap_revives_with_period_six():
    started = perf_counter()
    coin = phased_swap(np.exp(2j * np.pi / 3))
    start = PositionState({(0, 0): (2**-0.5, 0, 2**-0.5, 0)})  # (R + U)/sqrt(2)
    found = detect_period(start, coin, 12)
    ok = (
        detect_constant_eigenvalues(coin, 64, 1e-8).four_constant
        and found.period == 6
        and np.allclose(found.fidelity_series[:6], [0, 0.25, 0, 0.25, 0, 1], rtol=0, atol=1e-12)
    )
    report(12, "phased swap (C_DU = e^{2 pi i/3}): (R + U)/sqrt(2) revives at t = 6",
           ok, started)


def test_criterion_13_irrational_phase_never_revives():
    started = perf_counter()
    coin = phased_swap(np.exp(1j * np.sqrt(2)))
    start = PositionState({(0, 0): (2**-0.5, 0, 2**-0.5, 0)})
    found = detect_period(start, coin, 40)
    # fidelity cos^2(t/sqrt(8)) at even t: it comes close to 1, never to it;
    # bounded over t_max, which is a check, not a proof
    ok = (
        detect_constant_eigenvalues(coin, 64, 1e-8).four_constant
        and found.period is None
        and max(found.fidelity_series) < 0.999
    )
    report(13, "phased swap with an irrational phase: no revival up to t = 40", ok, started)
