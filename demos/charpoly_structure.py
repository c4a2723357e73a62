"""Coefficient structure behind the pairing rule.

Write the characteristic polynomial of the per-momentum step matrix as

    v^4 - e1 v^3 + e2 v^2 - e3 v + e4.

The constant term e4 is the coin determinant at every momentum, for any
coin: the product of the four eigenvalues, computed here by an eigensolve
at every grid cell, never leaves det C.  When some eigenvalue is
momentum-independent, the v^2 coefficient e2 must be momentum-independent
as well -- sampling its variance over a grid separates coins with a point
spectrum from generic ones.
"""

import numpy as np

from qwalk2d import builtin_coin, detect_constant_eigenvalues, momentum_propagator, random_coin

rng = np.random.default_rng(7)
coins = [builtin_coin(n) for n in ("grover", "hadamard4", "dft4", "swap")]
coins.append(random_coin(rng))

GRID = 32
momenta = 2 * np.pi * np.arange(GRID) / GRID

print(f"{'coin':10s} {'var(e2)':12s} {'e2 const?':10s} {'constants':10s} max|prod(eig) - det|")
for coin in coins:
    report = detect_constant_eigenvalues(coin, GRID, 1e-8)
    profile = report.profile
    n_const = len(report.constants)
    det_dev = max(
        abs(np.prod(np.linalg.eigvals(momentum_propagator(coin, (k, l)))) - profile.det_coin)
        for k in momenta
        for l in momenta
    )
    print(f"{coin.name:10s} {profile.e2_variance:<12.3e} {str(profile.c_zero):10s}"
          f" {n_const:<10d} {det_dev:.1e}")

print("\nevery coin with detected constants has a momentum-independent e2,")
print("and the product of the eigenvalues never budges from det(coin): it is")
print("pinned, so three constant eigenvalues would force a fourth.")
