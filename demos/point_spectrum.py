"""Which coins pin eigenvalues to fixed values at every momentum?

The walk step acts at each momentum pair as a 4x4 unitary.  An eigenvalue
that is the same at *every* momentum gives the position-space step a point
spectrum: the source of stationary states and revivals.  The detection
below takes its candidates in closed form from the coin's entries,
+-sqrt(mu) for at most two values of mu = v^2, and keeps those at which the
characteristic polynomial vanishes on a full momentum grid; the residual
column is the largest |p(v)| there.  Detected values always come in
{+v, -v} pairs, and their count is never exactly three (the polynomial
depends on v only through v^2).
"""

import numpy as np

from qwalk2d import CoinOperator, builtin_coin, detect_constant_eigenvalues, random_coin

coins = [builtin_coin(name) for name in ("grover", "hadamard4", "dft4", "swap")]
coins.append(CoinOperator(np.exp(0.8j) * builtin_coin("grover").matrix, name="grover*e^0.8i"))
coins.append(random_coin(np.random.default_rng(42)))

print(f"{'coin':16s} {'constants':34s} {'pairing':8s} {'all four':9s} residual")
for coin in coins:
    report = detect_constant_eigenvalues(coin, grid_size=64, tolerance=1e-8)
    if report.constants:
        values = ", ".join(f"{c.value:.4f}(x{c.multiplicity})" for c in report.constants)
        worst = max(c.max_residual for c in report.constants)
        print(f"{coin.name:16s} {values:34s} {str(report.pairing_ok):8s}"
              f" {str(report.four_constant):9s} {worst:.1e}")
    else:
        print(f"{coin.name:16s} {'(none: empty point spectrum)':34s} {'-':8s} {'-':9s} -")

print("\nthe swap coin freezes its entire spectrum -- its step squares to the")
print("identity -- which is why every value is reported as constant.")
