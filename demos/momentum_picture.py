"""Two routes to the same evolution.

The direct route applies coin-and-shift to the sparse state, step by step.
The momentum route Fourier-transforms the state over a periodic box, where
each step is just a 4x4 matrix per momentum cell, applies its power to the
Fourier vectors, and transforms back; since U(k + pi, l + pi) = -U(k, l),
the power is taken on half the momentum cells only.  The box must fit the
wavefront (support span plus 2*steps sites; the call raises otherwise), and
then the two agree to near machine precision.  The transforms run on the
smallest even box per axis that holds the wavefront and has no prime factor
above 7, whatever box is given: here 2 + 100 sites round up to
108 = 2^2 * 3^3, not 128.
"""

from time import perf_counter

from qwalk2d import builtin_coin, evolve, evolve_momentum, revival_state, superpose

steps, box = 50, 128
print(f"steps={steps}, box={box}x{box}")

start = revival_state()
for name in ("grover", "hadamard4", "dft4"):
    coin = builtin_coin(name)

    t0 = perf_counter()
    direct = evolve(start, coin, steps)
    t_direct = perf_counter() - t0

    t0 = perf_counter()
    momentum = evolve_momentum(start, coin, steps, box)
    t_momentum = perf_counter() - t0

    diff = superpose([(1, direct), (-1, momentum)])
    worst = max((abs(v).max() for _, v in diff.items()), default=0.0)
    print(f"{name:10s} sites={direct.n_sites:6d}  direct {t_direct*1e3:6.1f} ms"
          f"  momentum {t_momentum*1e3:6.1f} ms  max amp diff {worst:.2e}")
