"""An exact two-step revival.

Superposing the +1 and -1 eigenstates with equal weight produces a state
supported on just two sites.  One step maps it onto the two *other* sites
of the block (an orthogonal configuration), and the next step brings it
back exactly: the quantum state itself revives, not merely the probability
distribution.
"""

from qwalk2d import builtin_coin, detect_period, fidelity, revival_state, step

grover = builtin_coin("grover")
state = revival_state()

print("t  occupied sites          fidelity to t=0")
current = state
for t in range(7):
    fid = fidelity(current, state)
    print(f"{t}  {str(current.points):22s} {fid:.12f}")
    current = step(current, grover)

report = detect_period(state, grover, t_max=12)
print(f"\ndetected period: {report.period}")
print(f"recovered phase: {report.phase:.6f}")
print(f"fidelity series: {[round(f, 6) for f in report.fidelity_series]}")
