"""The four benchmark workloads: seeded inputs, operations and output checks.

Every input the program sees is generated here from the seed and, for the
command-line operations, written as a coin file or a state CSV.  Every
operation's outputs are read back and compared with an independent dense
reference walk (``walk_reference``) or with the paper's known structure
(constant-eigenvalue pairs, stationary-state counts, the period-2 revival).
A check returns ``None`` when every output is right and otherwise a short
description of the first problem found.
"""

import contextlib
import io
import json
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import qwalk2d.cli as cli
import qwalk2d.dynamics as dynamics
import qwalk2d.revival as revival
from qwalk2d.dynamics import CoinOperator
from qwalk2d.states import PositionState
from walk_reference import eigen_residual, walk_series

NAMES = ("spread", "revival", "spectrum", "momentum")

# Sizes per workload.  FULL is what the benchmark measures; TOY keeps every
# code path and check but runs in well under a second, for the smoke tests.
FULL = {
    "spread": {"steps": 200},
    "revival": {"tmax": 150, "cheap_tmax": 4},
    "spectrum": {"grid": 256, "box": 8},
    # (steps, box) for the eig+solve branch and the short einsum-loop branch
    "momentum": {"long": (100, 256), "short": (8, 256)},
}
TOY = {
    "spread": {"steps": 12},
    "revival": {"tmax": 12, "cheap_tmax": 4},
    "spectrum": {"grid": 16, "box": 3},
    "momentum": {"long": (12, 32), "short": (4, 32)},
}

EXACT_TOL = 1e-12  # amplitude and probability agreement with the reference
NORM_TOL = 1e-9  # total probability of a command-line result
EIGEN_TOL = 1e-9  # residual of a found stationary state
CONSTANT_TOL = 1e-8  # the spectrum command's default tolerance
REVIVAL_TOL = 1e-10  # the revival command's default tolerance

STATE_HEADER = "m,n,re_R,im_R,re_L,im_L,re_U,im_U,re_D,im_D"

# the package's built-in coins, written out independently of it
GROVER = 0.5 * np.ones((4, 4)) - np.eye(4)
SWAP = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)
HADAMARD4 = np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]]) / 2.0
ORIGIN_SYMMETRIC = {(0, 0): np.full(4, 0.5, dtype=complex)}
REVIVAL_STATE = {
    (1, 0): np.array([0.5, 0, 0, 0.5], dtype=complex),
    (0, 1): np.array([0, 0.5, 0.5, 0], dtype=complex),
}


@dataclass
class Op:
    """One closed-loop operation: run it, then check everything it produced."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    work: float  # requested work units (site-steps or momentum cells)
    out: Path | None = None  # output directory, emptied before each run

    def prepare(self) -> None:
        if self.out is not None:
            shutil.rmtree(self.out, ignore_errors=True)


@dataclass
class Workload:
    unit: str  # "site_steps" or "cells": what ``Op.work`` counts
    cycle: list[Op]  # the closed loop repeats this list whole
    warmup: list[Op]  # one untimed operation of each kind, run in set-up
    # numbers the checks measured that the traced run reports per layer
    observed: dict = field(default_factory=dict)


# ---------------------------------------------------------------- inputs


def haar_coin(rng) -> np.ndarray:
    """A Haar-random 4x4 unitary (QR of a complex Ginibre matrix)."""
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    return q * np.exp(-1j * np.angle(np.diag(r)))[None, :]


def random_origin_state(rng) -> dict:
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    return {(0, 0): vec / np.linalg.norm(vec)}


def write_coin(path: Path, matrix) -> None:
    lines = []
    for row in np.asarray(matrix, dtype=complex):
        lines.append(" ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_state(path: Path, state: dict) -> None:
    rows = [STATE_HEADER]
    for (m, n) in sorted(state):
        values = [f"{part:.17g}" for z in state[m, n] for part in (z.real, z.imag)]
        rows.append(",".join([str(m), str(n), *values]))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


# ----------------------------------------------------------- running ops


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``qwalk2d.cli.main`` and capture its one-line summary."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


# ---------------------------------------------------------- reading back


def _read_table(path: Path, header: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
    if first != header:
        raise ValueError(f"{path.name}: header {first!r}, expected {header!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_state_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    rows = _read_table(path, STATE_HEADER)
    return rows[:, :2].astype(np.int64), rows[:, 2::2] + 1j * rows[:, 3::2]


def _compare_points(points, amps, ref_points, ref_amps, what: str) -> str | None:
    if points.shape != ref_points.shape or not np.array_equal(points, ref_points):
        return f"{what}: {len(points)} sites, reference has {len(ref_points)} or other points"
    err = float(np.abs(amps - ref_amps).max()) if len(amps) else 0.0
    if err > EXACT_TOL:
        return f"{what}: max |diff| from reference {err:.3e} > {EXACT_TOL:g}"
    return None


def _compare_series(values, ref, what: str) -> str | None:
    values = np.asarray(values, dtype=float)
    if values.shape != (len(ref),):
        return f"{what}: {values.shape[0] if values.ndim else 0} values, expected {len(ref)}"
    err = float(np.abs(values - np.asarray(ref)).max())
    if err > EXACT_TOL:
        return f"{what}: max |diff| from reference {err:.3e} > {EXACT_TOL:g}"
    return None


def _summary_field(text: str, name: str) -> str | None:
    match = re.search(rf"\b{name}=(\S+)", text)
    return match.group(1) if match else None


def _first(*problems):
    return next((p for p in problems if p), None)


# ---------------------------------------------------------------- spread


def build_spread(workdir: Path, rng, sizes: dict) -> Workload:
    """Long direct walk from one site with a seeded Haar coin."""
    steps = sizes["steps"]
    coin = haar_coin(rng)
    coin_path = workdir / "haar.coin"
    write_coin(coin_path, coin)
    _, _, site_steps, walk = walk_series(coin, ORIGIN_SYMMETRIC, steps)
    ref_points, ref_amps = walk.occupied()
    support = (steps + 1) ** 2  # light cone of a generic coin
    if len(ref_points) != support:
        raise RuntimeError(f"reference walk has {len(ref_points)} sites, expected {support}")
    out = workdir / "spread"
    argv = ["simulate", "--coin", coin_path, "--init", "origin_symmetric",
            "--steps", steps, "--out", out]

    def check(result) -> str | None:
        code, text = result
        if code != 0:
            return f"simulate exited {code}"
        total = float(_summary_field(text, "total_probability") or "nan")
        if not abs(total - 1.0) <= NORM_TOL:
            return f"summary total_probability={total!r}"
        if _summary_field(text, "support") != str(support):
            return f"summary support={_summary_field(text, 'support')}, expected {support}"
        points, amps = read_state_csv(out / "state.csv")
        problem = _compare_points(points, amps, ref_points, ref_amps, "state.csv")
        if problem:
            return problem
        total = float(np.sum(np.abs(amps) ** 2))
        if not abs(total - 1.0) <= NORM_TOL:
            return f"state.csv total probability {total!r}"
        dist = _read_table(out / "distribution.csv", "m,n,prob")
        if not np.array_equal(dist[:, :2].astype(np.int64), ref_points):
            return "distribution.csv: points differ from the reference"
        return _compare_series(dist[:, 2], np.sum(np.abs(ref_amps) ** 2, axis=1),
                               "distribution.csv")

    op = Op("simulate", lambda: run_cli(argv), check, site_steps, out)
    return Workload("site_steps", [op], [op])


# --------------------------------------------------------------- revival


def _revival_cli_op(kind, coin_spec, init_spec, initial, tmax, out):
    """The ``revival`` command on one start, with its reference series and period."""
    origin_ref, fidelity_ref, site_steps, _ = walk_series(GROVER, initial, tmax)
    period = next((t for t, f in enumerate(fidelity_ref, 1) if f >= 1 - REVIVAL_TOL), None)
    argv = ["revival", "--coin", coin_spec, "--init", init_spec, "--tmax", tmax, "--out", out]

    def check(result) -> str | None:
        code, text = result
        if code != 0:
            return f"revival exited {code}"
        if _summary_field(text, "period") != str(period):
            return f"summary period={_summary_field(text, 'period')}, expected {period}"
        report = json.loads((out / "revival.json").read_text(encoding="utf-8"))
        if report["period"] != period:
            return f"revival.json period={report['period']}, expected {period}"
        if period is not None:
            phase = complex(report["phase"]["re"], report["phase"]["im"])
            if abs(abs(phase) - 1.0) > NORM_TOL:
                return f"revival.json phase {phase} is not a unit phase"
        rows = _read_table(out / "return_probability.csv", "t,prob")
        if not np.array_equal(rows[:, 0], np.arange(tmax + 1)):
            return "return_probability.csv: step column is not 0..tmax"
        return _first(
            _compare_series(report["fidelity_series"], fidelity_ref, "revival.json fidelity_series"),
            _compare_series(rows[:, 1], origin_ref, "return_probability.csv"),
        )

    return Op(kind, lambda: run_cli(argv), check, site_steps, out), origin_ref, period


def build_revival(workdir: Path, rng, sizes: dict) -> Workload:
    """Grover walk of a seeded origin state: two alternating ops, plus a cheap one."""
    tmax = sizes["tmax"]
    initial = random_origin_state(rng)
    state_path = workdir / "origin.csv"
    write_state(state_path, initial)

    walk_op, origin_ref, period = _revival_cli_op(
        "revival_cli", "grover", state_path, initial, tmax, workdir / "revival")
    if period is not None:
        raise RuntimeError(f"seeded state revives at t={period}; the workload expects none")
    cheap_op, _, cheap_period = _revival_cli_op(
        "revival_cli_period2", "grover", "revival", REVIVAL_STATE,
        sizes["cheap_tmax"], workdir / "revival_cheap")
    if cheap_period != 2:
        raise RuntimeError(f"reference revival period {cheap_period}, expected 2")

    state = PositionState(initial)
    grover = CoinOperator(GROVER, name="grover")
    series_op = Op(
        "return_probability_series",
        lambda: revival.return_probability_series(state, grover, tmax),
        lambda series: _compare_series(series, origin_ref, "return_probability_series"),
        walk_op.work,
    )
    cycle = [walk_op, series_op, cheap_op]
    return Workload("site_steps", cycle, cycle)


# -------------------------------------------------------------- spectrum


def _spectrum_op(label, coin_spec, matrix, expect, constant, grid, box, out) -> Op:
    """Analyse one coin: ``spectrum``, then ``stationary`` per constant found.

    ``expect`` is "pair" (exactly {constant, -constant}), "four" (the whole
    spectrum is constant) or "none" (no constant eigenvalue).
    """

    def run():
        code, text = run_cli(["spectrum", "--coin", coin_spec, "--grid", grid, "--out", out])
        if code != 0:
            return code, text, []
        report = json.loads((out / "spectrum.json").read_text(encoding="utf-8"))
        searches = []
        for i, c in enumerate(report["constants"]):
            value = complex(c["re"], c["im"])
            sub = out / f"lambda_{i}"
            searches.append((value, sub, *run_cli(
                ["stationary", "--coin", coin_spec, "--box", box,
                 f"--lambda={value.real!r},{value.imag!r}", "--out", sub])))
        return code, text, searches

    per_value = {"pair": (box - 1) ** 2, "four": 2 * box * (box - 1), "none": 0}[expect]

    def check(result) -> str | None:
        code, text, searches = result
        if code != 0:
            return f"spectrum exited {code}"
        report = json.loads((out / "spectrum.json").read_text(encoding="utf-8"))
        values = [complex(c["re"], c["im"]) for c in report["constants"]]
        if report["grid_size"] != grid:
            return f"spectrum.json grid_size={report['grid_size']}"
        if _summary_field(text, "constants") != str(len(values)):
            return "summary constants count disagrees with spectrum.json"
        if expect == "none":
            if values or report["c_zero"]:
                return f"{label}: constants={values} c_zero={report['c_zero']}, expected none"
        else:
            if not (report["pairing_ok"] and report["c_zero"]):
                return f"{label}: pairing_ok={report['pairing_ok']} c_zero={report['c_zero']}"
            if report["four_constant"] != (expect == "four"):
                return f"{label}: four_constant={report['four_constant']}"
            if len(values) != 2 or any(
                min(abs(v - constant), abs(v + constant)) > CONSTANT_TOL for v in values
            ) or abs(values[0] + values[1]) > CONSTANT_TOL:
                return f"{label}: constants {values}, expected +-{constant}"
        if [s[0] for s in searches] != values:
            return f"{label}: stationary searches do not match the constants"
        for value, sub, scode, stext in searches:
            if scode != 0:
                return f"{label}: stationary exited {scode}"
            files = sorted(sub.glob("stationary_*.csv"))
            if len(files) != per_value or _summary_field(stext, "states") != str(per_value):
                return f"{label}: lambda={value:.6g} gave {len(files)} states, expected {per_value}"
            for path in files:
                points, amps = read_state_csv(path)
                if points.min() < 0 or points.max() >= box:
                    return f"{path.name}: support leaves the {box}x{box} box"
                norm = float(np.sqrt(np.sum(np.abs(amps) ** 2)))
                if abs(norm - 1.0) > NORM_TOL:
                    return f"{path.name}: norm {norm!r}"
                residual = eigen_residual(matrix, dict(zip(map(tuple, points.tolist()), amps)), value)
                if residual > EIGEN_TOL:
                    return f"{path.name}: |step(psi) - lambda psi| = {residual:.3e}"
        return None

    return Op(f"spectrum_{label}", run, check, grid * grid, out)


def build_spectrum(workdir: Path, rng, sizes: dict) -> Workload:
    """Six coins on both sides of the coarse pre-pass: grid scan plus box searches."""
    grid, box = sizes["grid"], sizes["box"]
    phases = np.exp(2j * np.pi * rng.uniform(size=4))
    global_phase = np.exp(2j * np.pi * rng.uniform())
    coins = [
        ("grover", None, GROVER, "pair", 1.0),
        ("grover_conjugated", "conj.coin",
         np.diag(phases) @ GROVER @ np.diag(phases.conj()), "pair", 1.0),
        ("grover_phase", "phase.coin", global_phase * GROVER, "pair", global_phase),
        ("swap", None, SWAP, "four", 1.0),
        ("hadamard4", None, HADAMARD4, "none", None),
        ("haar", "haar.coin", haar_coin(rng), "none", None),
    ]
    cycle = []
    for label, filename, matrix, expect, constant in coins:
        spec = label
        if filename is not None:
            spec = workdir / filename
            write_coin(spec, matrix)
        cycle.append(_spectrum_op(label, spec, matrix, expect, constant, grid, box,
                                  workdir / "spectrum" / label))
    # the Grover coin runs every phase: full detect grid, char-poly, box SVDs
    return Workload("cells", cycle, cycle[:1])


# -------------------------------------------------------------- momentum


def build_momentum(workdir: Path, rng, sizes: dict) -> Workload:
    """FFT evolution of a seeded origin state: the eig+solve and einsum branches."""
    matrix = haar_coin(rng)
    initial = random_origin_state(rng)
    state = PositionState(initial)
    coin = CoinOperator(matrix, name="haar")
    workload = Workload("cells", [], [])
    observed = workload.observed
    observed["max_abs_error"] = 0.0

    for kind in ("long", "short"):
        steps, box = sizes[kind]
        ref = walk_series(matrix, initial, steps)[3]

        def check(result, ref=ref) -> str | None:
            points = np.array(result.points, dtype=np.int64).reshape(-1, 2)
            amps = np.array([vec for _, vec in result.items()]).reshape(-1, 4)
            r = ref.radius
            if len(points) and np.abs(points).max() > r:
                return "evolve_momentum result reaches outside the light cone"
            grid = np.zeros_like(ref.grid)
            grid[:, points[:, 0] + r, points[:, 1] + r] = amps.T
            err = float(np.abs(grid - ref.grid).max())
            observed["max_abs_error"] = max(observed["max_abs_error"], err)
            if err > EXACT_TOL:
                return f"evolve_momentum: max |diff| from direct reference {err:.3e}"
            norm = float(np.sqrt(np.sum(np.abs(amps) ** 2)))
            if abs(norm - 1.0) > EXACT_TOL:
                return f"evolve_momentum: norm {norm!r}"
            return None

        op = Op(f"evolve_momentum_{kind}",
                lambda steps=steps, box=box: dynamics.evolve_momentum(state, coin, steps, box),
                check, box * box * steps)
        workload.cycle.append(op)
    workload.warmup = list(workload.cycle)
    return workload


BUILDERS = {
    "spread": build_spread,
    "revival": build_revival,
    "spectrum": build_spectrum,
    "momentum": build_momentum,
}


def build(name: str, workdir: Path, seed: int, sizes: dict) -> Workload:
    """Generate the workload's inputs from ``seed`` under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](workdir, np.random.default_rng(seed), sizes)
