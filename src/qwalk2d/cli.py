"""Command-line front end: simulate, spectrum, stationary, revival.

Each subcommand writes machine-readable CSV/JSON files into the output
directory and prints a one-line summary to standard output; diagnostics go
to standard error.  Exit codes: 0 on success, 3 for a ``CoinError``, 2 for
any other ``ValueError`` or an ``OSError``: a bad option, an input file
that cannot be read or parsed, an ``--out`` that is not a directory, an
output file that cannot be written, or an input range (step counts, grid
and box sizes, tolerances) the library functions reject.
"""

import argparse
import json
import sys
from pathlib import Path

from .dynamics import (
    BUILTIN_COIN_NAMES,
    CoinError,
    CoinOperator,
    builtin_coin,
    evolve,
    load_coin,
)
from .revival import detect_period, find_local_stationary_states, grover_stationary_states, revival_state
from .spectral import detect_constant_eigenvalues
from .states import (
    CoinComponent,
    PositionState,
    _require_normalized,
    _write_csv,
    fidelity,
    load_state,
    make_basis_state,
    save_state,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COIN = 3

BUILTIN_INITIAL_NAMES = ("psi1", "psi2", "revival", "origin_symmetric")

def _resolve_coin(spec: str) -> CoinOperator:
    if spec in BUILTIN_COIN_NAMES:
        return builtin_coin(spec)
    path = Path(spec)
    if path.exists():
        return load_coin(path)  # CoinError propagates to the caller
    raise ValueError(
        f"unknown coin {spec!r}: not a built-in "
        f"({', '.join(BUILTIN_COIN_NAMES)}) and no such file"
    )


def _resolve_initial(spec: str) -> PositionState:
    if spec == "psi1":
        return grover_stationary_states()[0]
    if spec == "psi2":
        return grover_stationary_states()[1]
    if spec == "revival":
        return revival_state()
    if spec == "origin_symmetric":
        return PositionState({(0, 0): (0.5, 0.5, 0.5, 0.5)})
    if spec.startswith("basis:"):
        name = spec.split(":", 1)[1]
        try:
            component = CoinComponent[name]
        except KeyError:
            raise ValueError(f"unknown coin component {name!r} in {spec!r}") from None
        return make_basis_state((0, 0), component)
    path = Path(spec)
    if path.exists():
        state = load_state(path)  # a ValueError is a configuration error in main
        _require_normalized(state, f"--init {spec}")
        return state
    raise ValueError(
        f"unknown initial state {spec!r}: not a built-in "
        f"({', '.join(BUILTIN_INITIAL_NAMES)}, basis:R/L/U/D) and no such file"
    )


def _parse_complex_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 're,im', got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ValueError(f"expected 're,im', got {text!r}") from None


def _out_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"--out {path}: {exc}") from None
    return path


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    coin = _resolve_coin(args.coin)
    initial = _resolve_initial(args.init)
    final = evolve(initial, coin, args.steps)
    out = _out_dir(args.out)
    save_state(final, out / "state.csv")
    distribution = final.distribution()
    m, n = zip(*distribution)
    _write_csv(out / "distribution.csv", "m,n,prob", (m, n), (distribution.values(),))
    total = sum(distribution.values())
    print(
        f"simulate coin={args.coin} init={args.init} "
        f"steps={args.steps}: total_probability={total:.12g} "
        f"support={final.n_sites} fidelity_to_initial={fidelity(final, initial):.12g}"
    )
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    coin = _resolve_coin(args.coin)
    report = detect_constant_eigenvalues(coin, args.grid, args.tol)
    out = _out_dir(args.out)
    _write_json(out / "spectrum.json", report.to_json_dict())
    print(
        f"spectrum coin={args.coin} grid={args.grid} tol={args.tol:g}: "
        f"constants={len(report.constants)} pairing_ok={report.pairing_ok} "
        f"four_constant={report.four_constant} c_zero={report.profile.c_zero}"
    )
    return EXIT_OK


def cmd_stationary(args: argparse.Namespace) -> int:
    eigenvalue = _parse_complex_pair(args.eigenvalue)
    coin = _resolve_coin(args.coin)
    found = find_local_stationary_states(coin, eigenvalue, args.box)
    out = _out_dir(args.out)
    # files of an earlier, larger search would outlive this one's count
    for old in out.glob("stationary_*.csv"):
        if old.stem.removeprefix("stationary_").isdigit():
            old.unlink()
    for i, state in enumerate(found.states):
        save_state(state, out / f"stationary_{i:02d}.csv")
    print(
        f"stationary coin={args.coin} "
        f"lambda={eigenvalue.real:g},{eigenvalue.imag:g} "
        f"box={args.box}: states={len(found.states)}"
    )
    return EXIT_OK


def cmd_revival(args: argparse.Namespace) -> int:
    coin = _resolve_coin(args.coin)
    initial = _resolve_initial(args.init)
    report = detect_period(initial, coin, args.tmax, args.tol)
    out = _out_dir(args.out)
    _write_json(out / "revival.json", report.to_json_dict())
    returns = report.return_probability
    _write_csv(out / "return_probability.csv", "t,prob", (range(len(returns)),), (returns,))
    print(
        f"revival coin={args.coin} init={args.init} "
        f"tmax={args.tmax}: period={report.period}"
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk2d",
        description="Four-state quantum walks on the 2-D lattice: "
        "simulation, spectral scans, stationary states, revivals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="evolve an initial state and dump it")
    simulate.add_argument("--coin", required=True, help="built-in name or coin file")
    simulate.add_argument(
        "--init", required=True, help="built-in initial state name or state CSV file"
    )
    simulate.add_argument("--steps", type=int, required=True)
    simulate.add_argument("--out", type=Path, default=Path("."))

    spectrum = sub.add_parser(
        "spectrum",
        help="find constant eigenvalues in closed form and check them on a momentum grid",
    )
    spectrum.add_argument("--coin", required=True)
    spectrum.add_argument("--grid", type=int, default=64)
    spectrum.add_argument("--tol", type=float, default=1e-8)
    spectrum.add_argument("--out", type=Path, default=Path("."))

    stationary = sub.add_parser(
        "stationary", help="search a box for finite-support eigenstates"
    )
    stationary.add_argument("--coin", required=True)
    stationary.add_argument(
        "--lambda",
        dest="eigenvalue",
        default="1,0",
        help="target eigenvalue as 're,im' (default 1,0)",
    )
    stationary.add_argument("--box", type=int, default=2)
    stationary.add_argument("--out", type=Path, default=Path("."))

    revival = sub.add_parser("revival", help="detect revival period of an initial state")
    revival.add_argument("--coin", required=True)
    revival.add_argument("--init", required=True)
    revival.add_argument("--tmax", type=int, required=True)
    revival.add_argument("--tol", type=float, default=1e-10)
    revival.add_argument("--out", type=Path, default=Path("."))

    return parser


_HANDLERS = {
    "simulate": cmd_simulate,
    "spectrum": cmd_spectrum,
    "stationary": cmd_stationary,
    "revival": cmd_revival,
}


def _join_lambda(argv: list[str]) -> list[str]:
    """``--lambda X`` as ``--lambda=X``, since argparse reads X = -1,0 as an option."""
    joined = []
    for arg in argv:
        if joined and joined[-1] == "--lambda" and not arg.startswith("--"):
            joined[-1] = f"--lambda={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_lambda(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except CoinError as exc:
        print(f"qwalk2d: coin error: {exc}", file=sys.stderr)
        return EXIT_COIN
    except (ValueError, OSError) as exc:
        print(f"qwalk2d: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
