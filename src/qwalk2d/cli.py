"""Command-line front end: simulate, spectrum, stationary, revival.

Every subcommand takes ``--coin`` and ``--out``; ``simulate`` and
``revival`` also take ``--init``.  Each writes machine-readable CSV/JSON
files into the output directory and prints a one-line summary to standard
output; diagnostics go to standard error.  Exit codes: 0 on success, 3 for
a ``CoinError``, 2 for any other ``ValueError`` or an ``OSError``: a bad
option, an input file that cannot be read or parsed, an ``--out`` that is
not a directory, an output file that cannot be written, or an input range
(step counts, grid and box sizes) the library functions reject.  A run
whose output cannot be written leaves none of its files.
"""

import argparse
import json
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

from .dynamics import (
    BUILTIN_COIN_NAMES,
    CoinError,
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

_COINS = {name: partial(builtin_coin, name) for name in BUILTIN_COIN_NAMES}
_INITIAL_STATES = {
    "psi1": lambda: grover_stationary_states()[0],
    "psi2": lambda: grover_stationary_states()[1],
    "revival": revival_state,
    "origin_symmetric": lambda: PositionState({(0, 0): (0.5, 0.5, 0.5, 0.5)}),
    **{f"basis:{c.name}": partial(make_basis_state, (0, 0), c) for c in CoinComponent},
}


def _resolve(what: str, spec: str, builtins: dict, load):
    """``builtins[spec]()``, else ``load`` of the file ``spec`` names, else ValueError."""
    if spec in builtins:
        return builtins[spec]()
    path = Path(spec)
    if path.exists():
        return load(path)  # CoinError and ValueError propagate to main
    raise ValueError(
        f"unknown {what} {spec!r}: not a built-in ({', '.join(builtins)}) and no such file"
    )


def _load_initial(path: Path) -> PositionState:
    state = load_state(path)
    _require_normalized(state, f"--init {path}")
    return state


def _parse_complex_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 're,im', got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ValueError(f"expected 're,im', got {text!r}") from None


@contextmanager
def _outputs(out: Path):
    """Make the directory ``out`` and yield ``write(name, save, *args)``.

    ``write`` calls ``save(*args, out / name)``.  An OSError in the block
    removes the files written so far, new or overwritten, and propagates.
    """
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"--out {out}: {exc}") from None
    written = []

    def write(name: str, save, *args) -> None:
        save(*args, out / name)
        written.append(out / name)

    try:
        yield write
    except OSError:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _write_json(payload: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(args: argparse.Namespace) -> str:
    coin = _resolve("coin", args.coin, _COINS, load_coin)
    initial = _resolve("initial state", args.init, _INITIAL_STATES, _load_initial)
    final = evolve(initial, coin, args.steps)
    with _outputs(args.out) as write:
        write("state.csv", save_state, final)
        # built after save_state, so its rows and the state's are not held at once
        distribution = final.distribution()
        m, n = zip(*distribution)
        write("distribution.csv", _write_csv, "m,n,prob", (m, n), (distribution.values(),))
    total = sum(distribution.values())
    return (
        f"simulate coin={args.coin} init={args.init} "
        f"steps={args.steps}: total_probability={total:.12g} "
        f"support={final.n_sites} fidelity_to_initial={fidelity(final, initial):.12g}"
    )


def cmd_spectrum(args: argparse.Namespace) -> str:
    coin = _resolve("coin", args.coin, _COINS, load_coin)
    report = detect_constant_eigenvalues(coin, args.grid)
    with _outputs(args.out) as write:
        write("spectrum.json", _write_json, report.to_json_dict())
    return (
        f"spectrum coin={args.coin} grid={args.grid} tol={report.tolerance:g}: "
        f"constants={len(report.constants)} pairing_ok={report.pairing_ok} "
        f"four_constant={report.four_constant} c_zero={report.profile.c_zero}"
    )


def cmd_stationary(args: argparse.Namespace) -> str:
    eigenvalue = _parse_complex_pair(args.eigenvalue)
    coin = _resolve("coin", args.coin, _COINS, load_coin)
    found = find_local_stationary_states(coin, eigenvalue, args.box)
    with _outputs(args.out) as write:
        # files of an earlier, larger search would outlive this one's count
        for old in args.out.glob("stationary_*.csv"):
            if old.stem.removeprefix("stationary_").isdigit():
                old.unlink()
        for i, state in enumerate(found.states):
            write(f"stationary_{i:02d}.csv", save_state, state)
    return (
        f"stationary coin={args.coin} "
        f"lambda={eigenvalue.real:g},{eigenvalue.imag:g} "
        f"box={args.box}: states={len(found.states)}"
    )


def cmd_revival(args: argparse.Namespace) -> str:
    coin = _resolve("coin", args.coin, _COINS, load_coin)
    initial = _resolve("initial state", args.init, _INITIAL_STATES, _load_initial)
    report = detect_period(initial, coin, args.tmax)
    with _outputs(args.out) as write:
        write("revival.json", _write_json, report.to_json_dict())
        returns = report.return_probability
        write("return_probability.csv", _write_csv, "t,prob", (range(len(returns)),), (returns,))
    return (
        f"revival coin={args.coin} init={args.init} "
        f"tmax={args.tmax}: period={report.period}"
    )


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--coin", required=True, help="built-in name or coin file")
    shared.add_argument("--out", type=Path, default=Path("."))
    with_init = argparse.ArgumentParser(add_help=False, parents=[shared])
    with_init.add_argument(
        "--init", required=True, help="built-in initial state name or state CSV file"
    )
    parser = argparse.ArgumentParser(
        prog="qwalk2d",
        description="Four-state quantum walks on the 2-D lattice: "
        "simulation, spectral scans, stationary states, revivals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, parent, help in (
        ("simulate", cmd_simulate, with_init, "evolve an initial state and dump it"),
        ("spectrum", cmd_spectrum, shared,
         "find constant eigenvalues in closed form and check them on a momentum grid"),
        ("stationary", cmd_stationary, shared, "search a box for finite-support eigenstates"),
        ("revival", cmd_revival, with_init, "detect revival period of an initial state"),
    ):
        sub.add_parser(name, parents=[parent], help=help).set_defaults(handler=handler)
    simulate, spectrum, stationary, revival = sub.choices.values()

    simulate.add_argument("--steps", type=int, required=True)

    spectrum.add_argument("--grid", type=int, default=64)

    stationary.add_argument(
        "--lambda",
        dest="eigenvalue",
        default="1,0",
        help="target eigenvalue as 're,im' (default 1,0)",
    )
    stationary.add_argument("--box", type=int, default=2)

    revival.add_argument("--tmax", type=int, required=True)

    return parser


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
        print(args.handler(args))
    except CoinError as exc:
        print(f"qwalk2d: coin error: {exc}", file=sys.stderr)
        return EXIT_COIN
    except (ValueError, OSError) as exc:
        print(f"qwalk2d: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
