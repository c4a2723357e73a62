#!/usr/bin/env python3
"""Compare what the command line does at a base commit and at HEAD, command by command.

Run from the repository root:

    python3 tools/same_outputs.py --base <commit>

The base commit and HEAD are each exported as ``tools/bench_pair.py``
exports them, so only committed files take part.  Every command of
``COMMANDS`` runs as the ``qwalk2d`` entry point with that tree's ``src``
alone on PYTHONPATH, in a fresh directory that is also its ``--out``.  The
exit code, standard output, standard error (with the run directory written
as ``<out>``) and the bytes of every file left in the run directory are
compared.  The tool prints SAME or DIFF per command, with a diff of the
texts that differ, and exits 1 if any command differs.  For each output
file (JSON or CSV) that differs it prints how far it moved: the largest
|a - b| over the numbers at equal places and the path of that number (a CSV
is read as its columns, so ``re_R[11]`` is row 11 of column ``re_R``,
counting data rows from 0), or where the keys, lengths, types or other
values differ.  When a command's ``stationary_*.csv`` files differ, it also
prints how many states each side wrote and the largest entry of the
difference between the projectors onto the two spans: a search that finds
another basis of the same null space moves the files but not the span.
"""

import argparse
import csv
import difflib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pair import export  # noqa: E402

# steps of the two walks from the ``{init}`` state file (see ``write_init_state``)
INIT_STEPS = 12

# ``{out}`` is the run directory; ``{haar}`` a coin file of a seeded Haar coin;
# ``{conj}`` one of a phase-conjugated Grover coin (see ``write_conj_coin``);
# ``{init}`` a state file of a seeded state (see ``write_init_state``)
COMMANDS = [
    "simulate --coin grover --init origin_symmetric --steps 60 --out {out}",
    "simulate --coin {haar} --init origin_symmetric --steps 200 --out {out}",
    "simulate --coin dft4 --init basis:U --steps 9 --out {out}",
    "simulate --coin grover --init psi2 --steps 3 --out {out}",
    "spectrum --coin grover --grid 64 --out {out}",
    "spectrum --coin swap --grid 64 --out {out}",
    "spectrum --coin hadamard4 --grid 64 --out {out}",
    "stationary --coin grover --box 4 --out {out}",
    "stationary --coin swap --lambda -1,0 --box 3 --out {out}",
    # real coins: the search's SVD in real arithmetic, and a walk that keeps every bit
    "stationary --coin swap --lambda 0,1 --box 4 --out {out}",
    "stationary --coin grover --lambda -1,0 --box 8 --out {out}",
    "simulate --coin hadamard4 --init origin_symmetric --steps 100 --out {out}",
    "spectrum --coin {conj} --grid 256 --out {out}",
    # the spectrum workload's grid on a complex coin with no constant
    "spectrum --coin {haar} --grid 256 --out {out}",
    "stationary --coin {conj} --box 8 --out {out}",
    "stationary --coin {conj} --lambda -1,0 --box 8 --out {out}",
    "revival --coin grover --init revival --tmax 10 --out {out}",
    "revival --coin grover --init origin_symmetric --tmax 150 --out {out}",
    f"simulate --coin {{haar}} --init {{init}} --steps {INIT_STEPS} --out {{out}}",
    f"revival --coin grover --init {{init}} --tmax {INIT_STEPS} --out {{out}}",
    # complex coins: the revival scans' walk on real and imaginary planes
    "revival --coin dft4 --init origin_symmetric --tmax 60 --out {out}",
    f"revival --coin {{haar}} --init {{init}} --tmax {INIT_STEPS} --out {{out}}",
    "simulate --coin nope --init revival --steps 1 --out {out}",
    "simulate --coin grover --init psi3 --steps 1 --out {out}",
    "simulate --coin grover --init revival --steps -1 --out {out}",
    "stationary --coin grover --box 0 --out {out}",
    "stationary --coin grover --lambda nan,0 --out {out}",
    "",
    "simulate",
]

ENTRY = "import sys; from qwalk2d.cli import main; sys.exit(main())"


def _write_coin(path: Path, matrix: np.ndarray) -> None:
    """``matrix`` as a coin file, each entry written exactly."""
    path.write_text("".join(
        " ".join(f"{float(v.real)!r} {float(v.imag)!r}" for v in row) + "\n" for row in matrix
    ), encoding="utf-8")


def write_haar_coin(path: Path, seed: int) -> None:
    """A seeded Haar-random coin (QR of a complex Ginibre matrix) as a coin file."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    _write_coin(path, q * np.exp(-1j * np.angle(np.diag(r)))[None, :])


def write_conj_coin(path: Path, seed: int) -> None:
    """diag(p) G diag(p)* for the Grover coin G and seeded random phases p, as a coin file.

    It keeps Grover's constant eigenvalues +-1 and its stationary states up
    to local phases, but unlike Grover and swap it differs from its
    transpose, so a search or a walk that applies the coin by rows instead
    of columns gives other outputs.
    """
    phases = np.exp(1j * np.random.default_rng(seed).uniform(0, 2 * np.pi, 4))
    grover = 0.5 * np.ones((4, 4)) - np.eye(4)
    _write_coin(path, phases[:, None] * grover * phases.conj()[None, :])


def write_init_state(path: Path, seed: int) -> None:
    """A seeded, normalized state file: a line of sites along m and a distant cluster.

    The 48-site line at n = 0 walks ``INIT_STEPS`` steps in an (m, n) box; the
    3x3 cluster sits more than 2 * INIT_STEPS + 1 sites further along m, so
    it walks in windows of its own (rotated ones).
    """
    points = [(m, 0) for m in range(48)] + [(m, n) for m in range(90, 93) for n in range(40, 43)]
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(len(points), 4)) + 1j * rng.normal(size=(len(points), 4))
    amps /= np.linalg.norm(amps)
    rows = ("%d,%d," % point + ",".join(f"{float(x.real)!r},{float(x.imag)!r}" for x in vec)
            for point, vec in zip(points, amps))
    path.write_text("m,n,re_R,im_R,re_L,im_L,re_U,im_U,re_D,im_D\n"
                    + "".join(row + "\n" for row in rows), encoding="utf-8")


def _run(tree: Path, command: str, run_dir: Path) -> dict:
    """Exit code, output texts and files of one command run on ``tree``."""
    run_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = command.format(out=run_dir).split()
    proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=run_dir, env=env,
                          capture_output=True, text=True, timeout=600)
    files = {str(p.relative_to(run_dir)): p.read_bytes()
             for p in sorted(run_dir.rglob("*")) if p.is_file()}
    return {"exit code": proc.returncode,
            "stdout": proc.stdout.replace(str(run_dir), "<out>"),
            "stderr": proc.stderr.replace(str(run_dir), "<out>"),
            "files": files}


class _StructureDiffers(Exception):
    """Raised with the path where two parsed files stop having one shape."""


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _parsed(name: str, data: bytes):
    """A ``.json`` file as parsed; any other as CSV columns, numbers as floats."""
    if name.endswith(".json"):
        return json.loads(data)
    header, *rows = csv.reader(io.StringIO(data.decode()))
    return {column: [_cell(row[i]) for row in rows] for i, column in enumerate(header)}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _largest_diff(a, b, path: str = "") -> tuple[float, str]:
    """The largest |a - b| over the numbers at equal paths in ``a`` and ``b``, and its path.

    Raises ``_StructureDiffers`` at the first path where the keys, the
    lengths or the types differ, or where two leaves that are not numbers
    are unequal.
    """
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        pairs = [(f"{path}.{key}".lstrip("."), a[key], b[key]) for key in a]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = [(f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b))]
    elif _is_number(a) and _is_number(b):
        return abs(a - b), path
    elif type(a) is type(b) and a == b:
        return 0.0, path
    else:
        raise _StructureDiffers(path)
    return max((_largest_diff(x, y, where) for where, x, y in pairs),
               key=lambda found: found[0], default=(0.0, path))


def describe(name: str, base: bytes, head: bytes) -> str:
    """One line on how far the file ``name`` moved from ``base`` to ``head``."""
    try:
        diff, path = _largest_diff(_parsed(name, base), _parsed(name, head))
    except _StructureDiffers as exc:
        return f"  {name}: structure differs" + (f" at {exc}" if str(exc) else "")
    return f"  {name}: max |diff| {diff:.2g} at {path}"


_STATIONARY = re.compile(r"stationary_\d+\.csv")


def describe_span(base: dict, head: dict) -> str:
    """One line on the ``stationary_*.csv`` files of two runs: both counts and how far the span moved.

    The states are read as orthonormal, as the search writes them, so the
    span's projector is the sum of their outer products.
    """
    tables = [[np.loadtxt(io.BytesIO(files[name]), delimiter=",", skiprows=1, ndmin=2)
               for name in sorted(files) if _STATIONARY.fullmatch(name)]
              for files in (base, head)]
    sites = sorted({(int(m), int(n)) for side in tables for table in side
                    for m, n in table[:, :2]})
    index = {site: i for i, site in enumerate(sites)}
    projectors = []
    for side in tables:
        rows = np.zeros((len(side), len(sites), 4), dtype=complex)
        for row, table in zip(rows, side):
            row[[index[int(m), int(n)] for m, n in table[:, :2]]] = \
                table[:, 2::2] + 1j * table[:, 3::2]
        rows = rows.reshape(len(side), -1)
        projectors.append(rows.T @ rows.conj())
    moved = float(np.abs(projectors[0] - projectors[1]).max(initial=0.0))
    return (f"  stationary_*.csv: {len(tables[0])} states against {len(tables[1])}, "
            f"span projectors differ by at most {moved:.2g}")


def compare(base: Path, head: Path, commands: list[str]) -> int:
    """Run ``commands`` on the trees ``base`` and ``head``; 1 if any differs, else 0."""
    differ = False
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as workdir:
        for i, command in enumerate(commands):
            runs = [_run(tree, command, Path(workdir) / side / str(i))
                    for side, tree in (("base", base), ("head", head))]
            parts = [key for key in runs[0] if runs[0][key] != runs[1][key]]
            differ = differ or bool(parts)
            print(f"{'DIFF' if parts else 'SAME'}  qwalk2d {command}".rstrip()
                  + (f"  ({', '.join(parts)})" if parts else ""))
            if "files" in parts:
                base_files, head_files = runs[0]["files"], runs[1]["files"]
                names = [n for n in sorted(base_files.keys() | head_files.keys())
                         if base_files.get(n) != head_files.get(n)]
                print("  files differ: " + ", ".join(names))
                for n in names:
                    if n in base_files and n in head_files:
                        print(describe(n, base_files[n], head_files[n]))
                if any(_STATIONARY.fullmatch(n) for n in names):
                    print(describe_span(base_files, head_files))
            for key in ("stdout", "stderr"):
                if key in parts:
                    sys.stdout.writelines(difflib.unified_diff(
                        runs[0][key].splitlines(True), runs[1][key].splitlines(True),
                        f"base {key}", f"head {key}"))
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit compared with HEAD")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs-trees-") as trees:
        base, head = Path(trees) / "base", Path(trees) / "head"
        export(args.base, base)
        export("HEAD", head)
        files = {"haar": Path(trees) / "haar.coin", "conj": Path(trees) / "conj.coin",
                 "init": Path(trees) / "init.csv"}
        write_haar_coin(files["haar"], seed=3)
        write_conj_coin(files["conj"], seed=3)
        write_init_state(files["init"], seed=3)
        # {out} stays in place for ``_run``
        return compare(base, head, [c.format(out="{out}", **files) for c in COMMANDS])


if __name__ == "__main__":
    sys.exit(main())
