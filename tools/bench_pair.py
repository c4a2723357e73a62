#!/usr/bin/env python3
"""Paired before/after runs of one perfbench workload, kept as a BENCH_*.json record.

Run from the repository root:

    python3 tools/bench_pair.py --base <commit> --workload revival --seed 3 \\
        --pairs 10 --out BENCH_<n>.json

The base commit and HEAD are each exported once with ``git archive``, into
the temporary directories ``a`` and ``b``, so each side runs
``perfbench/run.py --trace 0`` from its committed files only, one process at
a time, for the run length that BENCHMARK.json sets.  Pair i (counted from 1)
runs the base first when i is odd and HEAD first when i is even.  The two
directories swap names every second pair, so pairs 1-4 run each side first
from each directory once, and a cost that follows the directory (the spread
workload's peak RSS moved by about 2.6% with it) cancels in the median.
Units, directions and bounds of the metrics are read from BENCHMARK.json
too.  If ``--out`` exists and records the same two commits, the new pairs
are added to its workload entry, so a held-out seed extends the same
record; the summaries are computed again over all pairs.  Medians and
quartiles are numpy percentiles (linear); a pair counts as won when HEAD's
value is strictly better, so ties count for neither side.
"""

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
DIRS = ("a", "b")
HOST_KEYS = ("nproc", "python", "numpy", "blas", "blas_threads", "cache_sizes")


def parse_result(stdout: str) -> dict:
    """The JSON object that perfbench/run.py prints as its last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    return json.loads(lines[-1])


def _stats(runs):
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": round(float(median), 6), "q1": round(float(q1), 6),
            "q3": round(float(q3), 6), "iqr": round(float(q3 - q1), 6), "runs": runs}


def _compare(pairs, name, spec):
    """Summary of one metric over ``pairs``: each side's stats and the pairs won.

    Values are rounded to 6 decimals first, as the record keeps them, so a
    record assembled again from its own runs is the same record.
    """
    runs = {side: [round(p[side]["metrics"][name]["value"], 6) for p in pairs]
            for side in SIDES}
    sign = 1 if spec["better"] == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
    parent, change = _stats(runs["parent"]), _stats(runs["change"])
    return {
        **spec,
        "parent": parent,
        "change": change,
        "change_better_in_pairs": f"{won}/{len(pairs)}",
        "median_relative_change": round(change["median"] / parent["median"] - 1, 4),
    }


def _seed_summary(pairs, metrics):
    summary = {}
    for name, spec in metrics.items():
        entry = _compare(pairs, name, spec)
        summary[name] = {
            "parent_median": entry["parent"]["median"],
            "parent_iqr": entry["parent"]["iqr"],
            "change_median": entry["change"]["median"],
            "change_better_in_pairs": entry["change_better_in_pairs"],
        }
    return summary


def assemble(pairs: list[dict], metrics: dict) -> dict:
    """A workload entry of a BENCH_*.json record from its pairs.

    ``pairs`` holds dicts with the keys ``seed``, ``first``, ``dirs`` (each
    side's export directory) and one parsed result per side; ``metrics``
    maps each end-to-end metric to its ``unit``, ``better`` and ``bound``.
    """
    return {
        "seeds": [p["seed"] for p in pairs],
        "first": [p["first"] for p in pairs],
        "dirs": {side: [p["dirs"][side] for p in pairs] for side in SIDES},
        "attempted": {side: [p[side]["attempted"] for p in pairs] for side in SIDES},
        "failed": {side: [p[side]["failed"] for p in pairs] for side in SIDES},
        "metrics": {name: _compare(pairs, name, spec) for name, spec in metrics.items()},
        "by_seed": {
            str(seed): _seed_summary([p for p in pairs if p["seed"] == seed], metrics)
            for seed in sorted({p["seed"] for p in pairs})
        },
    }


def pairs_of(entry: dict) -> list[dict]:
    """The pairs a workload entry was assembled from, as far as it records them."""
    return [
        {"seed": seed, "first": first,
         "dirs": {side: entry["dirs"][side][i] for side in SIDES}} | {
            side: {
                "attempted": entry["attempted"][side][i],
                "failed": entry["failed"][side][i],
                "metrics": {name: {"value": metric[side]["runs"][i]}
                            for name, metric in entry["metrics"].items()},
            }
            for side in SIDES
        }
        for i, (seed, first) in enumerate(zip(entry["seeds"], entry["first"]))
    ]


def schedule(i: int) -> tuple[tuple[str, str], dict]:
    """Pair i's (from 1) run order and the export directory of each side."""
    order = SIDES if i % 2 else SIDES[::-1]
    return order, dict(zip(SIDES, DIRS if (i - 1) // 2 % 2 == 0 else DIRS[::-1]))


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(commit: str, dest: Path) -> None:
    """The committed files of ``commit``, extracted into ``dest`` with ``git archive``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _run(checkout: Path, args, seconds) -> tuple[dict, dict]:
    """One perfbench run in ``checkout``: its parsed result and its run record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode not in (0, 1):
        sys.exit(f"bench_pair: {' '.join(cmd)} in {checkout} exited "
                 f"{proc.returncode}:\n{proc.stderr}")
    record = checkout / ".perfbench_out" / f"record-{args.workload}-seed{args.seed}-trace0.json"
    return parse_result(proc.stdout), json.loads(record.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit measured as the parent")
    parser.add_argument("--workload", required=True,
                        choices=("spread", "revival", "spectrum", "momentum"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    commits = {"parent": _git("rev-parse", args.base), "change": _git("rev-parse", "HEAD")}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {k: m[k] for k in ("unit", "better", "bound")}
               for m in spec["end_to_end"]}
    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    if record and [record[s]["commit"] for s in SIDES] != [commits[s] for s in SIDES]:
        sys.exit(f"bench_pair: {args.out} records other commits")
    entry = record.get("workloads", {}).get(args.workload)
    pairs = pairs_of(entry) if entry else []
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        workdir = Path(tmp)
        placed = dict(zip(SIDES, DIRS))
        for side in SIDES:
            export(commits[side], workdir / placed[side])
        for i in range(1, args.pairs + 1):
            order, dirs = schedule(i)
            if dirs != placed:
                os.rename(workdir / "a", workdir / "swap")
                os.rename(workdir / "b", workdir / "a")
                os.rename(workdir / "swap", workdir / "b")
                placed = dirs
            pair = {"seed": args.seed, "first": order[0], "dirs": dirs}
            for side in order:
                pair[side], run_record = _run(workdir / dirs[side], args,
                                              spec["run_seconds"])
                record.setdefault(side, {"commit": commits[side],
                                         "src_sha256": run_record["src_sha256"]})
            print(f"pair {i}: " + " ".join(
                f"{side} op_p50_s={pair[side]['metrics']['op_p50_s']['value']:.6g} "
                f"failed={pair[side]['failed']}" for side in SIDES), flush=True)
            pairs.append(pair)

    record.setdefault("title", _git("log", "-1", "--format=%s", commits["change"]))
    record["host"] = {key: run_record[key] for key in HOST_KEYS}
    record["command"] = ("python3 perfbench/run.py --workload <name> --seed <seed> "
                         f"--seconds {spec['run_seconds']} --trace 0")
    record["method"] = (
        "Written by tools/bench_pair.py. Each commit was exported once with git archive, "
        "into directories a and b, and ran one process at a time. Pair i (from 1) ran the "
        "parent first when i is odd and the change first when i is even ('first' lists the "
        "side that ran first). The two directories swapped names every second pair, so "
        "pairs 1-4 ran each side first from each directory once ('dirs' lists each side's "
        "directory per pair). Values are the host-normalised metrics that perfbench/run.py "
        "prints; median and quartiles are over the pairs (numpy percentile, linear), and "
        "by_seed repeats them for each seed. A pair is won when the change is strictly better.")
    record.setdefault("workloads", {})[args.workload] = assemble(pairs, metrics)
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
