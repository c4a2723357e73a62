#!/usr/bin/env python3
"""Paired before/after runs of one perfbench workload, kept as a BENCH_*.json record.

Run from the repository root:

    python3 tools/bench_pair.py --base <commit> --workload revival --seed 3 \\
        --pairs 10 --out BENCH_<n>.json

The base commit and HEAD are each exported once with ``git archive``, into
the temporary directories ``a`` and ``b``, so each side runs
``perfbench/run.py --trace 0`` from its committed files only, one process at
a time, for the run length that BENCHMARK.json sets.  The side that runs
first alternates from pair to pair.  Pair 1 of an invocation starts with the
base when the record held an even number of invocations before it, and with
HEAD when it held an odd number, so a held-out seed appended as the second
invocation starts with HEAD.  The two
directories swap names every second pair, so pairs 1-4 run each side first
from each directory once, and a cost that follows the directory (the spread
workload's peak RSS moved by about 2.6% with it) cancels in the median.
Before pair 1 the side that pair 1 runs first runs once more, from the same
directory, and that run is left out of the pairs: the first spectrum run of
an invocation used to read the fastest of the record, and pair 1's first run
still read fast after the warm-up, which is why the side that starts
alternates too.  Its ``op_p50_s`` is kept under ``warmup``, one entry per
invocation, so the record's ``warmup`` list counts its invocations.
Each run's raw per-kind medians (``raw.op_p50_s_by_kind`` of its run record,
in seconds of wall time, not host-normalised) are kept under
``op_p50_s_by_kind``, per side and pair, so a record shows which of a
workload's operations moved.
Units, directions and bounds of the metrics are read from BENCHMARK.json
too.  If ``--out`` exists and records the same two commits, the new pairs
are added to its workload entry, so a held-out seed extends the same
record; the summaries are computed again over all pairs.  Medians and
quartiles are numpy percentiles (linear); a pair counts as won when HEAD's
value is strictly better, so ties count for neither side.  The ``FAILED``
lines of each run are printed as it ends and kept under ``problems``; the
exit code is 1 when any run of the workload's entry failed a check.  A run
that prints no result line (perfbench exits 1 on a traceback too), exits
with another code or runs past ``RUN_TIMEOUT`` seconds stops the tool with
the command, the directory, the exit code or "timed out" and the tail of the
run's stderr.  SIGTERM stops the tool as an exception does: the running
perfbench child is killed and the exports are removed.
"""

import argparse
import io
import json
import os
import signal
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
STDERR_LINES = 20  # the tail of a failed run's stderr that is printed
RUN_TIMEOUT = 900  # seconds a perfbench run may take


def parse_result(stdout: str) -> dict:
    """The JSON object that perfbench/run.py prints as its last line.

    Its ``problems`` are the text of the ``FAILED`` lines printed before it,
    the run's failed output checks (perfbench prints up to 5).
    """
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        raise ValueError("perfbench printed no result line")
    return result | {
        "problems": [line.removeprefix("FAILED ") for line in lines[:-1]
                     if line.startswith("FAILED ")]}


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
    side's export directory) and one parsed result per side, with the
    run's raw per-kind medians under ``op_p50_s_by_kind``; ``metrics``
    maps each end-to-end metric to its ``unit``, ``better`` and ``bound``.
    """
    return {
        "seeds": [p["seed"] for p in pairs],
        "first": [p["first"] for p in pairs],
        "dirs": {side: [p["dirs"][side] for p in pairs] for side in SIDES},
        "attempted": {side: [p[side]["attempted"] for p in pairs] for side in SIDES},
        "failed": {side: [p[side]["failed"] for p in pairs] for side in SIDES},
        "problems": {side: [p[side]["problems"] for p in pairs] for side in SIDES},
        "op_p50_s_by_kind": {side: [p[side]["op_p50_s_by_kind"] for p in pairs]
                             for side in SIDES},
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
                "problems": entry["problems"][side][i],
                "op_p50_s_by_kind": entry["op_p50_s_by_kind"][side][i],
                "metrics": {name: {"value": metric[side]["runs"][i]}
                            for name, metric in entry["metrics"].items()},
            }
            for side in SIDES
        }
        for i, (seed, first) in enumerate(zip(entry["seeds"], entry["first"]))
    ]


def schedule(i: int, invocation: int) -> tuple[tuple[str, str], dict]:
    """Pair i's (from 1) run order and the export directory of each side.

    ``invocation`` counts the invocations the record held before this one;
    an odd count starts pair 1 with the change.
    """
    order = SIDES if (i + invocation) % 2 else SIDES[::-1]
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


def _stop(cmd, checkout: Path, what: str, stderr: str):
    """Exit with the failed run's command, directory, outcome and stderr tail."""
    tail = "\n".join(stderr.splitlines()[-STDERR_LINES:])
    sys.exit(f"bench_pair: {' '.join(cmd)} in {checkout} {what}\n{tail}")


def _run(checkout: Path, args, seconds) -> tuple[dict, dict]:
    """One perfbench run in ``checkout``: its parsed result and its run record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT)
        # exit 1 is a failed check, or a traceback that printed no result line
        if proc.returncode not in (0, 1):
            raise ValueError("not a perfbench exit code")
        result = parse_result(proc.stdout)
    except subprocess.TimeoutExpired as err:
        # the output read before the timeout is kept as bytes, even with text=True
        _stop(cmd, checkout, f"timed out after {err.timeout:g} s",
              (err.stderr or b"").decode(errors="replace"))
    except ValueError as err:
        _stop(cmd, checkout, f"exited {proc.returncode}: {err}", proc.stderr)
    record = checkout / ".perfbench_out" / f"record-{args.workload}-seed{args.seed}-trace0.json"
    return result, json.loads(record.read_text(encoding="utf-8"))


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
    warmups = entry.get("warmup", []) if entry else []
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        workdir = Path(tmp)
        placed = dict(zip(SIDES, DIRS))
        for side in SIDES:
            export(commits[side], workdir / placed[side])
        invocation = len(warmups)
        first = schedule(1, invocation)[0][0]
        warmup, _ = _run(workdir / placed[first], args, spec["run_seconds"])
        warmups.append({"seed": args.seed, "side": first,
                        "op_p50_s": warmup["metrics"]["op_p50_s"]["value"]})
        print(f"warm-up: {first} op_p50_s={warmups[-1]['op_p50_s']:.6g} "
              f"failed={warmup['failed']}, left out of the pairs", flush=True)
        for i in range(1, args.pairs + 1):
            order, dirs = schedule(i, invocation)
            if dirs != placed:
                os.rename(workdir / "a", workdir / "swap")
                os.rename(workdir / "b", workdir / "a")
                os.rename(workdir / "swap", workdir / "b")
                placed = dirs
            pair = {"seed": args.seed, "first": order[0], "dirs": dirs}
            for side in order:
                result, run_record = _run(workdir / dirs[side], args, spec["run_seconds"])
                pair[side] = result | {
                    "op_p50_s_by_kind": run_record["raw"]["op_p50_s_by_kind"]}
                for problem in pair[side]["problems"]:
                    print(f"pair {i}: {side} FAILED {problem}", flush=True)
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
        "into directories a and b, and ran one process at a time. The side that ran first "
        "alternated from pair to pair, and pair 1 of the k-th invocation (from 1) appended "
        "to this record ran the parent first when k is odd and the change first when k is "
        "even ('first' lists the side that ran first). The two directories swapped names "
        "every second pair, so "
        "pairs 1-4 ran each side first from each directory once ('dirs' lists each side's "
        "directory per pair). Values are the host-normalised metrics that perfbench/run.py "
        "prints; median and quartiles are over the pairs (numpy percentile, linear), and "
        "by_seed repeats them for each seed. A pair is won when the change is strictly better. "
        "'problems' lists, per side and pair, the failed output checks that run printed, "
        "and 'op_p50_s_by_kind' the raw median seconds of each kind of operation that run "
        "timed (raw.op_p50_s_by_kind of its run record, not host-normalised). "
        "Before pair 1 of each invocation, the side that pair 1 ran first ran once more from "
        "its directory; that run is left out of the pairs, and 'warmup' keeps its seed, "
        "side and op_p50_s, one entry per invocation.")
    record.setdefault("workloads", {})[args.workload] = \
        assemble(pairs, metrics) | {"warmup": warmups}
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 1 if any(p[side]["failed"] for p in pairs for side in SIDES) else 0


def _terminate(signum, frame):
    sys.exit(f"bench_pair: stopped by signal {signum}")


if __name__ == "__main__":
    # SystemExit from the handler unwinds like any exception: subprocess.run
    # kills the running perfbench child and TemporaryDirectory removes the exports
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
