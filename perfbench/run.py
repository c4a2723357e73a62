"""Benchmark of qwalk2d: four seeded workloads, closed loop, one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spread --seed 1 --seconds 10 --trace 0

``--workload`` is spread, revival, spectrum, momentum, or ``all`` (each of
the four in its own process, one after the other).  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs half the time untraced and half
traced and prints the per-layer metrics.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Timings are
normalised to a reference host speed (see ``harness.HostClock``); the raw
wall times are printed beside them and kept in the run record.  The package is
imported from ``src/`` of the checkout and nowhere else.  Run records and
spans are written to ``.perfbench_out/``.  The exit code is 0 when every
output was correct, 1 when an output check failed and 2 when the benchmark
could not run.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the workloads are batched 4x4 algebra and sparse
# indexing, and one thread keeps runs steady on a shared machine.  It must
# be set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
NAMES = ("spread", "revival", "spectrum", "momentum")


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package() -> None:
    """Make ``src/qwalk2d`` of this checkout importable, or exit with 2."""
    src = ROOT / "src"
    if not (src / "qwalk2d" / "__init__.py").is_file():
        _fail(f"no package at {src / 'qwalk2d'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import qwalk2d

    if Path(qwalk2d.__file__).resolve().parent != (src / "qwalk2d").resolve():
        _fail(f"imported qwalk2d from {qwalk2d.__file__}, not from {src}")


def _print_result(payload: dict) -> None:
    print(json.dumps(payload))


def run_all(args) -> int:
    """Each workload in a child process, so set-up and memory are its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        child = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            _fail(f"workload {name} printed no result (exit {child.returncode})")
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    _print_result(summary)
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    _import_package()
    if args.workload == "all":
        return run_all(args)

    import harness

    record = harness.run_record(ROOT, args.seed, BLAS_THREADS)
    result = harness.run_workload(args.workload, args.seed, args.seconds, args.trace,
                                  ROOT, process_start=PROCESS_START, out_dir=OUT_DIR)
    record.update(result)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload={args.workload} seed={args.seed} loop=closed clients=1 "
          f"commit={record['commit']} nproc={record['nproc']} python={record['python']} "
          f"numpy={record['numpy']} blas={record['blas']} blas_threads={BLAS_THREADS}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print(f"failed_ratio = {failed / attempted:.6g} (failed={failed} attempted={attempted})")
    for metric, entry in result["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        raw = result["raw"]
        print(f"  work_per_s here is {result['work_metric']}")
        print(f"  raw wall time, not host-normalised (scale {raw['host_scale']:.4g}): "
              f"setup_s={raw['setup_s']:.4g} op_p50_s={raw['op_p50_s']:.4g}")
        print(f"  ops={result['ops']}, raw median per kind: " + ", ".join(
            f"{k}={v:.4g}s" for k, v in raw["op_p50_s_by_kind"].items()))
    _print_result({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    })
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
