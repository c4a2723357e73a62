"""Closed-loop runner: set-up, timed phase, metrics and the run record.

One process runs one workload with a single client: the next operation
starts only after the previous one has finished and been checked.  The
timed phase repeats the workload's cycle of operations whole until the
operations' own wall time reaches the requested seconds, so every run
measures the same mix.
"""

import gc
import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

import numpy as np

import layer_trace
import workloads

SETUP_REPEATS = 3

# End-to-end metrics, measured with tracing off: (name, unit, direction).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
]

# what one unit of ``work_per_s`` is on each kind of workload
WORK_METRIC = {"site_steps": "site_steps_per_s", "cells": "cells_per_s"}


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, kind: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{kind}: {problem}")


def run_op(op: workloads.Op, tally: Tally) -> float:
    """Run and check one operation; return its wall seconds."""
    op.prepare()
    gc.collect()
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception:  # a raising operation is a failed one; keep the loop going
        seconds = time.perf_counter() - start
        tally.record(op.kind, "raised " + traceback.format_exc(limit=-1).strip())
        return seconds
    seconds = time.perf_counter() - start
    try:
        problem = op.check(result)
    except Exception:  # a missing or unreadable output fails the check
        problem = "check raised " + traceback.format_exc(limit=-1).strip()
    tally.record(op.kind, problem)
    return seconds


class HostClock:
    """Times a fixed computation that shares no code with qwalk2d.

    The speed of a shared host drifts by up to ~40% for seconds to minutes
    at a time, and every operation slows with it.  The reference runs
    between operations; a run's timed figures are its raw medians times
    ``REFERENCE_S`` over the run's median reference time, so they read as
    seconds on a host that runs the reference in ``REFERENCE_S``.  A change
    to qwalk2d cannot change the reference, so it still shows in full.
    Raw seconds go to the run record beside the normalised ones.
    """

    REFERENCE_S = 0.035

    def __init__(self):
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 1 << 40, size=50_000)
        self._matrices = rng.normal(size=(500, 4, 4)) + 1j * rng.normal(size=(500, 4, 4))
        self._grid = rng.normal(size=(4, 256, 256)) + 0j
        self._stream = rng.normal(size=2_000_000)
        self.readings = []

    def read(self) -> None:
        """One pass of a mix like the workloads': sort, 4x4 LAPACK, FFT,
        streaming past the caches, and bytecode."""
        start = time.perf_counter()
        np.unique(self._keys)
        for _ in range(4):
            self._stream *= -1.0
        np.linalg.eigvals(self._matrices)
        np.fft.fft2(self._grid, axes=(1, 2))
        total = 0
        for i in range(100_000):
            total += i * i
        self.readings.append(time.perf_counter() - start)

    def scale(self, first: int = 0) -> float:
        """Factor from raw to normalised seconds, over readings[first:]."""
        return self.REFERENCE_S / statistics.median(self.readings[first:])


def timed_phase(workload, budget_s: float, tally: Tally, clock: HostClock,
                tracer=None) -> list:
    """Repeat whole cycles until the operations' raw wall time reaches the budget.

    Returns one (kind, raw seconds, work) per operation, and reads the
    host clock after each.
    """
    samples = []
    total = 0.0
    while total < budget_s or not samples:
        for op in workload.cycle:
            if tracer is not None:
                tracer.op += 1
            seconds = run_op(op, tally)
            clock.read()
            samples.append((op.kind, seconds, op.work))
            total += seconds
    return samples


def per_kind_medians(samples) -> dict:
    """Median raw seconds per operation kind.

    Medians, not sums, so a slow stretch of the host pulls no figure along.
    """
    seconds = {}
    for kind, s, _ in samples:
        seconds.setdefault(kind, []).append(s)
    return {kind: statistics.median(v) for kind, v in seconds.items()}


def op_seconds(samples) -> float:
    """Median raw seconds per operation: the mean over kinds of each kind's median."""
    per_kind = per_kind_medians(samples)
    return sum(per_kind.values()) / len(per_kind)


def run_workload(name, seed, seconds, trace, root: Path, sizes=None,
                 process_start=None, out_dir=None) -> dict:
    """Set up, measure and check one workload; return the result record."""
    sizes = (sizes or workloads.FULL)[name]
    started = process_start if process_start is not None else time.perf_counter()
    import_s = time.perf_counter() - started
    clock = HostClock()
    workdir = root / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    tally = Tally()
    try:
        clock.read()
        setup_raw = []
        for rep in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            begin = time.perf_counter()
            workload = workloads.build(name, workdir / f"setup{rep}", seed, sizes)
            for op in workload.warmup:
                run_op(op, tally)
            setup_raw.append(time.perf_counter() - begin)
            clock.read()
        # imports once, plus the median of the repeated set-ups
        setup_s = import_s + statistics.median(setup_raw)
        setup_scale = clock.scale()

        result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
        if trace:
            # an untraced half and a traced half of the same length; their
            # per-operation difference is the tracing overhead
            mark = len(clock.readings)
            untraced = timed_phase(workload, seconds / 2, tally, clock)
            untraced_s = op_seconds(untraced) * clock.scale(mark)
            mark = len(clock.readings)
            tracer = layer_trace.Tracer()
            workload.observed["max_abs_error"] = 0.0
            with layer_trace.installed(tracer):
                traced = timed_phase(workload, seconds / 2, tally, clock, tracer)
            requested = sum(x[2] for x in traced) if workload.unit == "site_steps" else 0.0
            values = layer_trace.layer_metrics(
                tracer, len(traced), requested, workload.observed,
                op_seconds(traced) * clock.scale(mark) - untraced_s)
            units = {n: u for n, u, _ in layer_trace.PER_LAYER}
            result["traced_ops"] = len(traced)
            if out_dir is not None:
                out_dir.mkdir(parents=True, exist_ok=True)
                tracer.write(out_dir / f"spans-{name}-seed{seed}.jsonl")
        else:
            mark = len(clock.readings)
            samples = timed_phase(workload, seconds, tally, clock)
            scale = clock.scale(mark)
            per_kind = per_kind_medians(samples)
            cycle_s = sum(per_kind[op.kind] for op in workload.cycle)
            values = {
                "setup_s": setup_s * setup_scale,
                "op_p50_s": op_seconds(samples) * scale,
                "work_per_s": sum(op.work for op in workload.cycle) / (cycle_s * scale),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = {n: u for n, u, _ in END_TO_END}
            result["ops"] = len(samples)
            result["raw"] = {
                "setup_s": setup_s,
                "op_p50_s": op_seconds(samples),
                "op_p50_s_by_kind": per_kind,
                "host_scale": scale,
            }
            result["work_metric"] = WORK_METRIC[workload.unit]
        result["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
        result["setup_raw_s"] = [import_s, *setup_raw]
        result["reference_s"] = clock.readings
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["attempted"] = tally.attempted
    result["failed"] = tally.failed
    result["problems"] = tally.problems
    return result


# ------------------------------------------------------------ run record


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qwalk2d").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cache_sizes() -> dict:
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE"):
            sizes[parts[0]] = int(parts[1])
    return sizes


def run_record(root: Path, seed: int, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(root),
        "src_sha256": _source_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "cache_sizes": _cache_sizes(),
        "seed": seed,
        "loop": "closed, 1 client",
    }
