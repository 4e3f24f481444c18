"""Measurement plumbing shared by the workloads: the benchmark's metric
table, robust statistics, environment capture, resource readings, the
timed-pass loop and the set-up probes.

Garbage collection stays **on** here (``repro.perf`` pauses it): a user
run pays for the collector, so the end-to-end numbers must too.  The
only concession to steadiness is one ``gc.collect()`` between passes,
so that a pass starts from the same heap state instead of inheriting
its predecessor's garbage.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Fewest timed passes behind an end-to-end number (the issue's floor).
MIN_TIMED_PASSES = 3
#: Fewest untraced passes kept in a ``--trace 1`` run, where the rest of
#: the window goes to the traced pass (they give the overhead ratio).
MIN_UNTRACED_PASSES_TRACED_RUN = 2


def load_benchmark() -> dict:
    """``BENCHMARK.json``: the one place metric names, units, directions
    and regression bounds are written down."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them
    (the driver's definition); degenerate for fewer than two values."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples")
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def best_decile(samples: Sequence[float], better: str) -> float:
    """A run's value from its per-pass samples: the 90th percentile in
    the metric's good direction (the best sample below ten of them).

    Not the median, on purpose.  Whatever disturbs a pass from outside
    -- a neighbour on the host, the hypervisor -- only ever slows it,
    in stretches of seconds to minutes, so the median of a run follows
    the host while the good tail stays where the code puts it: over the
    same raw samples the run-to-run spread of this estimator was half
    the median's (README, "Measured spread").  A regression in the code
    slows every pass and moves both alike.  The record keeps the
    median, the quartiles and the raw samples next to it.
    """
    return percentile(sorted(samples, reverse=(better == "lower")), 0.9)


# ----------------------------------------------------------------------
# Environment and resources
# ----------------------------------------------------------------------


def capture_env() -> Dict[str, object]:
    """What a record needs to be compared honestly with another one."""
    import repro.core.scoring as scoring

    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:  # the scalar backend runs without it
        numpy_version = None
    try:
        load1: Optional[float] = os.getloadavg()[0]
    except OSError:
        load1 = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "scoring_backend": scoring.resolve_backend(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "load1_at_start": load1,
        "platform": platform.platform(),
    }


def cpu_seconds() -> float:
    """User+system CPU of this process and of every child it has waited
    for (the parallel workload's workers are joined inside the pass)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb(include_children: bool) -> float:
    """``ru_maxrss`` of this process, plus the largest waited-for child
    when the workload forks workers (Linux reports KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


# ----------------------------------------------------------------------
# Timed passes
# ----------------------------------------------------------------------


def timed_passes(one_pass: Callable[[], object], budget_s: float, min_passes: int) -> List[object]:
    """Run ``one_pass`` until the next one would overrun ``budget_s``,
    and at least ``min_passes`` times; one collection between passes."""
    results: List[object] = []
    started = time.perf_counter()
    longest = 0.0
    while True:
        gc.collect()
        t0 = time.perf_counter()
        results.append(one_pass())
        longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        if len(results) >= min_passes and elapsed + longest > budget_s:
            return results


# ----------------------------------------------------------------------
# Set-up probes
# ----------------------------------------------------------------------


def probe_setup(workload: str, seed: int, smoke: bool, count: int) -> List[float]:
    """Wall seconds of ``count`` fresh interpreters doing the workload's
    set-up and nothing else: spawn -> import ``repro`` -> build the
    config -> first wired run ready -> exit.  One at a time."""
    command = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--probe-setup",
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    if smoke:
        command.append("--smoke")
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        done = subprocess.run(
            command, cwd=str(ROOT), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120
        )
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            raise RuntimeError(
                f"set-up probe for {workload} failed:\n{done.stderr.decode(errors='replace')}"
            )
        samples.append(elapsed)
    return samples
