"""Helpers shared by the offline and service workloads."""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from typing import Dict, Iterable, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))

#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 5

#: Fewest latency samples a run takes, so p90 has ≥10 samples above it.
MIN_SAMPLES = 100

#: Seconds one ``calibration_s`` sample takes on the 2-vCPU host the
#: benchmark was tuned on, at its quiet speed.  End-to-end times are
#: reported at this speed (see ``host_scale``).
REFERENCE_CALIBRATION_S = 0.0095

#: Calibration samples taken around each set-up or service run.
CALIBRATION_SAMPLES = 5


def load_config() -> Dict:
    """The workload definitions in ``workloads.json``."""
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as f:
        return json.load(f)


@functools.lru_cache(maxsize=None)
def _calibration_input():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.integers(0, 2000, 50_000), rng.random(50_000)


def calibration_s() -> float:
    """Seconds one run of a fixed kernel takes: the host's current speed.

    The kernel mixes interpreter bytecode with numpy array passes, as
    the program does, and calls no program code, so no change to the
    program moves it.  On a shared host, neighbours slow this process
    by up to a third for minutes at a time, and the kernel slows with
    the queries, so times scaled by it repeat across runs where raw
    times do not.
    """
    import numpy as np

    keys, values = _calibration_input()
    started = time.perf_counter()
    total = 0
    for i in range(15_000):
        total += i * i % 7
    order = np.argsort(keys, kind="stable")
    np.cumsum(values[order])
    np.unique(keys)
    return time.perf_counter() - started


def host_scale(samples: Sequence[float]) -> float:
    """Factor from seconds measured at the host speed of the calibration
    ``samples`` to seconds at ``REFERENCE_CALIBRATION_S``."""
    return REFERENCE_CALIBRATION_S / statistics.median(samples)


def calibrate() -> List[float]:
    return [calibration_s() for _ in range(CALIBRATION_SAMPLES)]


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of process ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def spans_by_name(spans: Iterable[Dict]) -> Dict[str, List[Dict]]:
    """Group exported span records by name.

    Durations stay valid when concurrent requests share one tracer;
    paths and depths do not, so per-layer time is summed by name.
    """
    grouped: Dict[str, List[Dict]] = {}
    for record in spans:
        if record.get("duration_ns") is not None:
            grouped.setdefault(record["name"], []).append(record)
    return grouped


def seconds(records: Iterable[Dict]) -> float:
    return sum(record["duration_ns"] for record in records) / 1e9


def self_seconds(spans: Sequence[Dict], name: str) -> float:
    """Time inside spans called ``name`` not covered by a child span.

    Children are the spans one level deeper that start inside the
    parent's interval; only valid for a tracer no other thread shared.
    """
    total = 0
    for parent in spans:
        if parent["name"] != name or parent["duration_ns"] is None:
            continue
        start = parent["start_ns"]
        end = start + parent["duration_ns"]
        covered = sum(
            child["duration_ns"] or 0 for child in spans
            if child["depth"] == parent["depth"] + 1
            and start <= child["start_ns"] < end
        )
        total += parent["duration_ns"] - covered
    return total / 1e9


def harrell_davis(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-quantile (0 < q < 1).

    A Beta-weighted average of all order statistics.  Where latencies
    fall in clusters (one per query kind), a plain sample quantile
    jumps between the edge samples of two clusters; this estimator
    moves smoothly, so it repeats more closely run to run.
    """
    import numpy as np

    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = len(ordered)
    if n < 2:
        return float(ordered[0]) if n else 0.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 40_001)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.nan_to_num(np.exp(log_pdf - np.nanmax(log_pdf[1:-1])),
                        nan=0.0, posinf=0.0)
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ ordered)
