"""Offline workloads: closed-loop ``find_mpmb`` sweeps on one thread.

One *pass* runs every query kind of the workload on every dataset, each
with its own run seed drawn from the workload seed.  The untraced run
times whole passes with no observer attached, scaled to reference host
speed (``common.host_scale``); the traced run replays
the same passes twice, without and with an ``Observer`` per query, and
reads the spans and counters the program records.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple

from repro.adaptive import prescreen_candidates
from repro.core import find_mpmb, prepare_candidates
from repro.datasets import load_dataset
from repro.kernels import build_wedge_index
from repro.observability import Observer

from check import answer_from_result, check_answer, load_reference
from common import (
    MIN_SAMPLES,
    SETUP_REPEATS,
    calibrate,
    calibration_s,
    harrell_davis,
    host_scale,
    peak_rss_mb,
    self_seconds,
    spans_by_name,
)

#: Budgets small enough that warming every code path takes ~1 s.
WARMUP_BUDGETS = {
    "mc-vp": {"n_trials": 2},
    "os": {"n_trials": 32},
    "ols": {"n_trials": 32, "n_prepare": 10},
    "ols-kl": {"n_trials": 32, "n_prepare": 10},
}

#: Upper bound on the passes one timed run may take.
MAX_PASSES = 1000

#: Imports plus dataset loads, timed inside a fresh interpreter.
SETUP_SCRIPT = """
import json, sys, time
start = time.perf_counter()
from repro.core import find_mpmb
from repro.datasets import load_dataset
config = json.loads(sys.argv[1])
for name in config["datasets"]:
    load_dataset(name, config["profile"], rng=config["dataset_seed"])
print(time.perf_counter() - start)
"""


@dataclass(frozen=True)
class Query:
    dataset: str
    method: str
    kwargs: Dict
    seed: int
    looks: int


def build_passes(config: Dict, workload: Dict, seed: int,
                 n_passes: int) -> List[List[Query]]:
    """``n_passes`` passes of the workload's queries, seeded by ``seed``."""
    rng = random.Random(f"{workload['name']}:{seed}")
    adaptive = workload["adaptive"]
    passes = []
    for _ in range(n_passes):
        queries = []
        for dataset in config["datasets"]:
            for spec in workload["queries"]:
                kwargs = dict(spec)
                method = kwargs.pop("method")
                kwargs["block_size"] = workload["block_size"]
                if adaptive:
                    kwargs["adaptive"] = True
                looks = kwargs["n_trials"] if adaptive else 1
                queries.append(Query(
                    dataset, method, kwargs, rng.randrange(2 ** 31),
                    max(1, looks),
                ))
        passes.append(queries)
    return passes


def measure_setup(config: Dict, env: Dict, repeats: int) -> List[float]:
    """Imports plus loading every dataset, in fresh interpreters, each
    scaled to reference host speed by a calibration taken just before."""
    payload = json.dumps({
        key: config[key] for key in ("datasets", "profile", "dataset_seed")
    })
    samples = []
    for _ in range(repeats):
        scale = host_scale(calibrate())
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, payload],
            env=env, capture_output=True, text=True, timeout=120,
            check=True,
        )
        samples.append(scale * float(done.stdout.strip().splitlines()[-1]))
    return samples


class OfflineRunner:
    """Holds the loaded graphs and reference for one benchmark run."""

    def __init__(self, config: Dict, workload: Dict) -> None:
        self.config = config
        self.workload = workload
        self.graphs = self.load_graphs()
        self.reference = load_reference()
        self.attempted = 0
        self.failures: List[str] = []
        self.wrong = 0

    def load_graphs(self) -> Dict:
        config = self.config
        return {
            name: load_dataset(
                name, config["profile"], rng=config["dataset_seed"]
            )
            for name in config["datasets"]
        }

    def warm_up(self) -> None:
        for dataset, graph in self.graphs.items():
            for spec in self.workload["queries"]:
                method = spec["method"]
                find_mpmb(
                    graph, method=method, rng=0,
                    block_size=self.workload["block_size"],
                    adaptive=True if self.workload["adaptive"] else None,
                    **WARMUP_BUDGETS[method],
                )

    def run(self, query: Query, observer=None) -> Tuple[float, object]:
        """Time one query and check its answer."""
        graph = self.graphs[query.dataset]
        started = time.perf_counter()
        try:
            result = find_mpmb(
                graph, method=query.method, rng=query.seed,
                observer=observer, **query.kwargs,
            )
        except Exception as error:  # noqa: BLE001 - counted as failed
            elapsed = time.perf_counter() - started
            self.attempted += 1
            self.failures.append(
                f"{query.dataset}/{query.method}: "
                f"{type(error).__name__}: {error}"
            )
            return elapsed, None
        elapsed = time.perf_counter() - started
        self.attempted += 1
        answer = answer_from_result(
            result, query.looks,
            epsilon=query.kwargs.get("epsilon", 0.1),
            delta=query.kwargs.get("delta", 0.1),
            mu=query.kwargs.get("mu", 0.05),
        )
        problems = check_answer(answer, self.reference[query.dataset],
                                graph)
        if problems:
            self.wrong += 1
            self.failures.append(
                f"{query.dataset}/{query.method} seed {query.seed}: "
                + "; ".join(problems)
            )
        return elapsed, result

    def run_passes(self, passes: List[List[Query]]) -> Tuple[List[float], float]:
        times = []
        started = time.perf_counter()
        for queries in passes:
            for query in queries:
                times.append(self.run(query)[0])
        return times, time.perf_counter() - started

    def measure(self, seed: int, seconds: float) -> List[float]:
        """Run whole passes until ``seconds`` and ``MIN_SAMPLES`` are met.

        Whole passes keep the mix of queries even; stopping on time
        rather than on a pass count sized from the first pass keeps one
        slow first pass from shortening the run.  Each query's seconds
        are scaled to reference host speed by the median of the last
        three calibration samples, one taken just before each query:
        the host's speed changes within seconds, and the median drops
        the odd sample an interrupt slowed.
        """
        times: List[float] = []
        recent: Deque[float] = deque(maxlen=3)
        started = time.perf_counter()
        for queries in build_passes(self.config, self.workload, seed,
                                    MAX_PASSES):
            for query in queries:
                recent.append(calibration_s())
                scale = host_scale(recent)
                times.append(scale * self.run(query)[0])
            if (time.perf_counter() - started >= seconds
                    and len(times) >= MIN_SAMPLES):
                break
        return times


def run_untraced(config: Dict, workload: Dict, seed: int, seconds: float,
                 env: Dict) -> Dict:
    # Set-up samples are split around the run so that a slow spell of
    # the host does not hit every sample at once.
    setup = measure_setup(config, env, SETUP_REPEATS // 2)
    runner = OfflineRunner(config, workload)
    runner.warm_up()
    times = runner.measure(seed, seconds)
    setup += measure_setup(config, env, SETUP_REPEATS - SETUP_REPEATS // 2)
    failed = len(runner.failures)
    # Rates are per second of scaled query time, which leaves out the
    # calibration samples taken between queries.
    query_seconds = sum(times)
    return {
        "attempted": runner.attempted,
        "failed": failed,
        "correct": runner.wrong == 0,
        "failures": runner.failures,
        "metrics": {
            "setup_s": statistics.median(setup),
            "query_s.p50": harrell_davis(times, 0.5),
            "query_s.p90": harrell_davis(times, 0.9),
            "queries_per_s": len(times) / query_seconds,
            # A closed-loop caller has no latency limit: goodput counts
            # the queries that succeeded and passed the check.
            "goodput_rps": (len(times) - failed) / query_seconds,
            "ok_share": 1.0 - failed / max(1, runner.attempted),
            "peak_rss_mb": peak_rss_mb(os.getpid()),
        },
        "samples": len(times),
    }


def run_traced(config: Dict, workload: Dict, seed: int, seconds: float,
               env: Dict) -> Dict:
    """Per-layer numbers from a separate run with an ``Observer``.

    Every query runs twice, untraced and traced, in alternating order,
    so the two walls see the same host conditions and their ratio is
    the tracing overhead.
    """
    runner = OfflineRunner(config, workload)
    runner.warm_up()
    probe = build_passes(config, workload, seed, 1)
    _, probe_wall = runner.run_passes(probe)
    passes = build_passes(
        config, workload, seed, max(1, round(seconds / (2 * probe_wall)))
    )
    records = []  # (query, observer, wall seconds, result)
    walls = {"untraced": 0.0, "traced": 0.0}
    # The order flips per query and per pass, so each query kind goes
    # first traced as often as untraced.
    flat = [
        (number + index, query) for number, queries in enumerate(passes)
        for index, query in enumerate(queries)
    ]
    for parity, query in flat:
        observer = Observer()
        for traced in (False, True) if parity % 2 == 0 else (True, False):
            elapsed, result = runner.run(query, observer if traced else None)
            if traced:
                records.append((query, observer, elapsed, result))
            walls["traced" if traced else "untraced"] += elapsed

    metrics: Dict[str, float] = {
        "observability.trace_overhead_share":
            walls["traced"] / walls["untraced"] - 1.0,
    }
    metrics.update(_layer_metrics(records, len(passes)))

    # Direct calls into layer entry points the spans do not isolate.
    load_samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        runner.load_graphs()
        load_samples.append(time.perf_counter() - started)
    metrics["datasets.load_s"] = statistics.median(load_samples)
    prescreen = []
    for index, (name, graph) in enumerate(runner.graphs.items()):
        samples = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            index_ = build_wedge_index(graph)
            samples.append(time.perf_counter() - started)
        metrics[f"kernels.wedge_index.build_s.{name}"] = (
            statistics.median(samples)
        )
        metrics[f"kernels.wedge_index.n_wedges.{name}"] = index_.n_wedges
        candidates = prepare_candidates(graph, 100, rng=index)
        samples = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            prescreen_candidates(candidates, rng=index)
            samples.append(time.perf_counter() - started)
        prescreen.append(statistics.median(samples))
    metrics["adaptive.prescreen_s"] = sum(prescreen) / len(prescreen)
    return {
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "correct": runner.wrong == 0,
        "failures": runner.failures,
        "metrics": metrics,
        "samples": len(records),
    }


def _layer_metrics(records, n_passes: int) -> Dict[str, float]:
    """Per-layer numbers from per-query observers."""
    loop_s: Dict[str, float] = {}
    loop_trials: Dict[str, float] = {}
    per_method: Dict[str, int] = {}
    wedge_spans = 0
    candidates_s = 0.0
    ordering_s = 0.0
    listed = 0.0
    ols_queries = 0
    kl_trials = 0.0
    kl_queries = 0
    vectorized = 0.0
    saved = 0.0
    used_adaptive = 0.0
    eliminated = 0.0
    certified = 0
    adaptive_queries = 0
    unspanned_builds = 0
    top_level = 0.0
    wall = 0.0
    for query, observer, elapsed, result in records:
        spans = observer.tracer.to_list()
        counters = observer.metrics.to_dict()["counters"]
        gauges = observer.metrics.to_dict()["gauges"]
        grouped = spans_by_name(spans)
        method = query.method
        per_method[method] = per_method.get(method, 0) + 1
        loop_s[method] = loop_s.get(method, 0.0) + self_seconds(
            spans, "trial-loop"
        )
        trials = counters.get("sampling.trials", 0.0)
        loop_trials[method] = loop_trials.get(method, 0.0) + trials
        wedge_spans += len(grouped.get("wedge-index", ()))
        ordering_s += sum(
            r["duration_ns"] for r in grouped.get("edge-ordering", ())
        ) / 1e9
        if method in ("ols", "ols-kl"):
            ols_queries += 1
            candidates_s += sum(
                r["duration_ns"]
                for r in grouped.get("candidate-generation", ())
            ) / 1e9
            listed += gauges.get("candidates.listed", 0.0)
        if method == "ols-kl":
            kl_queries += 1
            kl_trials += trials
        vectorized += counters.get("kernel.trials_vectorized", 0.0)
        if query.kwargs.get("adaptive"):
            adaptive_queries += 1
            saved += counters.get("adaptive.trials_saved", 0.0)
            used_adaptive += trials
            eliminated += counters.get("adaptive.candidates_eliminated", 0.0)
            guarantee = None if result is None else result.guarantee
            if (
                guarantee is not None
                and guarantee.realized_trials is not None
                and not result.degraded
            ):
                certified += 1
            if counters.get("adaptive.prescreen.samples", 0.0) > 0:
                # The pre-screen built its own wedge index, and no span
                # records that build.
                unspanned_builds += 1
        top_level += sum(
            r["duration_ns"] for r in spans
            if r["depth"] == 0 and r["duration_ns"] is not None
        ) / 1e9
        wall += elapsed
    n = max(1, len(records))
    metrics = {
        "kernels.wedge_index.builds": wedge_spans / n,
        "kernels.trials_vectorized": vectorized / n,
        "core.candidates_s": candidates_s / max(1, ols_queries),
        "core.edge_ordering_s": ordering_s / n,
        "core.candidates.listed": listed / max(1, ols_queries),
        "core.ols_kl.trials": kl_trials / max(1, kl_queries),
        "observability.span_coverage": top_level / wall if wall else 0.0,
    }
    if adaptive_queries:
        metrics.update({
            "adaptive.trials_saved_share": (
                saved / (saved + used_adaptive) if saved + used_adaptive
                else 0.0
            ),
            "adaptive.candidates_eliminated": eliminated / adaptive_queries,
            "adaptive.certified_share": certified / adaptive_queries,
            "adaptive.prescreen.unspanned_builds": unspanned_builds / n_passes,
        })
    for method, count in per_method.items():
        metrics[f"kernels.trial_loop_s.{method}"] = loop_s[method] / count
        metrics[f"kernels.trials_per_s.{method}"] = (
            loop_trials[method] / loop_s[method] if loop_s[method] else 0.0
        )
    return metrics


def run(config: Dict, workload: Dict, seed: int, seconds: float,
        trace: bool, env: Dict) -> Dict:
    if trace:
        return run_traced(config, workload, seed, seconds, env)
    return run_untraced(config, workload, seed, seconds, env)
