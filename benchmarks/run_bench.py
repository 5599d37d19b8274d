#!/usr/bin/env python
"""Benchmark the four sampling methods and write ``BENCH_sampling.json``.

Runs every method in :data:`repro.experiments.harness.METHOD_ORDER`
(MC-VP, OS, OLS-KL, OLS) on registry synthetic datasets and records, per
(dataset, method) pair: wall-clock seconds, trials per second, peak
tracemalloc bytes, and — where the platform exposes it — the process's
``ru_maxrss`` high-water mark.  The output schema is stable (versioned
``format`` + ``kind`` discriminators, sorted keys) so downstream tooling
and the regression policy in ``docs/benchmarks.md`` can diff runs.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py
    PYTHONPATH=src python benchmarks/run_bench.py \
        --datasets abide movielens --trials 2000 --out BENCH_sampling.json

The default budgets are deliberately small (this is a pure-Python
reproduction of a C++ testbed); crank ``--trials`` up on faster
machines.  Metrics come from the same observability layer the CLI uses,
so each entry also embeds the per-method counters (prune rate, candidate
counts, lazy-cache hit rate, ...).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Dict, List, Optional

try:
    import resource
except ImportError:  # pragma: no cover - Windows has no resource module
    resource = None

from repro.datasets import dataset_names, load_dataset
from repro.experiments.harness import (
    METHOD_ORDER,
    ExperimentConfig,
    run_method,
)
from repro.observability import Observer

#: Version of the benchmark document layout.
BENCH_FORMAT = 1

#: Discriminator so arbitrary JSON files are rejected early.
BENCH_KIND = "repro-bench"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=(
            "Benchmark the sampling methods; write BENCH_sampling.json."
        )
    )
    parser.add_argument(
        "--out", default="BENCH_sampling.json", metavar="PATH",
        help="output JSON path (default: BENCH_sampling.json)",
    )
    parser.add_argument(
        "--datasets", nargs="+", default=["abide", "movielens"],
        choices=dataset_names(), metavar="NAME",
        help="registry datasets to sweep (default: abide movielens)",
    )
    parser.add_argument(
        "--profile", default="bench", choices=("bench", "paper"),
        help="dataset generation profile (default: bench)",
    )
    parser.add_argument(
        "--trials", type=int, default=1_000,
        help="direct/sampling-phase trials for OS and OLS (default: 1000)",
    )
    parser.add_argument(
        "--mcvp-trials", type=int, default=4,
        help="MC-VP trials (its per-trial cost dwarfs the others; "
             "default: 4)",
    )
    parser.add_argument(
        "--prepare", type=int, default=50,
        help="OLS preparing-phase trials (default: 50)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--methods", nargs="+", default=list(METHOD_ORDER),
        choices=METHOD_ORDER, metavar="NAME",
        help="methods to benchmark (default: all four)",
    )
    parser.add_argument(
        "--block-size", type=int, default=None, metavar="N",
        help="also benchmark each method at N trials per kernel "
             "block (method suffixed '-batched'): the scalar-vs-batched "
             "comparison for ols/ols-kl; mc-vp/os always run the wedge "
             "kernel, so for them it compares N with the default block "
             "(see docs/performance.md)",
    )
    parser.add_argument(
        "--adaptive", action="store_true",
        help="also benchmark each method in anytime adaptive mode "
             "(racing elimination + pre-screen; method suffixed "
             "'-adaptive', realised budgets in the counters; see "
             "docs/performance.md)",
    )
    return parser


def bench_entry(
    dataset: str,
    method: str,
    config: ExperimentConfig,
    label: Optional[str] = None,
) -> Dict:
    """One (dataset, method) measurement as a JSON-ready dict.

    ``label`` overrides the recorded method name — the scalar-vs-batched
    comparison reruns ``method`` with ``config.block_size`` set and
    records it as ``"<method>-batched"`` under the same schema.
    """
    graph = config.load(dataset)
    observer = Observer()
    measurement = run_method(
        graph, method, config, trace_memory=True, observer=observer
    )
    result = measurement.value
    trials_per_second = (
        result.n_trials / measurement.seconds
        if measurement.seconds > 0 else 0.0
    )
    snapshot = observer.metrics.to_dict()
    return {
        "dataset": dataset,
        "profile": config.profile,
        "method": label or method,
        "n_trials": result.n_trials,
        "best_probability": result.best_probability,
        "wall_seconds": measurement.seconds,
        "trials_per_second": trials_per_second,
        "peak_tracemalloc_bytes": measurement.peak_bytes,
        "ru_maxrss_kb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if resource is not None else None
        ),
        "degraded": result.degraded,
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
    }


def safe_bench_entry(
    dataset: str,
    method: str,
    config: ExperimentConfig,
    label: Optional[str] = None,
) -> Dict:
    """A :func:`bench_entry` that survives one method crashing.

    A single failing (dataset, method) pair must not void the whole
    sweep: the failure is recorded as a schema-compatible entry with an
    ``"error"`` key (and no timing fields), and every remaining pair
    still runs.  Downstream consumers skip entries carrying ``error``.
    """
    try:
        return bench_entry(dataset, method, config, label=label)
    except Exception as error:  # noqa: BLE001 - harness must finish
        print(
            f"  FAILED {label or method} on {dataset}: "
            f"{type(error).__name__}: {error}",
            file=sys.stderr,
        )
        return {
            "dataset": dataset,
            "profile": config.profile,
            "method": label or method,
            "error": f"{type(error).__name__}: {error}",
        }


def run_suite(args: argparse.Namespace) -> Dict:
    """The full benchmark document for ``args``."""
    config = ExperimentConfig(
        profile=args.profile,
        seed=args.seed,
        n_direct=args.trials,
        n_mcvp=args.mcvp_trials,
        n_prepare=args.prepare,
        n_sampling=args.trials,
    )
    batched = (
        replace(config, block_size=args.block_size)
        if args.block_size is not None else None
    )
    adaptive = replace(config, adaptive=True) if args.adaptive else None
    entries: List[Dict] = []
    for dataset in args.datasets:
        for method in args.methods:
            print(f"benchmarking {method} on {dataset} ...",
                  file=sys.stderr)
            entries.append(
                safe_bench_entry(dataset, method, config)
            )
            if batched is not None:
                print(f"benchmarking {method}-batched on {dataset} ...",
                      file=sys.stderr)
                entries.append(
                    safe_bench_entry(
                        dataset, method, batched,
                        label=f"{method}-batched",
                    )
                )
            if adaptive is not None:
                print(f"benchmarking {method}-adaptive on {dataset} ...",
                      file=sys.stderr)
                entries.append(
                    safe_bench_entry(
                        dataset, method, adaptive,
                        label=f"{method}-adaptive",
                    )
                )
    return {
        "format": BENCH_FORMAT,
        "kind": BENCH_KIND,
        "suite": "sampling",
        "config": {
            "profile": args.profile,
            "seed": args.seed,
            "trials": args.trials,
            "mcvp_trials": args.mcvp_trials,
            "prepare": args.prepare,
            "datasets": list(args.datasets),
            "methods": list(args.methods),
            "block_size": args.block_size,
            "adaptive": args.adaptive,
        },
        "entries": entries,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.block_size is not None and args.block_size < 1:
        parser.error("--block-size must be at least 1")
    document = run_suite(args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(document['entries'])} entries to {args.out}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
