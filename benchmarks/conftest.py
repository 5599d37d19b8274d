"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure of the paper at a scaled
trial budget (this is pure Python; the paper's testbed was C++17/-O3) and
asserts the paper's *qualitative* shape — who wins, in what order, where
the crossovers sit.  The rendered experiment reports are printed so that
``pytest benchmarks/ --benchmark-only -s`` (or the captured output in
bench_output.txt) doubles as the EXPERIMENTS.md source material.
"""

from __future__ import annotations

import pytest

from repro.datasets import load_dataset
from repro.experiments import ExperimentConfig
from repro.worlds import WorldSampler

#: Scaled budget used by every figure benchmark.  The paper's settings
#: are N=20 000 direct/sampling trials and 100 preparing trials; the
#: extrapolated columns in the timing figures scale measurements back up.
BENCH_CONFIG = ExperimentConfig(
    profile="bench",
    seed=0,
    n_direct=300,
    n_mcvp=3,
    n_prepare=100,
    n_sampling=600,
    paper_direct=20_000,
)

#: A faster two-dataset config for the sweep-style figures (8, 9).
SWEEP_CONFIG = ExperimentConfig(
    profile="bench",
    seed=0,
    n_direct=200,
    n_mcvp=2,
    n_prepare=60,
    n_sampling=400,
    paper_direct=20_000,
    datasets=("abide", "protein"),
)


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    return BENCH_CONFIG


@pytest.fixture(scope="session")
def sweep_config() -> ExperimentConfig:
    return SWEEP_CONFIG


@pytest.fixture(scope="session")
def bench_datasets():
    """All four bench-profile datasets, loaded once per session."""
    return {
        name: load_dataset(name, "bench", rng=0)
        for name in BENCH_CONFIG.datasets
    }


def weight_ordered_worlds(graph, n_worlds, seed):
    """``n_worlds`` sampled worlds as weight-descending present-edge
    arrays — the input of OS's per-world search
    (:func:`repro.butterfly.max_weight_butterflies`), which the
    ablations below run directly because OS itself runs the wedge
    kernel."""
    sampler = WorldSampler(graph, seed)
    order = graph.edges_by_weight_desc
    return [order[sampler.sample_mask()[order]] for _ in range(n_worlds)]
