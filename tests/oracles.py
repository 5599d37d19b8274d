"""Scalar reference searches the wedge kernel is tested against.

MC-VP and OS run only through the vectorised wedge kernel
(:mod:`repro.core.frequency`).  The reference searches evaluate the
same worlds one at a time:

* :func:`~repro.butterfly.bfc_vp.max_weight_butterflies_enumerated`
  is Algorithm 1's nested-loop angle enumeration (lines 5-17), the
  MC-VP reference (and the baseline the Figure 7/13 experiments time);
* :func:`~repro.core.ordering_sampling.os_trial` (the weight-ordered
  search the OLS preparing phase runs) is the OS reference.

:func:`mc_vp_oracle` and :func:`os_oracle` drive them over the same
:class:`~repro.worlds.sampler.WorldSampler` stream as the production
methods and assemble the same :class:`~repro.core.results.MPMBResult`,
so a test can compare whole result documents.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List

from repro.butterfly import (
    Butterfly,
    ButterflyKey,
    max_weight_butterflies_enumerated,
)
from repro.core.ordering_sampling import os_trial
from repro.core.results import MPMBResult
from repro.graph import (
    UncertainBipartiteGraph,
    degree_priority,
    expected_degree_priority,
)
from repro.sampling import ConvergenceTrace, checkpoint_schedule
from repro.worlds import WorldSampler

#: One reference trial: draw the next world from the sampler, fold the
#: trial's counters into the stats dict, return its winner set.
TrialFn = Callable[[WorldSampler, Dict[str, float]], List[Butterfly]]


def frequency_oracle(
    method: str,
    graph: UncertainBipartiteGraph,
    n_trials: int,
    trial: TrialFn,
    stats: Dict[str, float],
    rng=None,
    antithetic: bool = False,
    track: Iterable[ButterflyKey] = (),
    checkpoints: int = 40,
) -> MPMBResult:
    """Winner frequencies from one reference trial per sampled world."""
    sampler = WorldSampler(graph, rng, antithetic=antithetic)
    counts: Dict[ButterflyKey, int] = {}
    butterflies: Dict[ButterflyKey, Butterfly] = {}
    traces = {key: ConvergenceTrace(label=str(key)) for key in track}
    schedule = set(checkpoint_schedule(n_trials, checkpoints))
    for t in range(1, n_trials + 1):
        for butterfly in trial(sampler, stats):
            butterflies.setdefault(butterfly.key, butterfly)
            counts[butterfly.key] = counts.get(butterfly.key, 0) + 1
        if t in schedule:
            for key, trace in traces.items():
                trace.record(t, counts.get(key, 0) / t)
    return MPMBResult(
        method=method,
        graph=graph,
        n_trials=n_trials,
        estimates={key: c / n_trials for key, c in counts.items()},
        butterflies=butterflies,
        traces=traces,
        stats=stats,
    )


def mc_vp_oracle(
    graph: UncertainBipartiteGraph,
    n_trials: int,
    priority_kind: str = "degree",
    **kwargs,
) -> MPMBResult:
    """:func:`~repro.mc_vp` with the per-world enumeration, stats and all."""
    priority = (
        degree_priority(graph)
        if priority_kind == "degree"
        else expected_degree_priority(graph)
    )

    def trial(sampler, stats):
        winners, n_angles, n_checked = max_weight_butterflies_enumerated(
            graph, sampler.sample_mask(), priority
        )
        stats["angles_processed"] += n_angles
        stats["angles_stored_peak"] = max(
            stats["angles_stored_peak"], n_angles
        )
        stats["butterflies_checked"] += n_checked
        return winners

    stats = dict.fromkeys(
        ("angles_processed", "angles_stored_peak", "butterflies_checked"),
        0.0,
    )
    return frequency_oracle(
        "mc-vp", graph, n_trials, trial, stats, **kwargs
    )


def os_oracle(
    graph: UncertainBipartiteGraph, n_trials: int, **kwargs
) -> MPMBResult:
    """:func:`~repro.ordering_sampling` with one :func:`os_trial` per
    world (no stats: the search's counters differ from the kernel's)."""
    return frequency_oracle(
        "os", graph, n_trials,
        lambda sampler, stats: os_trial(graph, sampler), {}, **kwargs,
    )
