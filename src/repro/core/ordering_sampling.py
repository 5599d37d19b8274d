"""Algorithm 2 — Ordering Sampling (OS).

OS keeps MC-VP's outer Monte-Carlo loop but replaces the per-trial
butterfly enumeration with the Section V weight-ordered search
(:func:`repro.butterfly.max_weight.max_weight_butterflies`): edges are
consumed heaviest-first, only the top-2 angle classes per endpoint pair
are stored, and only maximum-weight butterflies are materialised.
:func:`ordering_sampling` finds the same winner sets through the wedge
kernel shared with MC-VP (:mod:`repro.core.frequency`), whose
bound-ordered group scan is the same early exit.  The search itself
runs as :func:`os_trial` in the OLS preparing phase (its three
optimisations stay individually toggleable there for the ablations) and
per world on graphs whose wedge index would not fit in memory.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..butterfly import Butterfly, ButterflyKey, max_weight_butterflies
from ..graph import UncertainBipartiteGraph
from ..kernels import WedgeBlockKernel
from ..observability import Observer, ensure_observer
from ..runtime.policy import RuntimePolicy
from ..sampling import RngLike
from ..worlds import WorldSampler
from .frequency import run_winner_frequency
from .results import MPMBResult


def os_trial(
    graph: UncertainBipartiteGraph,
    sampler: WorldSampler,
    prune: bool = True,
    pair_side: str = "auto",
) -> List[Butterfly]:
    """One OS trial (Algorithm 2 lines 4-20): sample a world, return its
    maximum-weight butterfly set ``S_MB`` (possibly empty)."""
    mask = sampler.sample_mask()
    order = graph.edges_by_weight_desc
    present_sorted = order[mask[order]]
    search = max_weight_butterflies(
        graph, present_sorted, prune=prune, pair_side=pair_side
    )
    return search.butterflies


def ordering_sampling(
    graph: UncertainBipartiteGraph,
    n_trials: int,
    rng: RngLike = None,
    track: Optional[Iterable[ButterflyKey]] = None,
    checkpoints: int = 40,
    antithetic: bool = False,
    block_size: Optional[int] = None,
    bytes_budget: Optional[int] = None,
    runtime: Optional[RuntimePolicy] = None,
    observer: Optional[Observer] = None,
    adaptive=None,
) -> MPMBResult:
    """Run Ordering Sampling for ``n_trials`` Monte-Carlo rounds.

    Args:
        graph: The uncertain bipartite network.
        n_trials: ``N_os`` — number of sampled possible worlds.
        rng: Seed or generator.
        track: Optional butterfly keys to trace (Figure 11).
        checkpoints: Number of evenly spaced trace checkpoints.
        antithetic: Sample worlds in antithetic pairs (variance
            reduction; see :class:`~repro.worlds.sampler.WorldSampler`).
        block_size: Worlds drawn per vectorised RNG call and evaluated
            together by the wedge kernel in ``rtol`` tie mode, which
            reproduces the weight-ordered search's
            :func:`~repro.butterfly.max_weight.weights_equal` winner
            classes; ``None`` uses
            :data:`~repro.kernels.blocks.DEFAULT_BLOCK_SIZE`.  Winner
            sets, traces and estimates are bit-identical for every
            block size; see ``docs/kernels.md``.
        bytes_budget: Peak working-set bytes one kernel block may use
            (``None`` uses the 64 MiB default); the effective block
            size is shrunk to fit.
        runtime: Optional :class:`~repro.runtime.policy.RuntimePolicy`
            enabling checkpoint/resume, deadlines, and graceful
            degradation for the trial loop.
        observer: Optional :class:`~repro.observability.Observer`
            recording the ``edge-ordering``/``sampling`` spans, trial
            throughput, and the ``os.*`` counters (including the
            ``os.prune_rate`` of the Section V-B early exit).
        adaptive: Optional :class:`~repro.adaptive.AdaptiveConfig` (or
            anything :func:`~repro.adaptive.resolve_adaptive` accepts)
            enabling the anytime racing stop rule — the run ends early,
            certified, once the incumbent butterfly's lower confidence
            limit clears every rival's (and the unseen-butterfly
            phantom's) upper limit.  ``None`` (default) keeps the fixed
            budget bit-identical.

    Returns:
        An :class:`~repro.core.results.MPMBResult` with ``method="os"``
        and the scan's work counters: ``wedges_scanned`` (wedge
        presence evaluations; on the per-world path, the angles the
        weight-ordered search formed) and ``trials_pruned`` (worlds
        whose scan exited early).
    """
    observer = ensure_observer(observer)
    # Only the per-world search reads the weight-ordered edge index; on
    # indexable graphs the span times an unused argsort, kept while the
    # observability tests and perfbench's ``core.edge_ordering_s`` read
    # it (ROADMAP open item 5).
    with observer.span("edge-ordering"):
        graph.edges_by_weight_desc
    return run_winner_frequency(
        graph, n_trials, method="os", tie_mode="rtol",
        priority_kind="degree",
        stats={"wedges_scanned": 0.0, "trials_pruned": 0.0},
        evaluate=_evaluate_block, search=_search_world, rng=rng,
        track=track,
        checkpoints=checkpoints, antithetic=antithetic,
        block_size=block_size, bytes_budget=bytes_budget,
        runtime=runtime, observer=observer, adaptive=adaptive,
    )


def _evaluate_block(
    kernel: WedgeBlockKernel, masks: np.ndarray, stats: Dict[str, float]
) -> List[List[Butterfly]]:
    """One block of Algorithm 2 trial bodies (lines 4-20)."""
    outcome = kernel.evaluate_block(masks, with_stats=False)
    stats["wedges_scanned"] += outcome.wedges_scanned
    stats["trials_pruned"] += outcome.rows_pruned
    return outcome.winners


def _search_world(
    graph: UncertainBipartiteGraph,
    mask: np.ndarray,
    priority: np.ndarray,
    stats: Dict[str, float],
) -> List[Butterfly]:
    """One Algorithm 2 trial body by the weight-ordered search; the
    angles it forms stand in for the kernel's scanned wedges."""
    order = graph.edges_by_weight_desc
    search = max_weight_butterflies(graph, order[mask[order]])
    stats["wedges_scanned"] += search.n_angles_processed
    stats["trials_pruned"] += search.pruned
    return search.butterflies
