"""Algorithm 1 — Monte-Carlo with Vertex Priority (the MC-VP baseline).

Each trial samples one possible world and enumerates *all* of its
butterflies with the BFC-VP vertex-priority scheme [50], keeping the
maximum-weight set ``S_MB``; each member of ``S_MB`` earns ``1/N`` of
probability.  The method is deliberately unoptimised beyond vertex
priority — it generates and stores every angle and inspects every
butterfly, which is exactly the cost profile the paper's Section V
optimisations remove.

The per-world enumeration runs as the vectorised wedge kernel over the
backbone wedge index (built once per graph), through the winner-frequency driver
shared with OS (:mod:`repro.core.frequency`); its winner sets and
counters equal the nested-loop enumeration's
(:func:`~repro.butterfly.bfc_vp.max_weight_butterflies_enumerated`),
which runs instead only on graphs whose index would not fit in memory
and which ``tests/oracles.py`` uses as the reference.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..butterfly import (
    Butterfly,
    ButterflyKey,
    max_weight_butterflies_enumerated,
)
from ..graph import UncertainBipartiteGraph
from ..kernels import WedgeBlockKernel
from ..observability import Observer
from ..runtime.policy import RuntimePolicy
from ..sampling import RngLike
from .frequency import run_winner_frequency
from .results import MPMBResult


def mc_vp(
    graph: UncertainBipartiteGraph,
    n_trials: int,
    rng: RngLike = None,
    track: Optional[Iterable[ButterflyKey]] = None,
    checkpoints: int = 40,
    antithetic: bool = False,
    priority_kind: str = "degree",
    block_size: Optional[int] = None,
    bytes_budget: Optional[int] = None,
    runtime: Optional[RuntimePolicy] = None,
    observer: Optional[Observer] = None,
    adaptive=None,
) -> MPMBResult:
    """Run MC-VP for ``n_trials`` Monte-Carlo rounds.

    Args:
        graph: The uncertain bipartite network.
        n_trials: ``N_mc`` — number of sampled possible worlds.
        rng: Seed or generator.
        track: Optional butterfly keys whose running estimate is traced
            (for the Figure 11 convergence experiment).
        checkpoints: Number of evenly spaced trace checkpoints.
        antithetic: Sample worlds in antithetic pairs (variance
            reduction extension).
        block_size: Worlds drawn per vectorised RNG call and evaluated
            together by the wedge kernel
            (:class:`~repro.kernels.wedge_block.WedgeBlockKernel`);
            ``None`` uses
            :data:`~repro.kernels.blocks.DEFAULT_BLOCK_SIZE`.  Mask
            blocks are stream-equivalent to single-world draws and the
            kernel keeps Algorithm 1's exact winner semantics, so
            results are bit-identical for every block size; see
            ``docs/kernels.md``.
        bytes_budget: Peak working-set bytes one kernel block may use
            (``None`` uses the 64 MiB default); the effective block
            size is shrunk to fit, which is semantically free.
        priority_kind: Vertex-priority ranking — ``"degree"`` (the
            paper's BFC-VP order) or ``"expected-degree"`` (rank by
            ``d̄(u) = Σ p(e)``, the quantity Lemma IV.1's cost is
            actually written in; an ablation variant).
        runtime: Optional :class:`~repro.runtime.policy.RuntimePolicy`
            enabling checkpoint/resume, deadlines, and graceful
            degradation for the trial loop.
        observer: Optional :class:`~repro.observability.Observer`
            recording the ``sampling`` span, trial throughput, and the
            ``mc-vp.*`` counters.
        adaptive: Optional :class:`~repro.adaptive.AdaptiveConfig` (or
            anything :func:`~repro.adaptive.resolve_adaptive` accepts)
            enabling the anytime racing stop rule — the run ends early,
            certified, once the incumbent butterfly's lower confidence
            limit clears every rival's (and the unseen-butterfly
            phantom's) upper limit.  ``None`` (default) keeps the fixed
            budget bit-identical.

    Returns:
        An :class:`~repro.core.results.MPMBResult` with ``method="mc-vp"``
        and stats counters ``angles_processed``, ``angles_stored_peak``
        and ``butterflies_checked``.
    """
    return run_winner_frequency(
        graph, n_trials, method="mc-vp", tie_mode="exact",
        priority_kind=priority_kind,
        stats=dict.fromkeys(
            ("angles_processed", "angles_stored_peak", "butterflies_checked"),
            0.0,
        ),
        evaluate=_evaluate_block, search=_search_world, rng=rng,
        track=track,
        checkpoints=checkpoints, antithetic=antithetic,
        block_size=block_size, bytes_budget=bytes_budget,
        runtime=runtime, observer=observer, adaptive=adaptive,
    )


def _evaluate_block(
    kernel: WedgeBlockKernel, masks: np.ndarray, stats: Dict[str, float]
) -> List[List[Butterfly]]:
    """One block of Algorithm 1 trial bodies (lines 5-17).

    The kernel's segment reductions count exactly the angles and
    butterflies the per-world enumeration generates and inspects.
    """
    outcome = kernel.evaluate_block(masks)
    stats["angles_processed"] += outcome.wedges_present
    stats["angles_stored_peak"] = max(
        stats["angles_stored_peak"], outcome.wedges_present_peak
    )
    stats["butterflies_checked"] += outcome.butterflies_present
    return outcome.winners


def _search_world(
    graph: UncertainBipartiteGraph,
    mask: np.ndarray,
    priority: np.ndarray,
    stats: Dict[str, float],
) -> List[Butterfly]:
    """One Algorithm 1 trial body by the nested-loop enumeration."""
    winners, n_angles, n_checked = max_weight_butterflies_enumerated(
        graph, mask, priority
    )
    stats["angles_processed"] += n_angles
    stats["angles_stored_peak"] = max(stats["angles_stored_peak"], n_angles)
    stats["butterflies_checked"] += n_checked
    return winners
