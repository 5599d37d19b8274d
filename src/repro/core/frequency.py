"""The winner-frequency driver shared by MC-VP and OS.

Both direct sampling methods estimate ``P(B)`` as the frequency with
which ``B`` wins a sampled world's maximum-weight set — the estimator
whose trial budget Theorem IV.1 sizes (unbiased by Lemma IV.2, restated
for OS by Lemma V.2).  They differ only in the vertex ranking, the
winner tie rule and the counters they report, so, like ParButterfly's
one wedge framework for every butterfly variant, one driver runs both
through the vectorised wedge kernel
(:class:`~repro.kernels.wedge_block.WedgeBlockKernel`).  One engine
unit is one *block*: a ``(length, n_edges)`` mask matrix drawn in one
RNG call, stream-equivalent to ``length`` single-world draws, so every
winner count, trace point and estimate is the same for *any* block size
(the equivalence contract in ``docs/kernels.md``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from ..butterfly import Butterfly, ButterflyKey
from ..butterfly.model import make_butterfly
from ..errors import CheckpointError
from ..graph import UncertainBipartiteGraph
from ..kernels import (
    WedgeBlockKernel,
    block_lengths,
    block_starts,
    check_block_pins,
    resolve_block_budget,
    resolve_block_size,
    wedge_index_for,
)
from ..kernels.wedge_block import PRIORITIES
from ..observability import Observer, ensure_observer
from ..observability.profiling import stopwatch
from ..runtime.degradation import recompute_guarantee
from ..runtime.engine import execute_trial_loop
from ..runtime.policy import RuntimePolicy
from ..sampling import (
    ConvergenceTrace,
    RngLike,
    checkpoint_schedule,
    ensure_rng,
)
from ..worlds import WorldSampler
from .results import MPMBResult, record_sampling_metrics

#: Evaluates one mask block through the kernel, folds the outcome's
#: counters into the method's stats dict, and returns each row's
#: winner set.
BlockEvaluator = Callable[
    [WedgeBlockKernel, np.ndarray, Dict[str, float]], List[List[Butterfly]]
]

#: The same for one world ``(graph, mask, priority, stats)`` by the
#: method's own per-world search, on graphs whose wedge index would not
#: fit in memory.
WorldSearch = Callable[
    [UncertainBipartiteGraph, np.ndarray, np.ndarray, Dict[str, float]],
    List[Butterfly],
]

#: Histogram bucket edges for the per-trial winner-set size (``|S_MB|``
#: is 0 or a small count on real networks; ties inflate it on grids).
WINNER_BUCKET_EDGES = (0.0, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0)


class WinnerFrequencyLoop:
    """Block-unit winner-frequency engine loop with snapshot/restore.

    ``block_fn`` maps one mask block to each row's winner set; ``stats``
    is shared with it *by reference* and restored in place on resume.
    Butterflies are snapshotted by canonical key only and rebuilt from
    the graph on restore.
    """

    def __init__(
        self,
        graph: UncertainBipartiteGraph,
        sampler: WorldSampler,
        block_fn: Callable[[np.ndarray], List[List[Butterfly]]],
        n_trials: int,
        block_size: int,
        track: Optional[Iterable[ButterflyKey]] = None,
        checkpoints: int = 40,
        stats: Optional[Dict[str, float]] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self.graph = graph
        self.sampler = sampler
        self._block_fn = block_fn
        self.n_trials = n_trials
        self.block_size = int(block_size)
        self.lengths = block_lengths(n_trials, block_size)
        self.starts = block_starts(self.lengths)
        self.counts: Dict[ButterflyKey, int] = {}
        self.butterflies: Dict[ButterflyKey, Butterfly] = {}
        self.stats: Dict[str, float] = stats if stats is not None else {}
        self.traces = {
            key: ConvergenceTrace(label=str(key)) for key in track or ()
        }
        self._schedule = set(checkpoint_schedule(n_trials, checkpoints))
        self._winner_sizes = ensure_observer(observer).metrics.histogram(
            "trial.winners", WINNER_BUCKET_EDGES
        )

    def run_trial(self, block: int) -> None:
        """Evaluate the 1-based ``block`` against one shared mask matrix."""
        masks = self.sampler.sample_mask_block(self.lengths[block - 1])
        first = self.starts[block - 1] + 1
        for trial, winners in enumerate(self._block_fn(masks), first):
            for butterfly in winners:
                self.butterflies.setdefault(butterfly.key, butterfly)
                self.counts[butterfly.key] = (
                    self.counts.get(butterfly.key, 0) + 1
                )
            self._winner_sizes.observe(len(winners))
            if self.traces and trial in self._schedule:
                for key, trace in self.traces.items():
                    trace.record(trial, self.counts.get(key, 0) / trial)

    def state_payload(self, completed: int) -> Dict:
        return {
            "counts": [
                [list(key), count] for key, count in self.counts.items()
            ],
            "stats": {key: float(v) for key, v in self.stats.items()},
            "traces": {
                "|".join(map(str, key)): [
                    [n, value] for n, value in trace.checkpoints
                ]
                for key, trace in self.traces.items()
            },
            "sampler": self.sampler.state_payload(),
            "block_size": self.block_size,
            "target_trials": self.n_trials,
        }

    def restore_state(self, payload: Dict) -> None:
        check_block_pins(payload, self.n_trials, self.block_size)
        self.counts.clear()
        self.butterflies.clear()
        for raw_key, count in payload["counts"]:
            key = tuple(int(part) for part in raw_key)
            butterfly = make_butterfly(self.graph, *key)
            if butterfly is None:
                raise CheckpointError(
                    f"checkpointed butterfly {key} does not exist in "
                    f"graph {self.graph.name!r}"
                )
            self.counts[key] = int(count)
            self.butterflies[key] = butterfly
        self.stats.clear()
        self.stats.update(
            {key: float(v) for key, v in payload["stats"].items()}
        )
        for key, trace in self.traces.items():
            recorded = payload["traces"].get("|".join(map(str, key)), [])
            trace.checkpoints = [
                (int(n), float(value)) for n, value in recorded
            ]
        self.sampler.restore_state(payload["sampler"])


def run_winner_frequency(
    graph: UncertainBipartiteGraph,
    n_trials: int,
    *,
    method: str,
    tie_mode: str,
    priority_kind: str,
    stats: Dict[str, float],
    evaluate: BlockEvaluator,
    search: WorldSearch,
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
    """Estimate winner frequencies over ``n_trials`` sampled worlds.

    ``method`` names the result and checkpoints, ``tie_mode`` is the
    kernel's winner tie rule, ``priority_kind`` the wedge index's vertex
    ranking (a key of :data:`~repro.kernels.wedge_block.PRIORITIES`),
    and ``evaluate`` folds each block's kernel outcome into the zeroed
    ``stats``.  The graph's wedge index comes from
    :func:`~repro.kernels.wedge_block.wedge_index_for`, built on the
    first call per graph; when it would exceed
    :data:`~repro.kernels.memory.INDEX_BYTES_LIMIT` (jester and protein
    at paper size), ``search`` evaluates each world of the block
    instead — same worlds, same winner sets.  The remaining arguments
    are documented on :func:`~repro.core.mc_vp.mc_vp`.
    """
    observer = ensure_observer(observer)
    sampler = WorldSampler(graph, ensure_rng(rng), antithetic=antithetic)
    with observer.span("sampling", method=method), stopwatch() as timer:
        block = resolve_block_size(n_trials, block_size)
        wedge_index = wedge_index_for(graph, priority_kind, observer)
        if wedge_index is not None:
            kernel = WedgeBlockKernel(graph, wedge_index, tie_mode=tie_mode)
            vectorized = observer.metrics.counter("kernel.trials_vectorized")
            n_wedges, n_groups = wedge_index.n_wedges, wedge_index.n_groups

            def block_fn(masks: np.ndarray) -> List[List[Butterfly]]:
                vectorized.inc(len(masks))
                return evaluate(kernel, masks, stats)
        else:
            n_wedges = n_groups = 0
            priority = PRIORITIES[priority_kind](graph)

            def block_fn(masks: np.ndarray) -> List[List[Butterfly]]:
                return [search(graph, mask, priority, stats) for mask in masks]
        budget = resolve_block_budget(
            block, graph.n_edges, n_wedges, n_groups,
            budget_bytes=bytes_budget,
        )
        observer.set("kernel.block_size", float(budget.block_size))
        observer.set("kernel.bytes_budget", float(budget.budget_bytes))
        observer.set("kernel.block_bytes", float(budget.block_bytes))
        observer.set("kernel.wedges", float(n_wedges))
        loop = WinnerFrequencyLoop(
            graph, sampler, block_fn, n_trials, budget.block_size,
            track=track, checkpoints=checkpoints, stats=stats,
            observer=observer,
        )
        racer = None
        if adaptive is not None:
            # Lazy import: repro.adaptive consumes the core estimators,
            # so importing it eagerly here would cycle at package load.
            from ..adaptive import racing

            config = racing.resolve_adaptive(adaptive)
            if config is not None:
                racer = racing.RacingFrequencyLoop(
                    loop,
                    counts_fn=lambda: loop.counts.values(),
                    config=config,
                    delta=racing.adaptive_delta(config, runtime),
                    mu=racing.adaptive_mu(runtime),
                    phantom=True,
                    unit_lengths=loop.lengths,
                )
        report = execute_trial_loop(
            method=method,
            graph_name=graph.name,
            n_target=len(loop.lengths),
            loop=racer or loop,
            policy=runtime,
            unit="block",
            unit_lengths=loop.lengths,
            observer=observer,
        )
    # A certified racing stop is cleared from the report here, so the
    # result below is not marked degraded.
    guarantee = certified = (
        racing.frequency_racing_summary(racer, report, observer)
        if racer is not None
        else None
    )
    # ``n_trials``/``n_trials_target`` resolve block units back to
    # trials, so a degraded run normalises (and re-widens ε) over the
    # trials its completed blocks hold.
    if report.degraded:
        policy = runtime or RuntimePolicy()
        guarantee = recompute_guarantee(
            report.n_trials, report.n_trials_target,
            mu=policy.guarantee_mu, delta=policy.guarantee_delta,
        )
    if certified is not None:
        stats["trials_saved"] = float(
            report.n_trials_target - report.n_trials
        )
        stats["candidates_eliminated"] = float(racer.eliminated)
    done = report.n_trials
    result = MPMBResult(
        method=method,
        graph=graph,
        n_trials=done,
        estimates={
            key: count / done for key, count in loop.counts.items()
        } if done > 0 else {},
        butterflies=dict(loop.butterflies),
        traces=loop.traces,
        stats=stats,
        degraded=report.degraded,
        degraded_reason=report.stop_reason,
        target_trials=report.n_trials_target if report.degraded else None,
        guarantee=guarantee,
    )
    record_sampling_metrics(observer, result, timer.seconds)
    return result
