"""Result types shared by every MPMB method.

All four sampling methods (MC-VP, OS, OLS-KL, OLS) and both exact solvers
return an :class:`MPMBResult`: a mapping from canonical butterfly keys to
estimated (or exact) probabilities ``P(B)``, the butterflies themselves,
optional convergence traces, and instrumentation counters used by the
experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..butterfly import Butterfly, ButterflyKey
from ..errors import ConfigurationError
from ..graph import UncertainBipartiteGraph
from ..observability import Observer
from ..runtime.degradation import Guarantee
from ..sampling import ConvergenceTrace


@dataclass
class MPMBResult:
    """Outcome of an MPMB computation.

    Attributes:
        method: Identifier of the producing method (``"mc-vp"``, ``"os"``,
            ``"ols"``, ``"ols-kl"``, ``"exact-worlds"``,
            ``"exact-inclusion-exclusion"``).
        graph: The analysed graph.
        n_trials: Sampling-phase trial count (0 for exact methods).
        estimates: Canonical butterfly key -> estimated ``P(B)``.
        butterflies: Canonical key -> :class:`Butterfly` object.
        traces: Optional convergence traces for tracked butterflies.
        stats: Instrumentation counters (method-specific; e.g. angles
            processed, candidates listed, preparing trials).
        prob_no_butterfly: For exact solvers, the probability that a world
            contains no butterfly at all; ``None`` for sampling methods
            that did not measure it.
        degraded: True when the run stopped before its target budget
            (deadline expiry, interruption, or dropped workers); the
            estimates cover only ``n_trials`` completed trials.
        degraded_reason: Why the run degraded (``"deadline"``,
            ``"interrupted"``, ``"workers-dropped"``); ``None`` for
            complete runs.
        target_trials: The budget the run was sized for (set only on
            degraded results; complete runs have it equal to
            ``n_trials`` implicitly).
        guarantee: The ε-δ statement the run actually certifies.  For
            degraded frequency runs ε is *re-widened*: Theorem IV.1 is
            inverted for the achieved trial count instead of silently
            reporting the target-budget guarantee.
    """

    method: str
    graph: UncertainBipartiteGraph
    n_trials: int
    estimates: Dict[ButterflyKey, float]
    butterflies: Dict[ButterflyKey, Butterfly]
    traces: Dict[ButterflyKey, ConvergenceTrace] = field(default_factory=dict)
    stats: Dict[str, float] = field(default_factory=dict)
    prob_no_butterfly: Optional[float] = None
    degraded: bool = False
    degraded_reason: Optional[str] = None
    target_trials: Optional[int] = None
    guarantee: Optional[Guarantee] = None

    def probability(self, butterfly: Butterfly | ButterflyKey) -> float:
        """Estimated ``P(B)`` (0.0 for butterflies never observed)."""
        key = butterfly.key if isinstance(butterfly, Butterfly) else butterfly
        return self.estimates.get(key, 0.0)

    @property
    def best(self) -> Optional[Butterfly]:
        """The MPMB — highest estimated probability, or ``None`` when the
        graph yielded no butterfly in any trial/world.

        Ties break deterministically by canonical key.
        """
        ranking = self.ranked()
        return ranking[0][0] if ranking else None

    @property
    def best_probability(self) -> float:
        """``P(B)`` of :attr:`best` (0.0 when no butterfly exists)."""
        ranking = self.ranked()
        return ranking[0][1] if ranking else 0.0

    def ranked(self) -> List[Tuple[Butterfly, float]]:
        """All observed butterflies, most probable first.

        Ties break by canonical key so results are reproducible across
        runs with the same seed.
        """
        order = sorted(
            self.estimates.items(), key=lambda item: (-item[1], item[0])
        )
        return [
            (self.butterflies[key], probability)
            for key, probability in order
        ]

    def top_k(self, k: int) -> List[Tuple[Butterfly, float]]:
        """The top-k MPMBs (Section VII)."""
        if k <= 0:
            raise ConfigurationError(f"k must be positive, got {k}")
        return self.ranked()[:k]

    def labelled_ranking(
        self, k: Optional[int] = None
    ) -> List[Tuple[tuple, float, float]]:
        """Human-readable ranking: (vertex labels, weight, probability)."""
        rows = self.ranked() if k is None else self.top_k(k)
        return [
            (butterfly.labels(self.graph), butterfly.weight, probability)
            for butterfly, probability in rows
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        best = self.best
        described = f"{best} P={self.best_probability:.4f}" if best else "none"
        return (
            f"<MPMBResult {self.method} trials={self.n_trials} "
            f"observed={len(self.estimates)} best={described}>"
        )


def record_sampling_metrics(
    observer: Observer, result: MPMBResult, seconds: float
) -> None:
    """Record the per-method metrics shared by every sampling estimator.

    Writes the common ``sampling.*`` family (trial throughput, achieved
    vs. target budget) plus one ``<method>.<stat>`` counter per entry of
    the result's instrumentation stats, and — when the method counted
    ``trials_pruned`` (the Section V-B ``w(e_i) + w̄ < w_max`` early
    exit) — the derived ``<method>.prune_rate`` gauge.

    Counters are *incremented*, not set, so per-worker registries merged
    by the pool sum to the pooled totals.
    """
    if not observer.enabled:
        return
    metrics = observer.metrics
    metrics.inc("sampling.trials", result.n_trials)
    if seconds > 0:
        metrics.set(
            "sampling.trials_per_second", result.n_trials / seconds
        )
    target = (
        result.target_trials
        if result.target_trials is not None else result.n_trials
    )
    metrics.set("sampling.target_trials", float(target))
    for key, value in sorted(result.stats.items()):
        metrics.inc(f"{result.method}.{key}", float(value))
    pruned = result.stats.get("trials_pruned")
    if pruned is not None and result.n_trials > 0:
        metrics.set(
            f"{result.method}.prune_rate", pruned / result.n_trials
        )


def merge_results(first: MPMBResult, second: MPMBResult) -> MPMBResult:
    """Pool two independent frequency-based runs of the same method.

    The Monte-Carlo methods estimate ``P(B)`` as a winner frequency, so
    two runs with ``N₁`` and ``N₂`` trials pool into the
    trial-count-weighted average — equivalent to one ``N₁+N₂``-trial run
    over the union of their sampled worlds.  Useful for distributing
    trials across processes or sessions (results round-trip through
    :mod:`repro.core.serialize`).

    Raises:
        ValueError: If the runs disagree on graph or method, or either
            is not a frequency-based sampling run (exact solvers and
            OLS-KL's ratio-based estimates do not pool this way).
    """
    poolable = ("mc-vp", "os", "ols")
    if first.method != second.method:
        raise ConfigurationError(
            f"cannot merge {first.method!r} with {second.method!r}"
        )
    if first.method not in poolable:
        raise ConfigurationError(
            f"method {first.method!r} is not frequency-based; only "
            f"{poolable} results pool by trial-weighted averaging"
        )
    if first.graph is not second.graph and first.graph != second.graph:
        raise ConfigurationError("results were computed on different graphs")
    if first.n_trials <= 0 or second.n_trials <= 0:
        raise ConfigurationError("both results need positive trial counts")

    total = first.n_trials + second.n_trials
    keys = set(first.estimates) | set(second.estimates)
    estimates = {
        key: (
            first.estimates.get(key, 0.0) * first.n_trials
            + second.estimates.get(key, 0.0) * second.n_trials
        ) / total
        for key in keys
    }
    butterflies = dict(first.butterflies)
    butterflies.update(second.butterflies)
    stats = dict(first.stats)
    for key, value in second.stats.items():
        stats[key] = stats.get(key, 0.0) + value
    degraded = first.degraded or second.degraded
    reasons = [
        r for r in (first.degraded_reason, second.degraded_reason) if r
    ]
    targets = [
        t for t in (first.target_trials, second.target_trials)
        if t is not None
    ]
    # Anytime guarantees pool conservatively: each shard certifies its
    # own (ε, δ) claim, so the union holds at the summed δ with the
    # widest ε — only meaningful when *both* shards certified one.
    guarantee = None
    if first.guarantee is not None and second.guarantee is not None:
        a, b = first.guarantee, second.guarantee
        guarantee = Guarantee(
            mu=min(a.mu, b.mu),
            epsilon=max(a.epsilon, b.epsilon),
            delta=min(1.0, a.delta + b.delta),
            achieved_trials=a.achieved_trials + b.achieved_trials,
            target_trials=a.target_trials + b.target_trials,
            realized_trials=(
                None
                if a.realized_trials is None or b.realized_trials is None
                else a.realized_trials + b.realized_trials
            ),
            eliminated=(
                None
                if a.eliminated is None or b.eliminated is None
                else max(a.eliminated, b.eliminated)
            ),
        )
    return MPMBResult(
        method=first.method,
        graph=first.graph,
        n_trials=total,
        estimates=estimates,
        butterflies=butterflies,
        stats=stats,
        degraded=degraded,
        degraded_reason=reasons[0] if reasons else None,
        target_trials=sum(targets) if targets else None,
        guarantee=guarantee,
    )
