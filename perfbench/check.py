"""Correctness check for benchmark queries against a stored reference.

The reference (``reference.json``, written once by
``make_reference.py``) lists, per dataset, every butterfly that won at
least one world of a high-budget ordering-sampling run, each with the
raw evidence for its ``P(B)``: an observed frequency ``p`` over ``n``
Bernoulli trials, scaled by ``scale`` (1 for plain world frequencies,
``Pr[E(B)]`` for the conditional estimator), plus its exact existence
probability ``Pr[E(B)]``.  ``unlisted`` holds the highest frequency of
a butterfly left out of the table, which bounds ``P(B)`` of every
butterfly not listed.

A query passes when it is not degraded, its winner lies in the
near-optimal set for the query's own budget, and its estimate lies
inside the tolerance a correct estimator leaves with probability below
:data:`QUERY_DELTA`.  Every tolerance is a concentration bound on the
estimator's *distribution* (Chernoff/KL for means of [0, 1] trials, the
Lemma VI.4 budget for Karp-Luby), so it never depends on which random
stream a method draws from: scalar and batched OLS may consume the RNG
in different orders and still pass or fail together.

Targets per method:

* ``mc-vp``/``os`` estimate ``P(B)`` itself.
* ``ols``/``ols-kl`` estimate ``P_C(B)``, the probability relative to
  their candidate set, which lies in ``[P(B), Pr[E(B)]]`` (Lemma VI.5:
  missing heavier candidates can only inflate the estimate).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Failure budget of one query check (a correct run fails w.p. < this).
QUERY_DELTA = 1e-6

#: Failure budget shared by every interval of the stored reference.
REFERENCE_DELTA = 1e-6

#: Methods whose estimate is a plain frequency over Bernoulli trials.
FREQUENCY_METHODS = ("mc-vp", "os", "ols")

#: Methods estimating relative to a candidate set (Lemma VI.5 bias).
CANDIDATE_METHODS = ("ols", "ols-kl")

#: Floating-point slack for exact (zero-trial) estimates.
EXACT_SLACK = 1e-9

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference.json")


def kl_bernoulli(p: float, q: float) -> float:
    """``KL(p || q)`` between Bernoulli laws, with the 0·log 0 = 0 rule."""
    p = min(max(p, 0.0), 1.0)
    if q <= 0.0:
        return 0.0 if p <= 0.0 else math.inf
    if q >= 1.0:
        return 0.0 if p >= 1.0 else math.inf
    total = 0.0
    if p > 0.0:
        total += p * math.log(p / q)
    if p < 1.0:
        total += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return total


def _solve(inside, lo: float, hi: float) -> float:
    """Boundary of the convex set ``inside`` between ``lo`` (inside)
    and ``hi`` (outside), by bisection."""
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo


def chernoff_interval(p: float, n: int, delta: float) -> Tuple[float, float]:
    """Means ``q`` consistent with observing ``p`` over ``n`` trials.

    The set ``{q : n·KL(p||q) ≤ ln(2/δ)}`` holds the true mean of ``n``
    i.i.d. [0, 1] trials with probability at least ``1 - δ``
    (Chernoff-Hoeffding, both tails).
    """
    if n <= 0:
        return 0.0, 1.0
    limit = math.log(2.0 / delta) / n

    def inside(q: float) -> bool:
        return kl_bernoulli(p, q) <= limit

    low = 0.0 if inside(0.0) else _solve(inside, p, 0.0)
    high = 1.0 if inside(1.0) else _solve(inside, p, 1.0)
    return low, high


@dataclass(frozen=True)
class ReferenceEntry:
    """One listed butterfly: its ``P(B)`` interval and ``Pr[E(B)]``."""

    labels: Tuple[str, ...]
    existence: float
    low: float
    high: float


@dataclass(frozen=True)
class DatasetReference:
    """All listed butterflies of one dataset plus the unlisted floor."""

    entries: Dict[Tuple[str, ...], ReferenceEntry]
    floor: float


def load_reference() -> Dict[str, DatasetReference]:
    """Parse ``reference.json`` into per-dataset intervals."""
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        document = json.load(handle)
    n_intervals = sum(
        len(entry["evidence"])
        for dataset in document["datasets"].values()
        for entry in dataset["butterflies"]
    ) + len(document["datasets"])
    delta = REFERENCE_DELTA / n_intervals
    tables = {}
    for name, dataset in document["datasets"].items():
        entries = {}
        for raw in dataset["butterflies"]:
            low, high = 0.0, 1.0
            for evidence in raw["evidence"]:
                a, b = chernoff_interval(
                    evidence["p"], evidence["n"], delta
                )
                low = max(low, a * evidence["scale"])
                high = min(high, b * evidence["scale"])
            if low > high:
                raise ValueError(
                    f"{name}: reference evidence for {raw['labels']} "
                    "is inconsistent"
                )
            labels = tuple(raw["labels"])
            entries[labels] = ReferenceEntry(
                labels=labels,
                existence=float(raw["existence"]),
                low=low,
                high=min(high, float(raw["existence"])),
            )
        unlisted = dataset["unlisted"]
        floor = chernoff_interval(unlisted["p"], unlisted["n"], delta)[1]
        tables[name] = DatasetReference(entries=entries, floor=floor)
    return tables


@dataclass(frozen=True)
class Answer:
    """What a query returned, in the form every workload can supply.

    Attributes:
        method: The method that ran.
        looks: Sample sizes the run could have stopped at: 1 for a
            fixed budget, the budget itself under the anytime stop rule
            (a data-dependent stop, so the bound takes a union over
            every possible stop).
        labels: Vertex labels of the winner (``None`` if none).
        estimate: The winner's estimated ``P(B)``.
        n_trials: Trials behind the estimate (sampling phase).
        degraded: Whether the run reported a degraded result.
        epsilon: Karp-Luby only: relative error the run certified at
            ``run_delta`` (``None`` when unbounded).
        run_delta: Karp-Luby only: the δ of that certificate.
        mu: Karp-Luby only: the μ floor of the certificate.
        n_prepare: OLS variants only: preparing-phase trials, each of
            which lists the butterflies that are maximal in one world.
    """

    method: str
    looks: int
    labels: Optional[Tuple[str, ...]]
    estimate: float
    n_trials: int
    degraded: bool = False
    epsilon: Optional[float] = None
    run_delta: float = 0.1
    mu: float = 0.05
    n_prepare: int = 0


def _estimate_band(
    answer: Answer, target_low: float, target_high: float
) -> Tuple[float, float]:
    """Estimates a correct run leaves w.p. ≥ 1 - δ when the estimator's
    target lies in ``[target_low, target_high]``."""
    if answer.method in FREQUENCY_METHODS:
        n = answer.n_trials
        limit = math.log(2.0 * max(1, answer.looks) / QUERY_DELTA) / max(1, n)
        low = _solve(
            lambda p: kl_bernoulli(p, target_low) <= limit,
            target_low, 0.0,
        ) if kl_bernoulli(0.0, target_low) > limit else 0.0
        high = _solve(
            lambda p: kl_bernoulli(p, target_high) <= limit,
            target_high, 1.0,
        ) if kl_bernoulli(1.0, target_high) > limit else 1.0
        return low, high
    # Karp-Luby: the budget certifying relative error ε at run_delta
    # (Lemma VI.4, relative to max(P, μ)) certifies
    # ε·sqrt(ln(2/δ') / ln(2/run_delta)) at δ', since the bound depends
    # on δ only through ln(2/δ).
    if answer.epsilon is None:
        return -math.inf, math.inf
    widen = math.sqrt(
        math.log(2.0 / QUERY_DELTA) / math.log(2.0 / answer.run_delta)
    )
    eps = answer.epsilon * widen
    return (
        target_low - eps * max(target_low, answer.mu) - EXACT_SLACK,
        target_high + eps * max(target_high, answer.mu) + EXACT_SLACK,
    )


def _target(
    answer: Answer, entry: Optional[ReferenceEntry], floor: float
) -> Optional[Tuple[float, float]]:
    """Interval holding what the method estimates for one butterfly."""
    if entry is None:
        # Unlisted butterflies have P(B) ≤ floor; their Pr[E(B)] is
        # not on record, so candidate methods cannot be bounded here
        # (check_answer reads it from the graph when it has one).
        if answer.method in CANDIDATE_METHODS:
            return None
        return 0.0, floor
    if answer.method in CANDIDATE_METHODS:
        return entry.low, max(entry.high, entry.existence)
    return entry.low, entry.high


def existence_probability(graph, labels: Sequence[str]) -> float:
    """``Pr[E(B)]`` of the butterfly on vertex ``labels`` (u1, u2, v1,
    v2): the product of its four edge probabilities in ``graph``."""
    u1, u2, v1, v2 = labels
    product = 1.0
    for left in (u1, u2):
        for right in (v1, v2):
            edge = graph.edge_between(graph.left_index(left),
                                      graph.right_index(right))
            if edge is None:
                return 0.0
            product *= float(graph.probs[edge])
    return product


def check_answer(answer: Answer, reference: DatasetReference,
                 graph=None) -> List[str]:
    """Reasons ``answer`` fails the check (empty when it passes).

    ``graph`` is the dataset the query ran on.  OLS variants estimate
    ``P_C(B)``, which can reach ``Pr[E(B)]`` however small ``P(B)`` is,
    so a correct run with a small budget can rank an unlisted butterfly
    first; its band is then bounded by ``Pr[E(B)]`` read from ``graph``.
    Without ``graph`` such a winner fails.
    """
    if answer.degraded:
        return ["degraded result"]
    if answer.labels is None:
        return ["no winner returned"]
    entry = reference.entries.get(tuple(answer.labels))
    if (entry is None and graph is not None
            and answer.method in CANDIDATE_METHODS):
        existence = existence_probability(graph, answer.labels)
        entry = ReferenceEntry(
            labels=tuple(answer.labels), existence=existence,
            low=0.0, high=min(reference.floor, existence),
        )
    target = _target(answer, entry, reference.floor)
    if target is None:
        return [f"winner {list(answer.labels)} is not in the reference"]
    problems = []
    low, high = _estimate_band(answer, *target)
    if not low <= answer.estimate <= high:
        problems.append(
            f"estimate {answer.estimate:.6g} outside [{low:.6g}, "
            f"{high:.6g}] for {list(answer.labels)}"
        )
    # Near-optimal set: the winner must be a butterfly whose estimate a
    # correct run could push at least as high as the lowest estimate it
    # could give the true MPMB.  The band's lower end grows with the
    # target's, so the entry with the largest P(B) lower bound sets it.
    best = max(reference.entries.values(), key=lambda e: e.low)
    best_floor = _estimate_band(
        answer, *_target(answer, best, reference.floor)
    )[0]
    # OLS variants only rank what their preparing phase listed, and a
    # correct run misses the MPMB with probability (1 - P(B*))^n_prepare
    # (Lemma VI.1); only when that is negligible must the MPMB win.
    missed = (
        (1.0 - best.low) ** answer.n_prepare
        if answer.method in CANDIDATE_METHODS else 0.0
    )
    if high < best_floor and missed < QUERY_DELTA:
        problems.append(
            f"winner {list(answer.labels)} cannot reach {best_floor:.6g}, "
            "the least a correct run gives the MPMB"
        )
    return problems


def answer_from_result(result, looks: int, epsilon: float = 0.1,
                       delta: float = 0.1, mu: float = 0.05) -> Answer:
    """An :class:`Answer` from an in-process ``MPMBResult``."""
    ranking = result.labelled_ranking(1)
    labels, _, estimate = ranking[0] if ranking else (None, 0.0, 0.0)
    kl_epsilon: Optional[float] = epsilon
    run_delta = delta
    if result.guarantee is not None:
        kl_epsilon = (
            None if math.isinf(result.guarantee.epsilon)
            else result.guarantee.epsilon
        )
        run_delta = result.guarantee.delta
    return Answer(
        method=result.method, looks=looks,
        labels=None if labels is None else tuple(labels),
        estimate=float(estimate), n_trials=int(result.n_trials),
        degraded=bool(result.degraded), epsilon=kl_epsilon,
        run_delta=run_delta, mu=mu,
        n_prepare=int(result.stats.get("n_prepare", 0)),
    )


def answer_from_response(body: Dict, looks: int, n_prepare: int,
                         epsilon: float = 0.1, delta: float = 0.1,
                         mu: float = 0.05) -> Answer:
    """An :class:`Answer` from a ``POST /query`` response body."""
    ranking: Sequence[Dict] = body.get("ranking") or []
    top = ranking[0] if ranking else None
    guarantee = body.get("guarantee")
    kl_epsilon: Optional[float] = epsilon
    run_delta = delta
    if guarantee is not None:
        kl_epsilon = guarantee.get("epsilon")
        run_delta = guarantee.get("delta", delta)
    return Answer(
        method=body.get("method", ""), looks=looks,
        labels=None if top is None else tuple(top["labels"]),
        estimate=0.0 if top is None else float(top["probability"]),
        n_trials=int(body.get("n_trials", 0)),
        degraded=body.get("status") != "ok",
        epsilon=kl_epsilon, run_delta=run_delta, mu=mu,
        n_prepare=n_prepare,
    )
