"""Unit tests for the benchmark's correctness check.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check import (  # noqa: E402
    Answer,
    DatasetReference,
    ReferenceEntry,
    answer_from_result,
    check_answer,
    chernoff_interval,
    kl_bernoulli,
    load_reference,
)

BEST = ("u1", "u2", "v1", "v2")
RUNNER_UP = ("u1", "u3", "v1", "v2")
UNLIKELY = ("u4", "u5", "v3", "v4")
RARE = ("u6", "u7", "v5", "v6")


def _reference() -> DatasetReference:
    entries = {
        BEST: ReferenceEntry(BEST, 0.40, 0.295, 0.305),
        RUNNER_UP: ReferenceEntry(RUNNER_UP, 0.30, 0.245, 0.255),
        UNLIKELY: ReferenceEntry(UNLIKELY, 0.60, 0.009, 0.011),
        RARE: ReferenceEntry(RARE, 0.02, 0.009, 0.011),
    }
    return DatasetReference(entries=entries, floor=0.005)


def _answer(method="os", labels=BEST, estimate=0.3, n=2000, **extra):
    return Answer(method=method, looks=extra.pop("looks", 1),
                  labels=labels, estimate=estimate, n_trials=n, **extra)


def test_kl_bernoulli_edges():
    assert kl_bernoulli(0.3, 0.3) == 0.0
    assert kl_bernoulli(0.0, 0.0) == 0.0
    assert kl_bernoulli(0.5, 0.0) == float("inf")
    assert kl_bernoulli(0.2, 0.4) > 0.0


def test_chernoff_interval_contains_estimate_and_shrinks():
    low, high = chernoff_interval(0.3, 1000, 1e-6)
    assert low < 0.3 < high
    low2, high2 = chernoff_interval(0.3, 100_000, 1e-6)
    assert low < low2 < 0.3 < high2 < high
    assert chernoff_interval(0.3, 0, 1e-6) == (0.0, 1.0)


def test_correct_frequency_estimates_pass():
    reference = _reference()
    rng = np.random.default_rng(0)
    for n in (64, 2000):
        for _ in range(200):
            estimate = rng.binomial(n, 0.3) / n
            assert check_answer(_answer(estimate=estimate, n=n),
                                reference) == []


def test_estimate_outside_tolerance_fails():
    problems = check_answer(_answer(estimate=0.2), _reference())
    assert any("outside" in p for p in problems)


def test_tolerance_depends_on_budget_not_stream():
    # The same estimate passes or fails by trial count alone.
    reference = _reference()
    assert check_answer(_answer(estimate=0.25, n=64), reference) == []
    assert check_answer(_answer(estimate=0.25, n=20_000), reference) != []


def test_adaptive_stop_widens_the_band():
    # At n = 2000 the fixed band around P(B) ≥ 0.295 ends near 0.242;
    # a union over 2000 possible stops widens it past 0.234.
    reference = _reference()
    fixed = check_answer(_answer(estimate=0.234), reference)
    anytime = check_answer(_answer(estimate=0.234, looks=2000), reference)
    assert fixed and not anytime


def test_far_from_optimal_winner_fails():
    problems = check_answer(
        _answer(labels=UNLIKELY, estimate=0.01, n=20_000), _reference()
    )
    assert any("cannot reach" in p for p in problems)


def test_close_runner_up_is_near_optimal_at_small_budget():
    assert check_answer(
        _answer(labels=RUNNER_UP, estimate=0.26, n=200), _reference()
    ) == []


class _Graph:
    """Four edges of probability 0.5 each: ``Pr[E(B)]`` = 0.0625."""

    probs = [0.5, 0.5, 0.5, 0.5]

    def left_index(self, label):
        return {"x": 0, "y": 1}[label]

    def right_index(self, label):
        return {"z": 0, "w": 1}[label]

    def edge_between(self, left, right):
        return 2 * left + right


def test_unlisted_winner():
    reference = _reference()
    other = ("x", "y", "z", "w")
    assert check_answer(_answer(labels=other, estimate=0.0, n=64),
                        reference) == []
    assert check_answer(_answer("ols", labels=other), reference) != []
    # With the graph, an OLS winner is bounded by its Pr[E(B)].
    assert check_answer(_answer("ols", labels=other, estimate=0.06, n=250),
                        reference, _Graph()) == []
    assert check_answer(_answer("ols", labels=other, estimate=0.3, n=250),
                        reference, _Graph()) != []


def test_candidate_methods_allow_lemma_vi5_inflation():
    # OLS targets P_C(B) in [P(B), Pr[E(B)]]: 0.38 is above P(B) but
    # below Pr[E(B)] = 0.40, so only the candidate method accepts it.
    reference = _reference()
    assert check_answer(_answer(estimate=0.38), reference) != []
    assert check_answer(_answer("ols", estimate=0.38), reference) == []


def test_ols_may_miss_the_mpmb_when_preparing_is_short():
    # A preparing trial lists the MPMB w.p. P(B*) ≥ 0.295, so 10 trials
    # miss it w.p. ~0.03 and a correct OLS may then rank RARE first;
    # after 100 trials a miss has probability ~1e-15.
    reference = _reference()
    short = _answer("ols", labels=RARE, estimate=0.01, n=20_000,
                    n_prepare=10)
    assert check_answer(short, reference) == []
    long = _answer("ols", labels=RARE, estimate=0.01, n=20_000,
                   n_prepare=100)
    assert any("cannot reach" in p for p in check_answer(long, reference))


def test_karp_luby_uses_certified_epsilon():
    reference = _reference()
    exact = _answer("ols-kl", estimate=0.40, n=0, epsilon=0.0)
    assert check_answer(exact, reference) == []
    above = _answer("ols-kl", estimate=0.41, n=0, epsilon=0.0)
    assert check_answer(above, reference) != []
    sized = _answer("ols-kl", estimate=0.28, n=5000, epsilon=0.1)
    assert check_answer(sized, reference) == []
    assert check_answer(
        _answer("ols-kl", estimate=0.1, n=5000, epsilon=0.1), reference
    ) != []


def test_degraded_and_empty_answers_fail():
    assert check_answer(_answer(degraded=True), _reference()) == [
        "degraded result"
    ]
    assert check_answer(_answer(labels=None), _reference()) == [
        "no winner returned"
    ]


def test_stored_reference_is_consistent():
    tables = load_reference()
    assert set(tables) == {"abide", "movielens", "jester", "protein"}
    for table in tables.values():
        assert table.entries
        for entry in table.entries.values():
            assert 0.0 <= entry.low <= entry.high <= entry.existence
            assert table.floor < max(e.low for e in table.entries.values())


@pytest.mark.parametrize("block_size", [None, 256])
def test_scalar_and_batched_ols_pass_on_real_runs(block_size):
    pytest.importorskip("repro")
    from repro.core import find_mpmb
    from repro.datasets import load_dataset

    reference = load_reference()["abide"]
    graph = load_dataset("abide", "bench", rng=0)
    for seed in range(3):
        result = find_mpmb(graph, method="ols", n_trials=500,
                           n_prepare=50, rng=seed, block_size=block_size)
        assert check_answer(answer_from_result(result, 1), reference) == []


def test_small_budget_ols_may_rank_an_unlisted_butterfly_first():
    # With 25 preparing and 250 sampling trials this seed ranks first a
    # butterfly whose P(B) is below the unlisted floor but whose P_C(B)
    # is ~0.019 (its estimate, 15/250, is a rare but correct draw).
    pytest.importorskip("repro")
    from repro.core import find_mpmb
    from repro.datasets import load_dataset

    reference = load_reference()["abide"]
    graph = load_dataset("abide", "bench", rng=0)
    result = find_mpmb(graph, method="ols", n_trials=250, n_prepare=25,
                       rng=772617494)
    answer = answer_from_result(result, 1)
    assert answer.labels not in reference.entries
    assert check_answer(answer, reference, graph) == []
