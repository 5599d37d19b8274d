"""Fault-tolerant parallel worker pool (retry, backoff, degradation)."""

from __future__ import annotations

import multiprocessing
from functools import reduce

import pytest

from repro import FaultPlan, WorkerFailureError
from repro.core import merge_results, ordering_sampling, result_to_dict
from repro.runtime import backoff_seconds, run_parallel_trials, split_trials
from repro.sampling.bounds import achievable_epsilon
from repro.sampling.rng import spawn_rngs

from .conftest import FIGURE_1_EDGES, build_graph


@pytest.fixture
def graph():
    return build_graph(FIGURE_1_EDGES, name="figure-1")


class TestSplitAndBackoff:
    def test_split_is_near_even_and_sums(self):
        assert split_trials(10, 3) == [4, 3, 3]
        assert split_trials(3, 5) == [1, 1, 1, 0, 0]
        assert sum(split_trials(1234, 7)) == 1234

    def test_split_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            split_trials(0, 3)
        with pytest.raises(ValueError):
            split_trials(10, 0)

    def test_backoff_doubles_then_caps(self):
        assert backoff_seconds(1) == pytest.approx(0.05)
        assert backoff_seconds(2) == pytest.approx(0.10)
        assert backoff_seconds(3) == pytest.approx(0.20)
        assert backoff_seconds(10) == 2.0

    def test_jittered_backoff_is_bounded_and_deterministic(self):
        """Jitter scales into [0.5, 1.0]x and replays per seed."""
        first = [backoff_seconds(2, jitter=7) for _ in range(5)]
        again = [backoff_seconds(2, jitter=7) for _ in range(5)]
        assert first == again  # seed -> identical schedule
        for delay in first:
            assert 0.5 * 0.10 <= delay <= 0.10
        # A shared generator decorrelates consecutive draws.
        from repro.sampling.rng import ensure_rng

        stream = ensure_rng(3)
        draws = {backoff_seconds(2, jitter=stream) for _ in range(8)}
        assert len(draws) > 1


class TestHappyPath:
    def test_merged_result_pools_all_trials(self, graph):
        result = run_parallel_trials(graph, 60, 3, method="os", rng=5)
        assert result.n_trials == 60
        assert not result.degraded
        assert result.stats["workers_total"] == 3.0
        assert result.stats["workers_dropped"] == 0.0
        assert result.stats["worker_attempts"] == 3.0
        assert result.best is not None
        for probability in result.estimates.values():
            assert 0.0 <= probability <= 1.0

    def test_non_poolable_method_rejected(self, graph):
        with pytest.raises(ValueError, match="pooled"):
            run_parallel_trials(graph, 10, 2, method="ols-kl")


class TestRetries:
    def test_crash_once_retries_with_backoff_and_converges(self, graph):
        slept = []
        clean = run_parallel_trials(graph, 60, 3, method="os", rng=5)
        faulty = run_parallel_trials(
            graph, 60, 3, method="os", rng=5,
            faults=FaultPlan(worker_crash_attempts={0: 1}),
            sleep=slept.append,
        )
        assert len(slept) == 1
        assert 0.5 * backoff_seconds(1) <= slept[0] <= backoff_seconds(1)
        # The jitter stream is seeded from the run RNG, so a replay of
        # the same faulty run sleeps for exactly the same durations.
        replay = []
        run_parallel_trials(
            graph, 60, 3, method="os", rng=5,
            faults=FaultPlan(worker_crash_attempts={0: 1}),
            sleep=replay.append,
        )
        assert replay == slept
        assert faulty.stats["worker_attempts"] == 4.0
        assert not faulty.degraded
        # The retried worker replays its original RNG stream, so the
        # pooled estimate is identical to the fault-free pool.
        faulty_payload = result_to_dict(faulty)
        clean_payload = result_to_dict(clean)
        faulty_payload["stats"].pop("worker_attempts")
        clean_payload["stats"].pop("worker_attempts")
        assert faulty_payload == clean_payload

    def test_repeated_crashes_escalate_backoff(self, graph):
        slept = []
        run_parallel_trials(
            graph, 30, 2, method="os", rng=5, max_attempts=3,
            faults=FaultPlan(worker_crash_attempts={1: 2}),
            sleep=slept.append,
        )
        assert len(slept) == 2
        assert 0.5 * backoff_seconds(1) <= slept[0] <= backoff_seconds(1)
        assert 0.5 * backoff_seconds(2) <= slept[1] <= backoff_seconds(2)
        assert slept[1] > slept[0]  # escalation survives the jitter


class TestPermanentFailures:
    def test_dropped_worker_degrades_pool(self, graph):
        shares = split_trials(60, 3)
        result = run_parallel_trials(
            graph, 60, 3, method="os", rng=5, max_attempts=2,
            faults=FaultPlan(worker_crash_attempts={1: 99}),
            sleep=lambda _: None,
        )
        assert result.degraded
        assert result.degraded_reason == "workers-dropped"
        assert result.n_trials == 60 - shares[1]
        assert result.target_trials == 60
        assert result.stats["workers_dropped"] == 1.0
        guarantee = result.guarantee
        assert guarantee.achieved_trials == result.n_trials
        assert guarantee.target_trials == 60
        assert guarantee.epsilon == pytest.approx(
            achievable_epsilon(0.05, result.n_trials, 0.1)
        )

    def test_straggler_is_terminated_and_retried(self, graph):
        result = run_parallel_trials(
            graph, 20, 2, method="os", rng=5,
            straggler_timeout=1.0, max_attempts=2,
            faults=FaultPlan(worker_hang_attempts={0: 1}),
            sleep=lambda _: None,
        )
        assert result.n_trials == 20
        assert not result.degraded
        assert result.stats["worker_attempts"] == 3.0

    def test_all_workers_failing_raises(self, graph):
        with pytest.raises(WorkerFailureError, match="failed permanently"):
            run_parallel_trials(
                graph, 20, 2, method="os", rng=5, max_attempts=2,
                faults=FaultPlan(worker_crash_attempts={0: 99, 1: 99}),
                sleep=lambda _: None,
            )


class TestDeterminism:
    def test_pool_matches_sequential_merge(self, graph):
        """Worker pooling is the trial-weighted merge of its shares."""
        pooled = run_parallel_trials(graph, 40, 2, method="os", rng=9)
        assert pooled.n_trials == 40
        # Same call is reproducible end to end.
        again = run_parallel_trials(graph, 40, 2, method="os", rng=9)
        assert result_to_dict(pooled) == result_to_dict(again)

    def test_zero_share_workers_are_skipped(self, graph):
        result = run_parallel_trials(graph, 2, 4, method="os", rng=9)
        assert result.n_trials == 2
        assert result.stats["worker_attempts"] == 2.0

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs forked workers to inherit the patched builder",
    )
    def test_blockless_pool_attaches_shared_index(self, graph, monkeypatch):
        """An OS pool without a block size runs the wedge kernel, so it
        must publish the wedge index and its workers must attach it:
        forked workers inherit a builder that fails if called, and the
        pool still equals the single-process runs of its shards."""
        shards = [
            ordering_sampling(graph, share, rng=stream)
            for share, stream in zip(
                split_trials(40, 2), spawn_rngs(9, 3)
            )
        ]
        expected = result_to_dict(reduce(merge_results, shards))

        def rebuilt(*args, **kwargs):
            raise AssertionError("worker rebuilt the wedge index")

        monkeypatch.setattr(
            "repro.kernels.wedge_block.build_wedge_index", rebuilt
        )
        pooled = run_parallel_trials(
            graph, 40, 2, method="os", rng=9, mp_context="fork",
            max_attempts=1,
        )
        payload = result_to_dict(pooled)
        for key in ("workers_total", "workers_dropped", "worker_attempts"):
            del payload["stats"][key]
        assert payload == expected

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs forked workers to inherit the patched limit",
    )
    def test_oversized_index_is_not_published(self, graph, monkeypatch):
        """A graph whose wedge index would exceed the memory limit gets
        no shared index; the forked workers search world by world and
        the pool still equals the single-process runs of its shards."""
        monkeypatch.setattr("repro.kernels.memory.INDEX_BYTES_LIMIT", 0)
        shards = [
            ordering_sampling(graph, share, rng=stream)
            for share, stream in zip(
                split_trials(40, 2), spawn_rngs(9, 3)
            )
        ]
        expected = result_to_dict(reduce(merge_results, shards))

        def refused(*args, **kwargs):
            raise AssertionError("built an index over the limit")

        monkeypatch.setattr(
            "repro.kernels.wedge_block.build_wedge_index", refused
        )
        pooled = run_parallel_trials(
            graph, 40, 2, method="os", rng=9, mp_context="fork",
            max_attempts=1,
        )
        payload = result_to_dict(pooled)
        for key in ("workers_total", "workers_dropped", "worker_attempts"):
            del payload["stats"][key]
        assert payload == expected
