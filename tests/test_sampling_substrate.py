"""Tests for the sampling substrate: RNG plumbing, convergence traces,
and the Theorem IV.1 bound."""

import numpy as np
import pytest

from repro.sampling import (
    ConvergenceTrace,
    achievable_epsilon,
    checkpoint_schedule,
    ensure_rng,
    monte_carlo_trial_bound,
    spawn_rngs,
)


class TestRng:
    def test_ensure_rng_passthrough(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_ensure_rng_from_seed(self):
        a = ensure_rng(42).random()
        b = ensure_rng(42).random()
        assert a == b

    def test_ensure_rng_none(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_spawn_rngs_independent(self):
        children = spawn_rngs(7, 3)
        assert len(children) == 3
        values = [child.random() for child in children]
        assert len(set(values)) == 3


class TestConvergenceTrace:
    def test_record_and_access(self):
        trace = ConvergenceTrace(label="demo")
        trace.record(10, 0.5)
        trace.record(20, 0.4)
        assert trace.final_estimate == 0.4
        assert trace.estimates() == [0.5, 0.4]
        assert trace.trials() == [10, 20]

    def test_empty_trace(self):
        trace = ConvergenceTrace()
        assert np.isnan(trace.final_estimate)
        assert not trace.within_band(0.5, 0.1)

    def test_within_band_checks_tail_only(self):
        trace = ConvergenceTrace()
        trace.record(10, 9.0)   # wild warm-up value, ignored
        trace.record(60, 0.52)
        trace.record(100, 0.49)
        assert trace.within_band(0.5, 0.1, after_fraction=0.5)
        trace.record(110, 0.9)
        assert not trace.within_band(0.5, 0.1, after_fraction=0.5)

    def test_checkpoint_schedule(self):
        schedule = checkpoint_schedule(100, points=4)
        assert schedule == [25, 50, 75, 100]
        assert checkpoint_schedule(3, points=10) == [1, 2, 3]
        assert checkpoint_schedule(0) == []


class TestTheorem41:
    def test_paper_example(self):
        # Paper: P(B)=0.01, eps=0.1, delta=0.01 -> around 2e5 trials.
        n = monte_carlo_trial_bound(0.01, epsilon=0.1, delta=0.01)
        assert 2e5 < n < 2.5e5

    def test_paper_default_setting(self):
        # mu=0.05, eps=delta=0.1 -> the paper rounds to 2e4.
        n = monte_carlo_trial_bound(0.05, 0.1, 0.1)
        assert 2e4 < n < 2.5e4

    def test_monotonicity(self):
        assert monte_carlo_trial_bound(0.01) > monte_carlo_trial_bound(0.1)
        assert monte_carlo_trial_bound(
            0.05, epsilon=0.05
        ) > monte_carlo_trial_bound(0.05, epsilon=0.1)
        assert monte_carlo_trial_bound(
            0.05, delta=0.01
        ) > monte_carlo_trial_bound(0.05, delta=0.1)

    def test_inverse(self):
        n = monte_carlo_trial_bound(0.05, 0.1, 0.1)
        epsilon = achievable_epsilon(0.05, n, 0.1)
        assert epsilon == pytest.approx(0.1, rel=0.01)

    @pytest.mark.parametrize("mu", [0.0, -0.1, 1.1])
    def test_invalid_mu(self, mu):
        with pytest.raises(ValueError):
            monte_carlo_trial_bound(mu)
        with pytest.raises(ValueError):
            achievable_epsilon(mu, 100)

    def test_invalid_epsilon_delta(self):
        with pytest.raises(ValueError):
            monte_carlo_trial_bound(0.1, epsilon=0.0)
        with pytest.raises(ValueError):
            monte_carlo_trial_bound(0.1, delta=1.0)
        with pytest.raises(ValueError):
            achievable_epsilon(0.1, 0)
