"""Sampling substrate: RNG plumbing, the Karp-Luby union estimator,
convergence traces, and the Theorem IV.1 trial bound."""

from .bounds import achievable_epsilon, monte_carlo_trial_bound
from .convergence import ConvergenceTrace, checkpoint_schedule
from .karp_luby import (
    KarpLubyUnionSampler,
    UnionEstimate,
    estimate_union_probability,
    event_probability,
    exact_union_probability,
    union_probability_first_hit,
)
from .rng import (
    RngLike,
    ensure_rng,
    restore_rng_state,
    rng_state_payload,
    spawn_rngs,
)

__all__ = [
    "RngLike",
    "ensure_rng",
    "spawn_rngs",
    "rng_state_payload",
    "restore_rng_state",
    "ConvergenceTrace",
    "checkpoint_schedule",
    "KarpLubyUnionSampler",
    "UnionEstimate",
    "event_probability",
    "estimate_union_probability",
    "exact_union_probability",
    "union_probability_first_hit",
    "monte_carlo_trial_bound",
    "achievable_epsilon",
]
