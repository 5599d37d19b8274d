"""Resilient trial-execution runtime (checkpointing, deadlines, workers).

The paper's trial budgets (Theorem IV.1, Lemma V.2, Eq. 8) routinely
reach 10^4-10^5+ sampled worlds, which makes the sampling loop itself an
operational concern: a crash at trial 95 000 of 100 000 must not lose
the run, a wall-clock overrun must degrade gracefully instead of lying
about accuracy, and parallel workers must survive crashes and
stragglers.  This package provides that machinery, shared by all four
sampling estimators:

* :func:`~repro.runtime.engine.execute_trial_loop` — the one resilient
  outer loop (resume, periodic atomic checkpoints, deadline, Ctrl-C).
* :mod:`~repro.runtime.checkpoint` — atomic JSON snapshot I/O.
* :class:`~repro.runtime.policy.RuntimePolicy` /
  :class:`~repro.runtime.policy.Deadline` — execution knobs.
* :mod:`~repro.runtime.degradation` — re-widened ε-δ guarantees for
  partial runs.
* :func:`~repro.runtime.workers.run_parallel_trials` /
  :class:`~repro.runtime.workers.WorkerPool` — fault-tolerant
  multiprocessing trial pool with retry, backoff, and straggler
  handling, built on persistent workers attached to a shared-memory
  graph segment (:mod:`~repro.runtime.shm`).
* :mod:`~repro.runtime.faults` — deterministic fault injection, so all
  of the above is testable.
"""

from .checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_KIND,
    checkpoint_document,
    read_checkpoint,
    validate_checkpoint,
    write_checkpoint,
)
from .degradation import Guarantee, recompute_guarantee
from .engine import (
    CheckpointableLoop,
    LoopInterrupt,
    LoopReport,
    execute_trial_loop,
    require_complete,
)
from .faults import CRASH_EXIT_CODE, FaultPlan, InjectedCrash
from .policy import Deadline, RuntimePolicy
from .shm import (
    SharedGraphHandle,
    attach_shared_graph,
    graph_checksum,
    publish_graph,
)
from .workers import (
    POOLABLE_METHODS,
    WorkerPool,
    WorkerReport,
    backoff_seconds,
    run_parallel_trials,
    split_trials,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_KIND",
    "checkpoint_document",
    "read_checkpoint",
    "validate_checkpoint",
    "write_checkpoint",
    "Guarantee",
    "recompute_guarantee",
    "CheckpointableLoop",
    "LoopInterrupt",
    "LoopReport",
    "execute_trial_loop",
    "require_complete",
    "CRASH_EXIT_CODE",
    "FaultPlan",
    "InjectedCrash",
    "Deadline",
    "RuntimePolicy",
    "SharedGraphHandle",
    "attach_shared_graph",
    "graph_checksum",
    "publish_graph",
    "POOLABLE_METHODS",
    "WorkerPool",
    "WorkerReport",
    "backoff_seconds",
    "run_parallel_trials",
    "split_trials",
]
