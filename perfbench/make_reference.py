"""Write ``reference.json``: the answers benchmark queries are checked on.

Run once from the repository root (it takes several minutes)::

    python3 perfbench/make_reference.py

Per dataset it runs a high-budget batched ordering-sampling search and
lists every butterfly that won a world, with its win frequency as
evidence for ``P(B)``.  The most probable butterflies also get an
independent estimate from the conditional Monte-Carlo estimator
(:func:`repro.core.query.estimate_probability`, which searches each
world with the scalar max-weight routine rather than the wedge kernel);
the checker intersects the two intervals.  The file is committed, so
benchmark runs never recompute it.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: Ordering-sampling worlds per dataset.
OS_TRIALS = 200_000

#: Listed butterflies per dataset (most frequent winners first).
MAX_LISTED = 64

#: Top butterflies that also get a conditional estimate.
CONDITIONAL_TOP = 6

#: Conditional worlds per cross-checked butterfly.
CONDITIONAL_TRIALS = 8_000

#: Seed of every reference run (unrelated to the workload seeds).
REFERENCE_SEED = 271828


def build(config: dict) -> dict:
    from repro.core import find_mpmb
    from repro.core.query import estimate_probability
    from repro.datasets import load_dataset

    datasets = {}
    for index, name in enumerate(config["datasets"]):
        graph = load_dataset(
            name, config["profile"], rng=config["dataset_seed"]
        )
        result = find_mpmb(
            graph, method="os", n_trials=OS_TRIALS,
            rng=REFERENCE_SEED + index, block_size=256,
        )
        ranked = result.ranked()
        listed = ranked[:MAX_LISTED]
        rows = []
        for rank, (butterfly, frequency) in enumerate(listed):
            evidence = [{"p": frequency, "n": result.n_trials, "scale": 1.0}]
            existence = butterfly.existence_probability(graph)
            if rank < CONDITIONAL_TOP:
                conditional = estimate_probability(
                    graph, butterfly, CONDITIONAL_TRIALS,
                    rng=REFERENCE_SEED + 1000 * (index + 1) + rank,
                )
                evidence.append({
                    "p": conditional.conditional_probability,
                    "n": CONDITIONAL_TRIALS,
                    "scale": existence,
                })
            rows.append({
                "labels": list(butterfly.labels(graph)),
                "weight": butterfly.weight,
                "existence": existence,
                "evidence": evidence,
            })
            print(f"{name} #{rank}: {rows[-1]['labels']} "
                  f"{[e['p'] * e['scale'] for e in evidence]}",
                  file=sys.stderr)
        unlisted = ranked[MAX_LISTED][1] if len(ranked) > MAX_LISTED else 0.0
        datasets[name] = {
            "butterflies": rows,
            "unlisted": {"p": unlisted, "n": result.n_trials},
        }
    return {
        "profile": config["profile"],
        "dataset_seed": config["dataset_seed"],
        "os_trials": OS_TRIALS,
        "conditional_trials": CONDITIONAL_TRIALS,
        "seed": REFERENCE_SEED,
        "datasets": datasets,
    }


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as f:
        config = json.load(f)
    document = build(config)
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
