"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload offline-fixed --seed 1 \
        --seconds 36 --trace 0

``--trace 0`` times the end-to-end metrics with no tracing attached;
``--trace 1`` is a separate run that reads the spans and counters the
program records and reports the per-layer metrics.  The workloads, their
query mixes and the held-out seed are defined in ``workloads.json``;
metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fnmatch import fnmatchcase

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from common import load_config

    config = load_config()
    workload = config["workloads"].get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; expected one "
              f"of {', '.join(config['workloads'])}", file=sys.stderr)
        return 2
    workload = dict(workload, name=args.workload)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    section = declared["per_layer" if args.trace else "end_to_end"]
    env = dict(os.environ, PYTHONPATH=SRC)

    if workload["loop"] == "open":
        import service

        try:
            outcome = service.run(config, workload, args.seed,
                                  args.seconds, bool(args.trace), env)
        except service.InvalidRun as error:
            print(f"error: invalid run: {error}", file=sys.stderr)
            return 3
    else:
        import offline

        outcome = offline.run(config, workload, args.seed, args.seconds,
                              bool(args.trace), env)

    for failure in outcome["failures"][:20]:
        print(f"failed: {failure}", file=sys.stderr)
    measured = outcome["metrics"]
    # A per-layer metric the workload cannot produce must be named, with
    # its reason, in the workload's not_measured map; it reads 0.
    skipped = workload.get("not_measured", {}) if args.trace else {}
    reasons = {
        m["name"]: next((why for pattern, why in skipped.items()
                         if fnmatchcase(m["name"], pattern)), None)
        for m in section
    }
    problems = {
        "undeclared": sorted(set(measured) - set(reasons)),
        "missing": sorted(name for name, why in reasons.items()
                          if why is None and name not in measured),
        "measured but listed as not measured": sorted(
            name for name, why in reasons.items()
            if why is not None and name in measured
        ),
    }
    for kind, names in problems.items():
        if names:
            print(f"error: {kind} metrics {names}", file=sys.stderr)
    if any(problems.values()):
        return 2
    print(f"{args.workload}: {outcome['samples']} samples, "
          f"{outcome['failed']}/{outcome['attempted']} failed")
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in section
    }
    for name, entry in metrics.items():
        if reasons[name] is None:
            print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
        else:
            print(f"  {name} = n/a: {reasons[name]}")
    print(json.dumps({
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
